"""Tests for the STL-robustness objective layer."""

import pytest

from repro.experiments.campaign import CampaignOptions
from repro.search.objective import (
    Evaluation,
    candidate_key,
    decode_evaluation,
    encode_evaluation,
    evaluate_spec,
    execute_search_unit,
    run_spec,
    search_unit,
)
from repro.search.space import get_space


@pytest.fixture(scope="module")
def nominal_evaluation():
    space = get_space("pedestrian")
    params = space.nominal_params()
    spec = space.to_spec(params, seed=0)
    return evaluate_spec(
        "test:nominal", "pedestrian", params, spec, CampaignOptions()
    )


class TestEvaluateSpec:
    def test_fields(self, nominal_evaluation):
        e = nominal_evaluation
        assert e.key == "test:nominal"
        assert e.family == "pedestrian"
        assert e.iterations > 0
        assert isinstance(e.robustness, float)
        assert e.falsified == (e.robustness < 0.0)

    def test_deterministic(self, nominal_evaluation):
        space = get_space("pedestrian")
        params = space.nominal_params()
        again = evaluate_spec(
            "test:nominal",
            "pedestrian",
            params,
            space.to_spec(params, seed=0),
            CampaignOptions(),
        )
        assert again == nominal_evaluation

    def test_run_spec_returns_frames(self):
        space = get_space("pedestrian")
        spec = space.to_spec(space.nominal_params(), seed=0)
        result, frames = run_spec(spec, CampaignOptions())
        assert result.iterations == len(frames) > 0
        assert "min_separation" in frames[0].world


class TestWorkerPayload:
    def test_execute_search_unit_matches_direct(self, nominal_evaluation):
        space = get_space("pedestrian")
        params = space.nominal_params()
        unit = search_unit(
            "test:nominal", "pedestrian", params, 0, CampaignOptions()
        )
        assert execute_search_unit(unit.payload) == nominal_evaluation

    def test_encode_decode_round_trip(self, nominal_evaluation):
        data = encode_evaluation(nominal_evaluation)
        assert decode_evaluation(data) == nominal_evaluation
        assert isinstance(data["params"], dict)


class TestCandidateKey:
    def test_ordinal_distinguishes_repeats(self):
        space = get_space("ghost")
        params = space.nominal_params()
        a = candidate_key("ghost", 0, 1, params)
        b = candidate_key("ghost", 0, 2, params)
        assert a != b

    def test_params_change_fingerprint(self):
        space = get_space("ghost")
        params = space.nominal_params()
        a = candidate_key("ghost", 0, 1, params)
        params["attack_intensity"] = 0.9
        b = candidate_key("ghost", 0, 1, params)
        assert a != b
