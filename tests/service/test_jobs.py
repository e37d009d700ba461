"""Tests for the job model: specs, the lifecycle state machine, kinds."""

import json

import pytest

from repro.service import (
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    InvalidTransition,
    JobRecord,
    JobSpec,
    get_job_kind,
    known_job_kinds,
)
from repro.service.jobs import (
    validate_campaign_spec,
    validate_falsify_spec,
    validate_replay_spec,
)
from repro.search.driver import SearchConfig


class TestJobSpec:
    def test_round_trip(self):
        spec = JobSpec(kind="campaign", spec={"seed_count": 3}, priority=5, jobs=2)
        assert JobSpec.from_dict(spec.to_dict()) == spec

    def test_defaults(self):
        spec = JobSpec.from_dict({"kind": "campaign"})
        assert spec.spec == {}
        assert spec.priority == 0
        assert spec.jobs == 1

    def test_missing_kind_raises(self):
        with pytest.raises(ValueError, match="kind"):
            JobSpec.from_dict({"spec": {}})

    def test_unknown_field_raises(self):
        with pytest.raises(ValueError, match="unknown job field"):
            JobSpec.from_dict({"kind": "campaign", "prio": 1})

    def test_non_dict_spec_raises(self):
        with pytest.raises(ValueError, match="object"):
            JobSpec.from_dict({"kind": "campaign", "spec": [1, 2]})

    def test_zero_jobs_raises(self):
        with pytest.raises(ValueError, match="jobs"):
            JobSpec(kind="campaign", jobs=0)

    def test_validate_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown job kind"):
            JobSpec(kind="mystery").validate()

    def test_builtin_kinds_registered(self):
        assert {"campaign", "falsify", "replay"} <= set(known_job_kinds())
        assert get_job_kind("campaign").validate is not None


class TestLifecycle:
    def _record(self):
        return JobRecord(id="j000001", seq=1, spec=JobSpec(kind="campaign"))

    def test_happy_path(self):
        record = self._record()
        assert record.state == QUEUED
        record.transition(RUNNING)
        record.transition(DONE, result={"ok": True})
        assert record.terminal
        assert record.result == {"ok": True}
        assert [t["state"] for t in record.transitions] == [RUNNING, DONE]

    def test_failure_records_error(self):
        record = self._record()
        record.transition(RUNNING)
        record.transition(FAILED, error="RuntimeError: boom")
        assert record.error == "RuntimeError: boom"

    def test_recovery_edge_counts(self):
        record = self._record()
        record.transition(RUNNING)
        record.transition(QUEUED)
        assert record.recovered == 1
        record.transition(RUNNING)
        record.transition(DONE)

    def test_terminal_states_reject_transitions(self):
        for terminal in (DONE, FAILED, CANCELLED):
            record = self._record()
            record.transition(RUNNING)
            record.transition(terminal)
            with pytest.raises(InvalidTransition):
                record.transition(RUNNING)

    def test_queued_cannot_complete_directly(self):
        record = self._record()
        with pytest.raises(InvalidTransition):
            record.transition(DONE)

    def test_unknown_state_rejected(self):
        record = self._record()
        with pytest.raises(InvalidTransition):
            record.transition("paused")

    def test_record_round_trip(self):
        record = self._record()
        record.transition(RUNNING)
        record.progress_done = 3
        record.progress_total = 9
        rebuilt = JobRecord.from_dict(record.to_dict())
        assert rebuilt.state == RUNNING
        assert rebuilt.spec == record.spec
        assert rebuilt.progress_done == 3
        assert rebuilt.progress_total == 9
        assert rebuilt.transitions == record.transitions


class TestKindValidation:
    def test_campaign_defaults_valid(self):
        validate_campaign_spec({})

    def test_campaign_unknown_field(self):
        with pytest.raises(ValueError, match="unknown campaign spec"):
            validate_campaign_spec({"scenario": ["nominal"]})

    def test_campaign_seeds_xor_seed_count(self):
        with pytest.raises(ValueError, match="not both"):
            validate_campaign_spec({"seeds": [1], "seed_count": 2})

    def test_campaign_bad_scenario_name(self):
        with pytest.raises(ValueError):
            validate_campaign_spec({"scenarios": ["no-such-scenario"]})

    def test_campaign_bad_options(self):
        with pytest.raises(ValueError, match="unknown campaign option"):
            validate_campaign_spec({"options": {"deadline": 100}})

    def test_campaign_empty_selection(self):
        with pytest.raises(ValueError, match="no runs"):
            validate_campaign_spec({"seeds": []})

    def test_falsify_needs_family(self):
        with pytest.raises(TypeError):
            validate_falsify_spec({"config": {}})

    def test_falsify_valid(self):
        validate_falsify_spec({"config": {"family": "crossing", "budget": 4}})

    def test_falsify_unknown_family(self):
        with pytest.raises(ValueError, match="unknown scenario family"):
            validate_falsify_spec({"config": {"family": "marsbase"}})

    def test_replay_needs_exactly_one_source(self):
        with pytest.raises(ValueError, match="exactly one"):
            validate_replay_spec({})
        with pytest.raises(ValueError, match="exactly one"):
            validate_replay_spec({"job": "j000001", "corpus": "/tmp/c.jsonl"})

    def test_replay_by_job_id_valid(self):
        validate_replay_spec({"job": "j000001", "index": 0})


class TestLegacySearchSpec:
    """Search job specs stored before block dispatch was removed carry a
    ``block_size`` key; they must still load, and nothing else unknown may."""

    @staticmethod
    def _stored_falsify_record(tmp_path, config):
        path = tmp_path / "job.json"
        path.write_text(
            json.dumps(
                {
                    "id": "j000007",
                    "seq": 7,
                    "spec": {
                        "kind": "falsify",
                        "spec": {"config": config, "trace": False},
                        "priority": 0,
                        "jobs": 2,
                    },
                }
            )
        )
        return JobRecord.from_dict(json.loads(path.read_text()))

    def test_stored_block_size_is_accepted_and_dropped(self, tmp_path):
        record = self._stored_falsify_record(
            tmp_path, {"family": "pedestrian", "budget": 12, "block_size": 3}
        )
        assert record.state == QUEUED
        record.spec.validate()
        validate_falsify_spec(record.spec.spec)
        config = SearchConfig.from_dict(record.spec.spec["config"])
        assert config == SearchConfig(family="pedestrian", budget=12)
        assert "block_size" not in config.to_dict()

    def test_other_unknown_config_key_still_rejected(self, tmp_path):
        record = self._stored_falsify_record(
            tmp_path, {"family": "pedestrian", "budget": 12, "chunk_size": 3}
        )
        with pytest.raises(ValueError, match="chunk_size"):
            record.spec.validate()
        with pytest.raises(ValueError, match="unknown SearchConfig field"):
            SearchConfig.from_dict(record.spec.spec["config"])
