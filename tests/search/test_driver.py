"""Tests for the search driver: falsification, determinism, resume."""

import json
import shutil

from repro.search import (
    CORPUS_FILE_NAME,
    COVERAGE_FILE_NAME,
    SEARCH_JOURNAL_NAME,
    SEARCH_TRACE_NAME,
    SearchConfig,
    SearchDriver,
    load_corpus,
    load_coverage,
)

ARTIFACTS = (CORPUS_FILE_NAME, COVERAGE_FILE_NAME, SEARCH_TRACE_NAME, "summary.json")


class TestFalsify:
    def test_finds_counterexample(self, falsify_run):
        result, _ = falsify_run
        assert result.counterexamples
        entry = result.counterexamples[0]
        assert entry.robustness < 0.0
        assert entry.minimized_robustness < 0.0
        assert result.best_robustness is not None
        assert result.best_robustness < 0.0

    def test_minimization_reverts_toward_nominal(self, falsify_run):
        result, _ = falsify_run
        entry = result.counterexamples[0]
        assert entry.reverted_dims
        assert entry.minimized_params != entry.params
        # The minimized counterexample lies outside the default jitter of
        # the seed builders: the search found something the six seed
        # scenarios could not produce.
        assert entry.outside_default_jitter

    def test_budget_respected_by_search_phase(self, falsify_run):
        result, _ = falsify_run
        # Minimization probes legitimately exceed the sampling budget;
        # the trace distinguishes candidates (sampled) from evaluations.
        assert len(result.evaluations) >= result.config.budget

    def test_coverage_tracks_all_evaluations(self, falsify_run):
        result, _ = falsify_run
        total = sum(
            cell["count"] for cell in result.coverage.to_payload()["cells"].values()
        )
        assert total == len(result.evaluations)
        assert 0 < result.coverage.occupied <= result.coverage.total_cells

    def test_artifacts_round_trip(self, falsify_run):
        result, out_dir = falsify_run
        corpus = load_corpus(out_dir / CORPUS_FILE_NAME)
        assert [e.to_dict() for e in corpus] == [
            e.to_dict() for e in result.counterexamples
        ]
        coverage = load_coverage(out_dir / COVERAGE_FILE_NAME)
        assert coverage.to_payload() == result.coverage.to_payload()
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["counterexamples"] == len(result.counterexamples)
        assert summary["evaluations"] == len(result.evaluations)


class TestDeterminism:
    def test_jobs_do_not_change_artifacts(self, falsify_run, tmp_path):
        _, serial_dir = falsify_run
        out_dir = tmp_path / "jobs2"
        config = SearchConfig(
            family="pedestrian", mode="falsify", seed=0, budget=12, jobs=2
        )
        SearchDriver(config, out_dir=out_dir, progress=None).run()
        for name in ARTIFACTS:
            assert (out_dir / name).read_bytes() == (
                serial_dir / name
            ).read_bytes(), f"{name} differs between jobs=1 and jobs=2"

    def test_resume_replays_journal(self, falsify_run, tmp_path):
        result, serial_dir = falsify_run
        out_dir = tmp_path / "resumed"
        shutil.copytree(serial_dir, out_dir)
        journal_before = (out_dir / SEARCH_JOURNAL_NAME).read_bytes()
        config = SearchConfig(family="pedestrian", mode="falsify", seed=0, budget=12)
        resumed = SearchDriver(
            config, out_dir=out_dir, resume=True, progress=None
        ).run()
        assert (out_dir / SEARCH_JOURNAL_NAME).read_bytes() == journal_before
        assert resumed.evaluations == result.evaluations
        for name in ARTIFACTS:
            assert (out_dir / name).read_bytes() == (serial_dir / name).read_bytes()

    def test_fresh_start_discards_stale_journal(self, tmp_path):
        out_dir = tmp_path / "fresh"
        out_dir.mkdir()
        (out_dir / SEARCH_JOURNAL_NAME).write_text('{"not": "a journal"}\n')
        config = SearchConfig(family="pedestrian", mode="explore", seed=1, budget=2)
        result = SearchDriver(config, out_dir=out_dir, progress=None).run()
        assert len(result.evaluations) == 2


class TestTrace:
    def test_search_trace_self_certifies(self, falsify_run):
        from repro.obs.trace import load_trace, recompute_search_counts, verify_search_trace

        _, out_dir = falsify_run
        trace = load_trace(out_dir / SEARCH_TRACE_NAME)
        consistent, mismatches = verify_search_trace(trace)
        assert consistent and mismatches == []
        counts = recompute_search_counts(trace)
        assert counts["counterexamples"] >= 1
        assert counts["evaluations"] > counts["candidates"] > 0
