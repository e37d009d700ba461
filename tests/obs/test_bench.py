"""Tests for the benchmark harness and the regression gate."""

import json

import pytest

from repro.obs.bench import (
    BENCH_SCHEMA_VERSION,
    WORKLOADS,
    bench_file_name,
    compare_bench,
    discover_bench_files,
    regress,
    render_bench,
    run_workload,
    write_bench,
)
from repro.obs.cli import main


def _payload(workload="smoke", runs=2, iterations=100, runs_per_s=4.0):
    """Minimal synthetic BENCH payload exercising the gate's schema."""
    return {
        "schema": BENCH_SCHEMA_VERSION,
        "workload": workload,
        "description": "synthetic",
        "config": {"jobs": 1},
        "provenance": {},
        "counts": {"runs": runs, "iterations": iterations},
        "totals": {
            "wall_time_s": runs / runs_per_s,
            "runs_per_s": runs_per_s,
            "iterations_per_s": iterations / (runs / runs_per_s),
            "busy_time_s": runs / runs_per_s,
            "utilization": 1.0,
            "mode": "serial",
            "jobs": 1,
        },
        "phases": {},
        "engine_phases": {},
        "roles": {},
    }


class TestCompare:
    def test_identical_is_clean(self):
        payload = _payload()
        comparison = compare_bench(payload, payload, tolerance_pct=5.0)
        assert comparison.regressions == []
        assert comparison.errors == []

    def test_slowdown_beyond_tolerance_regresses(self):
        base = _payload(runs_per_s=4.0)
        slow = _payload(runs_per_s=2.0)
        comparison = compare_bench(base, slow, tolerance_pct=10.0)
        assert any("runs_per_s" in r for r in comparison.regressions)

    def test_slowdown_within_tolerance_passes(self):
        base = _payload(runs_per_s=4.0)
        slightly_slow = _payload(runs_per_s=3.9)
        comparison = compare_bench(base, slightly_slow, tolerance_pct=10.0)
        assert comparison.regressions == []

    def test_speedup_never_regresses(self):
        base = _payload(runs_per_s=4.0)
        fast = _payload(runs_per_s=40.0)
        comparison = compare_bench(base, fast, tolerance_pct=10.0)
        assert comparison.regressions == []

    def test_count_mismatch_is_incomparable(self):
        comparison = compare_bench(
            _payload(runs=2), _payload(runs=3), tolerance_pct=10.0
        )
        assert comparison.errors
        assert comparison.regressions == []


class TestRegress:
    def _write(self, tmp_path, name, payload):
        path = tmp_path / name
        path.mkdir(exist_ok=True)
        return write_bench(payload, path)

    def test_identical_inputs_exit_zero(self, tmp_path):
        path = self._write(tmp_path, "a", _payload())
        _, code = regress(path, path, 5.0)
        assert code == 0

    def test_regression_exits_two(self, tmp_path):
        base = self._write(tmp_path, "a", _payload(runs_per_s=4.0))
        curr = self._write(tmp_path, "b", _payload(runs_per_s=1.0))
        _, code = regress(base, curr, 10.0)
        assert code == 2

    def test_nothing_comparable_exits_one(self, tmp_path):
        base = self._write(tmp_path, "a", _payload(workload="smoke"))
        curr = self._write(tmp_path, "b", _payload(workload="other"))
        _, code = regress(base, curr, 10.0)
        assert code == 1

    def test_count_mismatch_exits_one(self, tmp_path):
        base = self._write(tmp_path, "a", _payload(runs=2))
        curr = self._write(tmp_path, "b", _payload(runs=3))
        _, code = regress(base, curr, 10.0)
        assert code == 1

    def test_directory_matching_by_workload(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for d in (a, b):
            d.mkdir()
            write_bench(_payload(workload="smoke"), d)
            write_bench(_payload(workload="smoke-jobs4"), d)
        comparisons, code = regress(a, b, 5.0)
        assert code == 0
        assert sorted(c.workload for c in comparisons) == ["smoke", "smoke-jobs4"]

    def test_discover_ignores_non_bench_files(self, tmp_path):
        write_bench(_payload(), tmp_path)
        (tmp_path / "other.json").write_text("{}")
        found = discover_bench_files(tmp_path)
        assert list(found) == ["smoke"]


class TestRegressCli:
    def test_exit_codes_and_report(self, tmp_path, capsys):
        base_dir, curr_dir = tmp_path / "base", tmp_path / "curr"
        base_dir.mkdir()
        curr_dir.mkdir()
        write_bench(_payload(runs_per_s=4.0), base_dir)
        write_bench(_payload(runs_per_s=1.0), curr_dir)
        assert main(["regress", str(base_dir), str(base_dir)]) == 0
        assert (
            main(
                [
                    "regress",
                    str(base_dir),
                    str(curr_dir),
                    "--tolerance-pct",
                    "10",
                ]
            )
            == 2
        )
        out = capsys.readouterr().out
        assert "REGRESSION" in out
        assert "FAIL" in out

    def test_huge_tolerance_tolerates(self, tmp_path):
        base_dir, curr_dir = tmp_path / "base", tmp_path / "curr"
        base_dir.mkdir()
        curr_dir.mkdir()
        write_bench(_payload(runs_per_s=4.0), base_dir)
        write_bench(_payload(runs_per_s=1.0), curr_dir)
        assert (
            main(
                [
                    "regress",
                    str(base_dir),
                    str(curr_dir),
                    "--tolerance-pct",
                    "900",
                ]
            )
            == 0
        )


class TestRunWorkload:
    def test_smoke_workload_payload_schema(self, tmp_path):
        payload = run_workload(WORKLOADS["smoke"])
        assert payload["schema"] == BENCH_SCHEMA_VERSION
        assert payload["workload"] == "smoke"
        assert payload["counts"]["runs"] == 2
        assert payload["counts"]["iterations"] > 0
        assert payload["totals"]["runs_per_s"] > 0
        assert payload["totals"]["mode"] == "serial"
        assert payload["phases"]["role.Generator"]["count"] > 0
        assert payload["roles"]["Generator"]["p99_ms"] >= 0.0
        path = write_bench(payload, tmp_path)
        assert path.name == bench_file_name("smoke")
        assert json.loads(path.read_text())["workload"] == "smoke"
        assert "throughput" in render_bench(payload)

    def test_unknown_repeat_rejected(self):
        with pytest.raises(ValueError):
            run_workload(WORKLOADS["smoke"], repeat=0)

    def test_bench_cli_unknown_workload(self, capsys):
        assert main(["bench", "no-such-workload"]) == 1
        assert "unknown workload" in capsys.readouterr().err


class TestSearchWorkload:
    def test_pinned_search_workload_registered(self):
        workload = WORKLOADS["search"]
        assert workload.kind == "search"
        assert workload.quick
        config = workload.config()
        assert config == {
            "kind": "search",
            "family": "pedestrian",
            "budget": 12,
            "search_seed": 0,
            "jobs": 1,
        }

    def test_campaign_config_shape_unchanged(self):
        config = WORKLOADS["smoke"].config()
        assert "kind" not in config
        assert set(config) == {
            "scenarios", "seeds", "jobs", "deadline_ms", "breaker",
        }

    def test_search_workload_payload_schema(self, tmp_path):
        from repro.obs.bench import Workload

        workload = Workload(
            name="search-tiny",
            description="tiny falsification pass",
            scenarios=(),
            seeds=(),
            jobs=1,
            kind="search",
            family="pedestrian",
            budget=4,
            search_seed=0,
        )
        payload = run_workload(workload)
        assert payload["workload"] == "search-tiny"
        assert payload["counts"]["runs"] >= 4
        assert payload["counts"]["iterations"] > 0
        assert payload["totals"]["runs_per_s"] > 0
        assert payload["totals"]["mode"] == "serial"
        assert "search.evaluate" in payload["engine_phases"]
        assert payload["phases"]["role.Generator"]["count"] > 0
        path = write_bench(payload, tmp_path)
        assert json.loads(path.read_text())["config"]["kind"] == "search"
        assert "throughput" in render_bench(payload)
