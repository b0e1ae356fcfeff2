"""Unit tests for the benchmark regression gate.

``benchmarks/check_bench_regression.py`` is plumbing that only runs in CI,
so its failure modes -- the A/B rule on perfbench result lines, micro-row
tolerance math, the same-run speedup floors -- are pinned down here with
synthetic reports instead of real measurements.
"""

import importlib.util
import json
import os
import sys

import pytest

_GATE_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "benchmarks", "check_bench_regression.py",
)
_spec = importlib.util.spec_from_file_location("check_bench_regression", _GATE_PATH)
gate = importlib.util.module_from_spec(_spec)
sys.modules.setdefault("check_bench_regression", gate)
_spec.loader.exec_module(gate)


def make_report(results, summary=None):
    report = {"results": results}
    if summary is not None:
        report["summary"] = summary
    return report


BASE_RESULTS = {
    "adversarial_search": {
        "config": {"budget": 8},
        "ttfs": {"search_seconds_per_sample": 0.040, "candidates_per_sec": 9000.0},
        "ttas3": {"search_seconds_per_sample": 0.060, "candidates_per_sec": 6000.0},
    },
}

#: The real workloads and end-to-end metrics the gate reads.
with open(gate.BENCHMARK_PATH, encoding="utf-8") as _handle:
    BENCHMARK = json.load(_handle)
METRICS = {metric["name"]: metric for metric in BENCHMARK["end_to_end"]}
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]

#: One perfbench run's metric values; every workload reports all four.
STEADY = {"setup_s": 1.0, "samples_per_s": 500.0, "p50_ms": 60.0,
          "peak_rss_mb": 200.0}


def result_line(values=STEADY, attempted=10, failed=0):
    return json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": METRICS[name]["unit"]}
                    for name, value in values.items()},
    })


def write_side(directory, runs, workloads=WORKLOADS, hot_paths=BASE_RESULTS):
    """Write one side of an A/B run: ``runs`` maps pair -> stdout text."""
    directory.mkdir(parents=True, exist_ok=True)
    for workload in workloads:
        for pair, text in enumerate(runs, start=1):
            (directory / f"{workload}.{pair}.out").write_text(
                '{"details": {}}\n' + text + "\n" if text else ""
            )
    (directory / gate.HOT_PATHS).write_text(json.dumps(make_report(hot_paths)))
    return str(directory)


def scaled(**factors):
    return dict(STEADY, **{name: STEADY[name] * f for name, f in factors.items()})


def ab(tmp_path, parent_runs, change_runs):
    return gate.compare_perfbench(
        write_side(tmp_path / "parent", parent_runs),
        write_side(tmp_path / "head", change_runs),
        BENCHMARK,
    )


class TestABRule:
    def test_directions_come_from_benchmark_json(self):
        assert METRICS["samples_per_s"]["better"] == "higher"
        assert METRICS["p50_ms"]["better"] == "lower"
        bound = METRICS["p50_ms"]["bound"]
        assert gate.judge_metric([60.0] * 5, [60.0 * (1 + 2 * bound)] * 5,
                                 "lower", bound)[0] == "FAIL"
        assert gate.judge_metric([60.0] * 5, [60.0 * (1 - 2 * bound)] * 5,
                                 "lower", bound)[0] == "ok"
        bound = METRICS["samples_per_s"]["bound"]
        assert gate.judge_metric([500.0] * 5, [500.0 * (1 - 2 * bound)] * 5,
                                 "higher", bound)[0] == "FAIL"
        assert gate.judge_metric([500.0] * 5, [500.0 * (1 + 2 * bound)] * 5,
                                 "higher", bound)[0] == "ok"

    def test_identical_runs_pass(self, tmp_path):
        line = result_line()
        ok, table = ab(tmp_path, [line] * 5, [line] * 5)
        assert ok, table
        assert "FAIL" not in table and "UNRESOLVED" not in table

    def test_lower_throughput_beyond_bound_fails_and_names_it(self, tmp_path):
        ok, table = ab(tmp_path, [result_line()] * 5,
                       [result_line(scaled(samples_per_s=0.66))] * 5)
        assert not ok
        assert "sweep-transport samples_per_s" in table
        assert "p50_ms" not in table.split("FAIL:")[-1]

    def test_higher_latency_beyond_bound_fails(self, tmp_path):
        ok, table = ab(tmp_path, [result_line()] * 5,
                       [result_line(scaled(p50_ms=1.5))] * 5)
        assert not ok
        assert "paper-window p50_ms" in table

    def test_improvements_pass(self, tmp_path):
        faster = scaled(samples_per_s=2.0, p50_ms=0.5, setup_s=0.5, peak_rss_mb=0.5)
        ok, table = ab(tmp_path, [result_line()] * 5, [result_line(faster)] * 5)
        assert ok, table

    def test_worse_within_bound_passes(self, tmp_path):
        # 10% slower on a 0.25 bound; peak RSS 5% up on its 0.1 bound.
        ok, table = ab(tmp_path, [result_line()] * 5,
                       [result_line(scaled(samples_per_s=0.9, p50_ms=1.1,
                                           peak_rss_mb=1.05))] * 5)
        assert ok, table

    def test_tighter_bound_applies_per_metric(self, tmp_path):
        # 15% more memory is within the time bounds but not peak_rss_mb's 0.1.
        ok, table = ab(tmp_path, [result_line()] * 5,
                       [result_line(scaled(peak_rss_mb=1.15))] * 5)
        assert not ok
        assert "peak_rss_mb" in table.split("FAIL:")[-1]

    def test_wide_parent_spread_is_unresolved_not_failed(self, tmp_path):
        # Parent quartiles 300..700 around a median of 500: a 0.8 spread,
        # wider than the 0.25 bound, so a 10% drop cannot be told apart.
        parent = [result_line(dict(STEADY, samples_per_s=v))
                  for v in (200.0, 300.0, 500.0, 700.0, 800.0)]
        ok, table = ab(tmp_path, parent,
                       [result_line(scaled(samples_per_s=0.9))] * 5)
        assert ok, table
        assert "UNRESOLVED" in table
        assert "sweep-timestep samples_per_s" in table.split("UNRESOLVED")[-1]

    def test_wide_spread_does_not_hide_a_large_regression(self, tmp_path):
        parent = [result_line(dict(STEADY, samples_per_s=v))
                  for v in (200.0, 300.0, 500.0, 700.0, 800.0)]
        ok, _ = ab(tmp_path, parent, [result_line(scaled(samples_per_s=0.5))] * 5)
        assert not ok

    def test_larger_failed_share_fails(self, tmp_path):
        change = [result_line()] * 4 + [result_line(failed=1)]
        ok, table = ab(tmp_path, [result_line()] * 5, change)
        assert not ok
        assert "serve-mixed failed share" in table

    def test_equal_failed_share_passes(self, tmp_path):
        runs = [result_line()] * 4 + [result_line(failed=1)]
        ok, table = ab(tmp_path, runs, runs)
        assert ok, table

    def test_run_without_result_line_counts_as_all_failed(self, tmp_path):
        crashed = "Traceback (most recent call last):\nRuntimeError: boom"
        assert gate.result_line(crashed) is None
        assert gate.result_line("") is None
        assert gate.failed_share([None, json.loads(result_line())]) == 0.5
        ok, table = ab(tmp_path, [result_line()] * 5,
                       [result_line()] * 4 + [crashed])
        assert not ok
        assert "failed share" in table.split("FAIL:")[-1]

    def test_change_with_no_results_fails(self, tmp_path):
        ok, _ = ab(tmp_path, [result_line()] * 3, ["", "", ""])
        assert not ok

    def test_quartiles(self):
        assert gate.quartiles([3.0]) == (3.0, 3.0, 3.0)
        assert gate.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)


class TestLeafRegression:
    def test_identical_reports_pass(self):
        ok, table = gate.compare(make_report(BASE_RESULTS),
                                 make_report(BASE_RESULTS), tolerance=1.5)
        assert ok, table
        assert "OK" in table

    def test_regressed_leaf_fails(self):
        candidate = json.loads(json.dumps(BASE_RESULTS))
        candidate["adversarial_search"]["ttfs"]["search_seconds_per_sample"] = 0.4
        ok, table = gate.compare(make_report(BASE_RESULTS),
                                 make_report(candidate), tolerance=1.5)
        assert not ok
        assert "adversarial_search.ttfs.search_seconds_per_sample" in table
        assert "REGRESSED" in table

    def test_missing_leaf_fails(self):
        candidate = json.loads(json.dumps(BASE_RESULTS))
        del candidate["adversarial_search"]["ttas3"]
        ok, table = gate.compare(make_report(BASE_RESULTS),
                                 make_report(candidate), tolerance=1.5)
        assert not ok
        assert "MISSING" in table

    def test_new_candidate_section_is_allowed(self):
        candidate = dict(BASE_RESULTS, extra={"fast": {"run": 0.001}})
        ok, _ = gate.compare(make_report(BASE_RESULTS),
                             make_report(candidate), tolerance=1.5)
        assert ok

    def test_rates_are_not_read_as_timings(self):
        # candidates_per_sec is higher-is-better: halving it is a slowdown
        # the seconds leaf already shows, not a 2x "speedup" to judge.
        assert dict(gate.iter_timings(BASE_RESULTS)) == {
            "adversarial_search.ttfs.search_seconds_per_sample": 0.040,
            "adversarial_search.ttas3.search_seconds_per_sample": 0.060,
        }


class TestShardSpeedupFloor:
    def test_meets_floor(self):
        ok, message = gate.check_shard_speedup(
            make_report(BASE_RESULTS, summary={"cell_sharding_speedup": 3.1}),
            2.5,
        )
        assert ok
        assert "3.10x" in message

    def test_below_floor_fails(self):
        ok, message = gate.check_shard_speedup(
            make_report(BASE_RESULTS, summary={"cell_sharding_speedup": 1.1}),
            2.5,
        )
        assert not ok
        assert "1.10x" in message and "2.50x" in message

    def test_absent_summary_key_fails(self):
        ok, message = gate.check_shard_speedup(make_report(BASE_RESULTS), 2.5)
        assert not ok
        assert "cell_sharding_speedup" in message

    @staticmethod
    def sharded_report(cpu_count, speedup):
        results = dict(BASE_RESULTS,
                       cell_sharding={"config": {"cpu_count": cpu_count}})
        return make_report(results, summary={"cell_sharding_speedup": speedup})

    def test_skipped_below_four_cpus(self):
        # Four shards cannot run in parallel on two cores: the floor would
        # judge the runner, not the code, so the check passes as skipped.
        ok, message = gate.check_shard_speedup(self.sharded_report(2, 0.13), 2.5)
        assert ok
        assert message == "cell-sharding speedup skipped: 2 cpus < 4 shards"

    def test_enforced_from_four_cpus(self):
        ok, message = gate.check_shard_speedup(self.sharded_report(4, 1.1), 2.5)
        assert not ok
        assert "1.10x" in message and "2.50x" in message
        ok, _ = gate.check_shard_speedup(self.sharded_report(8, 3.0), 2.5)
        assert ok

    def test_cell_sharding_wall_clocks_are_not_leaf_gated(self):
        # The section's absolute timings are core-count-bound; only the
        # same-run speedup ratio is judged (via check_shard_speedup).
        results = {"cell_sharding": {
            "config": {"cpu_count": 4},
            "cell_seconds": {"shards_1": 4.0, "shards_4": 1.2},
            "speedup_over_unsharded": {"shards_1": 1.0, "shards_4": 3.3},
        }}
        assert dict(gate.iter_timings(results)) == {}


class TestServingSpeedupFloor:
    def test_meets_floor(self):
        ok, message = gate.check_serving_speedup(
            make_report(BASE_RESULTS, summary={"serving_speedup": 3.6}),
            3.0,
        )
        assert ok
        assert "3.60x" in message

    def test_below_floor_fails(self):
        ok, message = gate.check_serving_speedup(
            make_report(BASE_RESULTS, summary={"serving_speedup": 1.2}),
            3.0,
        )
        assert not ok
        assert "1.20x" in message and "3.00x" in message

    def test_absent_summary_key_fails(self):
        ok, message = gate.check_serving_speedup(make_report(BASE_RESULTS), 3.0)
        assert not ok
        assert "serving_speedup" in message

    def test_serving_wall_clocks_are_not_leaf_gated(self):
        # The section's absolutes are concurrency/core-count-bound; only
        # the same-run throughput ratio is judged (check_serving_speedup).
        results = {"serving": {
            "config": {"clients": 32, "cpu_count": 4},
            "transport": {"sequential_p50": 0.002, "batched_p50": 0.008,
                          "throughput_speedup": 3.6},
        }}
        assert dict(gate.iter_timings(results)) == {}


class TestMainExitCodes:
    def sides(self, tmp_path, change_runs=None, change_hot_paths=BASE_RESULTS,
              summary=None):
        parent = write_side(tmp_path / "parent", [result_line()] * 3)
        head = write_side(tmp_path / "head", change_runs or [result_line()] * 3,
                          hot_paths=change_hot_paths)
        if summary is not None:
            (tmp_path / "head" / gate.HOT_PATHS).write_text(
                json.dumps(make_report(change_hot_paths, summary=summary)))
        return ["--baseline", parent, "--candidate", head]

    def test_ok_run_exits_zero(self, tmp_path, capsys):
        assert gate.main(self.sides(tmp_path)) == 0
        assert "OK" in capsys.readouterr().out

    def test_regression_exits_one(self, tmp_path, capsys):
        slow = [result_line(scaled(samples_per_s=0.5))] * 3
        assert gate.main(self.sides(tmp_path, change_runs=slow)) == 1
        assert "samples_per_s" in capsys.readouterr().out

    def test_micro_regression_exits_one(self, tmp_path, capsys):
        slower = json.loads(json.dumps(BASE_RESULTS))
        slower["adversarial_search"]["ttas3"]["search_seconds_per_sample"] = 0.6
        assert gate.main(self.sides(tmp_path, change_hot_paths=slower)) == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_shard_speedup_floor_gates_main(self, tmp_path, capsys):
        args = self.sides(tmp_path, summary={"cell_sharding_speedup": 2.0})
        assert gate.main(args) == 0  # floor off by default
        assert gate.main(args + ["--min-shard-speedup", "2.5"]) == 1
        assert gate.main(args + ["--min-shard-speedup", "1.5"]) == 0
        # The floors need no baseline.
        assert gate.main(args[2:] + ["--min-shard-speedup", "2.5"]) == 1
        capsys.readouterr()

    def test_serving_speedup_floor_gates_main(self, tmp_path, capsys):
        args = self.sides(tmp_path, summary={"serving_speedup": 2.0})
        assert gate.main(args) == 0  # floor off by default
        assert gate.main(args + ["--min-serving-speedup", "3"]) == 1
        assert gate.main(args + ["--min-serving-speedup", "1.5"]) == 0
        assert gate.main(args[2:] + ["--min-serving-speedup", "1.5"]) == 0
        capsys.readouterr()

    def test_missing_parent_micro_report_skips_only_the_micro_rows(
        self, tmp_path, capsys
    ):
        # bench_ab.sh leaves the parent's report out when the change edits
        # the micro script: the perfbench pairs are still judged.
        args = self.sides(tmp_path)
        (tmp_path / "parent" / gate.HOT_PATHS).unlink()
        assert gate.main(args) == 0
        out = capsys.readouterr().out
        assert "micro comparison skipped" in out and "micro row" not in out
        slow = self.sides(tmp_path / "slow",
                          change_runs=[result_line(scaled(samples_per_s=0.5))] * 3)
        (tmp_path / "slow" / "parent" / gate.HOT_PATHS).unlink()
        assert gate.main(slow) == 1
        assert "samples_per_s" in capsys.readouterr().out

    def test_bad_tolerance_exits_two(self, tmp_path, capsys):
        assert gate.main(self.sides(tmp_path) + ["--tolerance", "-1"]) == 2
        capsys.readouterr()

    def test_nothing_to_check_exits_two(self, tmp_path, capsys):
        assert gate.main(self.sides(tmp_path)[2:]) == 2
        capsys.readouterr()

    def test_unreadable_report_exits_two(self, tmp_path, capsys):
        args = self.sides(tmp_path)
        assert gate.main(args[:2] + ["--candidate", str(tmp_path / "absent")]) == 2
        capsys.readouterr()


@pytest.mark.parametrize("results,expected", [
    ({"a": {"x": 0.5}, "serving": {"transport": {"batched_p50": 0.01}}},
     {"a.x": 0.5}),
    ({"a": {"config": {"x": 0.5}}}, {}),
    ({"a": {"candidates_per_sec": 10.0, "b": {"c": 1.0}}}, {"a.b.c": 1.0}),
])
def test_iter_timings_filters(results, expected):
    assert dict(gate.iter_timings(results)) == expected
