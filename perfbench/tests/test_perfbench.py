"""Tests of the benchmark itself: its checks catch wrong output, its expected
values hold, and its trace counts repeat exactly.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""
from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads as wl  # noqa: E402
from harness import ROOT, Runner, import_nflab, tail_rank  # noqa: E402

nflab = import_nflab()


def _rng(tag: str) -> random.Random:
    return random.Random(tag)


def small_items():
    """One cheap item of every kind the workloads use."""
    rng = _rng("small")
    return [
        wl.classes_item("small", (0, 0, 2, 1), rng),
        wl.classes_item("sampled", (1, 1, 2, 1), rng, samples=200),
        wl.classes_item("uniform", (1, 1, 1, 1), rng),
        wl.collapse_item(rng),
        wl.nfl_item("small", (0, 0, 2, 1), rng, nx=1),
        wl.nfl_item("guard", (1, 0, 1, 1), rng, "transpositions", "average", uniform_b=True),
        wl.haar_item((1, 1, 2, 1), rng),
        wl.roundtrip_item(4, rng),
        wl.coset_item((1, 1, 1, 1), True, rng),
        wl.coset_item((0, 1, 2, 1), False, rng),
        wl.scaling_item(rng),
        wl.scaling_api_item(rng),
    ]


def _contingency_tables(rows: int, row_sum: int, col_sums: tuple) -> int:
    @functools.lru_cache(maxsize=None)
    def count(rows_left: int, cols: tuple) -> int:
        if rows_left == 0:
            return int(not any(cols))

        def fill(i: int, left: int, rest: tuple) -> int:
            if i == len(cols):
                return count(rows_left - 1, rest) if left == 0 else 0
            return sum(fill(i + 1, left - m, rest + (cols[i] - m,))
                       for m in range(min(left, cols[i]) + 1))

        return fill(0, row_sum, ())

    return count(rows, tuple(col_sums))


@pytest.mark.parametrize("shape", sorted(wl.M_STAR))
def test_m_star_table_is_the_contingency_table_count(shape):
    n0, nplus, nq, ny = shape
    size = wl.num_states(shape)
    copies, support = 1 << nplus, 1 << (nplus + nq)
    cols = (copies,) * (1 << nq) + (size - support,)
    assert _contingency_tables(1 << ny, size >> ny, cols) == wl.M_STAR[shape]


def test_every_item_kind_passes_its_check():
    runner = Runner(nflab)
    runner.run_items(small_items())
    assert runner.failures == []
    assert runner.attempted == len(small_items())


def _corrupting_main(real_main, change):
    def main(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = real_main(argv)
        rc, out = change(rc, buf.getvalue())
        sys.stdout.write(out)
        return rc

    return main


def _bump_class_count(rc, out):
    report = json.loads(out)
    report["results"]["M"] += 1
    return rc, json.dumps(report)


@pytest.mark.parametrize("change", [
    _bump_class_count,
    lambda rc, out: (rc, out[: len(out) // 2]),  # truncated report
    lambda rc, out: (3, out),  # wrong exit code
])
def test_corrupted_report_or_exit_code_counts_as_failure(monkeypatch, change):
    item = wl.classes_item("small", (0, 0, 2, 1), _rng("corrupt"))
    monkeypatch.setattr(nflab.cli, "main", _corrupting_main(nflab.cli.main, change))
    runner = Runner(nflab)
    runner.run(item)
    assert runner.attempted == 1 and len(runner.failures) == 1


def test_guard_item_that_exits_zero_counts_as_failure(monkeypatch):
    item = wl.nfl_item("guard", (1, 0, 1, 1), _rng("guard"), "transpositions", "average",
                       uniform_b=True)
    monkeypatch.setattr(nflab.cli, "main",
                        _corrupting_main(nflab.cli.main, lambda rc, out: (0, out)))
    runner = Runner(nflab)
    runner.run(item)
    assert len(runner.failures) == 1


def test_wrong_api_result_counts_as_failure(monkeypatch):
    real = nflab.equivalence.same_multiplicative_class
    monkeypatch.setattr(nflab.equivalence, "same_multiplicative_class",
                        lambda p, s, shape: not real(p, s, shape))
    runner = Runner(nflab)
    runner.run(wl.coset_item((1, 1, 1, 1), True, _rng("coset")))
    assert len(runner.failures) == 1


def test_once_items_run_in_round_zero_only():
    slow = lambda index: sum(item.kind == "haar.0131" for item in wl.make_round("oracles", 5, index))  # noqa: E731
    assert (slow(0), slow(1), slow(2)) == (1, 0, 0)


def test_rounds_depend_on_the_seed_alone():
    assert wl.make_round("oracles", 5, 3) == wl.make_round("oracles", 5, 3)
    assert wl.make_round("oracles", 5, 3) != wl.make_round("oracles", 6, 3)
    kinds = lambda seed: sorted(item.kind for item in wl.make_round("classes", seed, 0))  # noqa: E731
    assert kinds(1) == kinds(2)


TRACED_COUNTS = """
import json, random, sys
sys.path.insert(0, {bench!r})
import workloads as wl
from harness import Runner, import_nflab
from tracer import Tracer
nflab = import_nflab()
rng = random.Random(7)
items = [wl.nfl_item("light", (1, 1, 1, 1), rng, "gates", "average"),
         wl.nfl_item("small", (0, 0, 2, 1), rng, nx=1),
         wl.classes_item("float", (1, 0, 2, 1), rng),
         wl.haar_item((0, 0, 3, 1), rng),
         wl.roundtrip_item(5, rng)]
t = Tracer(nflab).install()
runner = Runner(nflab, t)
runner.run_items(items)
t.close()
assert not runner.failures, runner.failures
m = t.metrics(runner, {{"cpu_s": 0.0, "cpu_util": 0.0, "overhead_ratio": 0.0}})
print(json.dumps({{k: m[k] for k in {names!r}}}))
"""
COUNT_METRICS = ["cost.model_evals", "equivalence.perms_scanned",
                 "core.permutation_constructions", "haar.oracle_calls", "cost.gates_emitted"]


def test_count_metrics_repeat_exactly_across_traced_runs():
    code = TRACED_COUNTS.format(bench=str(BENCH), names=COUNT_METRICS)
    runs = [json.loads(subprocess.run([sys.executable, "-c", code], capture_output=True,
                                      text=True, check=True, timeout=120).stdout)
            for _ in range(2)]
    assert runs[0] == runs[1]
    assert all(runs[0][name] > 0 for name in COUNT_METRICS)


def test_missing_site_is_reported_as_missing(monkeypatch):
    monkeypatch.delattr(nflab.nfl, "aggregate_cost_samp_alg")
    t = tracer.Tracer(nflab).install()
    try:
        runner = Runner(nflab, t)
        runner.run(wl.classes_item("small", (0, 0, 2, 1), _rng("missing")))
        t.close()
    finally:
        t.uninstall()
    metrics = t.metrics(runner, {"cpu_s": 0.0, "cpu_util": 0.0, "overhead_ratio": 0.0})
    assert t.missing_sites == ["nflab.nfl.aggregate_cost_samp_alg"]
    assert metrics["cost.secondary_calls"] is None
    assert metrics["cost.secondary_combos"] is None
    assert metrics["equivalence.partition_calls"] == 1
    assert not runner.failures


def test_uninstall_restores_every_site():
    before = (nflab.cli.main, nflab.cost.GateList.simulate, nflab.cli.TRANSPOSITION_MODEL,
              nflab.core.Permutation.__init__)
    t = tracer.Tracer(nflab).install()
    t.uninstall()
    after = (nflab.cli.main, nflab.cost.GateList.simulate, nflab.cli.TRANSPOSITION_MODEL,
             nflab.core.Permutation.__init__)
    assert before == after


def test_self_time_is_duration_minus_children():
    t = tracer.Tracer(nflab)
    t.spans = [["bench.item", 0.0, 10.0, -1, 0], ["cli.main", 1.0, 9.0, 0, 0],
               ["cost.aggregate", 2.0, 5.0, 1, 0], ["cost.aggregate", 5.0, 6.0, 1, 0]]
    assert t.self_times() == [2.0, 4.0, 3.0, 1.0]


def test_items_are_timed_on_cpu_time_not_wall_time(monkeypatch):
    real_main = nflab.cli.main

    def sleepy_main(argv):
        time.sleep(0.3)
        return real_main(argv)

    monkeypatch.setattr(nflab.cli, "main", sleepy_main)
    runner = Runner(nflab)
    runner.run(wl.classes_item("small", (0, 0, 2, 1), _rng("sleepy")))
    assert not runner.failures
    assert runner.wall_times[0] >= 0.3 > runner.times[0] + 0.2


# Item kinds by time class: 0 cheap, 1 the kind meant to set item_p50_s,
# 2 the kind meant to set item_tail_s, 3 slower still.
TIME_CLASSES = {
    "classes": {"classes.small": 0, "classes.sampled": 0, "collapse": 0, "classes.float": 1,
                "classes.fixture": 2, "classes.uniform": 2, "classes.collision": 2},
    "nfl": {"nfl.small": 0, "nfl.light": 1, "nfl.guard": 1, "nfl.nx1": 3},
    "oracles": {"haar.1121": 1, "haar.0031": 1, "haar.1031": 2, "haar.0131": 3},
}


@pytest.mark.parametrize("workload", sorted(TIME_CLASSES))
def test_median_and_tail_fall_inside_their_item_kinds(workload):
    classes = TIME_CLASSES[workload]
    items = [item for index in range(wl.WORKLOADS[workload].min_rounds)
             for item in wl.make_round(workload, 9, index)]
    ranked = sorted(classes.get(item.kind, 0) for item in items)
    count = len(ranked)
    assert ranked[(count - 1) // 2] == ranked[count // 2] == 1
    tail = ranked[tail_rank(count) - 1]
    assert tail == (1 if workload == "nfl" else 2)
    assert tail_rank(count) > count / 2 + 1


def test_calibration_slice_is_fixed_work():
    assert harness.calibration_slice() == harness.calibration_slice()


def test_calibrator_spends_its_share_after_each_item():
    calibrator = harness.Calibrator()
    calibrator.after_item(0.2)
    spent = calibrator.total_s
    assert spent >= 0.2 * harness.CALIBRATION_SHARE
    assert spent < 0.2 * harness.CALIBRATION_SHARE + max(calibrator.slices)
    before = len(calibrator.slices)
    calibrator.after_item(1000.0)  # a long item: capped, and the rest forgiven
    calibrator.after_item(0.0)
    assert len(calibrator.slices) - before == harness.SPEED_WINDOW


class _HalfSpeedCalibrator(harness.Calibrator):
    """Slices that take twice the reference time: a host at half speed."""

    def run_slice(self) -> float:
        self.starts.append(harness.CLOCK())
        self.slices.append(2 * harness.REFERENCE_SLICE_S)
        return self.slices[-1]


def test_item_times_are_stated_at_the_reference_speed():
    runner = Runner(nflab, calibrator=_HalfSpeedCalibrator())
    runner.run_items(small_items()[:3])
    assert runner.ref_times == pytest.approx([t / 2 for t in runner.times])
    runner.restate()
    assert runner.ref_times == pytest.approx([t / 2 for t in runner.times])
    stats = harness.item_stats(runner)
    assert stats["item_p50_s"] == pytest.approx(stats["raw_item_p50_s"] / 2)
    assert stats["items_per_s"] == pytest.approx(2 * stats["raw_items_per_s"])


def test_speed_next_to_an_item_comes_from_slices_within_reach():
    cal = harness.Calibrator()
    cal.starts = [0.0, 1.0, 5.0, 10.0, 10.5]
    cal.slices = [0.004, 0.004, 0.002, 0.008, 0.008]
    # Only the slice at 5.0 lies within reach of [5.5, 6.0]: too few, so the
    # nearest SPEED_MIN_SLICES slices (here all five) are used.
    assert cal.scale_near(5.5, 6.0) == pytest.approx(harness.REFERENCE_SLICE_S / 0.004)
    # Forty slices within reach: their median, whatever the window.
    cal.starts = [float(k) / 1000 for k in range(40)]
    cal.slices = [0.004] * 20 + [0.008] * 20
    assert cal.scale_near(0.0, 0.0) == pytest.approx(harness.REFERENCE_SLICE_S / 0.006)


def test_blas_runs_one_thread():
    assert all(os.environ[name] == "1" for name in harness.BLAS_THREAD_VARS)


def test_tail_rank_leaves_ten_items_above():
    assert tail_rank(100) == 90
    assert tail_rank(26) == 16


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END_UNITS.items())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, unit, _ in tracer.METRICS]
    assert {w["name"] for w in spec["workloads"]} <= set(wl.WORKLOADS)


def test_exits_nonzero_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "classes",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
