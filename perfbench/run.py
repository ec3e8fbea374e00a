#!/usr/bin/env python3
"""nflab benchmark: one client, closed loop, over the public nflab API.

Run from the repository root:

    python3 perfbench/run.py --workload {classes,nfl,oracles} --seed N --seconds S --trace {0,1}

``--trace 0`` measures the end-to-end metrics, untraced, in this process.
``--trace 1`` measures the per-layer metrics. Two child processes run the
same rounds, taking turns item by item: one with every layer wrapped (see
tracer.py), one untraced. The ratio of their item times is the tracing
overhead, and no wrapper ever exists in the untraced process.

A run executes whole rounds of its workload (see workloads.py), as many as
bring its item time at the reference speed closest to ``--seconds``, so every
run has the same item mix whatever the host's speed. Times are CPU time of
the measuring process (``harness.CLOCK``), and ``--trace 0`` states them at
a reference host speed that calibration slices measure during the run
(``harness.Calibrator``). The summary lines also give them as measured and
on the wall clock.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines above it are a readable summary.
"""
from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402  (the deadline counts from before any import)
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from harness import (CLOCK, REFERENCE_SLICE_S, ROOT, SPEED_WINDOW, Calibrator, Runner,  # noqa: E402
                     import_nflab, item_stats, tail_rank)
from workloads import WORKLOADS, make_round, make_warmup  # noqa: E402

RUN_PY = Path(__file__).resolve()
OUT_DIR = RUN_PY.parent / "out"
SETUP_SAMPLES = 11  # this process plus ten fresh ones
DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_p50_s": "s",
    "item_tail_s": "s",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}


def setup(workload: str, seed: int):
    """Import nflab, generate the first round and run one untimed warm-up item.

    Returns the module, the first round, the set-up time (the CPU seconds
    this process has used since it started, interpreter start-up included)
    as measured and at the reference speed, and the calibrator that measured
    the speed, with ``SPEED_WINDOW`` slices run right after the set-up.
    """
    nflab = import_nflab()
    first_round = make_round(workload, seed, 0)
    Runner(nflab).run(make_warmup(workload, seed))
    setup_s = CLOCK()
    calibrator = Calibrator()
    for _ in range(SPEED_WINDOW):
        calibrator.run_slice()
    return nflab, first_round, {"raw": setup_s, "ref": setup_s * calibrator.scale()}, calibrator


def enough_rounds(done: int, elapsed: float, seconds: float, min_rounds: int) -> bool:
    """True once another whole round would end further from ``seconds`` than
    stopping now does."""
    return done >= min_rounds and elapsed + elapsed / done / 2 >= seconds


def print_failures(failures) -> None:
    for what, reason in failures[:20]:
        print(f"FAILED {what}: {reason}")


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": metrics})


def remaining(deadline: float) -> float:
    return max(1.0, deadline - time.perf_counter())


# ---------------------------------------------------------------------------
# --trace 0: end-to-end metrics


def measure_untraced(args, deadline: float) -> None:
    nflab, round_items, setup_s, calibrator = setup(args.workload, args.seed)
    runner = Runner(nflab, calibrator=calibrator)
    min_rounds = WORKLOADS[args.workload].min_rounds
    rounds = 0
    while True:
        runner.run_items(round_items)
        rounds += 1
        runner.restate()
        if enough_rounds(rounds, sum(runner.ref_times), args.seconds, min_rounds):
            break
        round_items = make_round(args.workload, args.seed, rounds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    setups = [setup_s]
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(child_command(args, "setup"), capture_output=True, text=True,
                              cwd=ROOT, timeout=remaining(deadline), check=True)
        setups.append(json.loads(proc.stdout))

    stats = item_stats(runner)
    values = {
        "setup_s": statistics.median(s["ref"] for s in setups),
        "items_per_s": stats["items_per_s"],
        "item_p50_s": stats["item_p50_s"],
        "item_tail_s": stats["item_tail_s"],
        # failed_ratio is 0 on a correct program; a gated metric must never be 0.
        "ok_ratio": 1.0 - stats["failed_ratio"],
        "peak_rss_mb": peak_rss_mb,
    }
    cpu_s, wall = sum(runner.times), sum(runner.wall_times)
    print(f"workload {args.workload} seed {args.seed}: {runner.attempted} items in "
          f"{rounds} rounds, {cpu_s:.2f} s CPU, {wall:.2f} s wall")
    print(f"host speed: calibration slice median {statistics.median(calibrator.slices) * 1e3:.3f}"
          f" ms over {len(calibrator.slices)} slices ({calibrator.total_s:.2f} s); times below"
          f" are at the reference speed, {REFERENCE_SLICE_S * 1e3:g} ms per slice")
    print(f"setup_s {values['setup_s']:.4f} s (median of {len(setups)} processes)")
    print(f"items_per_s {values['items_per_s']:.4f} 1/s")
    print(f"item_p50_s {values['item_p50_s']:.4f} s")
    print(f"item_tail_s {values['item_tail_s']:.4f} s (p{stats['tail_percentile']:.1f} of "
          f"{runner.attempted} items, rank {tail_rank(runner.attempted)})")
    print(f"failed_ratio {stats['failed_ratio']:.4f} ratio ({len(runner.failures)} of "
          f"{runner.attempted}); ok_ratio {values['ok_ratio']:.4f} ratio")
    print(f"peak_rss_mb {peak_rss_mb:.1f} MB")
    print(f"as measured, for reading only: items_per_s {stats['raw_items_per_s']:.4f} 1/s, "
          f"item_p50_s {stats['raw_item_p50_s']:.4f} s, setup_s "
          f"{statistics.median(s['raw'] for s in setups):.4f} s")
    print(f"wall clock, for reading only: items_per_s {stats['wall_items_per_s']:.4f} 1/s, "
          f"item_p50_s {stats['wall_item_p50_s']:.4f} s, CPU share {cpu_s / wall:.3f}")
    print(f"report_sha256 {runner.digest.hexdigest()} over {runner.reports} reports, "
          f"{runner.report_bytes} bytes")
    print_failures(runner.failures)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in END_TO_END_UNITS.items()}
    print(result_line(not runner.failures, runner.attempted, len(runner.failures), metrics))


# ---------------------------------------------------------------------------
# --trace 1: per-layer metrics from two interleaved child processes


def child_command(args, role: str) -> list:
    return [sys.executable, str(RUN_PY), "--workload", args.workload, "--seed",
            str(args.seed), "--child", role]


def child_setup(args) -> None:
    print(json.dumps(setup(args.workload, args.seed)[2]))


def child_items(args, traced: bool) -> None:
    """Serve items: read "round item" index pairs, one per stdin line, run
    that item and answer with its time (and, untraced, the host speed scale
    so far). At end of input, print the totals (and, when traced, the
    per-layer metrics) as the last line."""
    nflab, round_items, _, calibrator = setup(args.workload, args.seed)
    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer(nflab).install()
        calibrator = None
    runner = Runner(nflab, tracer, calibrator)
    print(json.dumps({"ready": True}), flush=True)
    current = 0
    cpu_s = wall = 0.0
    for line in sys.stdin:
        index, position = map(int, line.split())
        if index != current:
            round_items, current = make_round(args.workload, args.seed, index), index
        t0, cpu0 = time.perf_counter(), CLOCK()
        runner.run(round_items[position])
        wall += time.perf_counter() - t0
        cpu_s += CLOCK() - cpu0
        reply = {"item_s": runner.times[-1]}
        if calibrator is not None:
            reply["ref_s"] = runner.ref_times[-1]
        print(json.dumps(reply), flush=True)
    result = {"item_s": sum(runner.times), "attempted": runner.attempted,
              "failures": runner.failures}
    if tracer is not None:
        tracer.close()
        tracer.uninstall()
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write_spans(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
        result["missing_sites"] = tracer.missing_sites
        result["metrics"] = tracer.metrics(
            runner, {"cpu_s": cpu_s, "cpu_util": cpu_s / wall, "overhead_ratio": None})
    print(json.dumps(result))


class ItemServer:
    """A child process running items on request (see ``child_items``)."""

    def __init__(self, args, role: str, deadline: float):
        self.deadline = deadline
        self.proc = subprocess.Popen(child_command(args, role), stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True, cwd=ROOT)

    def _reply(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise SystemExit(f"child {self.proc.args[-1]} exited {self.proc.wait()}")
        return json.loads(line)

    def wait_ready(self) -> None:
        self._reply()

    def run_item(self, index: int, position: int) -> dict:
        self.proc.stdin.write(f"{index} {position}\n")
        self.proc.stdin.flush()
        return self._reply()

    def finish(self) -> dict:
        out, _ = self.proc.communicate(timeout=remaining(self.deadline))  # closes stdin
        if self.proc.returncode != 0:
            raise SystemExit(f"child {self.proc.args[-1]} exited {self.proc.returncode}")
        return json.loads(out.strip().splitlines()[-1])

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def measure_traced(args, deadline: float) -> None:
    from tracer import METRICS

    servers = [ItemServer(args, "plain", deadline), ItemServer(args, "traced", deadline)]
    try:
        for server in servers:
            server.wait_ready()
        plain, traced = servers
        rounds = 0
        # The untraced side's item time at the reference speed sets the
        # number of rounds, as in an untraced run.
        plain_s = 0.0
        while not enough_rounds(rounds, plain_s, args.seconds, 1):
            for position in range(len(make_round(args.workload, args.seed, rounds))):
                # Alternate which side goes first, so host drift hits both alike.
                for server in servers if position % 2 == 0 else servers[::-1]:
                    reply = server.run_item(rounds, position)
                    if server is plain:
                        plain_s += reply["ref_s"]
            rounds += 1
        plain_res, traced_res = plain.finish(), traced.finish()
    finally:
        for server in servers:
            server.kill()

    values = traced_res["metrics"]
    values["trace.overhead_ratio"] = traced_res["item_s"] / plain_res["item_s"] - 1.0
    failures = plain_res["failures"] + traced_res["failures"]
    attempted = plain_res["attempted"] + traced_res["attempted"]
    print(f"workload {args.workload} seed {args.seed}: {rounds} rounds, traced "
          f"{traced_res['item_s']:.2f} s and untraced {plain_res['item_s']:.2f} s of items")
    for site in traced_res["missing_sites"]:
        print(f"missing site {site}: its metrics are reported as null")
    for name, unit, _ in METRICS:
        value = values[name]
        shown = "missing" if value is None else value if unit == "count" else f"{value:.6g}"
        print(f"{name} {shown} {unit}")
    print_failures(failures)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in METRICS}
    print(result_line(not failures, attempted, len(failures), metrics))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=21.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("setup", "plain", "traced"),
                        help="internal: one measuring process of a run")
    args = parser.parse_args(argv)
    deadline = T_START + DEADLINE_S
    if args.child == "setup":
        child_setup(args)
    elif args.child:
        child_items(args, traced=args.child == "traced")
    elif args.trace:
        measure_traced(args, deadline)
    else:
        measure_untraced(args, deadline)
    return 0


if __name__ == "__main__":
    sys.exit(main())
