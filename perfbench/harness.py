"""Closed-loop item runner and the end-to-end statistics over its item times.

One client sends one item at a time and waits for it: a CLI item is an
in-process ``nflab.cli.main(argv)`` call with stdout captured, an API item a
direct public-API call. Only the call is timed; the item's output is checked
after the clock stops. A wrong verdict, an unexpected exit code or an
exception counts as a failed item.

Items are timed on ``CLOCK``, the CPU time of this process (user + system,
all threads). The program is single-threaded and starts no processes, so on
a core of its own this equals wall time; on a shared host it leaves out the
time the host gives to other tenants. Wall time is kept next to it for the
summary.

A shared host also runs the process slower or faster, by up to 2x, for
stretches of seconds to minutes. ``Calibrator`` measures that speed next to
each item with a fixed piece of work that contains no nflab code, so each
item's time can also be stated at a reference speed.
"""
from __future__ import annotations

import contextlib
import gc
import hashlib
import importlib
import io
import itertools
import os
import statistics
import sys
import time
from pathlib import Path
from typing import List, Optional, Tuple

from workloads import Item, check_cli, run_api

CLOCK = time.process_time
ROOT = Path(__file__).resolve().parent.parent

# Calibration time spent per second of item time, in at most SPEED_WINDOW
# slices after one item; the reach, in seconds of this process's CPU time, of
# the slices that give the host's speed during an item (at least
# SPEED_REACH_S, and twice the item's own time), and the fewest slices used;
# and the CPU time of one slice at the reference speed, the speed at which
# the reported seconds are stated (the reference host's usual speed). The
# reach was chosen on recorded runs of `nfl` and `oracles`, as the one that
# steadied their metrics most.
CALIBRATION_SHARE = 0.05
SPEED_REACH_S = 1.0
SPEED_WINDOW = 16
SPEED_MIN_SLICES = 8
REFERENCE_SLICE_S = 0.005


# numpy's BLAS starts a worker thread per core, which spins after start-up
# and after calls; nflab's matrices are at most 16 x 16 and never use it. One
# BLAS thread keeps the measuring process a single thread, so CLOCK counts
# the program's work and nothing else.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def import_nflab():
    """Import nflab from this checkout's ``src`` and nowhere else, with one
    BLAS thread."""
    for name in BLAS_THREAD_VARS:
        os.environ[name] = "1"
    src = ROOT / "src"
    if not (src / "nflab" / "__init__.py").is_file():
        raise SystemExit(f"nflab sources not found under {src}")
    sys.path.insert(0, str(src))
    nflab = importlib.import_module("nflab")
    for name in ("cli", "core", "cost", "equivalence", "haar", "nfl"):
        importlib.import_module(f"nflab.{name}")
    if Path(nflab.__file__).resolve().parent != src / "nflab":
        raise SystemExit(f"imported nflab from {nflab.__file__}, not from {src}")
    return nflab


class Runner:
    """Runs items, times them and keeps the tallies the metrics are made from.

    ``tracer``, when given, wraps each item in a root span; the runner itself
    never installs wrappers. ``calibrator``, when given, runs its slices after
    each item, outside the item's time.
    """

    def __init__(self, nflab, tracer=None, calibrator: Optional[Calibrator] = None):
        self.nflab = nflab
        self.tracer = tracer
        self.calibrator = calibrator
        self.times: List[float] = []  # CPU seconds per item, on CLOCK
        self.ref_times: List[float] = []  # the same at the reference speed
        self.starts: List[float] = []  # on CLOCK
        self.wall_times: List[float] = []
        self.failures: List[Tuple[str, str]] = []
        self.report_bytes = 0
        self.reports = 0
        self.digest = hashlib.sha256()

    @property
    def attempted(self) -> int:
        return len(self.times)

    def _span(self, item: Item):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.item_span(item.kind)

    def _record_report(self, out: str) -> None:
        data = out.encode()
        self.report_bytes += len(data)
        self.reports += 1
        self.digest.update(data)

    def run(self, item: Item) -> None:
        """Time one item, then check its output after the clock stops."""
        elapsed: Optional[Tuple[float, float]] = None
        t0, wall0 = CLOCK(), time.perf_counter()
        try:
            with self._span(item):
                if item.argv:
                    buf = io.StringIO()
                    with contextlib.redirect_stdout(buf):
                        rc = self.nflab.cli.main(list(item.argv))
                else:
                    reason = run_api(self.nflab, item)
            elapsed = (CLOCK() - t0, time.perf_counter() - wall0)
            if item.argv:
                self._record_report(buf.getvalue())
                reason = check_cli(item, rc, buf.getvalue())
        except Exception as exc:  # a crash is a failed item, not a dead run
            reason = f"{type(exc).__name__}: {exc}"
        except SystemExit as exc:  # argparse rejects an argv by exiting
            reason = f"SystemExit {exc.code}"
        if elapsed is None:
            elapsed = (CLOCK() - t0, time.perf_counter() - wall0)
        self.starts.append(t0)
        self.times.append(elapsed[0])
        self.wall_times.append(elapsed[1])
        if reason is not None:
            self.failures.append((" ".join(item.argv) or item.kind, reason))
        if self.calibrator is not None:
            # A first estimate from the latest slices; ``restate`` refines it.
            self.calibrator.after_item(elapsed[0])
            self.ref_times.append(elapsed[0] * self.calibrator.scale())

    def restate(self) -> None:
        """State each item's time at the reference speed from the slices run
        within reach of it, before and after."""
        cal = self.calibrator
        self.ref_times = [t * cal.scale_near(start, start + t)
                          for start, t in zip(self.starts, self.times)]

    def run_items(self, items) -> None:
        for item in items:
            self.run(item)


_SLICE_PERMS: Tuple[Tuple[int, ...], ...] = ()


def calibration_slice() -> int:
    """Fixed interpreter work shaped like nflab's hot loops, with no nflab code:
    over 3000 permutations of 8 points, count cycles, build a sorted tuple key
    and keep the least cycle count per key in a dict. Like nflab it allocates
    small tuples, lists and dict entries, so memory contention on the host
    slows it as it slows the program."""
    global _SLICE_PERMS
    if not _SLICE_PERMS:
        _SLICE_PERMS = tuple(itertools.islice(itertools.permutations(range(8)), 3000))
    best: dict = {}
    for p in _SLICE_PERMS:
        seen = [False] * 8
        cycles = 0
        for i in range(8):
            if not seen[i]:
                cycles += 1
                j = i
                while not seen[j]:
                    seen[j] = True
                    j = p[j]
        key = tuple(sorted((p[0] + p[1], p[2] * p[3], p[4] ^ p[5], p[6] - p[7])))
        if 8 - cycles < best.get(key, 9):
            best[key] = 8 - cycles
    return len(best)


class Calibrator:
    """Measures the host's current speed with calibration slices.

    After each item it runs slices worth ``CALIBRATION_SHARE`` of the item's
    time (at least one after the first item), but at most ``SPEED_WINDOW``:
    a slow stretch right after a long item must not outweigh the slices
    around it.
    """

    def __init__(self):
        self.slices: List[float] = []
        self.starts: List[float] = []  # on CLOCK
        self._owed = 0.0
        calibration_slice()  # builds the permutations; not a measurement

    @property
    def total_s(self) -> float:
        return sum(self.slices)

    def run_slice(self) -> float:
        # The collector stays off, so the slice never pays for the program's
        # live objects; the slice itself makes no cycles.
        enabled = gc.isenabled()
        gc.disable()
        t0 = CLOCK()
        calibration_slice()
        elapsed = CLOCK() - t0
        if enabled:
            gc.enable()
        self.starts.append(t0)
        self.slices.append(elapsed)
        return elapsed

    def after_item(self, item_s: float) -> None:
        self._owed += item_s * CALIBRATION_SHARE
        for _ in range(SPEED_WINDOW):
            if self._owed <= 0:
                break
            self._owed -= self.run_slice()
        self._owed = min(self._owed, 0.0)

    def scale(self) -> float:
        """Factor from CPU seconds now to seconds at the reference speed, from
        the median of the latest slices."""
        return REFERENCE_SLICE_S / statistics.median(self.slices[-SPEED_WINDOW:])

    def scale_near(self, start: float, end: float) -> float:
        """The same for the stretch of CPU time from ``start`` to ``end``: from
        the slices run within reach of it (``SPEED_REACH_S`` or twice its
        length, whichever is more), or the ``SPEED_MIN_SLICES`` nearest ones if
        there are fewer."""
        reach = max(SPEED_REACH_S, 2 * (end - start))

        def distance(k: int) -> float:
            return max(start - self.starts[k], self.starts[k] - end, 0.0)

        near = [k for k in range(len(self.slices)) if distance(k) <= reach]
        if len(near) < SPEED_MIN_SLICES:
            near = sorted(range(len(self.slices)), key=distance)[:SPEED_MIN_SLICES]
        return REFERENCE_SLICE_S / statistics.median(self.slices[k] for k in near)


def tail_rank(count: int) -> int:
    """1-based rank of the highest order statistic with at least ten items above it."""
    return max(1, count - 10)


def item_stats(runner: Runner) -> dict:
    """Throughput, median, tail (with its percentile) and failure ratio of a
    calibrated run, from item times at the reference speed. The ``raw_`` keys
    give the CPU times as measured and the ``wall_`` keys the wall-clock
    times, for reading only."""
    times = sorted(runner.ref_times)
    rank = tail_rank(len(times))
    return {
        "items_per_s": len(times) / sum(times),
        "raw_items_per_s": len(times) / sum(runner.times),
        "wall_items_per_s": len(times) / sum(runner.wall_times),
        "item_p50_s": statistics.median(times),
        "raw_item_p50_s": statistics.median(runner.times),
        "wall_item_p50_s": statistics.median(runner.wall_times),
        "item_tail_s": times[rank - 1],
        "tail_percentile": 100.0 * rank / len(times),
        "failed_ratio": len(runner.failures) / len(times),
    }
