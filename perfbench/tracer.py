"""Per-layer tracing from outside the program.

The tracer replaces public functions at the module attributes through which
they are called (``nflab.nfl.aggregate_cost``, ``nflab.cli.count_classes``,
...) with wrappers that record spans, and hands the CLI counted cost models.
No file of the program changes. Install it only in a process of its own: the
wrappers stay in place until ``uninstall``.

* A span is recorded per call at call granularity: name, start, end, parent
  span, item id. Spans stay in memory and are written out once, at the end.
* Per-permutation calls (cost-model evaluations, ``Permutation``
  construction) keep counts and total time only.
* A span's self time is its duration minus its children's.
* Spans and counters are timed on ``harness.CLOCK``, the clock the items are
  timed on, so self times add up to the item times.
* A site whose attribute no longer exists is skipped, and every metric that
  depends on it is reported as missing (``None``), never as zero.
"""
from __future__ import annotations

import contextlib
import functools
import json
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

from harness import CLOCK

LAYERS = ("bench", "cli", "nfl", "equivalence", "cost", "haar", "core")


def _partition_extra(result) -> Dict[str, int]:
    return {"perms": sum(info.count for info in result.classes.values()),
            "classes": result.num_classes}


# (module, attribute, span name, extra counters taken from the return value).
# A module of the form "cost.GateList" names a class inside nflab.cost.
SPAN_SITES: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("cli", "main", "cli.main", None),
    ("cli", "nfl_compare", "nfl.compare", None),
    ("cli", "distribution_class_partition", "equivalence.partition", _partition_extra),
    ("nfl", "distribution_class_partition", "equivalence.partition", _partition_extra),
    ("cli", "count_classes", "equivalence.count_classes", None),
    ("nfl", "count_classes", "equivalence.count_classes", None),
    ("equivalence", "multiplicity_key", "equivalence.multiplicity_key", None),
    ("cost", "multiplicity_key", "equivalence.multiplicity_key", None),
    ("equivalence", "double_coset_oracle", "equivalence.double_coset", None),
    ("nfl", "aggregate_cost", "cost.aggregate", None),
    ("cost", "aggregate_cost", "cost.aggregate", None),
    ("nfl", "aggregate_cost_samp_alg", "cost.secondary",
     lambda r: {"combos": r.num_secondary_classes}),
    ("cost", "compile_permutation", "cost.compile", lambda r: {"gates": len(r.gates)}),
    ("cost.GateList", "simulate", "cost.simulate", lambda r: {"rows": r.size}),
    ("cli", "scaling_experiment", "cost.scaling", None),
    ("cost", "scaling_experiment", "cost.scaling", None),
    ("cli", "sample_haar_qr", "haar.sample", None),
    ("cli", "sample_haar_rayleigh", "haar.sample", None),
    ("cli", "is_distinct", "haar.distinct", None),
    ("nfl", "is_distinct", "haar.distinct", None),
    ("cli", "is_strongly_distinct_fast", "haar.fast",
     lambda r: {"yes": int(r.value == "yes")}),
    ("cli", "strong_distinct_oracle", "haar.oracle", None),
    ("nfl", "strong_distinct_oracle", "haar.oracle", None),
    ("cli", "build_input_state", "core.build_input", None),
    ("equivalence", "build_input_state", "core.build_input", None),
    ("cli", "output_distribution", "core.output_distribution", None),
)
# Counter-only sites ("model", "permutation"): the CLI's two cost-model entry
# points, which hand out counted models, and Permutation construction.
PERMUTATION_SITE = ("core.Permutation", "__init__")


def _span_metrics(span: str, prefix: str, calls: bool = True, total: bool = True,
                  self_time: bool = False) -> List[Tuple[str, str, tuple]]:
    out = []
    if calls:
        out.append((f"{prefix}_calls", "count", ("calls", span)))
    if total:
        out.append((f"{prefix}_s", "s", ("total", span)))
    if self_time:
        out.append((f"{prefix}_self_s", "s", ("self", span)))
    return out


# (metric name, unit, how to compute it). Order is the report order.
METRICS: List[Tuple[str, str, tuple]] = [
    ("cli.calls", "count", ("calls", "cli.main")),
    ("cli.self_s", "s", ("self", "cli.main")),
    ("cli.report_bytes", "bytes", ("runner", "report_bytes")),
    *_span_metrics("nfl.compare", "nfl.compare", self_time=True),
    *_span_metrics("equivalence.partition", "equivalence.partition"),
    ("equivalence.perms_scanned", "count", ("extra", "equivalence.partition", "perms")),
    ("equivalence.perms_per_s", "1/s", ("rate", "equivalence.partition", "perms")),
    ("equivalence.classes_found", "count", ("extra", "equivalence.partition", "classes")),
    *_span_metrics("equivalence.count_classes", "equivalence.count_classes", calls=False),
    *_span_metrics("equivalence.multiplicity_key", "equivalence.multiplicity_key"),
    *_span_metrics("equivalence.double_coset", "equivalence.double_coset"),
    *_span_metrics("cost.aggregate", "cost.aggregate"),
    ("cost.model_evals", "count", ("counter", "model", "calls")),
    ("cost.model_eval_s", "s", ("counter", "model", "seconds")),
    ("cost.eval_distinct_ratio", "ratio", ("distinct_ratio", "model")),
    *_span_metrics("cost.secondary", "cost.secondary", total=False, self_time=True),
    ("cost.secondary_combos", "count", ("extra", "cost.secondary", "combos")),
    *_span_metrics("cost.compile", "cost.compile"),
    ("cost.gates_emitted", "count", ("extra", "cost.compile", "gates")),
    *_span_metrics("cost.simulate", "cost.simulate"),
    ("cost.simulate_rows", "count", ("extra", "cost.simulate", "rows")),
    *_span_metrics("cost.scaling", "cost.scaling", calls=False),
    *_span_metrics("haar.sample", "haar.sample"),
    *_span_metrics("haar.distinct", "haar.distinct", calls=False),
    *_span_metrics("haar.fast", "haar.fast"),
    ("haar.fast_yes_ratio", "ratio", ("ratio", "haar.fast", "yes")),
    *_span_metrics("haar.oracle", "haar.oracle"),
    *_span_metrics("core.build_input", "core.build_input"),
    *_span_metrics("core.output_distribution", "core.output_distribution"),
    ("core.permutation_constructions", "count", ("counter", "permutation", "calls")),
    *[(f"layer.{layer}.self_share", "ratio", ("share", layer)) for layer in LAYERS],
    ("proc.cpu_s", "s", ("run", "cpu_s")),
    ("proc.cpu_util", "ratio", ("run", "cpu_util")),
    ("trace.overhead_ratio", "ratio", ("run", "overhead_ratio")),
]


class Tracer:
    """Spans, counters and the installed wrappers of one traced process."""

    def __init__(self, nflab):
        self.nflab = nflab
        # span rows: [name, start, end, parent index or -1, item id]
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.item_kinds: List[str] = []
        self.extra: Dict[str, Dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.counters: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "seconds": 0.0})
        self.distinct_evals = 0
        self._item_pairs: set = set()
        self.missing_sites: List[str] = []
        self._missing_sources: set = set()  # span and counter names fed by a missing site
        self._restore: List[Tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        row = [name, CLOCK(), None, self.stack[-1] if self.stack else -1,
               len(self.item_kinds) - 1]
        self.spans.append(row)
        self.stack.append(index)
        try:
            yield
        finally:
            self.stack.pop()
            row[2] = CLOCK()

    @contextlib.contextmanager
    def item_span(self, kind: str):
        """Root span of one benchmark item; evaluation pairs are per item."""
        self.item_kinds.append(kind)
        self.distinct_evals += len(self._item_pairs)
        self._item_pairs = set()
        with self.span("bench.item"):
            yield

    def close(self) -> None:
        self.distinct_evals += len(self._item_pairs)
        self._item_pairs = set()

    # -- installation -------------------------------------------------------

    def _patch(self, module: str, attr: str, make_wrapper: Callable) -> bool:
        """Replace ``nflab.<module>.<attr>`` by a wrapper of it; False if absent."""
        mod_name, _, cls = module.partition(".")
        owner = getattr(self.nflab, mod_name)
        if cls:
            owner = getattr(owner, cls, None)
            original = owner.__dict__.get(attr) if isinstance(owner, type) else None
        else:
            original = getattr(owner, attr, None)
        if original is None:
            self.missing_sites.append(f"nflab.{module}.{attr}")
            return False
        self._restore.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))
        return True

    def _span_wrapper(self, name: str, extra: Optional[Callable]):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                with self.span(name):
                    result = fn(*args, **kwargs)
                if extra is not None:
                    for key, value in extra(result).items():
                        self.extra[name][key] += value
                return result
            return wrapper
        return make

    def _counted_model(self, model):
        fn, name, counter = model.fn, model.name, self.counters["model"]

        def counted(p):
            t0 = CLOCK()
            result = fn(p)
            counter["seconds"] += CLOCK() - t0
            counter["calls"] += 1
            self._item_pairs.add((name, p.image))
            return result

        return self.nflab.cost.CostModel(name, counted)

    def install(self) -> "Tracer":
        for module, attr, name, extra in SPAN_SITES:
            if not self._patch(module, attr, self._span_wrapper(name, extra)):
                self._missing_sources.add(name)
        if not self._patch("cli", "TRANSPOSITION_MODEL", self._counted_model):
            self._missing_sources.add("model")
        if not self._patch("cli", "make_gate_count_model",
                           lambda make: lambda n: self._counted_model(make(n))):
            self._missing_sources.add("model")
        permutation = self.counters["permutation"]

        def count_permutation(init):
            def wrapper(*args, **kwargs):
                permutation["calls"] += 1
                init(*args, **kwargs)
            return wrapper

        if not self._patch(*PERMUTATION_SITE, count_permutation):
            self._missing_sources.add("permutation")
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results ------------------------------------------------------------

    def self_times(self) -> List[float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c for (_, start, end, _, _), c in zip(self.spans, child)]

    def metrics(self, runner, run: Dict[str, float]) -> Dict[str, Optional[float]]:
        """Every per-layer metric by name; ``None`` marks a missing one."""
        calls: Dict[str, int] = defaultdict(int)
        total: Dict[str, float] = defaultdict(float)
        self_s: Dict[str, float] = defaultdict(float)
        layer_self: Dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), own in zip(self.spans, self.self_times()):
            calls[name] += 1
            total[name] += end - start
            self_s[name] += own
            layer_self[name.split(".")[0]] += own
        item_s = total["bench.item"]

        def value(how: tuple) -> Optional[float]:
            kind = how[0]
            if kind not in ("share", "runner", "run") and how[1] in self._missing_sources:
                return None
            if kind == "calls":
                return calls[how[1]]
            if kind == "total":
                return total[how[1]]
            if kind == "self":
                return self_s[how[1]]
            if kind == "extra":
                return self.extra[how[1]][how[2]]
            if kind == "rate":  # extra count per second of the span
                return self.extra[how[1]][how[2]] / total[how[1]] if total[how[1]] else 0.0
            if kind == "ratio":  # extra count per call of the span
                return self.extra[how[1]][how[2]] / calls[how[1]] if calls[how[1]] else 0.0
            if kind == "counter":
                return self.counters[how[1]][how[2]]
            if kind == "distinct_ratio":
                evals = self.counters["model"]["calls"]
                return self.distinct_evals / evals if evals else 0.0
            if kind == "share":
                return layer_self[how[1]] / item_s if item_s else 0.0
            if kind == "runner":
                return getattr(runner, how[1])
            return run[how[1]]

        return {name: value(how) for name, _, how in METRICS}

    def write_spans(self, path) -> None:
        """Write every span as one JSON line, once, when the run ends."""
        with open(path, "w") as fh:
            for (name, start, end, parent, item), own in zip(self.spans, self.self_times()):
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent,
                                     "item": item, "kind": self.item_kinds[item] if item >= 0 else None,
                                     "self": own}) + "\n")
