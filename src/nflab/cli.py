"""Command-line front end emitting machine-readable experiment reports.

Every command is deterministic given its full flag set: reports embed the
config, and the ``timings`` key is null unless --timings is passed, so that
repeated identical invocations are byte-identical.

Exit codes: 0 success, 2 guard/precondition violation, 3 verification-check failure.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from fractions import Fraction
from typing import Optional

from .core import (
    RegisterShape,
    ResourceState,
    build_input_state,
    output_distribution,
    rational_state,
)
from .cost import (
    Aggregator,
    TRANSPOSITION_MODEL,
    make_gate_count_model,
    scaling_experiment,
)
from .equivalence import (
    collapse_witness,
    count_classes,
    distribution_class_partition,
    same_multiplicative_class,
)
from .errors import ResourceLimitError, ShapeError, ValidationError
from .haar import (
    is_distinct,
    is_strongly_distinct_fast,
    make_collision_state,
    sample_haar_qr,
    sample_haar_rayleigh,
    strong_distinct_oracle,
)
from .nfl import StageTimer, nfl_compare

EXIT_OK = 0
EXIT_GUARD = 2
EXIT_CHECK_FAILED = 3

FIXTURE_STATE = (Fraction(16, 25), Fraction(9, 25))


def _jsonable(obj):
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    return obj


def _emit(report: dict, out: Optional[str]) -> None:
    text = json.dumps(_jsonable(report), indent=2, sort_keys=True) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _shape_from_args(args) -> RegisterShape:
    return RegisterShape(
        n0=args.n0, nplus=args.nplus, nq=args.nq, ny=args.ny, nx=getattr(args, "nx", None)
    )


def _resolve_state(args, shape: RegisterShape) -> ResourceState:
    kind = args.state
    if kind == "haar":
        return sample_haar_qr(shape.nq, args.seed)
    if kind == "uniform":
        dim = shape.resource_dim
        return rational_state([Fraction(1, dim)] * dim)
    if kind == "fixture":
        if shape.nq != 1:
            raise ValidationError("the rational fixture state requires nq = 1")
        return rational_state(FIXTURE_STATE)
    if kind == "collision":
        state, fixture_shape = make_collision_state()
        if (shape.n0, shape.nplus, shape.nq, shape.ny) != (
            fixture_shape.n0,
            fixture_shape.nplus,
            fixture_shape.nq,
            fixture_shape.ny,
        ):
            raise ValidationError(
                "the collision fixture requires shape (n0=0, nplus=0, nq=3, ny=1)"
            )
        return state
    raise ValidationError(f"unknown state kind {kind!r}")


def cmd_haar(args) -> int:
    results = {}
    verdicts = {}
    t0 = time.perf_counter()
    for method, sampler in (("qr", sample_haar_qr), ("rayleigh", sample_haar_rayleigh)):
        state = sampler(args.nq, args.seed)
        entry = {
            "squared_magnitudes": list(state.squared_magnitudes),
            "sum": sum(state.squared_magnitudes),
            "distinct": is_distinct(state, args.tolerance),
        }
        # Strong distinctness needs a full register shape; skip when the flags
        # do not form a valid one (e.g. nq = 0 with no other registers).
        try:
            shape = RegisterShape(n0=args.n0, nplus=args.nplus, nq=args.nq, ny=args.ny)
        except ShapeError:
            shape = None
        if shape is not None:
            entry["strongly_distinct_fast"] = is_strongly_distinct_fast(
                state, shape, args.tolerance
            ).value
            entry["strongly_distinct_oracle"] = strong_distinct_oracle(
                state, shape, args.tolerance
            )
        results[method] = entry
        verdicts[method] = "distinct" if entry["distinct"] else "not distinct"
    elapsed = time.perf_counter() - t0
    report = {
        "config": {
            "command": "haar",
            "nq": args.nq,
            "seed": args.seed,
            "n0": args.n0,
            "nplus": args.nplus,
            "ny": args.ny,
            "tolerance": args.tolerance,
        },
        "results": results,
        "verdicts": verdicts,
        "timings": {"check_seconds": elapsed} if args.timings else None,
    }
    _emit(report, args.out)
    return EXIT_OK


def cmd_classes(args) -> int:
    shape = _shape_from_args(args)
    state = _resolve_state(args, shape)
    t0 = time.perf_counter()
    m_star = count_classes(shape)
    partition = distribution_class_partition(
        state,
        shape,
        mode=args.mode,
        samples=args.samples,
        seed=args.seed,
        tolerance=args.tolerance,
    )
    elapsed = time.perf_counter() - t0
    agree = partition.num_classes == m_star if args.mode == "exhaustive" else None
    verdict = (
        "generic (M = M*)"
        if agree
        else ("collapse (M < M*)" if agree is not None else "sampled (no verdict)")
    )
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["class_index", "distribution", "member_count"])
            for idx, (key, info) in enumerate(sorted(partition.classes.items())):
                writer.writerow([idx, "|".join(str(v) for v in key), info.count])
    report = {
        "config": {
            "command": "classes",
            "n0": args.n0,
            "nplus": args.nplus,
            "nq": args.nq,
            "ny": args.ny,
            "state": args.state,
            "seed": args.seed,
            "mode": args.mode,
            "samples": args.samples,
            "tolerance": args.tolerance,
        },
        "results": {
            "M": partition.num_classes,
            "M_star": m_star,
            "class_sizes": sorted(
                info.count for info in partition.classes.values()
            ),
        },
        "verdicts": {"classes": verdict},
        "timings": {"scan_seconds": elapsed} if args.timings else None,
    }
    _emit(report, args.out)
    return EXIT_OK


def _aggregators_from_args(args):
    budget = Aggregator("budget", (args.budget,))
    table = {
        "average": [Aggregator("average")],
        "max": [Aggregator("max")],
        "budget": [budget],
        "all": [Aggregator("average"), Aggregator("max"), budget],
    }
    return table[args.aggregator]


def _cost_models_from_args(args, shape):
    if args.cost == "transpositions":
        return [TRANSPOSITION_MODEL]
    if args.cost == "gates":
        return [make_gate_count_model(shape.n)]
    return [TRANSPOSITION_MODEL, make_gate_count_model(shape.n)]


def _cost_table(pairs) -> dict:
    return {
        f"{model}/{agg}": {
            "a": list(pair.cost_a.values),
            "b": list(pair.cost_b.values),
            "equal": pair.equal,
        }
        for (model, agg), pair in sorted((pairs or {}).items())
    }


def cmd_nfl(args) -> int:
    shape = _shape_from_args(args)
    if args.uniform_b:
        state_b: ResourceState = rational_state(
            [Fraction(1, shape.resource_dim)] * shape.resource_dim
        )
    else:
        state_b = sample_haar_qr(shape.nq, args.seed2)
    state_a = sample_haar_qr(shape.nq, args.seed)
    models = _cost_models_from_args(args, shape)
    aggregators = _aggregators_from_args(args)
    timer = StageTimer()
    with timer.stage("compare"):
        report_obj = nfl_compare(
            state_a,
            state_b,
            shape,
            cost_models=models,
            aggregators=aggregators,
            nx=args.nx,
            tolerance=args.tolerance,
        )
    timings = {"compare_seconds": timer.seconds["compare"]}
    for stage, seconds in report_obj.stage_seconds.items():
        timings[f"{stage}_seconds"] = seconds
    results = {
        "M_star": report_obj.m_star,
        "M_a": report_obj.m_a,
        "M_b": report_obj.m_b,
        "partitions_identical": report_obj.partitions_identical,
        "costs": _cost_table(report_obj.cost_pairs),
    }
    if report_obj.secondary_class_counts is not None:
        results["secondary_classes"] = list(report_obj.secondary_class_counts)
        results["secondary_costs"] = _cost_table(report_obj.secondary_cost_pairs)
    report = {
        "config": {
            "command": "nfl",
            "n0": args.n0,
            "nplus": args.nplus,
            "nq": args.nq,
            "ny": args.ny,
            "nx": args.nx,
            "seed": args.seed,
            "seed2": args.seed2,
            "uniform_b": args.uniform_b,
            "cost": args.cost,
            "aggregator": args.aggregator,
            "budget": args.budget,
            "tolerance": args.tolerance,
        },
        "results": results,
        "verdicts": {
            "precondition": "ok" if report_obj.precondition_ok else "violated",
            "violations": list(report_obj.violations),
            "equal_costs": report_obj.all_equal,
        },
        "timings": timings if args.timings else None,
    }
    _emit(report, args.out)
    if not report_obj.precondition_ok:
        return EXIT_GUARD
    return EXIT_OK if report_obj.all_equal else EXIT_CHECK_FAILED


def cmd_collapse(args) -> int:
    shape = _shape_from_args(args)
    degenerate = rational_state([Fraction(v) for v in args.degenerate.split(",")])
    distinct_state = rational_state([Fraction(v) for v in args.distinct.split(",")])
    t0 = time.perf_counter()
    p, s = collapse_witness(shape, args.istar, args.jstar)
    input_deg = build_input_state(shape, degenerate)
    input_dis = build_input_state(shape, distinct_state)
    dist_deg = (
        output_distribution(input_deg, p).probabilities,
        output_distribution(input_deg, s).probabilities,
    )
    dist_dis = (
        output_distribution(input_dis, p).probabilities,
        output_distribution(input_dis, s).probabilities,
    )
    same_class = same_multiplicative_class(p, s, shape)
    elapsed = time.perf_counter() - t0
    verdicts = {
        "degenerate_equal": dist_deg[0] == dist_deg[1],
        "distinct_different": dist_dis[0] != dist_dis[1],
        "classes_differ": not same_class,
    }
    report = {
        "config": {
            "command": "collapse",
            "n0": args.n0,
            "nplus": args.nplus,
            "nq": args.nq,
            "ny": args.ny,
            "istar": args.istar,
            "jstar": args.jstar,
            "degenerate": args.degenerate,
            "distinct": args.distinct,
        },
        "results": {
            "P": list(p.image),
            "S": list(s.image),
            "degenerate_distributions": [list(d) for d in dist_deg],
            "distinct_distributions": [list(d) for d in dist_dis],
            "same_multiplicative_class": same_class,
        },
        "verdicts": verdicts,
        "timings": {"witness_seconds": elapsed} if args.timings else None,
    }
    _emit(report, args.out)
    return EXIT_OK if all(verdicts.values()) else EXIT_CHECK_FAILED


def cmd_scaling(args) -> int:
    rows, c_fit = scaling_experiment(
        range(1, args.max_ntilde + 1), args.samples, seed=args.seed
    )
    out = args.out or None
    fh = open(out, "w", newline="") if out else sys.stdout
    try:
        writer = csv.writer(fh)
        writer.writerow(
            ["n_tilde", "N_tilde", "mean_gates", "bound_upper", "bound_lower_formula"]
        )
        for row in rows:
            writer.writerow(
                [
                    row.n_tilde,
                    row.N_tilde,
                    row.mean_gates,
                    row.bound_upper,
                    "" if row.bound_lower_formula is None else row.bound_lower_formula,
                ]
            )
    finally:
        if out:
            fh.close()
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nflab",
        description="Equivalence-class and cost experiments for permutation "
        "generative models fed by measured resource states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_shape_flags(p, nq_default=1):
        p.add_argument("--n0", type=int, default=1, help="ancilla qubits (default 1)")
        p.add_argument(
            "--nplus", type=int, default=1, help="uniform-random qubits (default 1)"
        )
        p.add_argument(
            "--nq", type=int, default=nq_default, help="resource qubits"
        )
        p.add_argument("--ny", type=int, default=1, help="output bits (default 1)")

    p_haar = sub.add_parser("haar", help="sample a resource state by both methods")
    add_shape_flags(p_haar, nq_default=2)
    p_haar.add_argument("--seed", type=int, default=0)
    p_haar.add_argument(
        "--tolerance", type=float, default=1e-12,
        help="float values within this of each other count as equal in the "
        "distinctness and both strong-distinctness checks (default 1e-12)",
    )
    p_haar.add_argument("--out", default=None)
    p_haar.add_argument("--timings", action="store_true")
    p_haar.set_defaults(fn=cmd_haar)

    p_classes = sub.add_parser("classes", help="distribution-class partition report")
    add_shape_flags(p_classes)
    p_classes.add_argument(
        "--state",
        choices=["fixture", "uniform", "haar", "collision"],
        default="fixture",
    )
    p_classes.add_argument("--seed", type=int, default=0)
    p_classes.add_argument(
        "--mode", choices=["exhaustive", "sampled"], default="exhaustive"
    )
    p_classes.add_argument("--samples", type=int, default=None)
    p_classes.add_argument(
        "--tolerance", type=float, default=1e-9,
        help="float states share a class when pairwise within this; exit 2 if "
        "that is not transitive (rational states group exactly; default 1e-9)",
    )
    p_classes.add_argument("--csv", default=None, help="optional per-class CSV path")
    p_classes.add_argument("--out", default=None)
    p_classes.add_argument("--timings", action="store_true")
    p_classes.set_defaults(fn=cmd_classes)

    p_nfl = sub.add_parser("nfl", help="two-state cost-equality verification")
    add_shape_flags(p_nfl)
    p_nfl.add_argument("--nx", type=int, default=0, help="sampling-algorithm input bits")
    p_nfl.add_argument("--seed", type=int, default=1)
    p_nfl.add_argument("--seed2", type=int, default=2)
    p_nfl.add_argument(
        "--uniform-b",
        action="store_true",
        help="replace state B with the uniform (degenerate) state",
    )
    p_nfl.add_argument(
        "--cost", choices=["transpositions", "gates", "both"], default="both"
    )
    p_nfl.add_argument(
        "--aggregator", choices=["average", "max", "budget", "all"], default="all"
    )
    p_nfl.add_argument(
        "--budget",
        type=float,
        default=1.0,
        help="budget threshold, in each selected cost model's own unit",
    )
    p_nfl.add_argument("--tolerance", type=float, default=1e-12)
    p_nfl.add_argument("--out", default=None)
    p_nfl.add_argument("--timings", action="store_true")
    p_nfl.set_defaults(fn=cmd_nfl)

    p_col = sub.add_parser(
        "collapse", help="explicit witness pair for a degenerate resource state"
    )
    p_col.add_argument("--n0", type=int, default=1)
    p_col.add_argument("--nplus", type=int, default=0)
    p_col.add_argument("--nq", type=int, default=2)
    p_col.add_argument("--ny", type=int, default=1)
    p_col.add_argument("--istar", type=int, default=1, help="1-based input position")
    p_col.add_argument("--jstar", type=int, default=2, help="1-based input position")
    p_col.add_argument(
        "--degenerate", default="3/10,3/10,3/20,1/4", help="comma-separated rationals"
    )
    p_col.add_argument(
        "--distinct", default="2/5,3/10,1/5,1/10", help="comma-separated rationals"
    )
    p_col.add_argument("--out", default=None)
    p_col.add_argument("--timings", action="store_true")
    p_col.set_defaults(fn=cmd_collapse)

    p_scale = sub.add_parser("scaling", help="compiled gate-count scaling table (CSV)")
    p_scale.add_argument("--max-ntilde", type=int, default=5)
    p_scale.add_argument("--samples", type=int, default=20)
    p_scale.add_argument("--seed", type=int, default=0)
    p_scale.add_argument("--out", default=None)
    p_scale.set_defaults(fn=cmd_scaling)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ResourceLimitError, ValidationError, ShapeError) as exc:
        sys.stdout.write(
            json.dumps(
                {"error": {"type": type(exc).__name__, "message": str(exc)}},
                sort_keys=True,
            )
            + "\n"
        )
        return EXIT_GUARD


if __name__ == "__main__":
    sys.exit(main())
