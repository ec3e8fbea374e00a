"""Workload definitions: seeded rounds of items and the checks each item must pass.

A workload is an endless sequence of *rounds*. Every round holds the same
multiset of item kinds (so a run of whole rounds always has the same mix) in a
seeded order, with seeded inputs: Haar seeds, collapse states, permutations.
The program under test only ever sees these generated argv lists and
permutations.

Every expectation a check compares against is held here, never read back
from the report being checked: generic class counts M* come from
``M_STAR`` (contingency-table counts, re-derived by brute force in the tests),
class sizes must sum to N! or to the sample count, and so on.
"""
from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

Shape = Tuple[int, int, int, int]  # (n0, nplus, nq, ny)

# Generic class count M* per shape: the number of bins x value-class
# contingency tables with row sums B and column sums equal to the class sizes.
M_STAR: Dict[Shape, int] = {
    (1, 1, 1, 1): 9,
    (0, 0, 3, 1): 70,
    (1, 0, 2, 1): 16,
    (0, 1, 2, 1): 19,
    (0, 0, 3, 2): 2520,
    (0, 0, 2, 1): 6,
    (1, 0, 1, 1): 4,
    (0, 1, 1, 1): 3,
    (1, 1, 2, 1): 81,
}


def num_states(shape: Shape) -> int:
    return 1 << sum(shape[:3])


@dataclass(frozen=True)
class Item:
    """One closed-loop request: a CLI argv, or a direct public-API call."""

    kind: str
    argv: Tuple[str, ...] = ()
    args: tuple = ()
    expect: dict = field(default_factory=dict)


def _shape_flags(shape: Shape) -> List[str]:
    n0, nplus, nq, ny = shape
    return ["--n0", str(n0), "--nplus", str(nplus), "--nq", str(nq), "--ny", str(ny)]


def _seed(rng: random.Random) -> int:
    return rng.randrange(1, 2**31)


# ---------------------------------------------------------------------------
# Item constructors


def classes_item(kind: str, shape: Shape, rng: random.Random, samples: int = 0) -> Item:
    state = {"float": "haar", "sampled": "haar", "small": "haar"}.get(kind, kind)
    argv = ["classes", *_shape_flags(shape), "--state", state, "--seed", str(_seed(rng))]
    if samples:
        argv += ["--mode", "sampled", "--samples", str(samples)]
    total = samples or math.factorial(num_states(shape))
    generic = kind not in ("uniform", "collision")
    return Item(
        f"classes.{kind}",
        tuple(argv),
        expect={"m_star": M_STAR[shape], "total": total, "generic": generic,
                "sampled": bool(samples)},
    )


def collapse_item(rng: random.Random) -> Item:
    """Witness pair at the default collapse shape (1,0,2,1): four resource
    values, one copy each, so 1-based positions 1..4 hold the coefficients."""
    i, j = sorted(rng.sample(range(1, 5), 2))
    distinct = rng.sample(range(1, 30), 4)
    degenerate = list(distinct)
    degenerate[j - 1] = degenerate[i - 1]

    def fmt(weights):
        total = sum(weights)
        return ",".join(str(Fraction(w, total)) for w in weights)

    argv = ["collapse", "--istar", str(i), "--jstar", str(j),
            "--degenerate", fmt(degenerate), "--distinct", fmt(distinct)]
    return Item("collapse", tuple(argv))


MODELS = {"transpositions": ["transpositions"], "gates": ["gates"],
          "both": ["gates", "transpositions"]}
AGGREGATORS = {"average": ["average"], "max": ["max"], "budget": ["budget"],
               "all": ["average", "budget", "max"]}


def nfl_item(kind: str, shape: Shape, rng: random.Random, cost: str = "both",
             aggregator: str = "all", nx: int = 0, uniform_b: bool = False) -> Item:
    argv = ["nfl", *_shape_flags(shape), "--seed", str(_seed(rng)),
            "--seed2", str(_seed(rng)), "--cost", cost, "--aggregator", aggregator]
    if nx:
        argv += ["--nx", str(nx)]
    if uniform_b:
        argv.append("--uniform-b")
    pairs = sorted(f"{m}/{a}" for m in MODELS[cost] for a in AGGREGATORS[aggregator])
    return Item(
        f"nfl.{kind}",
        tuple(argv),
        expect={"m_star": M_STAR[shape], "nx": nx, "uniform_b": uniform_b,
                "pairs": pairs},
    )


def haar_item(shape: Shape, rng: random.Random) -> Item:
    n0, nplus, nq, ny = shape
    argv = ["haar", "--nq", str(nq), "--n0", str(n0), "--nplus", str(nplus),
            "--ny", str(ny), "--seed", str(_seed(rng))]
    return Item(f"haar.{n0}{nplus}{nq}{ny}", tuple(argv), expect={"dim": 1 << nq})


def roundtrip_item(n: int, rng: random.Random) -> Item:
    image = list(range(1 << n))
    rng.shuffle(image)
    return Item(f"roundtrip.n{n}", args=(tuple(image), n))


def _block_shuffle(blocks: List[Tuple[int, int]], size: int, rng: random.Random) -> List[int]:
    image = list(range(size))
    for start, stop in blocks:
        chunk = image[start:stop]
        rng.shuffle(chunk)
        image[start:stop] = chunk
    return image


def coset_item(shape: Shape, same: bool, rng: random.Random) -> Item:
    """A pair (p, s) for the double-coset oracle. With ``same`` the benchmark
    builds s = w.p.v itself from a bin-preserving w and a value-class-preserving
    v, so the oracle must answer True."""
    n0, nplus, nq, ny = shape
    size = num_states(shape)
    p = list(range(size))
    rng.shuffle(p)
    if same:
        copies, support = 1 << nplus, 1 << (nplus + nq)
        value_blocks = [(k, k + copies) for k in range(0, support, copies)]
        value_blocks.append((support, size))
        bin_size = size >> ny
        bin_blocks = [(k, k + bin_size) for k in range(0, size, bin_size)]
        v = _block_shuffle(value_blocks, size, rng)
        w = _block_shuffle(bin_blocks, size, rng)
        s = [w[p[v[k]]] for k in range(size)]
    else:
        s = list(range(size))
        rng.shuffle(s)
    return Item("coset", args=(shape, tuple(p), tuple(s)), expect={"same": same})


def scaling_item(rng: random.Random) -> Item:
    argv = ["scaling", "--max-ntilde", "4", "--samples", "6", "--seed", str(_seed(rng))]
    return Item("scaling.cli", tuple(argv), expect={"rows": 4})


def scaling_api_item(rng: random.Random) -> Item:
    return Item("scaling.api", args=(4, 6, _seed(rng)))


# ---------------------------------------------------------------------------
# Workloads


def _classes_round(rng: random.Random) -> List[Item]:
    items = [classes_item("float", s, rng)
             for s in [(1, 0, 2, 1)] * 2 + [(0, 0, 3, 1)] * 4 + [(0, 1, 2, 1)] * 2
             + [(1, 1, 1, 1)] * 2]
    items += [classes_item("fixture", (1, 1, 1, 1), rng),
              classes_item("uniform", (1, 1, 1, 1), rng),
              classes_item("collision", (0, 0, 3, 1), rng)]
    items += [classes_item("small", (0, 0, 2, 1), rng),
              classes_item("small", (1, 0, 1, 1), rng),
              classes_item("sampled", (1, 1, 2, 1), rng, samples=4000),
              collapse_item(rng)]
    return items


def _nfl_round(rng: random.Random) -> List[Item]:
    items = [nfl_item("light", shape, rng, "transpositions", agg)
             for shape in ((1, 1, 1, 1), (0, 0, 3, 1)) for agg in ("average", "max", "budget")]
    items += [nfl_item("light", (1, 1, 1, 1), rng, "gates", "average"),
              nfl_item("light", (0, 0, 3, 1), rng, "gates", "max")]
    items += [nfl_item("guard", shape, rng, "transpositions", "average", uniform_b=True)
              for shape in ((1, 1, 1, 1), (0, 0, 3, 1)) for _ in range(3)]
    items += [nfl_item("nx1", (1, 1, 1, 1), rng, nx=1)]
    # Nine N = 4 items keep the tail rank above the median in a one-round run.
    for _ in range(3):
        items += [nfl_item("small", (0, 0, 2, 1), rng, nx=1),
                  nfl_item("small", (1, 0, 1, 1), rng),
                  nfl_item("small", (0, 1, 1, 1), rng, nx=1)]
    return items


def _oracles_round(rng: random.Random) -> List[Item]:
    items: List[Item] = []
    for _ in range(3):
        items += [haar_item((1, 1, 2, 1), rng) for _ in range(24)]
        items += [haar_item((0, 0, 3, 1), rng) for _ in range(12)]
        items += [haar_item((1, 0, 3, 1), rng) for _ in range(24)]
        items += [roundtrip_item(n, rng) for n in (4, 5, 6)]
        items += [coset_item(shape, same, rng)
                  for shape in ((1, 1, 1, 1), (0, 1, 2, 1)) for same in (True, False)]
        items += [scaling_item(rng), scaling_api_item(rng)]
    return items


@dataclass(frozen=True)
class Workload:
    name: str
    make_round: Callable[[random.Random], List[Item]]
    warmup: Callable[[random.Random], Item]
    min_rounds: int  # keeps the median and the tail rank inside one item kind
    # Items run once per run, in round 0: a slow kind that must stay fewer
    # than ten per run, so that it never reaches the tail rank.
    once: Callable[[random.Random], List[Item]] = lambda rng: []


WORKLOADS: Dict[str, Workload] = {
    "classes": Workload("classes", _classes_round,
                        lambda rng: classes_item("small", (0, 0, 2, 1), rng), 4),
    "nfl": Workload("nfl", _nfl_round,
                    lambda rng: nfl_item("small", (0, 0, 2, 1), rng, nx=1), 1),
    "oracles": Workload("oracles", _oracles_round,
                        lambda rng: haar_item((1, 1, 2, 1), rng), 2,
                        once=lambda rng: [haar_item((0, 1, 3, 1), rng)]),
}


def make_round(workload: str, seed: int, index: int) -> List[Item]:
    """Round ``index`` of a workload: the same for the same seed, in any run."""
    rng = random.Random(f"{workload}/{seed}/{index}")
    spec = WORKLOADS[workload]
    items = spec.make_round(rng) + (spec.once(rng) if index == 0 else [])
    rng.shuffle(items)
    return items


def make_warmup(workload: str, seed: int) -> Item:
    return WORKLOADS[workload].warmup(random.Random(f"{workload}/{seed}/warmup"))


# ---------------------------------------------------------------------------
# Checks: each returns None when the output is right, else a reason.


def _expect(cond: bool, reason: str) -> Optional[str]:
    return None if cond else reason


def check_classes(item: Item, rc: int, out: str) -> Optional[str]:
    if rc != 0:
        return f"exit {rc}"
    res = json.loads(out)["results"]
    want = item.expect
    sizes = res["class_sizes"]
    if res["M_star"] != want["m_star"]:
        return f"M* = {res['M_star']}, expected {want['m_star']}"
    if len(sizes) != res["M"] or sum(sizes) != want["total"]:
        return f"class sizes sum to {sum(sizes)}, expected {want['total']}"
    if want["sampled"]:
        return _expect(res["M"] <= want["m_star"], "sampled M exceeds M*")
    if want["generic"]:
        return _expect(res["M"] == want["m_star"], f"M = {res['M']} != M*")
    return _expect(res["M"] < want["m_star"], f"M = {res['M']} did not collapse")


def check_collapse(item: Item, rc: int, out: str) -> Optional[str]:
    if rc != 0:
        return f"exit {rc}"
    verdicts = json.loads(out)["verdicts"]
    return _expect(
        verdicts == {"degenerate_equal": True, "distinct_different": True,
                     "classes_differ": True},
        f"collapse verdicts {verdicts}",
    )


def check_nfl(item: Item, rc: int, out: str) -> Optional[str]:
    want = item.expect
    report = json.loads(out)
    res, verdicts = report["results"], report["verdicts"]
    if want["uniform_b"]:
        if rc != 2 or verdicts["precondition"] != "violated":
            return f"guard item: exit {rc}, precondition {verdicts['precondition']}"
        return _expect(res["M_a"] == want["m_star"] and res["M_b"] < want["m_star"],
                       f"guard item: M_a = {res['M_a']}, M_b = {res['M_b']}")
    if rc != 0:
        return f"exit {rc}"
    m_star = want["m_star"]
    if not (verdicts["equal_costs"] and res["partitions_identical"]):
        return "costs or partitions differ"
    if (res["M_star"], res["M_a"], res["M_b"]) != (m_star, m_star, m_star):
        return f"class counts {res['M_star']}, {res['M_a']}, {res['M_b']} != {m_star}"
    sections = ["costs"] + (["secondary_costs"] if want["nx"] else [])
    for section in sections:
        costs = res[section]
        if sorted(costs) != want["pairs"]:
            return f"{section} has pairs {sorted(costs)}"
        if any(c["a"] != c["b"] for c in costs.values()):
            return f"{section} differ between states"
    if want["nx"]:
        expected = [m_star ** (1 << want["nx"])] * 2
        return _expect(res["secondary_classes"] == expected,
                       f"secondary classes {res['secondary_classes']} != {expected}")
    return None


def check_haar(item: Item, rc: int, out: str) -> Optional[str]:
    if rc != 0:
        return f"exit {rc}"
    results = json.loads(out)["results"]
    if sorted(results) != ["qr", "rayleigh"]:
        return f"sampler methods {sorted(results)}"
    for method, entry in results.items():
        mags = entry["squared_magnitudes"]
        if len(mags) != item.expect["dim"] or abs(math.fsum(mags) - 1.0) > 1e-12:
            return f"{method}: squared magnitudes do not sum to 1"
        if not entry["distinct"]:
            return f"{method}: Haar state not distinct"
        if entry["strongly_distinct_fast"] == "yes" and not entry["strongly_distinct_oracle"]:
            return f"{method}: fast path yes but oracle False"
    return None


def check_scaling(item: Item, rc: int, out: str) -> Optional[str]:
    if rc != 0:
        return f"exit {rc}"
    rows = list(csv.reader(io.StringIO(out)))
    header, body = rows[0], rows[1:]
    if header[:4] != ["n_tilde", "N_tilde", "mean_gates", "bound_upper"]:
        return f"scaling header {header}"
    if len(body) != item.expect["rows"]:
        return f"{len(body)} scaling rows"
    for row in body:
        n_tilde, n_big, mean_gates, upper = int(row[0]), int(row[1]), float(row[2]), float(row[3])
        if n_big != 1 << n_tilde or not 0 <= mean_gates <= upper * (1 + 1e-12):
            return f"scaling row {row}"
    return None


CLI_CHECKS = {"classes": check_classes, "collapse": check_collapse, "nfl": check_nfl,
              "haar": check_haar, "scaling": check_scaling}


def check_cli(item: Item, rc: int, out: str) -> Optional[str]:
    return CLI_CHECKS[item.argv[0]](item, rc, out)


# ---------------------------------------------------------------------------
# Direct public-API items: each runs the call and returns a failure reason.


def run_roundtrip(nflab, item: Item) -> Optional[str]:
    image, n = item.args
    gates = nflab.cost.compile_permutation(nflab.core.Permutation(image), n)
    back = gates.simulate()
    return _expect(back.image == image, "simulate(compile(p)) != p")


def run_coset(nflab, item: Item) -> Optional[str]:
    shape_t, p_img, s_img = item.args
    n0, nplus, nq, ny = shape_t
    shape = nflab.core.RegisterShape(n0=n0, nplus=nplus, nq=nq, ny=ny)
    p, s = nflab.core.Permutation(p_img), nflab.core.Permutation(s_img)
    oracle = nflab.equivalence.double_coset_oracle(p, s, shape)
    keys_equal = nflab.equivalence.same_multiplicative_class(p, s, shape)
    if oracle != keys_equal:
        return f"coset oracle {oracle} disagrees with key equality {keys_equal}"
    return _expect(oracle or not item.expect["same"], "w.p.v not in the double coset of p")


def run_scaling_api(nflab, item: Item) -> Optional[str]:
    max_ntilde, samples, seed = item.args
    rows, _ = nflab.cost.scaling_experiment(range(1, max_ntilde + 1), samples, seed=seed)
    if len(rows) != max_ntilde:
        return f"{len(rows)} scaling rows"
    bad = [r.n_tilde for r in rows if r.max_transpositions > r.N_tilde]
    return _expect(not bad, f"max transpositions exceed N at n_tilde {bad}")


API_RUNNERS = {"roundtrip": run_roundtrip, "coset": run_coset, "scaling": run_scaling_api}


def run_api(nflab, item: Item) -> Optional[str]:
    return API_RUNNERS[item.kind.split(".")[0]](nflab, item)
