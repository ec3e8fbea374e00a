"""Haar-random resource states and the distinctness / strong-distinctness predicates.

Two independent samplers are provided (QR of a complex Ginibre matrix, and
direct Rayleigh magnitudes); they target the same distribution and serve as
oracles for each other.

Strong distinctness has two routes: a fast sufficient criterion (injectivity
of the block-weight function on feasible multiplicity vectors) that never
answers "no", and the definitional oracle that enumerates all partitions of
the input-state value multiset into measurement-sized blocks.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Tuple

import numpy as np

from .core import FLOAT_ATOL, RegisterShape, ResourceState, float_state, rational_state
from .equivalence import feasible_vectors, pairs_within
from .errors import ResourceLimitError, ShapeError, ValidationError

MAX_NQ = 12
DEFAULT_VECTOR_CAP = 10**6
DEFAULT_PARTITION_CAP = 10**6


def sample_haar_qr(nq: int, seed: int) -> ResourceState:
    """First column of a Haar-random unitary built by QR of a Ginibre matrix.

    The R-diagonal phase correction U = Q * diag(R_ii/|R_ii|) makes the
    distribution exactly Haar rather than merely QR-gauge-dependent.
    """
    if nq > MAX_NQ:
        raise ResourceLimitError(f"nq = {nq} exceeds the desk ceiling {MAX_NQ}")
    dim = 1 << nq
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(a)
    lam = np.diag(r).copy()
    lam /= np.abs(lam)
    col = q[:, 0] * lam[0]
    sq = np.abs(col) ** 2
    sq /= sq.sum()
    return float_state(sq.tolist(), np.angle(col).tolist())


def sample_haar_rayleigh(nq: int, seed: int) -> ResourceState:
    """Haar state magnitudes via iid Rayleigh(sigma=1) draws, then normalized.

    Inverse-transform sampling (alpha = sqrt(-2 ln(1-u))) keeps the stream
    reproducible from the stated seed.
    """
    if nq > MAX_NQ:
        raise ResourceLimitError(f"nq = {nq} exceeds the desk ceiling {MAX_NQ}")
    dim = 1 << nq
    rng = np.random.default_rng(seed)
    u = rng.random(dim)
    alpha = np.sqrt(-2.0 * np.log1p(-u))
    phases = 2.0 * math.pi * rng.random(dim)
    sq = alpha**2
    sq /= sq.sum()
    return float_state(sq.tolist(), phases.tolist())


def is_distinct(state: ResourceState, tolerance) -> bool:
    """True iff all pairwise squared-magnitude differences exceed the tolerance.

    On the rational backend the tolerance must be 0 and the comparison exact.
    """
    if state.backend == "rational" and tolerance != 0:
        raise ValidationError("rational backend demands tolerance = 0")
    if tolerance < 0:
        raise ValidationError("tolerance must be non-negative")
    vals = sorted(state.squared_magnitudes)
    return all(b - a > tolerance for a, b in zip(vals, vals[1:]))


@dataclass(frozen=True)
class BlockWeightTable:
    """Per-value occupancy data for one measurement block.

    ``values`` is the input-state coefficient of each value class (the 2^nq
    resource magnitudes divided by 2^nplus, then the zero value); ``caps`` is
    the class size; every feasible multiplicity vector sums to ``block_size``.
    """

    values: tuple
    caps: Tuple[int, ...]
    block_size: int


def block_weight_table(state: ResourceState, shape: RegisterShape) -> BlockWeightTable:
    if len(state.squared_magnitudes) != shape.resource_dim:
        raise ShapeError("state dimension does not match shape.nq")
    copies = shape.copies
    zero = Fraction(0) if state.backend == "rational" else 0.0
    values = tuple(q / copies for q in state.squared_magnitudes) + (zero,)
    caps = (copies,) * shape.resource_dim + (shape.zero_class_size,)
    return BlockWeightTable(values, caps, shape.bin_size)


class FastVerdict(enum.Enum):
    YES = "yes"
    INCONCLUSIVE = "inconclusive"


def is_strongly_distinct_fast(
    state: ResourceState,
    shape: RegisterShape,
    tolerance: Optional[float] = None,
    vector_cap: int = DEFAULT_VECTOR_CAP,
) -> FastVerdict:
    """Sufficient test for strong distinctness; never answers "no".

    If the block-weight function m -> sum(m_c * value_c) is injective on the
    feasible multiplicity vectors, equal block-sum multisets force equal
    partitions and the state is strongly distinct. Non-injectivity is only
    inconclusive: the definitional oracle stays authoritative.
    """
    table = block_weight_table(state, shape)
    vectors = feasible_vectors(table.caps, table.block_size, vector_cap)
    weights = sorted(
        sum(m * v for m, v in zip(vec, table.values)) for vec in vectors
    )
    float_tol = FLOAT_ATOL if tolerance is None else tolerance
    tol = 0 if state.backend == "rational" else float_tol
    injective = all(b - a > tol for a, b in zip(weights, weights[1:]))
    return FastVerdict.YES if injective else FastVerdict.INCONCLUSIVE


def _partitions_into_blocks(
    vectors: list, caps: Tuple[int, ...], num_blocks: int, cap_count: int
) -> Iterator[tuple]:
    """All multisets of num_blocks feasible vectors whose componentwise sum is caps.

    Multisets are emitted as non-increasing tuples of vectors; comparing
    partitions at the multiplicity-vector level (not labelled indices) is what
    makes repeated-value states meaningful.
    """
    count = 0

    def rec(remaining_caps: Tuple[int, ...], blocks_left: int, max_vec: tuple, chosen: tuple):
        nonlocal count
        if blocks_left == 0:
            if all(c == 0 for c in remaining_caps):
                count += 1
                if count > cap_count:
                    raise ResourceLimitError(
                        f"partition count exceeds cap {cap_count}"
                    )
                yield chosen
            return
        for vec in vectors:
            if vec > max_vec:
                continue
            if any(m > c for m, c in zip(vec, remaining_caps)):
                continue
            new_caps = tuple(c - m for c, m in zip(remaining_caps, vec))
            yield from rec(new_caps, blocks_left - 1, vec, chosen + (vec,))

    top = tuple(caps)
    yield from rec(top, num_blocks, top, ())


def strong_distinct_oracle(
    state: ResourceState,
    shape: RegisterShape,
    tolerance: Optional[float] = None,
    partition_cap: int = DEFAULT_PARTITION_CAP,
) -> bool:
    """Definitional strong-distinctness check by exhaustive partition enumeration.

    Enumerates every partition of the input-state value multiset into 2^ny
    blocks of size B (as multisets of multiplicity vectors) and returns True
    iff no two distinct partitions yield the same multiset of block sums,
    comparing every pair entrywise within the tolerance (0 on rational states).
    """
    table = block_weight_table(state, shape)
    vectors = feasible_vectors(table.caps, table.block_size, partition_cap)
    float_tol = FLOAT_ATOL if tolerance is None else tolerance
    tol = 0 if state.backend == "rational" else float_tol

    # Partitions are enumerated once each, so two that share a block-sum
    # multiset (within tol) are always two different partitions.
    block_sums = sorted(
        tuple(sorted(sum(m * v for m, v in zip(vec, table.values)) for vec in partition))
        for partition in _partitions_into_blocks(
            vectors, table.caps, shape.num_bins, partition_cap
        )
    )
    return next(pairs_within(block_sums, tol), None) is None


def make_collision_state() -> Tuple[ResourceState, RegisterShape]:
    """Fixture that is distinct but not strongly distinct.

    Squared magnitudes (1,2,3,4,5,6,7,12)/40 at shape (n0=0, nplus=0, nq=3,
    ny=1): the blocks {1,3,4,12} and {1,2,5,12} both sum to 20/40.
    """
    state = rational_state([Fraction(k, 40) for k in (1, 2, 3, 4, 5, 6, 7, 12)])
    return state, RegisterShape(n0=0, nplus=0, nq=3, ny=1)
