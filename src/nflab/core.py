"""Register shapes, resource/input states, permutations, and measurement pipelines.

All index conventions are big-endian: the measured output bits are the top
``ny`` bits of the ``n``-bit index, so a measurement bin is the contiguous
range ``[y*B, (y+1)*B)`` with ``B = 2**(n - ny)``.

Numeric backends: "rational" vectors hold :class:`fractions.Fraction` entries
and all distribution arithmetic is exact; "float" vectors hold Python floats
with a 1e-12 absolute normalization tolerance.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .errors import ShapeError, ValidationError

Scalar = Union[Fraction, float]

FLOAT_ATOL = 1e-12


@dataclass(frozen=True)
class RegisterShape:
    """The four register widths (plus optional input width) that parameterize a model.

    ``n0`` ancilla qubits, ``nplus`` uniform-random qubits, ``nq`` resource
    qubits and ``ny`` measured output bits; ``nx`` is the input width of a
    sampling algorithm and is ``None`` for a pure generative model.
    """

    n0: int
    nplus: int
    nq: int
    ny: int
    nx: Optional[int] = None

    def __post_init__(self):
        for name in ("n0", "nplus", "nq", "ny"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 0:
                raise ShapeError(f"{name} must be a non-negative integer, got {v!r}")
        if self.nx is not None and (not isinstance(self.nx, int) or self.nx < 0):
            raise ShapeError(f"nx must be a non-negative integer, got {self.nx!r}")
        if not (1 <= self.ny <= self.n):
            raise ShapeError(
                f"ny must satisfy 1 <= ny <= n = {self.n}, got ny = {self.ny}"
            )

    @property
    def n(self) -> int:
        return self.n0 + self.nplus + self.nq

    @property
    def N(self) -> int:
        return 1 << self.n

    @property
    def num_bins(self) -> int:
        return 1 << self.ny

    @property
    def bin_size(self) -> int:
        """B = 2^(n - ny), the number of indices sharing one outcome."""
        return 1 << (self.n - self.ny)

    @property
    def resource_dim(self) -> int:
        return 1 << self.nq

    @property
    def copies(self) -> int:
        """Number of repeated copies of each resource coefficient, 2^nplus."""
        return 1 << self.nplus

    @property
    def support(self) -> int:
        """Number of non-padding positions of the input state, 2^(nplus+nq)."""
        return 1 << (self.nplus + self.nq)

    @property
    def zero_class_size(self) -> int:
        return self.N - self.support

    @property
    def num_value_classes(self) -> int:
        """Value classes of input-state positions, including the zero class."""
        return self.resource_dim + 1

    def value_class_of(self, j: int) -> int:
        """Value class of input-state position j (last class = zero padding)."""
        if j < self.support:
            return j >> self.nplus
        return self.resource_dim


def _is_rational_seq(values) -> bool:
    return all(isinstance(v, (Fraction, int)) for v in values)


def _check_normalized(values: Sequence[Scalar], backend: str, what: str) -> None:
    if any(v < 0 for v in values):
        raise ValidationError(f"{what} has a negative entry")
    if backend == "rational":
        if sum(values) != 1:
            raise ValidationError(f"{what} does not sum to 1 exactly")
    else:
        total = math.fsum(values)
        if abs(total - 1.0) > FLOAT_ATOL:
            raise ValidationError(f"{what} sums to {total}, not 1 within {FLOAT_ATOL}")


@dataclass(frozen=True)
class ResourceState:
    """Squared magnitudes of the nq-qubit resource state.

    Phases are carried only for fidelity to the sampling construction; no
    operation in this package reads them (measurement statistics depend on
    magnitudes only).
    """

    squared_magnitudes: tuple
    backend: str
    phases: Optional[tuple] = None

    def __post_init__(self):
        if self.backend not in ("rational", "float"):
            raise ValidationError(f"unknown backend {self.backend!r}")
        dim = len(self.squared_magnitudes)
        if dim < 1 or dim & (dim - 1):
            raise ShapeError(f"state length {dim} is not a power of two")
        _check_normalized(self.squared_magnitudes, self.backend, "resource state")
        if self.phases is not None and len(self.phases) != dim:
            raise ShapeError("phases length does not match state length")

    @property
    def nq(self) -> int:
        return len(self.squared_magnitudes).bit_length() - 1


def rational_state(values: Sequence) -> ResourceState:
    """Build an exact-rational resource state from any Fraction-convertible values."""
    return ResourceState(tuple(Fraction(v) for v in values), "rational")


def float_state(values: Sequence[float], phases: Optional[Sequence[float]] = None) -> ResourceState:
    return ResourceState(
        tuple(float(v) for v in values),
        "float",
        None if phases is None else tuple(float(p) for p in phases),
    )


@dataclass(frozen=True)
class InputState:
    """The N-dimensional input state: repeated resource coefficients then zeros."""

    squared_magnitudes: tuple
    shape: RegisterShape

    def __post_init__(self):
        if len(self.squared_magnitudes) != self.shape.N:
            raise ShapeError(
                f"input state length {len(self.squared_magnitudes)} != N = {self.shape.N}"
            )

    @property
    def backend(self) -> str:
        return "rational" if _is_rational_seq(self.squared_magnitudes) else "float"


def build_input_state(shape: RegisterShape, psi: ResourceState) -> InputState:
    """Expand a resource state into the block-repeat-then-zeros input layout.

    Position k holds |psi_i|^2 / 2^nplus for k in the i-th block of length
    2^nplus, followed by N - 2^(nplus+nq) zeros.
    """
    if len(psi.squared_magnitudes) != shape.resource_dim:
        raise ShapeError(
            f"resource state has {len(psi.squared_magnitudes)} entries, "
            f"shape expects {shape.resource_dim}"
        )
    copies = shape.copies
    zero: Scalar = Fraction(0) if psi.backend == "rational" else 0.0
    entries: list = []
    for q in psi.squared_magnitudes:
        entries.extend([q / copies] * copies)
    entries.extend([zero] * shape.zero_class_size)
    return InputState(tuple(entries), shape)


@dataclass(frozen=True)
class Permutation:
    """A bijection on {0..N-1}, stored as its image array."""

    image: tuple

    def __post_init__(self):
        n = len(self.image)
        seen = [False] * n
        for v in self.image:
            if not isinstance(v, int) or not (0 <= v < n) or seen[v]:
                raise ValidationError("image is not a bijection on {0..N-1}")
            seen[v] = True

    @property
    def size(self) -> int:
        return len(self.image)

    def __call__(self, k: int) -> int:
        return self.image[k]


def identity(N: int) -> Permutation:
    return Permutation(tuple(range(N)))


def transposition(i: int, j: int, N: int) -> Permutation:
    """The transposition T(i, j) on {0..N-1}; T(i, i) is the identity."""
    if not (0 <= i < N and 0 <= j < N):
        raise IndexError(f"transposition indices ({i}, {j}) out of range for N = {N}")
    image = list(range(N))
    image[i], image[j] = image[j], image[i]
    return Permutation(tuple(image))


def compose(a: Permutation, b: Permutation) -> Permutation:
    """The composition a after b: k -> a(b(k))."""
    if a.size != b.size:
        raise ShapeError(f"cannot compose permutations of sizes {a.size} and {b.size}")
    bi = b.image
    ai = a.image
    return Permutation(tuple(ai[bi[k]] for k in range(a.size)))


def invert(a: Permutation) -> Permutation:
    inv = [0] * a.size
    for k, v in enumerate(a.image):
        inv[v] = k
    return Permutation(tuple(inv))


def random_permutation(N: int, rng: random.Random) -> Permutation:
    image = list(range(N))
    rng.shuffle(image)
    return Permutation(tuple(image))


@dataclass(frozen=True)
class OutcomeDistribution:
    """Probabilities over the 2^ny measurement outcomes."""

    probabilities: tuple

    def __post_init__(self):
        _check_normalized(
            self.probabilities,
            "rational" if _is_rational_seq(self.probabilities) else "float",
            "outcome distribution",
        )


def output_distribution(input_state: InputState, p: Permutation) -> OutcomeDistribution:
    """Permute-then-measure distribution: probabilities[y] = sum over the bin
    of y of the permuted squared magnitudes (pulled back through p^-1)."""
    shape = input_state.shape
    if p.size != shape.N:
        raise ShapeError(f"permutation size {p.size} != N = {shape.N}")
    q = input_state.squared_magnitudes
    inv = invert(p).image
    B = shape.bin_size
    if input_state.backend == "rational":
        probs = tuple(
            sum((q[inv[j]] for j in range(y * B, (y + 1) * B)), Fraction(0))
            for y in range(shape.num_bins)
        )
    else:
        probs = tuple(
            math.fsum(q[inv[j]] for j in range(y * B, (y + 1) * B))
            for y in range(shape.num_bins)
        )
    return OutcomeDistribution(probs)


def sample_outcome(input_state: InputState, p: Permutation, rng: random.Random) -> str:
    """Measure-then-permute sampling: draw index j with probability q[j] and
    return the top ny bits of p(j) as a bitstring."""
    shape = input_state.shape
    if p.size != shape.N:
        raise ShapeError(f"permutation size {p.size} != N = {shape.N}")
    q = input_state.squared_magnitudes
    # ValidationError (not silent renormalization) on bad mass, per contract.
    _check_normalized(q, input_state.backend, "input state")
    u = rng.random()
    acc = 0.0
    j = max(k for k, mass in enumerate(q) if mass > 0)
    for k, mass in enumerate(q):
        acc += float(mass)
        if u < acc:
            j = k
            break
    y = p(j) >> (shape.n - shape.ny)
    return format(y, f"0{shape.ny}b")


def _pushforward_distribution(input_state: InputState, p: Permutation) -> tuple:
    """Measure-then-permute distribution: push each mass q[j] to the bin of p(j)."""
    shape = input_state.shape
    q = input_state.squared_magnitudes
    B = shape.bin_size
    if input_state.backend == "rational":
        probs = [Fraction(0)] * shape.num_bins
        for j, mass in enumerate(q):
            probs[p(j) // B] += mass
        return tuple(probs)
    bins: list = [[] for _ in range(shape.num_bins)]
    for j, mass in enumerate(q):
        bins[p(j) // B].append(mass)
    return tuple(math.fsum(b) for b in bins)


def deferred_equivalence_check(input_state: InputState, p: Permutation) -> bool:
    """Check that measure-then-permute and permute-then-measure agree.

    The two sides are computed by independent routes (forward mass push vs.
    inverse-image bin sums). Equality is exact on the rational backend and
    within 1e-12 per entry on floats; a False return indicates a bug.
    """
    if p.size != input_state.shape.N:
        raise ShapeError(f"permutation size {p.size} != N = {input_state.shape.N}")
    forward = _pushforward_distribution(input_state, p)
    backward = output_distribution(input_state, p).probabilities
    tol = 0 if input_state.backend == "rational" else FLOAT_ATOL
    return all(abs(a - b) <= tol for a, b in zip(forward, backward))
