"""Optimal measurements for a pair of pure final states.

Constructs the minimum-error two-outcome measurement and the zero-
misidentification three-outcome measurement for equiprobable states, and
evaluates POVMs on a state pair. Equal priors are assumed throughout.

Both optimal measurements act only on the two-dimensional span of the
pair, so they are built, validated and evaluated there: each effect is a
2x2 block in an orthonormal basis of the span (1x1 for coinciding states)
plus a weight on the projector onto the complement. No n x n array is
formed, at any ambient dimension n.
The 2x2 blocks' entries are formed in closed form on Python scalars, and
blocks of size at most 2 are validated and evaluated on Python scalars,
since numpy's per-call overhead would dwarf the arithmetic. Larger blocks,
of a dense POVM passed in, are validated and evaluated as one stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, ShapeError, ValidationError
from .geometry import trace_distance_pure
from .tolerances import COINCIDE_TOL, POVM_TOL

IDENTIFY_1 = "identify_1"
IDENTIFY_2 = "identify_2"
INCONCLUSIVE = "inconclusive"
_ALLOWED_LABELS = (IDENTIFY_1, IDENTIFY_2, INCONCLUSIVE)


@dataclass(eq=False)
class Povm:
    """Measurement as labelled positive effects summing to the identity.

    ``effects`` is one (m, k, k) stack, one block per label. Effect j is
    ``basis @ effects[j] @ basis^H + rest[j] * (I - basis @ basis^H)``:
    a k x k block on the span of the orthonormal columns of ``basis`` (n x k)
    and a weight on the complement of that span. Without a basis the POVM
    covers the whole space: ``basis`` is the n x n identity, every effect is
    the full operator and every weight is 0.
    """

    effects: np.ndarray
    labels: tuple[str, ...]
    basis: np.ndarray | None = None
    rest: np.ndarray | None = None

    def __post_init__(self):
        if isinstance(self.labels, str):  # would be split into characters
            raise ValidationError(
                f"labels must be a sequence of outcome labels, got the string {self.labels!r}")
        self.labels = tuple(self.labels)
        if not self.labels:
            raise ValidationError("a POVM needs at least one effect")
        for lab in self.labels:
            if lab not in _ALLOWED_LABELS:
                raise ValidationError(f"unknown outcome label {lab!r}")
        if len(set(self.labels)) != len(self.labels):
            raise ValidationError("outcome labels must be unique")
        try:
            self.effects = np.asarray(self.effects, dtype=complex)
        except (TypeError, ValueError):  # a ragged list of blocks
            raise ValidationError("effects must be square blocks of one size") from None
        shape, m = self.effects.shape, len(self.labels)
        if len(shape) != 3 or shape[0] != m or not 0 < shape[1] == shape[2]:
            raise ValidationError(f"effects must stack into {m} square blocks, got shape {shape}")
        k = shape[1]
        try:
            self.basis = np.asarray(np.eye(k) if self.basis is None else self.basis, dtype=complex)
        except (TypeError, ValueError):  # a ragged list of rows
            raise ValidationError(f"basis must be an n x {k} matrix of numbers") from None
        if self.basis.ndim != 2 or self.basis.shape[1] != k:
            raise ValidationError(f"basis must be an n x {k} matrix, got shape {self.basis.shape}")
        try:
            rest = np.asarray(np.zeros(m) if self.rest is None else self.rest)
        except ValueError:  # a ragged list
            rest = None
        if rest is None or rest.dtype.kind not in "iuf":  # casting would drop imaginary parts
            raise ValidationError("rest must be real numbers, one complement weight per effect")
        self.rest = rest.astype(float, copy=False)
        if self.rest.shape != (m,):
            raise ValidationError("one complement weight per effect required")

    @property
    def dim(self) -> int:
        return int(self.basis.shape[0])

    def validate(self) -> None:
        """Check finiteness, the basis, then hermiticity, positivity and completeness.

        Blocks of size at most 2, the span form's, are read once onto Python
        scalars and checked in closed form; larger ones are checked as one stack.
        """
        n, k = self.basis.shape
        figures = _block_figures if k <= 2 else _stack_figures
        bad_block, basis_finite, basis_defect, asymmetry, lowest, defect = figures(self.basis,
                                                                                   self.effects)
        # every tolerance comparison below is False for NaN: refuse non-finite input first
        if bad_block is not None:
            raise ValidationError(f"{self._name(bad_block)} has non-finite entries")
        rest = self.rest.tolist()
        for j, w in enumerate(rest):  # finite weights may still overflow their sum, checked last
            if not math.isfinite(w):
                raise ValidationError(f"{self._name(j)} has non-finite complement weight {w}")
        # A non-finite entry in column j makes gram[j][j] non-finite, and so does a finite
        # basis whose Gram overflows: only then is the basis itself read.
        if not basis_finite:
            if not np.isfinite(self.basis).all():
                raise ValidationError("basis entries must be finite")
            raise ValidationError("basis columns are not orthonormal")
        if basis_defect > POVM_TOL:
            raise ValidationError("basis columns are not orthonormal")
        for j, (asym, lo, weight) in enumerate(zip(asymmetry, lowest, rest)):
            if asym > POVM_TOL:
                raise ValidationError(f"{self._name(j)} is not Hermitian")
            if lo < -POVM_TOL:
                raise ValidationError(f"{self._name(j)} has negative eigenvalue {lo:.3e}")
            if weight < -POVM_TOL:
                raise ValidationError(
                    f"{self._name(j)} has negative complement weight {weight:.3e}"
                )
        if defect > POVM_TOL:
            raise ValidationError(f"effects sum to identity only within {defect:.3e}")
        total = sum(rest)
        if k < n and abs(total - 1.0) > POVM_TOL:
            raise ValidationError(f"complement weights sum to {total:.12g}, not 1")

    def _name(self, j: int) -> str:
        return f"effect {j} ({self.labels[j]})"


# What Povm.validate checks, from the basis and the blocks: the first block with a non-finite
# entry (None if none), whether the diagonal of the basis Gram matrix is finite, the largest
# entry of |gram - I|, each block's largest entry of |B - B^H|, the lowest eigenvalue of each
# block's Hermitian part (B + B^H)/2, and the largest entry of |sum of blocks - I|.
_Figures = tuple[int | None, bool, float, list[float], list[float], float]


def _block_figures(basis: np.ndarray, blocks: np.ndarray) -> _Figures:
    """The figures for 1x1 or 2x2 blocks, in closed form on Python scalars.

    The eigenvalues of [[a, c], [c*, d]] are (a + d)/2 -+ sqrt(((a - d)/2)^2 + |c|^2),
    that of [[a]] is Re a. A non-finite entry makes its column of the
    blocks' sum non-finite, and so may an overflow: only then are the
    entries read one by one. The Gram entries come from ``np.vdot``, which,
    unlike a matrix product, warns of no overflow or infinite entry.
    """
    blocks = blocks.tolist()
    if len(blocks[0]) == 1:
        g = complex(np.vdot(basis, basis))
        entries = [a for ((a,),) in blocks]
        total = sum(entries)
        return (_first_non_finite(blocks, total), _finite(g), abs(g - 1.0),
                [2.0 * abs(a.imag) for a in entries], [a.real for a in entries], abs(total - 1.0))
    asymmetry, lowest = [], []
    s00 = s01 = s10 = s11 = 0j
    hypot = math.hypot
    for (a, c), (c_low, d) in blocks:
        c_up = c_low.conjugate()  # the entry of B^H facing c
        ar, dr = a.real, d.real
        asymmetry.append(max(2.0 * abs(a.imag), 2.0 * abs(d.imag), abs(c - c_up)))
        lowest.append((ar + dr) / 2.0 - hypot((ar - dr) / 2.0, abs(c + c_up) / 2.0))
        s00, s01, s10, s11 = s00 + a, s01 + c, s10 + c_low, s11 + d
    b0, b1 = basis.T
    g00, g01, g11 = complex(np.vdot(b0, b0)), complex(np.vdot(b0, b1)), complex(np.vdot(b1, b1))
    return (_first_non_finite(blocks, s00 + s01 + s10 + s11), _finite(g00 + g11),
            _identity_defect(g00, g01, g01.conjugate(), g11), asymmetry, lowest,
            _identity_defect(s00, s01, s10, s11))


def _finite(z: complex) -> bool:
    return math.isfinite(z.real) and math.isfinite(z.imag)


def _first_non_finite(blocks: list[list[list[complex]]], total: complex) -> int | None:
    """The first block with a non-finite entry, given the sum of all their entries."""
    if _finite(total):
        return None
    for j, block in enumerate(blocks):
        if not all(_finite(z) for row in block for z in row):
            return j
    return None  # the sum overflowed


def _stack_figures(basis: np.ndarray, blocks: np.ndarray) -> _Figures:
    """The figures for a stack of k x k blocks, k > 2: one batched eigvalsh, on finite blocks."""
    finite = np.isfinite(blocks).all(axis=(1, 2))
    if not finite.all():
        return int(np.argmin(finite)), False, math.nan, [], [], math.nan
    with np.errstate(over="ignore", invalid="ignore"):  # refused by the caller, without a warning
        gram = basis.conj().T @ basis
    eye = np.eye(blocks.shape[1])
    adjoints = blocks.conj().swapaxes(1, 2)
    asymmetry = np.abs(blocks - adjoints).max(axis=(1, 2)).tolist()
    lowest = (np.linalg.eigvalsh(blocks + adjoints)[:, 0] / 2.0).tolist()
    return (None, bool(np.isfinite(gram.diagonal()).all()), float(np.abs(gram - eye).max()),
            asymmetry, lowest, float(np.abs(blocks.sum(axis=0) - eye).max()))


def _identity_defect(m00: complex, m01: complex, m10: complex, m11: complex) -> float:
    """Largest entry of |M - I| for the 2x2 matrix [[m00, m01], [m10, m11]]."""
    return max(abs(m00 - 1.0), abs(m01), abs(m10), abs(m11 - 1.0))


def _born(blocks: np.ndarray, rest: np.ndarray, x: np.ndarray) -> list[list[float]]:
    """Probability of each outcome (row) for each state (column), clamped into [0, 1].

    Row s of ``x`` holds state s's coordinates in the basis; the state's
    mass outside the span, 1 - |x_s|^2, meets each effect's complement weight.
    Blocks of size at most 2 take <x|B|x> on Python scalars, larger ones one einsum.
    """
    k = blocks.shape[1]
    if k > 2:
        x_conj = x.conj()
        inside = np.einsum("si,eik,sk->es", x_conj, blocks, x).real
        outside = 1.0 - np.einsum("si,si->s", x_conj, x).real
        return (inside + rest[:, None] * outside).clip(0.0, 1.0).tolist()
    # both states unrolled: each is one coordinate pair, padded with 0 for a 1x1 block
    (p1, q1), (p2, q2) = x.tolist() if k == 2 else [(p, 0j) for p, in x.tolist()]
    c1, d1, c2, d2 = p1.conjugate(), q1.conjugate(), p2.conjugate(), q2.conjugate()
    out1, out2 = 1.0 - ((c1 * p1).real + (d1 * q1).real), 1.0 - ((c2 * p2).real + (d2 * q2).real)
    probs = []
    for block, w in zip(blocks.tolist(), rest.tolist()):
        (b00, b01), (b10, b11) = block if k == 2 else ((block[0][0], 0j), (0j, 0j))
        v1 = (c1 * (b00 * p1 + b01 * q1) + d1 * (b10 * p1 + b11 * q1)).real + w * out1
        v2 = (c2 * (b00 * p2 + b01 * q2) + d2 * (b10 * p2 + b11 * q2)).real + w * out2
        # clamped as numpy's clip does, which keeps a NaN
        probs.append([0.0 if v1 < 0.0 else 1.0 if v1 > 1.0 else v1,
                      0.0 if v2 < 0.0 else 1.0 if v2 > 1.0 else v2])
    return probs


@dataclass(frozen=True)
class DiscriminationOutcome:
    """Born probabilities of a POVM on a state pair, clamped into [0, 1]."""

    p_correct_1: float
    p_correct_2: float
    p_inconclusive_1: float
    p_inconclusive_2: float
    p_s: float


def helstrom_error(overlap: float) -> float:
    """Minimum achievable error probability at a given overlap magnitude."""
    if not 0.0 <= overlap <= 1.0:
        raise DomainError(f"overlap must lie in [0, 1], got {overlap!r}")
    return 0.5 * (1.0 - math.sqrt(1.0 - overlap * overlap))


@dataclass(frozen=True)
class StatePair:
    """Two checked states, the rows of one (2, n) array, and the trace distance that decides
    whether they coincide.

    The states coincide, spanning one dimension, when the distance is below
    ``2 * COINCIDE_TOL``: when the second's part orthogonal to the first is
    shorter than ``COINCIDE_TOL``. This is the toolkit's one test of it.
    ``basis`` (n x 2, or n x 1 for coinciding states) is an orthonormal basis
    (a, e2) of the span, ``coords`` both states' coordinates in it, one per
    row; both are built when a measurement first asks. Loose states enter
    through ``StatePair.of``; a trace carries its final pair as ``final``.
    """

    states: np.ndarray
    distance: float

    @classmethod
    def of(cls, phi1, phi2) -> "StatePair":
        """The pair of two loose states: stacked once, then checked and measured in one pass."""
        a, b = np.asarray(phi1, dtype=complex), np.asarray(phi2, dtype=complex)
        if a.ndim != 1 or b.shape != a.shape:
            raise ShapeError(f"expected two states of one length, got {a.shape} and {b.shape}")
        states = np.array([a, b])
        return cls(states, trace_distance_pure(states))

    @property
    def coincide(self) -> bool:
        """Whether the states coincide up to phase, so their span is one-dimensional."""
        return self.distance < 2.0 * COINCIDE_TOL

    @cached_property
    def basis(self) -> np.ndarray:
        a, b = self.states
        if self.coincide:
            return np.array([a]).T
        resid = b - np.vdot(a, b) * a
        # A second projection: when b nearly equals a, the first cancels and leaves
        # a residual whose rounding error is not orthogonal to a within POVM_TOL.
        resid -= np.vdot(a, resid) * a
        return np.array([a, resid / math.sqrt(np.vdot(resid, resid).real)]).T

    @cached_property
    def coords(self) -> np.ndarray:
        return self.states @ self.basis.conj()


def helstrom_povm(pair: StatePair) -> Povm:
    """Two-outcome measurement minimizing the average discrimination error.

    The identify-1 effect projects onto the nonnegative eigenspace of
    |phi1><phi1| - |phi2><phi2| (the complement of the span included),
    which makes both states succeed with probability (1 + sqrt(1-c^2))/2
    for overlap c. For coinciding states the difference operator vanishes
    and the fair coin {I/2, I/2} is returned so that both states still
    succeed at rate 1/2.

    In the span the difference is a 2x2 Hermitian matrix M. With
    N = M - tr(M)/2 its eigenvalues are tr(M)/2 +- lam, where
    lam = sqrt(h^2 + |M01|^2) and h = (M00 - M11)/2, so the projector onto
    the top eigenvector is I/2 + N/(2 lam), in closed form. Each state's
    coordinate row has unit norm, so h = |b2|^2 - |b1|^2 for rows (a_i, b_i):
    small terms only, free of the cancellation in |a1|^2 - |a2|^2 as the
    states approach.
    """
    basis = pair.basis
    if pair.coincide:
        halves = np.full((2, 1, 1), 0.5, dtype=complex)
        return Povm(halves, (IDENTIFY_1, IDENTIFY_2), basis, [0.5, 0.5])
    (a1, b1), (a2, b2) = pair.coords.tolist()
    h = abs(b2) ** 2 - abs(b1) ** 2
    m01 = a1 * b1.conjugate() - a2 * b2.conjugate()
    scale = 0.5 / math.hypot(h, abs(m01))
    tilt, off = h * scale, m01 * scale
    effects = np.array([[[0.5 + tilt, off], [off.conjugate(), 0.5 - tilt]],
                        [[0.5 - tilt, -off], [-off.conjugate(), 0.5 + tilt]]], dtype=complex)
    return Povm(effects, (IDENTIFY_1, IDENTIFY_2), basis, [1.0, 0.0])


def unambiguous_povm(pair: StatePair) -> Povm:
    """Three-outcome measurement that never misidentifies either state.

    The identify-i effect is (1/(1+c)) times the projector onto the part
    of phi_i orthogonal to the other state inside their span; both states
    then hit the inconclusive outcome with probability exactly c. In the
    span that part is the 2-vector orthogonal to the other state's
    coordinates (p, q), along (q*, -p*): its projector comes in closed form,
    free of the cancellation in 1 - |<phi1|phi2>|^2 as the states approach.

    Raises:
        DomainError: the states coincide (``StatePair.coincide``), so no
            such measurement exists.
    """
    if pair.coincide:
        raise DomainError(
            f"unambiguous discrimination impossible: the states coincide within {COINCIDE_TOL:g}"
        )
    x1, x2 = pair.coords.tolist()
    c = min(1.0, abs(x2[0]))  # x2[0] = <phi1|phi2>
    scale = 1.0 / (1.0 + c)
    a00, a01, a11 = _orthogonal_projector(x2, scale)
    b00, b01, b11 = _orthogonal_projector(x1, scale)
    c00, c01, c11 = 1.0 - a00 - b00, -a01 - b01, 1.0 - a11 - b11
    effects = np.array([[[a00, a01], [a01.conjugate(), a11]],
                        [[b00, b01], [b01.conjugate(), b11]],
                        [[c00, c01], [c01.conjugate(), c11]]], dtype=complex)
    return Povm(effects, (IDENTIFY_1, IDENTIFY_2, INCONCLUSIVE), pair.basis, [0.0, 0.0, 1.0])


def _orthogonal_projector(x: list[complex], scale: float) -> tuple[float, complex, float]:
    """Entries 00, 01, 11 of scale times the projector onto the 2-vectors orthogonal to (p, q)."""
    p, q = x
    pp, qq = abs(p) ** 2, abs(q) ** 2
    weight = scale / (pp + qq)
    return weight * qq, -weight * p * q.conjugate(), weight * pp


def evaluate_povm(povm: Povm, pair: StatePair) -> DiscriminationOutcome:
    """Born probabilities of a POVM on a state pair, after validating the POVM.

    A POVM built on the pair's basis reuses its coordinates. All outcomes
    are evaluated on both states at once and clamped into [0, 1].
    """
    n = pair.states.shape[1]
    if povm.dim != n:
        raise ShapeError(f"POVM dimension {povm.dim} does not match states ({n})")
    povm.validate()

    x = pair.coords if povm.basis is pair.basis else pair.states @ povm.basis.conj()
    # a basis of the whole space leaves no mass outside it: its weights meet no rounding of 0
    rest = povm.rest if povm.basis.shape[1] < n else np.zeros_like(povm.rest)
    by_label = dict(zip(povm.labels, _born(povm.effects, rest, x)))
    absent = (0.0, 0.0)
    p1, _ = by_label.get(IDENTIFY_1, absent)
    _, p2 = by_label.get(IDENTIFY_2, absent)
    inc1, inc2 = by_label.get(INCONCLUSIVE, absent)
    return DiscriminationOutcome(p1, p2, inc1, inc2, p1 + p2)
