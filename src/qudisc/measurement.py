"""Optimal measurements for a pair of pure final states.

Constructs the minimum-error two-outcome measurement and the zero-
misidentification three-outcome measurement for equiprobable states, and
evaluates POVMs on a state pair. Equal priors are assumed throughout.

Both optimal measurements act only on the two-dimensional span of the
pair, so they are built, validated and evaluated there: each effect is a
2x2 block in an orthonormal basis of the span (1x1 for coinciding states)
plus a weight on the projector onto the complement. No n x n array is
formed, at any ambient dimension n; ``Povm.effect`` gives the dense view.
The 2x2 blocks are built and checked in closed form on Python scalars,
since numpy's per-call overhead would dwarf the arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError, ValidationError
from .linalg import require_normalized
from .tolerances import COINCIDE_TOL, POVM_TOL

IDENTIFY_1 = "identify_1"
IDENTIFY_2 = "identify_2"
INCONCLUSIVE = "inconclusive"
_ALLOWED_LABELS = (IDENTIFY_1, IDENTIFY_2, INCONCLUSIVE)


@dataclass(eq=False)
class Povm:
    """Measurement as labelled positive effects summing to the identity.

    Effect j is ``basis @ effects[j] @ basis^H + rest[j] * (I - basis @ basis^H)``:
    a k x k block on the span of the orthonormal columns of ``basis`` (n x k)
    and a weight on the complement of that span. Without a basis the POVM
    covers the whole space: ``basis`` is the n x n identity, every effect is
    the full operator and every weight is 0.
    """

    effects: list[np.ndarray]
    labels: list[str]
    basis: np.ndarray | None = None
    rest: np.ndarray | None = None

    def __post_init__(self):
        if len(self.effects) != len(self.labels):
            raise ValidationError("one label per effect required")
        if len(self.effects) == 0:
            raise ValidationError("a POVM needs at least one effect")
        for lab in self.labels:
            if lab not in _ALLOWED_LABELS:
                raise ValidationError(f"unknown outcome label {lab!r}")
        if len(set(self.labels)) != len(self.labels):
            raise ValidationError("outcome labels must be unique")
        self.effects = [np.asarray(e, dtype=complex) for e in self.effects]
        if self.basis is None:
            self.basis = np.eye(self.effects[0].shape[0])
        self.basis = np.asarray(self.basis, dtype=complex)
        if self.basis.ndim != 2:
            raise ValidationError(f"basis must be an n x k matrix, got shape {self.basis.shape}")
        if self.rest is None:
            self.rest = np.zeros(len(self.effects))
        self.rest = np.asarray(self.rest, dtype=float)
        if self.rest.shape != (len(self.effects),):
            raise ValidationError("one complement weight per effect required")

    @property
    def dim(self) -> int:
        return int(self.basis.shape[0])

    def validate(self) -> None:
        """Check finiteness, the basis, then hermiticity, positivity and completeness.

        Each property is checked for all blocks at once, on their stack.
        """
        n, k = self.basis.shape
        for j, e in enumerate(self.effects):
            if e.shape != (k, k):
                raise ValidationError(f"{self._name(j)} has shape {e.shape}")
        # every tolerance comparison below is False for NaN: refuse non-finite input first
        blocks = np.array(self.effects)
        if not np.isfinite(blocks).all():
            j = int(np.argmax(~np.isfinite(blocks).all(axis=(1, 2))))
            raise ValidationError(f"{self._name(j)} has non-finite entries")
        rest = self.rest.tolist()
        if not math.isfinite(sum(rest)):
            j = next(j for j, w in enumerate(rest) if not math.isfinite(w))
            raise ValidationError(f"{self._name(j)} has non-finite complement weight {rest[j]}")
        if not np.isfinite(self.basis).all():
            raise ValidationError("basis entries must be finite")
        gram = self.basis.conj().T @ self.basis
        basis_defect, asymmetry, lowest, defect = _validation_figures(gram, blocks)
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

    def effect(self, label: str) -> np.ndarray | None:
        """The full n x n operator of an outcome, or None when the POVM lacks it."""
        if label not in self.labels:
            return None
        j = self.labels.index(label)
        b = self.basis
        outside = np.eye(self.dim) - b @ b.conj().T
        return b @ self.effects[j] @ b.conj().T + self.rest[j] * outside


def _validation_figures(gram: np.ndarray,
                        blocks: np.ndarray) -> tuple[float, list[float], list[float], float]:
    """The figures ``Povm.validate`` checks, for a basis Gram matrix and a stack of k x k blocks.

    Returns the largest entry of |gram - I|, each block's largest entry of
    |B - B^H|, the lowest eigenvalue of each block's Hermitian part
    (B + B^H)/2, and the largest entry of |sum of blocks - I|. The span
    form's 2x2 blocks take the closed form on Python scalars, free of
    per-call array overhead: the eigenvalues of [[a, c], [c*, d]] are
    (a + d)/2 -+ sqrt(((a - d)/2)^2 + |c|^2). Other sizes (1x1 for a
    coinciding pair, the full effects of a dense POVM) take one batched eigvalsh.
    """
    k = blocks.shape[1]
    if k != 2:
        eye = np.eye(k)
        adjoints = blocks.conj().swapaxes(1, 2)
        asymmetry = np.abs(blocks - adjoints).max(axis=(1, 2)).tolist()
        lowest = (np.linalg.eigvalsh(blocks + adjoints)[:, 0] / 2.0).tolist()
        return (float(np.abs(gram - eye).max()), asymmetry, lowest,
                float(np.abs(blocks.sum(axis=0) - eye).max()))
    asymmetry, lowest = [], []
    s00 = s01 = s10 = s11 = 0j
    for (a, c), (c_low, d) in blocks.tolist():
        asymmetry.append(max(2.0 * abs(a.imag), 2.0 * abs(d.imag), abs(c - c_low.conjugate())))
        half_gap = math.hypot((a.real - d.real) / 2.0, abs(c + c_low.conjugate()) / 2.0)
        lowest.append((a.real + d.real) / 2.0 - half_gap)
        s00, s01, s10, s11 = s00 + a, s01 + c, s10 + c_low, s11 + d
    (g00, g01), (g10, g11) = gram.tolist()
    return (_identity_defect(g00, g01, g10, g11), asymmetry, lowest,
            _identity_defect(s00, s01, s10, s11))


def _identity_defect(m00: complex, m01: complex, m10: complex, m11: complex) -> float:
    """Largest entry of |M - I| for the 2x2 matrix [[m00, m01], [m10, m11]]."""
    return max(abs(m00 - 1.0), abs(m01), abs(m10), abs(m11 - 1.0))


def _born(blocks: np.ndarray, rest: np.ndarray, x: np.ndarray) -> list[list[float]]:
    """Probability of each outcome (row) for each state (column), clamped into [0, 1].

    Row s of ``x`` holds state s's coordinates in the basis; the state's
    mass outside the span, 1 - |x_s|^2, meets each effect's complement weight.
    """
    x_conj = x.conj()
    inside = np.einsum("si,eik,sk->es", x_conj, blocks, x).real
    outside = 1.0 - np.einsum("si,si->s", x_conj, x).real
    return (inside + rest[:, None] * outside).clip(0.0, 1.0).tolist()


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


def _normalized_pair(phi1, phi2) -> tuple[np.ndarray, np.ndarray]:
    a = require_normalized(phi1)
    b = require_normalized(phi2)
    if a.shape != b.shape:
        raise ShapeError(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")
    return a, b


@dataclass(frozen=True)
class StatePair:
    """Two checked states with an orthonormal basis (a, e2) of their span.

    ``basis`` is n x 2, or n x 1 when the states coincide: when the part of
    the second orthogonal to the first has norm below ``COINCIDE_TOL``.
    This is the toolkit's one test of coinciding states. ``coords`` holds
    both states' coordinates in the basis, one state per row. Build it with
    ``StatePair.of``. The functions below accept a StatePair in place of the
    two states, so a pair measured twice is checked and spanned once.
    """

    states: tuple[np.ndarray, np.ndarray]
    basis: np.ndarray
    coords: np.ndarray

    @classmethod
    def of(cls, phi1, phi2) -> "StatePair":
        a, b = _normalized_pair(phi1, phi2)
        resid = b - np.vdot(a, b) * a
        rnorm = math.sqrt(np.vdot(resid, resid).real)
        basis = np.array([a] if rnorm < COINCIDE_TOL else [a, resid / rnorm]).T
        return cls((a, b), basis, _coords(a, b, basis))

    @property
    def coincide(self) -> bool:
        """Whether the states coincide up to phase, so their span is one-dimensional."""
        return self.basis.shape[1] == 1


def _coords(a: np.ndarray, b: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Coordinates of two states in the orthonormal columns of ``basis``, one row each."""
    return np.array([a, b]) @ basis.conj()


def _state_pair(phi1, phi2) -> StatePair:
    return phi1 if isinstance(phi1, StatePair) else StatePair.of(phi1, phi2)


def _block(m00: float, m01: complex, m11: float) -> np.ndarray:
    """The 2x2 Hermitian block [[m00, m01], [conj(m01), m11]]."""
    return np.array([[m00, m01], [m01.conjugate(), m11]], dtype=complex)


def helstrom_povm(phi1, phi2=None) -> Povm:
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
    the top eigenvector is I/2 + N/(2 lam), in closed form.
    """
    pair = _state_pair(phi1, phi2)
    basis = pair.basis
    if pair.coincide:
        half = np.full((1, 1), 0.5, dtype=complex)
        return Povm([half, half.copy()], [IDENTIFY_1, IDENTIFY_2], basis, [0.5, 0.5])
    (a1, b1), (a2, b2) = pair.coords.tolist()
    h = (abs(a1) ** 2 - abs(a2) ** 2 - abs(b1) ** 2 + abs(b2) ** 2) / 2.0
    m01 = a1 * b1.conjugate() - a2 * b2.conjugate()
    scale = 0.5 / math.hypot(h, abs(m01))
    tilt, off = h * scale, m01 * scale
    pi1 = _block(0.5 + tilt, off, 0.5 - tilt)
    pi2 = _block(0.5 - tilt, -off, 0.5 + tilt)
    return Povm([pi1, pi2], [IDENTIFY_1, IDENTIFY_2], basis, [1.0, 0.0])


def unambiguous_povm(phi1, phi2=None) -> Povm:
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
    pair = _state_pair(phi1, phi2)
    if pair.coincide:
        raise DomainError(
            f"unambiguous discrimination impossible: the states coincide within {COINCIDE_TOL:g}"
        )
    x1, x2 = pair.coords.tolist()
    c = min(1.0, abs(x2[0]))  # x2[0] = <phi1|phi2>
    scale = 1.0 / (1.0 + c)
    a00, a01, a11 = _orthogonal_projector(x2, scale)
    b00, b01, b11 = _orthogonal_projector(x1, scale)
    effects = [_block(a00, a01, a11), _block(b00, b01, b11),
               _block(1.0 - a00 - b00, -a01 - b01, 1.0 - a11 - b11)]
    labels = [IDENTIFY_1, IDENTIFY_2, INCONCLUSIVE]
    return Povm(effects, labels, pair.basis, [0.0, 0.0, 1.0])


def _orthogonal_projector(x: list[complex], scale: float) -> tuple[float, complex, float]:
    """Entries 00, 01, 11 of scale times the projector onto the 2-vectors orthogonal to (p, q)."""
    p, q = x
    pp, qq = abs(p) ** 2, abs(q) ** 2
    weight = scale / (pp + qq)
    return weight * qq, -weight * p * q.conjugate(), weight * pp


def evaluate_povm(povm: Povm, phi1, phi2=None) -> DiscriminationOutcome:
    """Born probabilities of a POVM on a state pair, after validating the POVM.

    The pair is two states, or a StatePair passed as ``phi1`` alone. A POVM
    built on that StatePair's basis reuses its coordinates. All outcomes are
    evaluated on both states at once and clamped into [0, 1].
    """
    pair = phi1 if isinstance(phi1, StatePair) else None
    a, b = pair.states if pair is not None else _normalized_pair(phi1, phi2)
    if povm.dim != a.shape[0]:
        raise ShapeError(f"POVM dimension {povm.dim} does not match states ({a.shape[0]})")
    povm.validate()

    x = pair.coords if pair is not None and povm.basis is pair.basis else _coords(a, b, povm.basis)
    by_label = dict(zip(povm.labels, _born(np.array(povm.effects), povm.rest, x)))
    absent = (0.0, 0.0)
    p1, _ = by_label.get(IDENTIFY_1, absent)
    _, p2 = by_label.get(IDENTIFY_2, absent)
    inc1, inc2 = by_label.get(INCONCLUSIVE, absent)
    return DiscriminationOutcome(
        p_correct_1=p1,
        p_correct_2=p2,
        p_inconclusive_1=inc1,
        p_inconclusive_2=inc2,
        p_s=p1 + p2,
    )
