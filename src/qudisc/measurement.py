"""Optimal measurements for a pair of pure final states.

Constructs the minimum-error two-outcome measurement and the zero-
misidentification three-outcome measurement for equiprobable states, and
evaluates POVMs on a state pair. Equal priors are assumed throughout.

Both optimal measurements act only on the two-dimensional span of the
pair, so they are built, validated and evaluated there: each effect is a
2x2 block in an orthonormal basis of the span (1x1 for a parallel pair)
plus a weight on the projector onto the complement. No n x n array is
formed, at any ambient dimension n; ``Povm.effect`` gives the dense view.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError, ValidationError
from .linalg import require_normalized

IDENTIFY_1 = "identify_1"
IDENTIFY_2 = "identify_2"
INCONCLUSIVE = "inconclusive"
_ALLOWED_LABELS = (IDENTIFY_1, IDENTIFY_2, INCONCLUSIVE)

# Eigenvalue floor for the positive-semidefiniteness check.
PSD_TOL = -1e-9
# Elementwise tolerance for the completeness (sum to identity) check.
COMPLETENESS_TOL = 1e-9
# Two states whose overlap magnitude is within this of 1 coincide up to phase.
COINCIDE_TOL = 1e-10
# Below this residual the two states are treated as identical up to phase.
_PARALLEL_TOL = 1e-9


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
        """Check the basis, then hermiticity, positivity and completeness of the effects."""
        n, k = self.basis.shape
        names = [f"effect {j} ({lab})" for j, lab in enumerate(self.labels)]
        for name, e in zip(names, self.effects):
            if e.shape != (k, k):
                raise ValidationError(f"{name} has shape {e.shape}")
        if np.abs(self.basis.conj().T @ self.basis - np.eye(k)).max() > COMPLETENESS_TOL:
            raise ValidationError("basis columns are not orthonormal")
        blocks = np.array(self.effects)
        adjoints = blocks.conj().transpose(0, 2, 1)
        asymmetry = np.abs(blocks - adjoints).max(axis=(1, 2))
        lowest = np.linalg.eigvalsh((blocks + adjoints) / 2.0)[:, 0]
        for name, asym, lo, weight in zip(names, asymmetry, lowest, self.rest):
            if asym > 1e-9:
                raise ValidationError(f"{name} is not Hermitian")
            if lo < PSD_TOL:
                raise ValidationError(f"{name} has negative eigenvalue {lo:.3e}")
            if weight < PSD_TOL:
                raise ValidationError(f"{name} has negative complement weight {weight:.3e}")
        defect = float(np.abs(blocks.sum(axis=0) - np.eye(k)).max())
        if defect > COMPLETENESS_TOL:
            raise ValidationError(f"effects sum to identity only within {defect:.3e}")
        total = float(self.rest.sum())
        if k < n and abs(total - 1.0) > COMPLETENESS_TOL:
            raise ValidationError(f"complement weights sum to {total:.12g}, not 1")

    def effect(self, label: str) -> np.ndarray | None:
        """The full n x n operator of an outcome, or None when the POVM lacks it."""
        if label not in self.labels:
            return None
        j = self.labels.index(label)
        b = self.basis
        outside = np.eye(self.dim) - b @ b.conj().T
        return b @ self.effects[j] @ b.conj().T + self.rest[j] * outside


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

    ``basis`` is n x 2, or n x 1 for a parallel pair, and ``coords`` holds
    both states' coordinates in it. Build it with ``StatePair.of``. The
    functions below accept a StatePair in place of the two states, so a pair
    measured twice is checked and spanned once.
    """

    states: tuple[np.ndarray, np.ndarray]
    basis: np.ndarray
    coords: tuple[np.ndarray, np.ndarray]

    @classmethod
    def of(cls, phi1, phi2) -> "StatePair":
        a, b = _normalized_pair(phi1, phi2)
        resid = b - np.vdot(a, b) * a
        rnorm = float(np.linalg.norm(resid))
        basis = np.column_stack([a] if rnorm < _PARALLEL_TOL else [a, resid / rnorm])
        adjoint = basis.conj().T
        return cls((a, b), basis, (adjoint @ a, adjoint @ b))


def _state_pair(phi1, phi2) -> StatePair:
    return phi1 if isinstance(phi1, StatePair) else StatePair.of(phi1, phi2)


def helstrom_povm(phi1, phi2=None) -> Povm:
    """Two-outcome measurement minimizing the average discrimination error.

    The identify-1 effect projects onto the nonnegative eigenspace of
    |phi1><phi1| - |phi2><phi2| (the complement of the span included),
    which makes both states succeed with probability (1 + sqrt(1-c^2))/2
    for overlap c. For a parallel pair the difference operator vanishes and
    the fair coin {I/2, I/2} is returned so that both states still succeed
    at rate 1/2.
    """
    pair = _state_pair(phi1, phi2)
    basis, (x1, x2) = pair.basis, pair.coords
    if basis.shape[1] == 1:
        half = np.full((1, 1), 0.5, dtype=complex)
        return Povm([half, half.copy()], [IDENTIFY_1, IDENTIFY_2], basis, [0.5, 0.5])
    diff = np.outer(x1, x1.conj()) - np.outer(x2, x2.conj())
    vals, vecs = np.linalg.eigh(diff)
    plus = vecs[:, int(np.argmax(vals))]  # eigenvector of the +sqrt(1-c^2) eigenvalue
    pi1 = np.outer(plus, plus.conj())
    return Povm([pi1, np.eye(2) - pi1], [IDENTIFY_1, IDENTIFY_2], basis, [1.0, 0.0])


def unambiguous_povm(phi1, phi2=None) -> Povm:
    """Three-outcome measurement that never misidentifies either state.

    The identify-i effect is (1/(1+c)) times the projector onto the part
    of phi_i orthogonal to the other state inside their span; both states
    then hit the inconclusive outcome with probability exactly c.
    """
    pair = _state_pair(phi1, phi2)
    basis, (x1, x2) = pair.basis, pair.coords
    c = min(1.0, float(abs(x2[0])))  # x2[0] = <phi1|phi2>
    if c >= 1.0 - COINCIDE_TOL:
        raise DomainError(
            f"unambiguous discrimination impossible: overlap {c:.12f} is 1 within {COINCIDE_TOL:g}"
        )
    u1 = x1 - np.vdot(x2, x1) * x2  # component of phi1 orthogonal to phi2
    u1 /= np.linalg.norm(u1)
    u2 = x2 - np.vdot(x1, x2) * x1
    u2 /= np.linalg.norm(u2)
    scale = 1.0 / (1.0 + c)
    pi1 = scale * np.outer(u1, u1.conj())
    pi2 = scale * np.outer(u2, u2.conj())
    labels = [IDENTIFY_1, IDENTIFY_2, INCONCLUSIVE]
    return Povm([pi1, pi2, np.eye(2) - pi1 - pi2], labels, basis, [0.0, 0.0, 1.0])


def _clamp01(x: float) -> float:
    return 0.0 if x < 0.0 else (1.0 if x > 1.0 else x)


def _born(povm: Povm, label: str, x: np.ndarray, outside: float) -> float:
    """Probability of an outcome for a state with span coordinates x and mass outside the span."""
    if label not in povm.labels:
        return 0.0
    j = povm.labels.index(label)
    inside = float(np.vdot(x, povm.effects[j] @ x).real)
    return _clamp01(inside + float(povm.rest[j]) * outside)


def evaluate_povm(povm: Povm, phi1, phi2=None) -> DiscriminationOutcome:
    """Born probabilities of a POVM on a state pair, after validating the POVM.

    The pair is two states, or a StatePair passed as ``phi1`` alone.
    """
    a, b = phi1.states if isinstance(phi1, StatePair) else _normalized_pair(phi1, phi2)
    if povm.dim != a.shape[0]:
        raise ShapeError(f"POVM dimension {povm.dim} does not match states ({a.shape[0]})")
    povm.validate()

    adjoint = povm.basis.conj().T
    x1, x2 = adjoint @ a, adjoint @ b
    out1 = 1.0 - float(np.vdot(x1, x1).real)
    out2 = 1.0 - float(np.vdot(x2, x2).real)
    p1 = _born(povm, IDENTIFY_1, x1, out1)
    p2 = _born(povm, IDENTIFY_2, x2, out2)
    return DiscriminationOutcome(
        p_correct_1=p1,
        p_correct_2=p2,
        p_inconclusive_1=_born(povm, INCONCLUSIVE, x1, out1),
        p_inconclusive_2=_born(povm, INCONCLUSIVE, x2, out2),
        p_s=p1 + p2,
    )
