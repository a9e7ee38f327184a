"""Optimal measurements for a pair of pure final states.

Constructs the minimum-error two-outcome measurement and the zero-
misidentification three-outcome measurement for equiprobable states,
evaluates arbitrary POVMs on a state pair, and checks the result against
an error budget. Equal priors are assumed throughout.

All constructions work inside the two-dimensional span of the state pair
and embed back, so they stay numerically stable at any ambient dimension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import ErrorBudget, ErrorMode
from .errors import DomainError, ShapeError, UsageError, ValidationError
from .linalg import require_normalized

IDENTIFY_1 = "identify_1"
IDENTIFY_2 = "identify_2"
INCONCLUSIVE = "inconclusive"
_ALLOWED_LABELS = (IDENTIFY_1, IDENTIFY_2, INCONCLUSIVE)

# Eigenvalue floor for the positive-semidefiniteness check.
PSD_TOL = -1e-9
# Elementwise tolerance for the completeness (sum to identity) check.
COMPLETENESS_TOL = 1e-9
# Margin tolerance for budget compliance.
COMPLIANCE_TOL = 1e-9
# Below this residual the two states are treated as identical up to phase.
_PARALLEL_TOL = 1e-9


@dataclass(eq=False)
class Povm:
    """Measurement as labelled positive effects summing to the identity."""

    effects: list[np.ndarray]
    labels: list[str]

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

    @property
    def dim(self) -> int:
        return int(self.effects[0].shape[0])

    def validate(self) -> None:
        """Check hermiticity, positivity, and completeness of the effect set."""
        dim = self.dim
        total = np.zeros((dim, dim), dtype=complex)
        for k, e in enumerate(self.effects):
            if e.shape != (dim, dim):
                raise ValidationError(f"effect {k} ({self.labels[k]}) has shape {e.shape}")
            if np.max(np.abs(e - e.conj().T)) > 1e-9:
                raise ValidationError(f"effect {k} ({self.labels[k]}) is not Hermitian")
            lo = float(np.min(np.linalg.eigvalsh((e + e.conj().T) / 2.0)))
            if lo < PSD_TOL:
                raise ValidationError(
                    f"effect {k} ({self.labels[k]}) has negative eigenvalue {lo:.3e}"
                )
            total += e
        defect = float(np.max(np.abs(total - np.eye(dim))))
        if defect > COMPLETENESS_TOL:
            raise ValidationError(f"effects sum to identity only within {defect:.3e}")

    def effect(self, label: str) -> np.ndarray | None:
        if label in self.labels:
            return self.effects[self.labels.index(label)]
        return None


@dataclass(frozen=True)
class DiscriminationOutcome:
    """Born probabilities of a POVM on a state pair, clamped into [0, 1]."""

    p_correct_1: float
    p_correct_2: float
    p_inconclusive_1: float
    p_inconclusive_2: float
    p_s: float
    labels: tuple[str, ...]

    @property
    def p_misidentify_1(self) -> float:
        """Probability that state 2 triggers the identify-1 outcome."""
        return max(0.0, 1.0 - self.p_correct_2 - self.p_inconclusive_2)

    @property
    def p_misidentify_2(self) -> float:
        """Probability that state 1 triggers the identify-2 outcome."""
        return max(0.0, 1.0 - self.p_correct_1 - self.p_inconclusive_1)


@dataclass(frozen=True)
class ComplianceReport:
    ok: bool
    margins: dict[str, float]


def helstrom_error(overlap: float) -> float:
    """Minimum achievable error probability at a given overlap magnitude."""
    if not 0.0 <= overlap <= 1.0:
        raise DomainError(f"overlap must lie in [0, 1], got {overlap!r}")
    return 0.5 * (1.0 - math.sqrt(1.0 - overlap * overlap))


def _span_basis(phi1: np.ndarray, phi2: np.ndarray):
    """Orthonormal basis (e1=phi1, e2) of the span, or None when parallel."""
    e1 = phi1
    resid = phi2 - np.vdot(e1, phi2) * e1
    rnorm = float(np.linalg.norm(resid))
    if rnorm < _PARALLEL_TOL:
        return e1, None
    return e1, resid / rnorm


def helstrom_povm(phi1, phi2) -> Povm:
    """Two-outcome measurement minimizing the average discrimination error.

    The identify-1 effect projects onto the nonnegative eigenspace of
    |phi1><phi1| - |phi2><phi2| (the ambient kernel included), which makes
    both states succeed with probability (1 + sqrt(1-c^2))/2 for overlap c.
    For a parallel pair the difference operator vanishes and the fair coin
    {I/2, I/2} is returned so that both states still succeed at rate 1/2.
    """
    a = require_normalized(phi1)
    b = require_normalized(phi2)
    if a.shape != b.shape:
        raise ShapeError(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")
    dim = a.shape[0]
    eye = np.eye(dim, dtype=complex)

    e1, e2 = _span_basis(a, b)
    if e2 is None:
        half = eye / 2.0
        return Povm(effects=[half, half.copy()], labels=[IDENTIFY_1, IDENTIFY_2])

    basis = np.column_stack([e1, e2])  # dim x 2, orthonormal columns
    a2 = basis.conj().T @ a
    b2 = basis.conj().T @ b
    diff = np.outer(a2, a2.conj()) - np.outer(b2, b2.conj())
    vals, vecs = np.linalg.eigh(diff)
    plus = basis @ vecs[:, int(np.argmax(vals))]  # eigenvector of the +sqrt(1-c^2) eigenvalue
    span_proj = basis @ basis.conj().T
    pi1 = np.outer(plus, plus.conj()) + (eye - span_proj)
    pi2 = eye - pi1
    return Povm(effects=[pi1, pi2], labels=[IDENTIFY_1, IDENTIFY_2])


def unambiguous_povm(phi1, phi2) -> Povm:
    """Three-outcome measurement that never misidentifies either state.

    The identify-i effect is (1/(1+c)) times the projector onto the part
    of phi_i orthogonal to the other state inside their span; both states
    then hit the inconclusive outcome with probability exactly c.
    """
    a = require_normalized(phi1)
    b = require_normalized(phi2)
    if a.shape != b.shape:
        raise ShapeError(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")
    c = min(1.0, float(abs(np.vdot(a, b))))
    if c >= 1.0 - 1e-10:
        raise DomainError(
            f"unambiguous discrimination impossible: overlap {c:.12f} is 1 within 1e-10"
        )
    dim = a.shape[0]

    u1 = a - np.vdot(b, a) * b  # component of phi1 orthogonal to phi2
    u1 /= np.linalg.norm(u1)
    u2 = b - np.vdot(a, b) * a
    u2 /= np.linalg.norm(u2)
    scale = 1.0 / (1.0 + c)
    pi1 = scale * np.outer(u1, u1.conj())
    pi2 = scale * np.outer(u2, u2.conj())
    pi0 = np.eye(dim, dtype=complex) - pi1 - pi2
    return Povm(effects=[pi1, pi2, pi0], labels=[IDENTIFY_1, IDENTIFY_2, INCONCLUSIVE])


def _clamp01(x: float) -> float:
    return 0.0 if x < 0.0 else (1.0 if x > 1.0 else x)


def _born(effect: np.ndarray | None, state: np.ndarray) -> float:
    if effect is None:
        return 0.0
    return _clamp01(float(np.real(np.vdot(state, effect @ state))))


def evaluate_povm(povm: Povm, phi1, phi2) -> DiscriminationOutcome:
    """Born probabilities of a POVM on a state pair, after validating the POVM."""
    a = require_normalized(phi1)
    b = require_normalized(phi2)
    if a.shape != b.shape:
        raise ShapeError(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")
    if povm.dim != a.shape[0]:
        raise ShapeError(f"POVM dimension {povm.dim} does not match states ({a.shape[0]})")
    povm.validate()

    p1 = _born(povm.effect(IDENTIFY_1), a)
    p2 = _born(povm.effect(IDENTIFY_2), b)
    inc = povm.effect(INCONCLUSIVE)
    return DiscriminationOutcome(
        p_correct_1=p1,
        p_correct_2=p2,
        p_inconclusive_1=_born(inc, a),
        p_inconclusive_2=_born(inc, b),
        p_s=p1 + p2,
        labels=tuple(povm.labels),
    )


def check_error_budget(outcome: DiscriminationOutcome, budget: ErrorBudget) -> ComplianceReport:
    """Whether an outcome meets an error budget, with the margins that decide it.

    Bounded mode: both correct-identification probabilities must reach
    1 - epsilon. One-sided mode: misidentification must vanish and the
    inconclusive rate must stay within epsilon; requires a three-outcome
    measurement. Margins >= 0 mean satisfied (tolerance 1e-9).
    """
    if budget.mode is ErrorMode.BOUNDED:
        margins = {
            "correctness": min(outcome.p_correct_1, outcome.p_correct_2)
            - (1.0 - budget.epsilon)
        }
    else:
        if INCONCLUSIVE not in outcome.labels:
            raise UsageError(
                "one-sided budget requires a measurement with an inconclusive outcome"
            )
        margins = {
            "misidentification": -max(outcome.p_misidentify_1, outcome.p_misidentify_2),
            "inconclusive": budget.epsilon
            - max(outcome.p_inconclusive_1, outcome.p_inconclusive_2),
        }
    ok = all(m >= -COMPLIANCE_TOL for m in margins.values())
    return ComplianceReport(ok=ok, margins=margins)
