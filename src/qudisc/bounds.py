"""Query-count lower bounds for discriminating two unitaries.

Everything here is a function of theta, the eigenphase spread of U1†U2,
and the tolerated failure probability. ``raw_value`` is the real-valued
bound before rounding; ``t_lower`` applies the ceiling after subtracting
``CEILING_GUARD``, so analytically exact integers are not bumped by
floating-point noise.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import DomainError, IndistinguishableError
from .linalg import TWO_PI
from .tolerances import CEILING_GUARD


class ErrorMode(str, enum.Enum):
    BOUNDED = "bounded_error"
    ONE_SIDED = "one_sided_error"


@dataclass(frozen=True)
class BoundReport:
    theta: float
    epsilon: float
    mode: ErrorMode
    t_lower: int
    raw_value: float

    def slack(self, t: int) -> float:
        """Slack of t queries against the bound: t*theta/2 minus the half-span the budget needs.

        Negative when a protocol making t queries meets the budget below the bound.
        """
        return t * self.theta / 2.0 - _needed_half_span(self.epsilon, self.mode)


def _check_theta(theta: float) -> None:
    if theta == 0.0:
        raise IndistinguishableError(
            "theta is 0: the pair differs by a global phase at most, no query count helps"
        )
    if not 0.0 < theta < TWO_PI:
        raise DomainError(f"theta must lie in (0, 2*pi), got {theta!r}")


def _check_epsilon(epsilon: float, mode: ErrorMode) -> None:
    hi = 0.5 if mode is ErrorMode.BOUNDED else 1.0
    if not 0.0 <= epsilon <= hi:
        raise DomainError(f"epsilon must lie in [0, {hi}] for {mode.value}, got {epsilon!r}")


def _ceil_guarded(raw: float) -> int:
    return max(0, math.ceil(raw - CEILING_GUARD))


def _needed_half_span(epsilon: float, mode: ErrorMode) -> float:
    """Half-span T*theta/2 that budget epsilon needs; every bound and slack derives from it.

    sqrt(1 - 4*eps*(1-eps)) for bounded error, sqrt(1 - eps^2) one-sided.
    """
    if mode is ErrorMode.BOUNDED:
        return math.sqrt(max(0.0, 1.0 - 4.0 * epsilon * (1.0 - epsilon)))
    return math.sqrt(max(0.0, 1.0 - epsilon * epsilon))


def _t_min(theta: float, epsilon: float, mode: ErrorMode) -> BoundReport:
    _check_theta(theta)
    _check_epsilon(epsilon, mode)
    raw = 2.0 * _needed_half_span(epsilon, mode) / theta
    return BoundReport(theta, epsilon, mode, _ceil_guarded(raw), raw)


def t_min_bounded(theta: float, epsilon: float) -> BoundReport:
    """Minimum query count for bounded-error discrimination at budget epsilon.

    raw_value = 2*sqrt(1 - 4*eps*(1-eps)) / theta.
    """
    return _t_min(theta, epsilon, ErrorMode.BOUNDED)


def t_min_onesided(theta: float, epsilon: float) -> BoundReport:
    """Minimum query count for unambiguous discrimination at inconclusive budget epsilon.

    raw_value = 2*sqrt(1 - eps^2) / theta.
    """
    return _t_min(theta, epsilon, ErrorMode.ONE_SIDED)


def t_perfect(theta: float) -> int:
    """Query count at which perfect discrimination becomes achievable: ceil(pi/theta)."""
    _check_theta(theta)
    return _ceil_guarded(math.pi / theta)


def epsilon_floor(theta: float, t: int, mode: ErrorMode) -> float:
    """Smallest error budget the bound permits at a fixed query count.

    Inverts the bounded-error bound via sqrt(1 - 4*eps*(1-eps)) = 1 - 2*eps
    on eps in [0, 1/2], and the one-sided bound directly.
    """
    _check_theta(theta)
    if t < 0:
        raise DomainError(f"query count must be nonnegative, got {t!r}")
    half_span = t * theta / 2.0
    if mode is ErrorMode.BOUNDED:
        return max(0.0, (1.0 - half_span) / 2.0)
    return math.sqrt(max(0.0, 1.0 - half_span * half_span))
