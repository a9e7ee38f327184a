"""Brute-force reference computations used only by the test suite.

These deliberately avoid the algorithms used inside the package so that
agreement between the two is evidence, not tautology.
"""

import numpy as np

from qudisc import PhaseSpectrum
from qudisc.linalg import wrap_phase

TWO_PI = 2.0 * np.pi


def as_spectrum(phases) -> PhaseSpectrum:
    """Any phases as a spectrum, the form a decomposition returns: wrapped and ascending."""
    return PhaseSpectrum(np.sort(wrap_phase(np.asarray(phases, dtype=float))))


def anchored_arc_theta(phases) -> float:
    """Smallest covering arc by exhaustively anchoring an arc start at every point."""
    p = np.mod(np.asarray(phases, dtype=float), TWO_PI)
    best = TWO_PI
    for anchor in p:
        span = float(np.max(np.mod(p - anchor, TWO_PI)))
        best = min(best, span)
    return best


def min_combination_sampled(points, rng: np.random.Generator, samples: int = 4000) -> float:
    """Minimum |sum_j w_j p_j| over sampled convex weights (upper bound on the true minimum)."""
    pts = np.asarray(points, dtype=complex)
    k = pts.size
    best = float(np.min(np.abs(pts)))  # vertices are convex combinations too
    for _ in range(samples):
        w = rng.dirichlet(np.ones(k))
        best = min(best, float(abs(np.dot(w, pts))))
    return best


def random_two_effect_povm(dim: int, rng: np.random.Generator):
    """A valid two-effect POVM: E with spectrum in [0, 1] and its complement."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, _ = np.linalg.qr(z)
    e = (q * rng.uniform(0.0, 1.0, size=dim)) @ q.conj().T
    e = (e + e.conj().T) / 2.0
    return e, np.eye(dim) - e


def dense_effect(povm, label: str) -> np.ndarray | None:
    """The full n x n operator of an outcome of a span-form POVM, or None when it lacks it."""
    if label not in povm.labels:
        return None
    j = povm.labels.index(label)
    b = povm.basis
    outside = np.eye(povm.dim) - b @ b.conj().T
    return b @ povm.effects[j] @ b.conj().T + povm.rest[j] * outside


def random_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def state_pair_with_overlap(c: float, dim: int, rng: np.random.Generator):
    """Two normalized states with |<phi1|phi2>| = c, embedded at random orientation."""
    z = rng.standard_normal((dim, 2)) + 1j * rng.standard_normal((dim, 2))
    q, _ = np.linalg.qr(z)
    e1, e2 = q[:, 0], q[:, 1]
    phase = np.exp(1j * rng.uniform(0.0, TWO_PI))
    phi1 = e1
    phi2 = phase * (c * e1 + np.sqrt(max(0.0, 1.0 - c * c)) * e2)
    return phi1, phi2


def state_pair_at_angle(delta: float, dim: int, rng: np.random.Generator):
    """Two normalized states at Bures angle delta, from its cosine and sine.

    Unlike ``state_pair_with_overlap``, no sqrt(1 - c^2) cancels at small delta.
    """
    e1, e2 = np.linalg.qr(rng.standard_normal((dim, 2)) + 1j * rng.standard_normal((dim, 2)))[0].T
    return e1, np.exp(1j * rng.uniform(0.0, TWO_PI)) * (np.cos(delta) * e1 + np.sin(delta) * e2)
