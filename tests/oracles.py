"""Brute-force reference computations used only by the test suite.

These deliberately avoid the algorithms used inside the package so that
agreement between the two is evidence, not tautology.
"""

import numpy as np

from qudisc import PhaseSpectrum
from qudisc.linalg import (haar_isometry_from_rng, haar_unitary_from_rng, random_state_from_rng,
                           wrap_phase)
from qudisc.tolerances import UNITARY_TOL

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


def _frame(t1, t2) -> np.ndarray:
    """A dense unitary whose first two columns are t1 and the unit part of t2 orthogonal to it."""
    q, r = np.linalg.qr(np.stack([t1, t2], axis=1), mode="complete")
    q[:, :2] *= np.diag(r) / np.abs(np.diag(r))
    return q


def _trace_norm(a, b) -> float:
    """||rho_a - rho_b||_1 of two pure states, from the eigenvalues of the dense difference."""
    return float(np.abs(np.linalg.eigvalsh(np.outer(a, a.conj()) - np.outer(b, b.conj()))).sum())


def reference_record(cfg, index: int) -> dict:
    """The record of a ``random`` campaign instance, recomputed with dense, independent math.

    The draws are inputs, not the subject: they come from the stream
    ``default_rng([seed, index])`` through the package's own draw functions,
    in the order the campaign takes them (the pair, T, the probe, one n x 2
    isometry per query). Everything else is dense: theta from
    ``np.linalg.eigvals``; queries as ``kron(U_i, I)`` on full n-vectors;
    each isometry V completed to a dense unitary by QR, and the interleaver
    taken as that unitary times the adjoint of a frame of the incoming pair,
    so it maps the first state to V's first column; distances as trace norms
    of the density-matrix difference. The bound columns are the paper's
    formulas, written out here. Returns the record's fields by name.
    """
    d = cfg.dim
    n = d * d  # the ancilla matches the system
    rng = np.random.default_rng([cfg.seed, index])
    u1, u2 = haar_unitary_from_rng(d, rng, (2,))
    t = int(rng.integers(cfg.t_range[0], cfg.t_range[1] + 1))
    theta = anchored_arc_theta(np.angle(np.linalg.eigvals(u1.conj().T @ u2)))
    states = [random_state_from_rng(n, rng)] * 2
    distances = [0.0]
    for _ in range(t):
        v = haar_isometry_from_rng(n, 2, rng)
        t1, t2 = (np.kron(u, np.eye(d)) @ s for u, s in zip((u1, u2), states))
        completed = _frame(v[:, 0], v[:, 1])
        w = completed @ _frame(t1, t2).conj().T
        states = [w @ t1, w @ t2]
        distances.append(_trace_norm(*states))
    a, b = states
    # of the normalised states, so one state twice (no query) reads exactly 1
    overlap = float(abs(np.vdot(a, b)) / np.sqrt(np.vdot(a, a).real * np.vdot(b, b).real))
    helstrom = (1.0 - distances[-1] / 2.0) / 2.0  # Helstrom: (1 - ||rho1 - rho2||_1 / 2) / 2
    inconclusive = overlap                        # Ivanovic-Dieks-Peres: the overlap itself
    # Theorem 1: T >= (2/theta) sqrt(1 - 4 eps (1 - eps)) at error eps, and
    # T >= (2/theta) sqrt(1 - eps0^2) at inconclusive rate eps0
    need = np.sqrt(max(0.0, 1.0 - 4.0 * helstrom * (1.0 - helstrom)))
    need_onesided = np.sqrt(max(0.0, 1.0 - inconclusive**2))
    raw = 2.0 * need / theta
    # Lemma 2: a query grows the trace distance by at most 2 sqrt(1 - F^2), F = cos(theta/2)
    # below theta = pi and 0 from there on, so 2 sin(min(theta, pi)/2)
    step = 2.0 * np.sin(min(theta, np.pi) / 2.0)
    slacks = [distances[k] + step - distances[k + 1] for k in range(t)]
    return {
        "index": index,
        "theta": theta,
        "queries": t,
        "overlap": overlap,
        "helstrom_error": helstrom,
        "inconclusive": inconclusive,
        "bound_raw": raw,
        "bound_t": int(np.ceil(raw - 1e-9)),  # the ceiling, less the guard against rounding
        "lemma2_min_slack": min(slacks) if slacks else None,
        "theorem1_slack": t * theta / 2.0 - need,
        "theorem1_slack_onesided": t * theta / 2.0 - need_onesided,
    }


def closest_hull_point_numpy(points) -> tuple[float, np.ndarray]:
    """``geometry.closest_hull_point`` as it was written on numpy arrays, frozen as a reference.

    The package's routine walks the same fan and edges on Python floats; the
    two must agree bit for bit on distance and weights. Sorting by wrapped
    phase, the fan of triangles from the first vertex with the deepest one
    solved by ``np.linalg.solve``, then the nearest point over the edges.
    """
    pts = np.asarray(points, dtype=complex).ravel()
    if pts.size == 0:
        raise ValueError("need at least one point")
    off = np.max(np.abs(np.abs(pts) - 1.0))
    if not off <= UNITARY_TOL:
        raise ValueError(f"points must lie on the unit circle (max modulus error {off:.3e})")
    order = np.argsort(wrap_phase(np.angle(pts)))
    p = pts[order]
    weights = np.zeros(pts.size)
    if p.size == 1:
        weights[order[0]] = 1.0
        return 1.0, weights
    if p.size > 2:
        weights_in = _fan_weights_numpy(p)
        if weights_in is not None:
            weights[order] = weights_in
            return 0.0, weights
    edges = [(k, (k + 1) % p.size) for k in range(1 if p.size == 2 else p.size)]
    dist, t, (i, j) = min(_closest_on_segment_numpy(p[i], p[j]) + ((i, j),) for i, j in edges)
    weights[order[i]] += 1.0 - t
    weights[order[j]] += t
    return float(dist), weights


def _fan_weights_numpy(p: np.ndarray) -> np.ndarray | None:
    a, b, c = p[0], p[1:-1], p[2:]
    areas = np.array([_cross_numpy(b, c), _cross_numpy(c, a), _cross_numpy(a, b)])
    best = int(np.argmax(areas.min(axis=0)))
    if areas[:, best].min() < 0.0:
        return None
    tri = [0, best + 1, best + 2]
    system = np.array([p[tri].real, p[tri].imag, np.ones(3)])
    try:
        w = np.linalg.solve(system, np.array([0.0, 0.0, 1.0]))
    except np.linalg.LinAlgError:
        return None
    if not np.all(w >= 0.0):
        return None
    out = np.zeros(p.size)
    out[tri] = w / w.sum()
    return out


def _cross_numpy(u, v):
    return (np.conj(u) * v).imag


def _closest_on_segment_numpy(a: complex, b: complex) -> tuple[float, float]:
    ab = b - a
    denom = abs(ab) ** 2
    if denom == 0.0:
        return abs(a), 0.0
    t = -(a.real * ab.real + a.imag * ab.imag) / denom
    t = min(1.0, max(0.0, t))
    return abs(a + t * ab), t
