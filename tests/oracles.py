"""Brute-force reference computations used only by the test suite.

These deliberately avoid the algorithms used inside the package so that
agreement between the two is evidence, not tautology.
"""

import math
from functools import reduce

import numpy as np

from qudisc import PhaseSpectrum, UnitaryPair, ValidationError, build_parallel
from qudisc.linalg import (haar_isometry_from_rng, haar_unitary_from_rng, random_state_from_rng,
                           wrap_phase)
from qudisc.tolerances import POVM_TOL, UNITARY_TOL

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


def _random_steps(u1, u2, t: int, rng: np.random.Generator) -> list[list[np.ndarray]]:
    """The state pairs of a ``random`` instance, before the first query and after each.

    Queries act as ``kron(U_i, I)`` on full n-vectors, n = d^2. Each drawn
    isometry V is completed to a dense unitary by QR, and the interleaver is
    that unitary times the adjoint of a frame of the incoming pair, so it maps
    the first state to V's first column.
    """
    d = u1.shape[0]
    n = d * d  # the ancilla matches the system
    states = [random_state_from_rng(n, rng)] * 2
    steps = [states]
    for _ in range(t):
        v = haar_isometry_from_rng(n, 2, rng)
        t1, t2 = (np.kron(u, np.eye(d)) @ s for u, s in zip((u1, u2), states))
        completed = _frame(v[:, 0], v[:, 1])
        w = completed @ _frame(t1, t2).conj().T
        states = [w @ t1, w @ t2]
        steps.append(states)
    return steps


def _parallel_steps(u1, u2, t: int) -> list[list[np.ndarray]]:
    """The state pairs of a ``parallel`` instance, before the first query and after each.

    The probe is a dense d^T vector, sum_s sqrt(w_s) v_{s_1} x ... x v_{s_T}
    over the plan's strings s and weights w, with v the plan's eigenvectors.
    After j queries branch i holds (U_i x ... x U_i x I x ... x I) probe, the
    first j copies queried, as one ``kron`` product.
    """
    plan = build_parallel(UnitaryPair.of(u1, u2), t)
    vectors = plan.eigenvectors
    probe = sum(np.sqrt(w) * reduce(np.kron, vectors[:, string].T)
                for w, string in zip(plan.weights, plan.strings))
    eye = np.eye(u1.shape[0])
    return [[reduce(np.kron, [u] * j + [eye] * (t - j)) @ probe for u in (u1, u2)]
            for j in range(t + 1)]


def reference_record(cfg, index: int) -> dict:
    """The record of a ``random`` or ``parallel`` campaign instance, recomputed with dense,
    independent math.

    The draws are inputs, not the subject: they come from the stream
    ``default_rng([seed, index])`` through the package's own draw functions,
    in the order the campaign takes them (the pair, T, and for ``random`` the
    probe and one n x 2 isometry per query). For ``parallel`` the plan from
    ``build_parallel`` is an input too. Everything else is dense: theta from
    ``np.linalg.eigvals``; the states as full vectors (``_random_steps``,
    ``_parallel_steps``); distances as trace norms of the density-matrix
    difference. The bound columns are the paper's formulas, written out
    here. Returns the record's fields by name.
    """
    rng = np.random.default_rng([cfg.seed, index])
    u1, u2 = haar_unitary_from_rng(cfg.dim, rng, (2,))
    t = int(rng.integers(cfg.t_range[0], cfg.t_range[1] + 1))
    theta = anchored_arc_theta(np.angle(np.linalg.eigvals(u1.conj().T @ u2)))
    if cfg.protocol_source == "parallel":
        steps = _parallel_steps(u1, u2, t)
    else:
        steps = _random_steps(u1, u2, t, rng)
    distances = [0.0] + [_trace_norm(*states) for states in steps[1:]]
    states = steps[-1]
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


def validate_numpy(povm) -> None:
    """``Povm.validate`` as it was written with numpy finiteness passes, frozen as a reference.

    The package's routine reads blocks of size at most 2 on Python scalars;
    the two must raise the same ``ValidationError`` message, or none. The
    effects' and the basis's finiteness by ``np.isfinite``, then one figure
    per check: the 2x2 blocks in closed form, other sizes by one batched
    ``eigvalsh``.
    """
    n, k = povm.basis.shape

    def name(j):
        return f"effect {j} ({povm.labels[j]})"

    if not np.isfinite(povm.effects).all():
        j = int(np.argmax(~np.isfinite(povm.effects).all(axis=(1, 2))))
        raise ValidationError(f"{name(j)} has non-finite entries")
    rest = povm.rest.tolist()
    for j, w in enumerate(rest):
        if not math.isfinite(w):
            raise ValidationError(f"{name(j)} has non-finite complement weight {w}")
    if not np.isfinite(povm.basis).all():
        raise ValidationError("basis entries must be finite")
    gram = povm.basis.conj().T @ povm.basis
    basis_defect, asymmetry, lowest, defect = _validation_figures_numpy(gram, povm.effects)
    if basis_defect > POVM_TOL:
        raise ValidationError("basis columns are not orthonormal")
    for j, (asym, lo, weight) in enumerate(zip(asymmetry, lowest, rest)):
        if asym > POVM_TOL:
            raise ValidationError(f"{name(j)} is not Hermitian")
        if lo < -POVM_TOL:
            raise ValidationError(f"{name(j)} has negative eigenvalue {lo:.3e}")
        if weight < -POVM_TOL:
            raise ValidationError(f"{name(j)} has negative complement weight {weight:.3e}")
    if defect > POVM_TOL:
        raise ValidationError(f"effects sum to identity only within {defect:.3e}")
    total = sum(rest)
    if k < n and abs(total - 1.0) > POVM_TOL:
        raise ValidationError(f"complement weights sum to {total:.12g}, not 1")


def _validation_figures_numpy(gram, blocks):
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
    return (_identity_defect_numpy(g00, g01, g10, g11), asymmetry, lowest,
            _identity_defect_numpy(s00, s01, s10, s11))


def _identity_defect_numpy(m00, m01, m10, m11) -> float:
    return max(abs(m00 - 1.0), abs(m01), abs(m10), abs(m11 - 1.0))


def born_numpy(blocks, rest, x) -> list[list[float]]:
    """The Born rule as one ``einsum``, frozen as a reference: probability of each outcome (row)
    for each state (column), clamped into [0, 1]. Row s of ``x`` holds state s's coordinates in
    the basis; its mass outside the span meets each effect's complement weight."""
    x_conj = x.conj()
    inside = np.einsum("si,eik,sk->es", x_conj, blocks, x).real
    outside = 1.0 - np.einsum("si,si->s", x_conj, x).real
    return (inside + rest[:, None] * outside).clip(0.0, 1.0).tolist()
