"""Construction of discrimination protocols.

Two routes: an explicit parallel plan whose final overlap is the optimum
at every query count, and a Gauss-Newton search over interleavers at a
fixed query count, driven by the analytic derivative of the final overlap.
The search makes no optimality promise; it is monotone within a
restart, deterministic for a fixed seed, and asserts that whatever it
returns respects the query-count lower bound.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .bounds import optimal_overlap, t_min_bounded
from .errors import IndistinguishableError, ShapeError, ValidationError
from .geometry import closest_hull_point, smallest_arc
from .linalg import (
    UnitaryPair,
    _eigenvectors,
    check_integer,
    haar_unitary_from_rng,
    pair_args,
    random_state_from_rng,
    relative_spectrum,
    require_entries,
)
from .measurement import helstrom_error
from .protocol import (Protocol, SimulationTrace, apply_query, evolve_branches, record_trace,
                       simulation_size)
# Not called here since the search keeps its own trace; the benchmark's tracer still wraps
# builder.run_protocol, and fails on a missing name.
from .protocol import run_protocol
from .tolerances import BOUND_SAFETY_TOL, PERFECT_OVERLAP


@dataclass(eq=False)
class ParallelPlan:
    """Probe T copies at once with a superposition of eigenvector product strings.

    Row s of ``strings`` names, per copy, a column of ``eigenvectors``, the d x m, m <= 3,
    orthonormal eigenvectors of U1†U2 that the strings use; the probe is sum_s sqrt(weights[s])
    |string s>, over at most 3 strings. Each string only picks up its product phase, so the
    final overlap is |sum_s weights[s] e^{i Phi_s}|: the distance from the origin to the hull of
    the chosen phases. For the strings ``build_parallel`` picks that is
    ``bounds.optimal_overlap(theta, T)``, the optimum over all protocols (Acin, PRL 87, 177901,
    2001). Below theta = pi they are arc strings a^(T-j) b^j: j = 0 and T at 1/2 each while
    T*theta < pi, then at most 3 around the origin, in closed form. From pi on, one copy takes
    at most 3 eigenvectors of the spectrum's own hull.

    The fields are checked when the plan is built: a ``ValidationError``
    for a copy count that is not an integer >= 1 or strings that are not
    integers naming columns of ``eigenvectors``, a ``ShapeError`` for arrays
    of the wrong shape.
    """

    copies: int
    eigenvectors: np.ndarray
    strings: np.ndarray
    weights: np.ndarray
    predicted_overlap: float

    def __post_init__(self):
        # attributes and one pass over the strings: the campaign builds one plan per instance
        self.copies = check_copies(self.copies)
        v, s, w = self.eigenvectors, self.strings, self.weights
        if not (isinstance(v, np.ndarray) and v.ndim == 2 and v.shape[1] <= 3):
            raise ShapeError(f"plan: eigenvectors must be d x m, m <= 3, got shape {np.shape(v)}")
        if not (isinstance(s, np.ndarray) and s.dtype.kind in "iu"):
            raise ValidationError("plan: strings must be an array of integers")
        if s.ndim != 2 or not 1 <= s.shape[0] <= 3 or s.shape[1] != self.copies:
            raise ShapeError(f"plan: strings has shape {s.shape}, expected 1 to 3 rows of "
                             f"{self.copies} copies")
        if not (isinstance(w, np.ndarray) and w.shape == s.shape[:1]):
            raise ShapeError(f"plan: weights has shape {np.shape(w)}, expected ({s.shape[0]},)")
        # read as unsigned, a negative column is above every dimension: one max covers both ends
        if s.view(f"u{s.itemsize}").max() >= v.shape[1]:
            raise ValidationError(f"plan: strings must name columns 0 to {v.shape[1] - 1} "
                                  f"of eigenvectors")


def build_parallel(pair: UnitaryPair, t: int) -> ParallelPlan:
    """Parallel plan for t simultaneous copies of the unknown unitary.

    One family of strings per regime, from the eigenphases, before the at most 3 eigenvectors
    they use are found. Below pi: a^(T-j) b^j for the arc endpoints a, b, whose phases relative
    to a^T step by theta, at the closed-form weights of ``_arc_weights``, with no hull search.
    From pi on, the spectrum's own hull holds the origin: copy 0 takes its at most 3
    eigenvectors and every later copy the first of them, so one query discriminates. The
    strings are distinct, so orthonormal. Raises IndistinguishableError when the pair has zero
    phase spread.
    """
    t = check_copies(t)
    spectrum = relative_spectrum(pair)
    arc = smallest_arc(spectrum)
    if arc.theta == 0.0:
        raise IndistinguishableError(
            "the pair differs by a global phase at most; parallel probing cannot help"
        )
    if arc.theta < math.pi:
        chosen, weights = _arc_weights(arc.theta, t)
        columns = [arc.start, arc.end]
        # string j takes b on its last j copies
        strings = (np.arange(t) >= t - np.array(chosen)[:, None]).astype(np.intp)
    else:
        _, hull = closest_hull_point(spectrum.points())
        chosen = np.flatnonzero(hull)
        weights = hull[chosen]
        columns = chosen.tolist()
        # string s takes x_s on copy 0 and x_0, the first of them, on every later copy
        strings = np.arange(chosen.size)[:, None] * (np.arange(t) == 0)
    return ParallelPlan(
        copies=t,
        eigenvectors=_eigenvectors(pair, columns),
        strings=strings,
        weights=np.asarray(weights),
        predicted_overlap=optimal_overlap(arc.theta, t),
    )


def _arc_weights(theta: float, t: int) -> tuple[list[int], list[float]]:
    """The arc strings' b-counts j, ascending, and their weights, for 0 < theta < pi.

    The string a^(T-j) b^j has phase j*theta relative to a^T. While t*theta < pi (the test
    ``optimal_overlap`` makes) the points 1 and e^{iT theta} at 1/2 each give the chord's
    midpoint, cos(T theta/2) from the origin. From then on, with m the least copy count whose
    m*theta reaches pi, the triangle 1, e^{i alpha}, e^{i beta}, alpha = (m-1)theta and
    beta = m*theta as rounded, holds the origin, at the barycentric weights proportional to
    (sin(beta - alpha), -sin beta, sin alpha): the plan on m copies, padded with T - m idle
    leading copies of a. beta - alpha is computed exactly and differs from theta by at most
    an ulp of pi; taking its sine keeps the weights barycentric for the points as rounded. Only the middle weight can fail to be
    positive, where beta rounds to math.pi, just below pi; that string is then dropped, and
    the other two take the chord's midpoint, 1/2 each. Python floats throughout: no point is
    formed, sorted or solved for.
    """
    if t * theta < math.pi:
        return [0, t], [0.5, 0.5]
    m = math.ceil(math.pi / theta)  # within one of the least m, as the quotient is rounded
    while (m - 1) * theta >= math.pi:
        m -= 1
    while m * theta < math.pi:
        m += 1
    alpha, beta = (m - 1) * theta, m * theta
    middle = -math.sin(beta)
    if not middle > 0.0:
        return [0, m], [0.5, 0.5]
    first, last = math.sin(beta - alpha), math.sin(alpha)
    total = first + middle + last
    return [0, m - 1, m], [first / total, middle / total, last / total]


def check_copies(t: int) -> int:
    """A copy count as a Python int, refused unless it is an integer >= 1 whose per-copy Gram
    stacks (at most 3x3 string pairs for each of t copies and the idle tail) fit
    ``ENTRY_CAP``."""
    t = check_integer(t, "copy count", 1)
    require_entries(9 * (t + 1), f"a parallel plan on {t} copies")
    return t


def simulate_parallel(pair: UnitaryPair, plan: ParallelPlan) -> SimulationTrace:
    """Run the parallel plan one copy at a time so step audits apply.

    The plan must come from ``build_parallel`` on the same pair.

    After j queries branch i holds (U_i^{x j} x I)|probe>. In the frame
    of the strings moved by U_1^{x j}, branch 1 is sqrt(weights) and branch
    2 is M_j sqrt(weights), with M_j[s, s'] the product over copies m < j
    of <s_m|U1†U2|s'_m> and over m >= j of <s_m|s'_m>. These Gram entries
    come from the matrices, not from the phases, so the simulation checks
    the plan independently; distances and overlaps do not depend on the
    frame. Cost O(T) for at most 3 strings: no d**T vector is formed.

    The prefix products of the query Grams and the suffix products of the
    idle ones are two running products over copies, and every M_j sqrt(weights)
    comes from one batched product: the same multiplications, in the same
    order, as a loop over the copies makes.
    """
    x = plan.eigenvectors
    if x.shape[0] != pair.dim:
        raise ShapeError(f"plan has dimension {x.shape[0]}, the unitaries {pair.dim}")
    moved = pair.unitaries @ x
    query = moved[0].conj().T @ moved[1]
    idle = x.conj().T @ x
    index = plan.strings.T  # (T, strings): copy m's columns of x
    rows, cols = index[:, :, None], index[:, None, :]
    t, n = index.shape
    queried = np.multiply.accumulate(query[rows, cols], axis=0)  # [j-1]: copies 0..j-1
    waiting = np.empty((t + 1, n, n), dtype=complex)
    waiting[t] = 1.0  # no copy left
    np.multiply.accumulate(idle[rows, cols][::-1], axis=0, out=waiting[-2::-1])  # [j]: copies j..
    amp = np.sqrt(plan.weights).astype(complex)
    states = np.empty((2, t + 1, n), dtype=complex)
    states[0] = states[1, 0] = amp
    np.matmul(queried * waiting[1:], amp, out=states[1, 1:])
    return record_trace(states)


def check_seed(seed: int) -> None:
    """Every config seed is a u64: it lies in [0, 2**64)."""
    if not 0 <= seed < 2**64:
        raise ValidationError(f"seed must lie in [0, 2**64), got {seed}")


@dataclass(frozen=True)
class SearchConfig:
    """Budget and seeding for the Gauss-Newton protocol search."""

    queries: int
    restarts: int = 8
    max_iterations: int = 60
    step_tolerance: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        for name, floor in (("queries", 0), ("restarts", 1), ("max_iterations", 1), ("seed", None)):
            object.__setattr__(self, name, check_integer(getattr(self, name), name, floor))
        tol = self.step_tolerance
        if isinstance(tol, bool) or not isinstance(tol, numbers.Real):
            raise ValidationError(f"step_tolerance must be a number, got {tol!r}")
        # above 1 the step-halving loop tries no step at all, and the search stops at its start
        if not 0.0 < tol <= 1.0:
            raise ValidationError(f"step_tolerance must lie in (0, 1], got {tol!r}")
        object.__setattr__(self, "step_tolerance", float(tol))
        check_seed(self.seed)


@dataclass(eq=False)
class SearchResult:
    protocol: Protocol
    overlap: float
    budget_exhausted: bool
    best_restart: int
    histories: list[list[float]]
    trace: SimulationTrace  # the protocol's simulation, asserted against the bound


def search_size(d: int, queries: int) -> int:
    """``simulation_size(d, d, queries)``, once the search's stack of T+1 n x n interleavers
    fits ``ENTRY_CAP`` too."""
    n = simulation_size(d, d, queries)
    require_entries((queries + 1) * n * n, f"{queries + 1} interleavers at dimension {n}")
    return n


def _overlap_derivatives(ws: np.ndarray, y: np.ndarray, unitaries: np.ndarray) -> np.ndarray:
    """N_k such that replacing W_k by exp(X)W_k changes <s1|s2> by tr(X N_k).

    ``y`` is the (2, T+1, n) array of ``evolve_branches``. ``back[i, k]``
    carries the other branch's final state back through branch i's steps
    after W_k, so one backward pass over both branches gives every N_k, as
    the outer products y_2[k] back_2[k]† - back_1[k] y_1[k]†.
    """
    back = np.empty_like(y)
    back[:, -1] = y[::-1, -1]
    uh = unitaries.conj().transpose(0, 2, 1)
    wh = ws.conj().transpose(0, 2, 1)
    for k in range(len(ws) - 1, 0, -1):
        back[:, k - 1] = apply_query(np.matmul(wh[k], back[:, k, :, None])[..., 0], uh)
    forward = y[1, :, :, None] * back[1, :, None, :].conj()
    return forward - back[0, :, :, None] * y[0, :, None, :].conj()


def _gauss_newton_step(c: complex, ns: np.ndarray) -> np.ndarray:
    """Smallest skew-Hermitian (X_0..X_T) whose first-order change cancels c, damped.

    Re tr(X N) and Im tr(X N), summed over k, are inner products of X with
    the skew-Hermitian directions p = (N^H - N)/2 and q = i(N^H + N)/2, so
    the step -(alpha p + beta q) lies in their span, and the Levenberg-
    Marquardt system (G + lambda I)(alpha, beta) = (Re c, Im c), with
    lambda = |c|^2 tr(G), fixes it. Neither direction is formed: with
    s = sum_k |N_k|_F^2 and tau = sum_k tr(N_k N_k), the Gram of (p, q) is
    G = 1/2 [[s - Re tau, -Im tau], [-Im tau, s + Re tau]], so tr(G) = s.
    Cramer's rule on it, with z = alpha - i beta and sigma = s (1 + 2|c|^2),
    reads z = 2 (sigma conj(c) + conj(tau) c) / (sigma^2 - |tau|^2), and the
    step is X = (z N - conj(z) N^H)/2, formed as a - a^H from a = z N / 2,
    so skew-Hermitian bit for bit.

    The determinant (sigma^2 - |tau|^2)/4 is at least lambda s + lambda^2,
    since |tau| <= s, so it is positive unless s = 0 or c = 0. Where it is
    not, the zero step is returned: the minimum-norm solution, since there
    the system's matrix or its right-hand side is 0. Otherwise, while |c| stays
    at or above ``PERFECT_OVERLAP``, the damped system's condition number is
    at most about (1 + |c|^2)/|c|^2 <= 1e10, far below the 1/(2 eps) at which
    a least-squares solve with numpy's default cutoff would drop a singular
    value, so this is that solve's answer up to rounding.
    """
    s = np.vdot(ns, ns).real
    tau = np.einsum("kij,kji->", ns, ns)
    sigma = s * (1.0 + 2.0 * abs(c) ** 2)
    det = sigma * sigma - abs(tau) ** 2
    if det <= 0.0:
        return np.zeros_like(ns)
    a = (sigma * c.conjugate() + tau.conjugate() * c) / det * ns
    return a - a.conj().transpose(0, 2, 1)


def _descend(ws: np.ndarray, y: np.ndarray, probe: np.ndarray, unitaries: np.ndarray,
             cfg: SearchConfig) -> tuple[np.ndarray, np.ndarray, list[float], bool]:
    """Gauss-Newton iterations on the final overlap, from interleavers ``ws`` and states ``y``.

    Returns the last accepted interleavers with their ``evolve_branches``
    states (the start's when no step is accepted), the history and whether
    the budget ran out.

    Each iteration takes the closed-form damped Gauss-Newton step of
    ``_gauss_newton_step`` and turns it into unitaries through one stacked
    ``eigh``. Each step is halved until the overlap drops; the restart ends
    once the step has shrunk below ``step_tolerance`` of the full step.
    """
    c = np.vdot(y[0, -1], y[1, -1])
    history = [float(abs(c))]
    for _ in range(cfg.max_iterations):
        x = _gauss_newton_step(c, _overlap_derivatives(ws, y, unitaries))
        # exp(tX) through the eigenbasis of the Hermitian -iX: unitary to machine precision
        vals, vecs = np.linalg.eigh(-1j * x)
        scale = 1.0
        improved = False
        while scale >= cfg.step_tolerance:
            rotations = (vecs * np.exp(1j * vals)[:, None, :]) @ vecs.conj().transpose(0, 2, 1)
            trial = rotations @ ws
            trial_y = evolve_branches(trial, probe, unitaries)
            trial_c = np.vdot(trial_y[0, -1], trial_y[1, -1])
            if abs(trial_c) < abs(c):
                ws, y, c = trial, trial_y, trial_c
                improved = True
                break
            vals = vals / 2.0
            scale /= 2.0
        history.append(float(abs(c)))
        if abs(c) < PERFECT_OVERLAP or not improved:
            return ws, y, history, False
    return ws, y, history, True


def optimize_protocol(u1, u2=None, cfg=None) -> SearchResult:
    """Search interleavers for the lowest final overlap at fixed T.

    Takes a UnitaryPair and the config: ``optimize_protocol(pair, cfg)``.
    The two unitaries in the pair's place are accepted only because the
    benchmark's workloads pass them so.

    The search keeps the T+1 interleavers themselves as its state; the
    probe stays fixed per restart, since W_0 reaches every state. Restart
    0 starts from identity interleavers (enough for commuting pairs);
    later restarts start from Haar ones. Restarts draw from independent
    streams derived from (seed, restart), so the result is reproducible
    and independent of evaluation order. Each restart simulates its start
    once and keeps the states of every step it accepts, so the best
    restart's states are the returned trace, with no second simulation;
    the protocol is asserted against the query-count bound on it.
    """
    pair, cfg = pair_args(u1, u2, cfg)
    d = pair.dim
    n = search_size(d, cfg.queries)
    theta = smallest_arc(relative_spectrum(pair)).theta
    if theta == 0.0:
        raise IndistinguishableError(
            "the pair differs by a global phase at most; no protocol separates it"
        )

    identity = np.array([np.eye(n, dtype=complex)] * (cfg.queries + 1))
    best: tuple[float, int, np.ndarray, np.ndarray, np.ndarray, bool] | None = None
    histories: list[list[float]] = []
    # At T = 0 the single interleaver cancels in the overlap: one restart, nothing to optimize.
    for r in range(cfg.restarts if cfg.queries else 1):
        rng = np.random.default_rng([cfg.seed, r])
        probe = random_state_from_rng(n, rng)
        ws = identity if r == 0 else haar_unitary_from_rng(n, rng, (cfg.queries + 1,))
        states = evolve_branches(ws, probe, pair.unitaries)
        history, exhausted = [1.0], False
        if cfg.queries:
            ws, states, history, exhausted = _descend(ws, states, probe, pair.unitaries, cfg)
        histories.append(history)
        if best is None or history[-1] < best[0]:
            best = (history[-1], r, ws, probe, states, exhausted)
        if best[0] < PERFECT_OVERLAP:
            break  # perfect discrimination found: later restarts cannot do better

    assert best is not None
    _, best_restart, ws, probe, states, best_exhausted = best
    protocol = Protocol(d, d, cfg.queries, ws, probe)
    trace = record_trace(states)
    overlap = trace.final_overlap

    eps = helstrom_error(overlap)
    bound = t_min_bounded(theta, eps)
    if bound.slack(cfg.queries) < -BOUND_SAFETY_TOL:
        raise AssertionError(
            f"search produced a protocol beating the query bound "
            f"({bound.raw_value:.9f} > {cfg.queries} at theta {theta:.9f}): this is a bug"
        )
    return SearchResult(
        protocol=protocol,
        overlap=overlap,
        budget_exhausted=best_exhausted,
        best_restart=best_restart,
        histories=histories,
        trace=trace,
    )
