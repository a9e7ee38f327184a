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
from dataclasses import dataclass

import numpy as np

from .bounds import t_min_bounded
from .errors import CapacityError, DomainError, IndistinguishableError, ShapeError, ValidationError
from .geometry import closest_hull_point, smallest_arc
from .linalg import (
    DIM_CAP,
    haar_unitary_from_rng,
    pair_args,
    random_state_from_rng,
    relative_spectrum,
)
from .measurement import helstrom_error
from .protocol import (Protocol, SimulationTrace, apply_query, evolve_branches, record_trace,
                       run_protocol)
from .tolerances import BOUND_SAFETY_TOL, PERFECT_OVERLAP


@dataclass(eq=False)
class ParallelPlan:
    """Probe T copies at once with a superposition of eigenvector product strings.

    Row s of ``strings`` names, per copy, a column of ``eigenvectors`` (the
    eigenbasis of U1†U2); the probe is sum_s sqrt(weights[s]) |string s>,
    over at most 3 strings. Each string only picks up its product phase, so
    the final overlap is |sum_s weights[s] e^{i Phi_s}|: the distance from
    the origin to the hull of the chosen phases. For the strings
    ``build_parallel`` picks that is cos(T*theta/2) while T*theta < pi and 0
    from there on, the optimum over all protocols (Acin, PRL 87, 177901, 2001).
    """

    copies: int
    extremal_phases: tuple[float, float]
    extremal_vectors: tuple[np.ndarray, np.ndarray]
    eigenvectors: np.ndarray
    strings: np.ndarray
    weights: np.ndarray
    predicted_overlap: float


def build_parallel(u1, u2=None, t=None) -> ParallelPlan:
    """Parallel plan for t simultaneous copies of the unknown unitary.

    Takes the two unitaries, or a UnitaryPair in their place:
    ``build_parallel(pair, t)``. Raises IndistinguishableError when the
    pair has zero phase spread.
    """
    pair, t = pair_args(u1, u2, t)
    if t < 1:
        raise DomainError(f"copy count must be >= 1, got {t!r}")
    spectrum = pair.spectrum
    arc = smallest_arc(spectrum)
    if arc.theta == 0.0:
        raise IndistinguishableError(
            "the pair differs by a global phase at most; parallel probing cannot help"
        )
    # First exact match in spectrum order; arc endpoints come from this array.
    i_start = int(np.argmax(spectrum.phases == arc.start_phase))
    i_end = int(np.argmax(spectrum.phases == arc.end_phase))

    # Candidates a^(T-j) b^j, j = 0..T, for the arc endpoints a, b: their
    # phases, taken relative to a^T, step by theta from 0 to T*theta. From
    # theta >= pi a step can jump over the origin, so x_k a^(T-1) joins for
    # every other eigenvector x_k (x_a gives a^T again, and at T = 1 x_b
    # gives b): those phases are the spectrum's own, turned. No two
    # candidates are the same string, so the chosen ones are orthonormal.
    phases = np.arange(t + 1) * arc.theta
    others = []
    if arc.theta >= math.pi:
        taken = (i_start,) if t > 1 else (i_start, i_end)
        others = [k for k in range(spectrum.dim) if k not in taken]
        phases = np.concatenate([phases, spectrum.phases[others] - arc.start_phase])
    _, weights = closest_hull_point(np.exp(1j * phases))
    chosen = np.flatnonzero(weights)
    strings = np.full((chosen.size, t), i_start)
    for row, c in zip(strings, chosen):
        if c <= t:
            row[t - c:] = i_end
        else:
            row[0] = others[c - t - 1]
    return ParallelPlan(
        copies=t,
        extremal_phases=(arc.start_phase, arc.end_phase),
        extremal_vectors=(spectrum.vectors[:, i_start], spectrum.vectors[:, i_end]),
        eigenvectors=spectrum.vectors,
        strings=strings,
        weights=weights[chosen],
        predicted_overlap=0.0 if t * arc.theta >= math.pi else math.cos(t * arc.theta / 2.0),
    )


def simulate_parallel(u1, u2=None, plan=None) -> SimulationTrace:
    """Run the parallel plan one copy at a time so step audits apply.

    Takes the two unitaries, or a UnitaryPair in their place:
    ``simulate_parallel(pair, plan)``. The plan must come from
    ``build_parallel`` on the same pair.

    After j queries branch i holds (U_i^{x j} x I)|probe>. In the frame
    of the strings moved by U_1^{x j}, branch 1 is sqrt(weights) and branch
    2 is M_j sqrt(weights), with M_j[s, s'] the product over copies m < j
    of <s_m|U1†U2|s'_m> and over m >= j of <s_m|s'_m>. These Gram entries
    come from the matrices, not from the phases, so the simulation checks
    the plan independently; distances and overlaps do not depend on the
    frame. Cost O(T) for at most 3 strings: no d**T vector is formed.
    """
    pair, plan = pair_args(u1, u2, plan)
    if plan.eigenvectors.shape[0] != pair.dim:
        raise ShapeError(
            f"plan has dimension {plan.eigenvectors.shape[0]}, the unitaries {pair.dim}"
        )
    used = np.unique(plan.strings)
    index = np.searchsorted(used, plan.strings)
    x = plan.eigenvectors[:, used]
    query = (pair.u1 @ x).conj().T @ (pair.u2 @ x)
    idle = x.conj().T @ x
    rows, cols = index[:, None, :], index[None, :, :]
    queried = np.cumprod(query[rows, cols], axis=2)  # [..., j-1]: copies 0..j-1
    waiting = np.cumprod(idle[rows, cols][..., ::-1], axis=2)[..., ::-1]  # [..., j]: copies j..
    waiting = np.concatenate([waiting, np.ones_like(waiting[..., :1])], axis=2)
    amp = np.sqrt(plan.weights).astype(complex)

    def steps():
        yield amp, amp.copy()
        for j in range(1, plan.copies + 1):
            yield amp, (queried[..., j - 1] * waiting[..., j]) @ amp

    return record_trace(steps())


@dataclass(frozen=True)
class SearchConfig:
    """Budget and seeding for the Gauss-Newton protocol search."""

    queries: int
    restarts: int = 8
    max_iterations: int = 60
    step_tolerance: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        if self.queries < 0:
            raise ValidationError("query count must be nonnegative")
        if self.restarts < 1:
            raise ValidationError("restarts must be >= 1")
        if self.max_iterations < 1:
            raise ValidationError("max_iterations must be >= 1")
        if not self.step_tolerance > 0.0:
            raise ValidationError("step_tolerance must be positive")


@dataclass(eq=False)
class SearchResult:
    protocol: Protocol
    overlap: float
    budget_exhausted: bool
    best_restart: int
    histories: list[list[float]]


def _overlap_derivatives(ws: np.ndarray, y1, y2, u1, u2, d: int, anc: int) -> np.ndarray:
    """N_k such that replacing W_k by exp(X)W_k changes <s1|s2> by tr(X N_k).

    ``b1``/``b2`` carry the other branch's final state back through this
    branch's remaining steps, so one backward pass per branch gives every N_k.
    """
    b1, b2 = y2[-1], y1[-1]
    ns = np.empty_like(ws)
    for k in range(len(ws) - 1, -1, -1):
        ns[k] = np.outer(y2[k], b2.conj()) - np.outer(b1, y1[k].conj())
        if k:
            b1 = apply_query(ws[k].conj().T @ b1, u1.conj().T, d, anc)
            b2 = apply_query(ws[k].conj().T @ b2, u2.conj().T, d, anc)
    return ns


def _gauss_newton_step(c: complex, ns: np.ndarray) -> np.ndarray:
    """Smallest skew-Hermitian (X_0..X_T) whose first-order change cancels c.

    Re tr(X N) and Im tr(X N) are inner products of X with the skew-Hermitian
    directions below, so the step lies in their span and one damped 2x2
    system (Levenberg-Marquardt with lambda = |c|^2 * tr(G)) fixes it.
    """
    nh = ns.conj().transpose(0, 2, 1)
    dirs = ((nh - ns) / 2.0, 0.5j * (nh + ns))
    g = np.array([[np.vdot(p, q).real for q in dirs] for p in dirs])
    g += abs(c) ** 2 * np.trace(g) * np.eye(2)
    alpha, beta = np.linalg.lstsq(g, np.array([c.real, c.imag]), rcond=None)[0]
    return -(alpha * dirs[0] + beta * dirs[1])


def _descend(ws: np.ndarray, probe: np.ndarray, u1, u2, d: int, anc: int,
             cfg: SearchConfig) -> tuple[np.ndarray, list[float], bool]:
    """Gauss-Newton iterations on the final overlap.

    Each step is halved until the overlap drops; the restart ends once the
    step has shrunk below ``step_tolerance`` of the full Gauss-Newton step.
    """
    y1, y2 = evolve_branches(ws, probe, u1, u2, d, anc)
    c = np.vdot(y1[-1], y2[-1])
    history = [float(abs(c))]
    for _ in range(cfg.max_iterations):
        x = _gauss_newton_step(c, _overlap_derivatives(ws, y1, y2, u1, u2, d, anc))
        # exp(tX) through the eigenbasis of the Hermitian -iX: unitary to machine precision
        vals, vecs = np.linalg.eigh(-1j * x)
        scale = 1.0
        improved = False
        while scale >= cfg.step_tolerance:
            rotations = (vecs * np.exp(1j * vals)[:, None, :]) @ vecs.conj().transpose(0, 2, 1)
            trial = rotations @ ws
            t1, t2 = evolve_branches(trial, probe, u1, u2, d, anc)
            trial_c = np.vdot(t1[-1], t2[-1])
            if abs(trial_c) < abs(c):
                ws, y1, y2, c = trial, t1, t2, trial_c
                improved = True
                break
            vals = vals / 2.0
            scale /= 2.0
        history.append(float(abs(c)))
        if abs(c) < PERFECT_OVERLAP or not improved:
            return ws, history, False
    return ws, history, True


def optimize_protocol(u1, u2=None, cfg=None) -> SearchResult:
    """Search interleavers for the lowest final overlap at fixed T.

    Takes the two unitaries, or a UnitaryPair in their place:
    ``optimize_protocol(pair, cfg)``.

    The search keeps the T+1 interleavers themselves as its state; the
    probe stays fixed per restart, since W_0 reaches every state. Restart
    0 starts from identity interleavers (enough for commuting pairs);
    later restarts start from Haar ones. Restarts draw from independent
    streams derived from (seed, restart), so the result is reproducible
    and independent of evaluation order. The best protocol is re-simulated
    and asserted against the query-count bound before being returned.
    """
    pair, cfg = pair_args(u1, u2, cfg)
    a, b = pair.u1, pair.u2
    theta = smallest_arc(relative_spectrum(pair)).theta
    if theta == 0.0:
        raise IndistinguishableError(
            "the pair differs by a global phase at most; no protocol separates it"
        )
    d = a.shape[0]
    ancilla = d
    n = d * ancilla
    if n > DIM_CAP:
        raise CapacityError(f"system*ancilla dimension {n} exceeds cap {DIM_CAP}")

    identity = np.array([np.eye(n, dtype=complex)] * (cfg.queries + 1))
    if cfg.queries == 0:
        # The single interleaver cancels in the overlap: nothing to optimize.
        probe = random_state_from_rng(n, np.random.default_rng([cfg.seed, 0]))
        return SearchResult(
            protocol=Protocol(d, ancilla, 0, list(identity), probe),
            overlap=1.0,
            budget_exhausted=False,
            best_restart=0,
            histories=[[1.0]],
        )

    best: tuple[float, int, np.ndarray, np.ndarray, bool] | None = None
    histories: list[list[float]] = []
    for r in range(cfg.restarts):
        rng = np.random.default_rng([cfg.seed, r])
        probe = random_state_from_rng(n, rng)
        if r == 0:
            ws = identity
        else:
            ws = np.array([haar_unitary_from_rng(n, rng) for _ in range(cfg.queries + 1)])
        ws, history, exhausted = _descend(ws, probe, a, b, d, ancilla, cfg)
        histories.append(history)
        if best is None or history[-1] < best[0]:
            best = (history[-1], r, ws, probe, exhausted)
        if best[0] < PERFECT_OVERLAP:
            break  # perfect discrimination found: later restarts cannot do better

    assert best is not None
    _, best_restart, ws, probe, best_exhausted = best
    protocol = Protocol(d, ancilla, cfg.queries, list(ws), probe)
    trace = run_protocol(pair, protocol)
    overlap = trace.final_overlap

    eps = min(0.5, helstrom_error(overlap))
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
    )
