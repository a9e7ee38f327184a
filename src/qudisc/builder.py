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
import operator
from dataclasses import dataclass

import numpy as np

from .bounds import t_min_bounded
from .errors import DomainError, IndistinguishableError, ShapeError, ValidationError
from .geometry import closest_hull_point, smallest_arc
from .linalg import (
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

    Row s of ``strings`` names, per copy, a column of ``eigenvectors`` (the
    eigenbasis of U1†U2); the probe is sum_s sqrt(weights[s]) |string s>,
    over at most 3 strings. Each string only picks up its product phase, so
    the final overlap is |sum_s weights[s] e^{i Phi_s}|: the distance from
    the origin to the hull of the chosen phases. For the strings
    ``build_parallel`` picks that is cos(T*theta/2) while T*theta < pi and 0
    from there on, the optimum over all protocols (Acin, PRL 87, 177901, 2001).
    """

    copies: int
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
    check_copies(t)
    spectrum = pair.spectrum  # with eigenvectors: the strings are made of them
    arc = smallest_arc(spectrum)
    if arc.theta == 0.0:
        raise IndistinguishableError(
            "the pair differs by a global phase at most; parallel probing cannot help"
        )
    # Candidates a^(T-j) b^j, j = 0..T, for the arc endpoints a, b: their
    # phases, taken relative to a^T, step by theta from 0 to T*theta. From
    # theta >= pi a step can jump over the origin, so x_k a^(T-1) joins for
    # every other eigenvector x_k (x_a gives a^T again, and at T = 1 x_b
    # gives b): those phases are the spectrum's own, turned. No two
    # candidates are the same string, so the chosen ones are orthonormal.
    phases = np.arange(t + 1) * arc.theta
    others = []
    if arc.theta >= math.pi:
        taken = (arc.start,) if t > 1 else (arc.start, arc.end)
        others = [k for k in range(spectrum.dim) if k not in taken]
        phases = np.concatenate([phases, spectrum.phases[others] - arc.start_phase])
    _, weights = closest_hull_point(np.exp(1j * phases))
    chosen = np.flatnonzero(weights)
    strings = np.full((chosen.size, t), arc.start)
    for row, c in zip(strings, chosen):
        if c <= t:
            row[t - c:] = arc.end
        else:
            row[0] = others[c - t - 1]
    return ParallelPlan(
        copies=t,
        eigenvectors=spectrum.vectors,
        strings=strings,
        weights=weights[chosen],
        predicted_overlap=0.0 if t * arc.theta >= math.pi else math.cos(t * arc.theta / 2.0),
    )


def check_copies(t: int) -> None:
    """Refuse a copy count below 1, or one whose per-copy Gram stacks (at most 3x3 string
    pairs for each of t copies and the idle tail) would not fit ``ENTRY_CAP``."""
    if t < 1:
        raise DomainError(f"copy count must be >= 1, got {t!r}")
    require_entries(9 * (t + 1), f"a parallel plan on {t} copies")


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
    states = np.empty((2, plan.copies + 1, amp.size), dtype=complex)
    states[0] = states[1, 0] = amp
    for j in range(1, plan.copies + 1):
        states[1, j] = (queried[..., j - 1] * waiting[..., j]) @ amp
    return record_trace(states)


def check_integer(value, what: str) -> int:
    """Every config count and seed is an integer: what ``operator.index`` takes, but not a bool.

    Returns it as a Python int, which the configs store, so a numpy integer
    reaches a JSON report as a plain number.
    """
    try:
        if isinstance(value, bool):
            raise TypeError
        return operator.index(value)
    except TypeError:
        raise ValidationError(f"{what} must be an integer, got {value!r}") from None


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
        for name in ("queries", "restarts", "max_iterations", "seed"):
            object.__setattr__(self, name, check_integer(getattr(self, name), name))
        if self.queries < 0:
            raise ValidationError("query count must be nonnegative")
        if self.restarts < 1:
            raise ValidationError("restarts must be >= 1")
        if self.max_iterations < 1:
            raise ValidationError("max_iterations must be >= 1")
        # above 1 the step-halving loop tries no step at all, and the search stops at its start
        if not 0.0 < self.step_tolerance <= 1.0:
            raise ValidationError(f"step_tolerance must lie in (0, 1], got {self.step_tolerance!r}")
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


def _overlap_derivatives(ws: np.ndarray, y: np.ndarray, u1, u2, d: int, anc: int) -> np.ndarray:
    """N_k such that replacing W_k by exp(X)W_k changes <s1|s2> by tr(X N_k).

    ``y`` is the (2, T+1, n) array of ``evolve_branches``. ``back[i, k]``
    carries the other branch's final state back through branch i's steps
    after W_k, so one backward pass per branch gives every N_k, as the
    outer products y_2[k] back_2[k]† - back_1[k] y_1[k]†.
    """
    back = np.empty_like(y)
    back[:, -1] = y[::-1, -1]
    uh = (u1.conj().T, u2.conj().T)
    wh = ws.conj().transpose(0, 2, 1)
    for k in range(len(ws) - 1, 0, -1):
        for i in (0, 1):
            back[i, k - 1] = apply_query(wh[k] @ back[i, k], uh[i], d, anc)
    forward = y[1, :, :, None] * back[1, :, None, :].conj()
    return forward - back[0, :, :, None] * y[0, :, None, :].conj()


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


def _descend(ws: np.ndarray, y: np.ndarray, probe: np.ndarray, u1, u2, d: int, anc: int,
             cfg: SearchConfig) -> tuple[np.ndarray, np.ndarray, list[float], bool]:
    """Gauss-Newton iterations on the final overlap, from interleavers ``ws`` and states ``y``.

    Returns the last accepted interleavers with their ``evolve_branches``
    states (the start's when no step is accepted), the history and whether
    the budget ran out.

    Each step is halved until the overlap drops; the restart ends once the
    step has shrunk below ``step_tolerance`` of the full Gauss-Newton step.
    """
    c = np.vdot(y[0, -1], y[1, -1])
    history = [float(abs(c))]
    for _ in range(cfg.max_iterations):
        x = _gauss_newton_step(c, _overlap_derivatives(ws, y, u1, u2, d, anc))
        # exp(tX) through the eigenbasis of the Hermitian -iX: unitary to machine precision
        vals, vecs = np.linalg.eigh(-1j * x)
        scale = 1.0
        improved = False
        while scale >= cfg.step_tolerance:
            rotations = (vecs * np.exp(1j * vals)[:, None, :]) @ vecs.conj().transpose(0, 2, 1)
            trial = rotations @ ws
            trial_y = evolve_branches(trial, probe, u1, u2, d, anc)
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

    Takes the two unitaries, or a UnitaryPair in their place:
    ``optimize_protocol(pair, cfg)``.

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
    a, b = pair.u1, pair.u2
    d = ancilla = a.shape[0]
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
        states = evolve_branches(ws, probe, a, b, d, ancilla)
        history, exhausted = [1.0], False
        if cfg.queries:
            ws, states, history, exhausted = _descend(ws, states, probe, a, b, d, ancilla, cfg)
        histories.append(history)
        if best is None or history[-1] < best[0]:
            best = (history[-1], r, ws, probe, states, exhausted)
        if best[0] < PERFECT_OVERLAP:
            break  # perfect discrimination found: later restarts cannot do better

    assert best is not None
    _, best_restart, ws, probe, states, best_exhausted = best
    protocol = Protocol(d, ancilla, cfg.queries, ws, probe)
    trace = record_trace(states)
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
        trace=trace,
    )
