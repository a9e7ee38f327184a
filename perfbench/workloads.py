"""The benchmark's workloads: inputs made from a seed, one timed op, its gate.

A run's inputs are a list of items, each one op, timed on its own. A
``verify`` item is a one-instance campaign config, timed as one
``run_campaign`` plus a CSV render, which is the path
``qudisc verify --format csv`` takes. A ``search`` item is one problem,
timed as one ``optimize_protocol`` call. Every output is checked by a
correctness gate outside the timed region.

Import this module only after qudisc's import has been timed.
"""

from __future__ import annotations

import math
import time
import zlib
from dataclasses import dataclass, field

import numpy as np

from qudisc import bounds, builder, campaign, geometry, linalg, protocol

# Originals, captured before any tracer wraps the module attributes, so the
# gate's own calls never appear as spans or counts.
_render_report = campaign.render_report
_run_protocol = protocol.run_protocol

# Documented accuracy of helstrom_error against the overlap formula.
HELSTROM_TOL = 1e-9
# Coordinate sweeps per search op. Time to an overlap of 1e-5 ran from 0.05 s
# to 21 s per problem, and about 1% of problems missed it after 8 restarts,
# so no seed-drawn set that fits in a run times steadily. A fixed budget does,
# and one sweep keeps the op short enough to time on a shared host.
SEARCH_SWEEPS = 1
# The returned overlap must match a fresh simulation of the protocol to this.
RESIMULATION_TOL = 1e-9


@dataclass(frozen=True)
class Workload:
    """One set of inputs: ``per_t`` items at each T in ``t_range``.

    Item k runs at T = lo + k mod (hi - lo + 1), so every run holds the same
    number of items at each T. Cost grows steeply with T (a parallel instance
    costs 1.5 ms at T=1 and 70 ms at T=8), so with T drawn per item the
    number of high-T draws would set a run's throughput. At a fixed T and
    dim an item's cost hardly depends on its draw, so a few items suffice,
    and a run times each of them a hundred times or more.
    """

    name: str
    kind: str  # "verify" or "search"
    dim: int
    source: str
    t_range: tuple[int, int]
    per_t: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify-random-d8", "verify", 8, "random", (1, 3), 4),
        Workload("verify-random-d2", "verify", 2, "random", (0, 5), 4),
        Workload("verify-parallel-d2", "verify", 2, "parallel", (1, 8), 1),
        # T = t_perfect(theta) cycles through 2..4, so theta >= pi/4.
        Workload("search-budget-d2", "search", 2, "", (2, 4), 2),
    )
}


@dataclass(frozen=True)
class Problem:
    u1: np.ndarray
    u2: np.ndarray
    config: builder.SearchConfig


@dataclass
class Outcome:
    """Ops attempted and failed, and why the gate refused any of them."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)


def _stream(w: Workload, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(w.name.encode())])


def _t_of(w: Workload, k: int) -> int:
    lo, hi = w.t_range
    return lo + k % (hi - lo + 1)


def _campaign(w: Workload, rng: np.random.Generator, k: int) -> campaign.CampaignConfig:
    t = _t_of(w, k)
    return campaign.CampaignConfig(
        instances=1,
        dim=w.dim,
        t_range=(t, t),
        seed=int(rng.integers(0, 2**32)),
        protocol_source=w.source,
    )


def _problem(w: Workload, rng: np.random.Generator, k: int) -> Problem:
    """A Haar pair whose t_perfect(theta) is the item's T, searched at T queries."""
    queries = _t_of(w, k)
    while True:
        u1 = linalg.haar_unitary_from_rng(w.dim, rng)
        u2 = linalg.haar_unitary_from_rng(w.dim, rng)
        theta = geometry.smallest_arc(linalg.relative_spectrum(u1, u2)).theta
        if theta > 0.0 and bounds.t_perfect(theta) == queries:
            cfg = builder.SearchConfig(
                queries=queries,
                restarts=1,
                max_iterations=SEARCH_SWEEPS,
                seed=int(rng.integers(0, 2**63 - 1)),
            )
            return Problem(u1, u2, cfg)


def make_inputs(w: Workload, seed: int) -> list:
    """The run's items; equal (workload, seed) give equal inputs."""
    rng = _stream(w, seed)
    n = w.per_t * (w.t_range[1] - w.t_range[0] + 1)
    if w.kind == "search":
        return [_problem(w, rng, k) for k in range(n)]
    return [_campaign(w, rng, k) for k in range(n)]


def warm_up(w: Workload, items: list) -> None:
    """The first op, through the same entry points and the same gate."""
    outcome = Outcome()
    run_item(w, items[0], outcome)
    if outcome.errors:
        raise RuntimeError("warm-up op failed the gate: " + "; ".join(outcome.errors))


def run_item(w: Workload, item, outcome: Outcome) -> float:
    """Seconds spent in the timed calls of one item; its output is gated."""
    if w.kind == "search":
        return _run_problem(item, outcome)
    return _run_campaign(item, outcome)


def _run_campaign(cfg: campaign.CampaignConfig, outcome: Outcome) -> float:
    outcome.attempted += cfg.instances
    start = time.perf_counter()
    try:
        report = campaign.run_campaign(cfg)
        text = campaign.render_report(report, "csv")
    except Exception as exc:  # an aborted campaign fails all of its instances
        outcome.failed += cfg.instances
        outcome.errors.append(f"campaign seed {cfg.seed} aborted: {exc!r}")
        return time.perf_counter() - start
    elapsed = time.perf_counter() - start
    _check_campaign(cfg, report, text, outcome)
    return elapsed


def _check_campaign(cfg, report, text: str, outcome: Outcome) -> None:
    """Gate: no violation, deterministic CSV, Helstrom error matches the overlap."""
    where = f"campaign seed {cfg.seed} t_range {list(cfg.t_range)}"
    bad = set(campaign.violating_indices(report))
    missing = cfg.instances - len(report.records)
    if missing:
        outcome.errors.append(f"{where}: {missing} instances have no record")
    if report.summary.violation_count:
        outcome.errors.append(f"{where}: {report.summary.violation_count} bound violations")
    if _render_report(report, "csv") != text:
        outcome.errors.append(f"{where}: two CSV renders differ")
        bad.update(r.index for r in report.records)
    for r in report.records:
        expected = 0.5 * (1.0 - math.sqrt(max(0.0, 1.0 - r.overlap * r.overlap)))
        if not abs(r.helstrom_error - expected) <= HELSTROM_TOL:
            outcome.errors.append(
                f"{where} index {r.index}: helstrom_error {r.helstrom_error!r} != {expected!r}"
            )
            bad.add(r.index)
    failed = missing + len(bad)
    if report.summary.violation_count and not failed:
        failed = 1  # a campaign-level violation (D_0) that names no record
    outcome.failed += failed


def _run_problem(p: Problem, outcome: Outcome) -> float:
    outcome.attempted += 1
    start = time.perf_counter()
    try:
        result = builder.optimize_protocol(p.u1, p.u2, p.config)
    except Exception as exc:
        outcome.failed += 1
        outcome.errors.append(f"search seed {p.config.seed} raised: {exc!r}")
        return time.perf_counter() - start
    elapsed = time.perf_counter() - start
    if not _check_resimulation(p, result, outcome):
        outcome.failed += 1
    return elapsed


def _check_resimulation(p: Problem, result, outcome: Outcome) -> bool:
    """Gate: the returned overlap is the overlap its protocol really reaches."""
    overlap = _run_protocol(p.u1, p.u2, result.protocol).final_overlap
    if abs(overlap - result.overlap) <= RESIMULATION_TOL:
        return True
    outcome.errors.append(
        f"search seed {p.config.seed}: returned overlap {result.overlap!r},"
        f" re-simulated {overlap!r}"
    )
    return False
