"""Randomized verification campaigns over Haar-random unitary pairs.

Each instance samples a pair, builds a protocol, simulates it, measures
the final states, and records how much slack the query-count bound and
the per-step distance audit have left. A correct toolkit never produces
a negative slack beyond numerical tolerance; any violation is reported
with the (seed, index) pair that reconstructs it exactly.

Per-instance randomness is drawn from ``numpy.random.default_rng([seed,
index])``, so records are independent of execution order.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields

import numpy as np

from .bounds import t_min_bounded, t_min_onesided
from .builder import (SearchConfig, build_parallel, check_copies, check_seed, optimize_protocol,
                      search_size, simulate_parallel)
from .errors import CapacityError, UsageError, ValidationError
from .linalg import (DIM_CAP, UnitaryPair, check_integer, haar_unitary_from_rng,
                     relative_spectrum, require_entries)
from .geometry import smallest_arc
from .measurement import StatePair, evaluate_povm, helstrom_povm, unambiguous_povm
# run_protocol is not called here: the benchmark's tracer wraps campaign.run_protocol.
from .protocol import audit_step_slacks, run_protocol, simulate_random, simulation_size
from .serialize import config_from_fields
from .tolerances import D0_TOL, LEMMA_SLACK_TOL, THEOREM_SLACK_TOL

PROTOCOL_SOURCES = ("random", "parallel", "optimized")
# Each source's size rule for an instance at (dim, T): CapacityError when it does not fit.
_SIZE_RULES = {"random": lambda dim, t: simulation_size(dim, dim, t),
               "parallel": lambda dim, t: check_copies(t), "optimized": search_size}


@dataclass(frozen=True)
class CampaignConfig:
    """What a campaign runs; checked when built, so every copy made by replace() is too."""

    instances: int
    dim: int
    t_range: tuple[int, int]
    seed: int
    protocol_source: str = "random"

    def __post_init__(self):
        # dim >= 2: every 1x1 pair differs by a global phase at most, so theta = 0
        for name, floor in (("instances", 1), ("dim", 2), ("seed", None)):
            object.__setattr__(self, name, check_integer(getattr(self, name), name, floor))
        if not isinstance(self.t_range, (tuple, list)) or len(self.t_range) != 2:
            raise ValidationError(f"t_range must be a (lo, hi) pair, got {self.t_range!r}")
        lo = check_integer(self.t_range[0], "t_range[0]", 0)
        hi = check_integer(self.t_range[1], "t_range[1]", lo)
        object.__setattr__(self, "t_range", (lo, hi))
        source = self.protocol_source
        if not isinstance(source, str) or source not in PROTOCOL_SOURCES:
            raise ValidationError(
                f"protocol_source must be one of {PROTOCOL_SOURCES}, got {source!r}")
        if source == "parallel":
            # the plan acts on the system alone, at O(T) cost
            if lo < 1:
                raise ValidationError("parallel protocols need at least one query")
        elif self.dim * self.dim > DIM_CAP:
            raise ValidationError(f"dim**2 must stay within the cap {DIM_CAP}")
        try:
            # every source draws its pair as one (2, 2, dim, dim) Gaussian stack
            require_entries(4 * self.dim * self.dim, f"the unitary pair draw at dim {self.dim}")
        except CapacityError as exc:
            raise ValidationError(f"dim {self.dim} is too large: {exc}") from exc
        try:
            _SIZE_RULES[source](self.dim, hi)
        except CapacityError as exc:
            raise ValidationError(f"t_range {list(self.t_range)} is too large: {exc}") from exc
        check_seed(self.seed)


@dataclass(frozen=True)
class InstanceRecord:
    """One verified instance; floats carry full double precision.

    ``lemma2_min_slack`` is None for zero-query protocols (no steps to
    audit). ``inconclusive`` is 1.0 when the final states coincide and the
    only compliant one-sided budget is the trivial one. A pair with
    theta = 0 is recorded without a protocol: its bound is 0/0, so
    ``bound_raw``, ``bound_t`` and ``lemma2_min_slack`` are None.
    """

    index: int
    theta: float
    queries: int
    overlap: float
    helstrom_error: float
    inconclusive: float
    bound_raw: float | None
    bound_t: int | None
    lemma2_min_slack: float | None
    theorem1_slack: float
    theorem1_slack_onesided: float


# CSV columns follow the record's fields; the query count is headed "T".
_RECORD_FIELDS = tuple(f.name for f in fields(InstanceRecord))
CSV_COLUMNS = tuple("T" if name == "queries" else name for name in _RECORD_FIELDS)


@dataclass(frozen=True)
class CampaignSummary:
    instances: int
    violations_bounded: int
    violations_onesided: int
    violations_lemma2: int
    violations_d0: int
    violation_count: int
    min_theorem1_slack: float | None
    min_theorem1_slack_onesided: float | None
    min_lemma2_slack: float | None
    max_d0: float | None


@dataclass(frozen=True)
class CampaignReport:
    config: CampaignConfig
    records: list[InstanceRecord]
    summary: CampaignSummary


def _instance_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


def _build_trace(pair: UnitaryPair, queries: int, cfg: CampaignConfig,
                 rng: np.random.Generator):
    if cfg.protocol_source == "parallel":
        plan = build_parallel(pair, queries)
        return simulate_parallel(pair, plan)
    if cfg.protocol_source == "optimized":
        search = SearchConfig(
            queries=queries,
            restarts=2,
            max_iterations=30,
            step_tolerance=1e-3,
            seed=int(rng.integers(0, 2**63 - 1)),
        )
        return optimize_protocol(pair, search).trace
    # the ancilla matches the system dimension
    return simulate_random(pair, cfg.dim, queries, rng)


def measure_pair(pair: StatePair) -> tuple[float, float | None]:
    """Measured errors of the optimal measurements on a checked final state pair.

    Returns the Helstrom error, clamped to [0, 0.5], and the larger
    inconclusive rate of the unambiguous measurement. The latter is None
    when the states coincide (``StatePair.coincide``), because no
    unambiguous measurement exists then.
    """
    outcome = evaluate_povm(helstrom_povm(pair), pair)
    error = min(0.5, max(0.0, 1.0 - min(outcome.p_correct_1, outcome.p_correct_2)))
    if pair.coincide:
        return error, None
    three = evaluate_povm(unambiguous_povm(pair), pair)
    return error, max(three.p_inconclusive_1, three.p_inconclusive_2)


def run_instance(cfg: CampaignConfig, index: int) -> tuple[InstanceRecord, float]:
    """Run one campaign instance; returns (record, observed D_0)."""
    rng = _instance_rng(cfg.seed, index)
    u1, u2 = haar_unitary_from_rng(cfg.dim, rng, (2,))
    lo, hi = cfg.t_range
    queries = int(rng.integers(lo, hi + 1))

    # The pair is checked, and U1†U2 decomposed and given its arc, once for the whole instance.
    pair = UnitaryPair.of(u1, u2)
    theta = smallest_arc(relative_spectrum(pair)).theta
    if theta == 0.0:
        # Every protocol ends at overlap 1 on such a pair: nothing to build.
        record = InstanceRecord(
            index=index,
            theta=theta,
            queries=queries,
            overlap=1.0,
            helstrom_error=0.5,
            inconclusive=1.0,
            bound_raw=None,
            bound_t=None,
            lemma2_min_slack=None,
            theorem1_slack=0.0,
            theorem1_slack_onesided=0.0,
        )
        return record, 0.0
    trace = _build_trace(pair, queries, cfg, rng)
    slacks = audit_step_slacks(trace, theta)
    lemma2_min = min(slacks) if slacks else None

    eps, eps0 = measure_pair(trace.final)
    if eps0 is None:
        eps0 = 1.0  # only the always-inconclusive budget is available
    bound = t_min_bounded(theta, eps)
    record = InstanceRecord(
        index=index,
        theta=theta,
        queries=queries,
        overlap=trace.final_overlap,
        helstrom_error=eps,
        inconclusive=eps0,
        bound_raw=bound.raw_value,
        bound_t=bound.t_lower,
        lemma2_min_slack=lemma2_min,
        theorem1_slack=bound.slack(queries),
        theorem1_slack_onesided=t_min_onesided(theta, eps0).slack(queries),
    )
    return record, trace.distances[0]


def violations(r: InstanceRecord) -> tuple[bool, bool, bool]:
    """The checks a record breaks: (bounded-error bound, one-sided bound, step audit)."""
    return (
        r.theorem1_slack < THEOREM_SLACK_TOL,
        r.theorem1_slack_onesided < THEOREM_SLACK_TOL,
        r.lemma2_min_slack is not None and r.lemma2_min_slack < LEMMA_SLACK_TOL,
    )


def summarize(records: list[InstanceRecord], max_d0: float | None) -> CampaignSummary:
    flags = [violations(r) for r in records]
    v_bounded, v_onesided, v_lemma = (sum(f[k] for f in flags) for k in range(3))
    lemma = [r.lemma2_min_slack for r in records if r.lemma2_min_slack is not None]
    v_d0 = 1 if (max_d0 is not None and max_d0 > D0_TOL) else 0
    return CampaignSummary(
        instances=len(records),
        violations_bounded=v_bounded,
        violations_onesided=v_onesided,
        violations_lemma2=v_lemma,
        violations_d0=v_d0,
        violation_count=v_bounded + v_onesided + v_lemma + v_d0,
        min_theorem1_slack=min((r.theorem1_slack for r in records), default=None),
        min_theorem1_slack_onesided=min(
            (r.theorem1_slack_onesided for r in records), default=None
        ),
        min_lemma2_slack=min(lemma, default=None),
        max_d0=max_d0,
    )


def violating_indices(report: CampaignReport) -> list[int]:
    """Indices of records that break any bound; (config.seed, index) replays them."""
    return [r.index for r in report.records if any(violations(r))]


def run_campaign(cfg: CampaignConfig) -> CampaignReport:
    """Run every instance of a campaign and aggregate the slack statistics."""
    records: list[InstanceRecord] = []
    max_d0: float | None = None
    for index in range(cfg.instances):
        record, d0 = run_instance(cfg, index)
        records.append(record)
        max_d0 = d0 if max_d0 is None else max(max_d0, d0)
    return CampaignReport(
        config=cfg,
        records=records,
        summary=summarize(records, max_d0),
    )


# --- wire formats ---------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, int):
        return str(value)
    return format(value, ".17g")


def render_csv(report: CampaignReport) -> str:
    """Deterministic CSV: header plus one row per instance record."""
    lines = [",".join(CSV_COLUMNS)]
    for r in report.records:
        lines.append(",".join(_fmt(getattr(r, name)) for name in _RECORD_FIELDS))
    return "\n".join(lines) + "\n"


def config_to_obj(cfg: CampaignConfig) -> dict:
    return {**asdict(cfg), "t_range": list(cfg.t_range)}


def config_from_obj(obj) -> CampaignConfig:
    return config_from_fields(obj, CampaignConfig, "campaign config")


def report_to_obj(report: CampaignReport) -> dict:
    return {
        "config": config_to_obj(report.config),
        "records": [asdict(r) for r in report.records],
        "summary": asdict(report.summary),
    }


def render_report(report: CampaignReport, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report_to_obj(report), indent=2) + "\n"
    if fmt == "csv":
        return render_csv(report)
    raise UsageError(f"unknown report format {fmt!r}")
