"""Query complexity toolkit for discriminating two unitary operations.

Computes the minimum number of queries any protocol needs to tell two
unitaries apart at a given error budget, simulates sequential query
protocols, constructs the optimal measurements on the final states, and
runs randomized campaigns checking that nothing ever beats the bounds.
"""

from .bounds import (
    BoundReport,
    ErrorMode,
    optimal_overlap,
    t_min_bounded,
    t_min_onesided,
    t_perfect,
)
from .builder import (
    ParallelPlan,
    SearchConfig,
    SearchResult,
    build_parallel,
    optimize_protocol,
    simulate_parallel,
)
from .campaign import (
    CampaignConfig,
    CampaignReport,
    CampaignSummary,
    InstanceRecord,
    render_report,
    run_campaign,
)
from .errors import (
    CapacityError,
    DomainError,
    IndistinguishableError,
    NumericalError,
    ShapeError,
    UsageError,
    ValidationError,
)
from .geometry import (
    ArcResult,
    closest_hull_point,
    fidelity_closed_form,
    fidelity_hull_oracle,
    smallest_arc,
    trace_distance_pure,
)
from .linalg import (
    DIM_CAP,
    PhaseSpectrum,
    UnitaryPair,
    haar_unitary_from_rng,
    relative_spectrum,
)
from .measurement import (
    DiscriminationOutcome,
    Povm,
    StatePair,
    evaluate_povm,
    helstrom_error,
    helstrom_povm,
    unambiguous_povm,
)
from .protocol import Protocol, SimulationTrace, audit_step_slacks, run_protocol, simulate_random

__version__ = "0.1.0"

__all__ = [
    "ArcResult",
    "BoundReport",
    "CampaignConfig",
    "CampaignReport",
    "CampaignSummary",
    "CapacityError",
    "DIM_CAP",
    "DiscriminationOutcome",
    "DomainError",
    "ErrorMode",
    "IndistinguishableError",
    "InstanceRecord",
    "NumericalError",
    "ParallelPlan",
    "PhaseSpectrum",
    "Povm",
    "Protocol",
    "SearchConfig",
    "SearchResult",
    "ShapeError",
    "SimulationTrace",
    "StatePair",
    "UnitaryPair",
    "UsageError",
    "ValidationError",
    "audit_step_slacks",
    "build_parallel",
    "closest_hull_point",
    "evaluate_povm",
    "fidelity_closed_form",
    "fidelity_hull_oracle",
    "haar_unitary_from_rng",
    "helstrom_error",
    "helstrom_povm",
    "optimal_overlap",
    "optimize_protocol",
    "relative_spectrum",
    "render_report",
    "run_campaign",
    "run_protocol",
    "simulate_parallel",
    "simulate_random",
    "smallest_arc",
    "t_min_bounded",
    "t_min_onesided",
    "t_perfect",
    "trace_distance_pure",
    "unambiguous_povm",
]
