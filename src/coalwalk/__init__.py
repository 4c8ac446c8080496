"""Coalescing random walks on graphs.

Exact Markov-chain solvers for mixing, separation, spectral, hitting,
meeting and collision quantities of the lazy walk; seeded Monte Carlo for
the coalescing process, the voter model and the immortal-group variant;
explicit-constant bound verification; and a batch experiment runner.
"""

from .bounds import (
    BoundCheck,
    BoundReport,
    ConcentrationReport,
    MeasuredQuantities,
    bound_coal_beer,
    bound_coal_mixtradeoff,
    bound_hit_spectral,
    bound_meet_hit,
    bound_meet_interval,
    check_collision_concentration,
    check_concentration,
    measure,
    sandwich_avgmeet,
    verify_relations,
)
from .chain import (
    CollisionStats,
    HittingProfile,
    MeetingResult,
    MixingResult,
    SpectralSummary,
    collision_stats,
    hitting_matrix,
    hitting_to,
    lazy_step,
    meeting_exact,
    mixing_time,
    mixing_time_d,
    separation_time,
    spectral,
    stationary,
    t_hit,
    tstep_row,
    tv_distance,
)
from .cli import ExperimentConfig, ScalingFit, SweepSpec, fit_scaling, parse_config, run
from .errors import (
    AllCensored,
    BudgetExceeded,
    CoalwalkError,
    ConfigError,
    DisconnectedGraph,
    GenerationFailure,
    InsufficientPoints,
    InvalidIds,
    InvalidSpec,
    LengthMismatch,
    MissingQuantity,
    ParseError,
    SelfLoop,
    TooLarge,
)
from .graphs import (
    DiagnosticsReport,
    FamilySpec,
    Graph,
    generate,
    load_edge_list,
    lower_bound_graph,
    lower_bound_report,
    subgraph,
    validate,
)
from .simulate import (
    Estimate,
    SimSample,
    default_cap,
    estimate,
    paired_batch_means,
    simulate_coalescence,
    simulate_immortal,
    simulate_meeting,
    simulate_voter,
)

__version__ = "0.1.0"
