"""Island-model genetic programming over typed expression trees.

The package splits into a small core -- typed trees, a supervised
interpreter, a generational evolution engine and a lock-step island runtime
with anonymous best-effort migration -- plus two synthetic benchmark tasks
(news-feed ranking and location-provider scheduling) and an experiment
harness that repeats runs and writes per-generation statistics as CSV.
"""

from .evolution import (
    EvalStats,
    EvolutionStrategy,
    Operator,
    Population,
    SelectorBinding,
    StrategyStep,
    breed_next_generation,
    crossover,
    evaluate_population,
    google_reader_strategy,
    initial_population,
    island_strategy,
    localisation_strategy,
    mutate,
    n_best,
    strategy_from_dict,
)
from .harness import (
    ComparisonReport,
    ExperimentConfig,
    ExperimentResult,
    compare_runs,
    run_experiment,
    write_rows_csv,
    write_summary_csv,
)
from .interpreter import (
    Program,
    RunOutcome,
    compile_program,
    execute,
)
from .islands import (
    GenerationStats,
    IslandSpec,
    MigrantEnvelope,
    MigrationMode,
    MigrationPolicy,
    SimulatedBroadcastBus,
    UdpBroadcastTransport,
    admit_immigrants,
    inject_random,
    is_migration_generation,
    run_islands,
    select_emigrants,
)
from .trees import (
    Category,
    ConfigurationError,
    Individual,
    NodeKind,
    Origin,
    PrimitiveSet,
    ProgramTree,
    Sort,
    TreeError,
    TreeParseError,
    TreeValidationError,
    build_random_tree,
    deserialize,
    serialize,
    validate_tree,
)

__version__ = "0.1.0"
