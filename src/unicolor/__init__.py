"""Self-stabilizing vertex coloring on unidirectional networks.

Simulator, Monte Carlo experiment harness, and exhaustive small-instance
verifier for the deterministic (cyclic next-free-color) and probabilistic
(uniform free-color) local recoloring rules under adversarial schedulers.
"""

from .core import (
    Configuration,
    DirectedGraph,
    EnabledTracker,
    GraphConstructionError,
    bidirectional_clique,
    build_graph,
    chain,
    enabled_set,
    is_legitimate,
    parse_graph_text,
    random_digraph,
    read_graph_file,
    ring,
)
from .algorithms import (
    AlgorithmKind,
    AlgorithmSpec,
    Move,
    NonTerminatingCommandError,
    conflict_creation_bound,
    expected_new_conflicts,
    expected_steps_per_conflict,
    expected_total_steps_bound,
    recolor,
)
from .schedulers import (
    SchedulerKind,
    SchedulerPolicy,
    Script,
    ScriptViolationError,
    select_from,
)
from .engine import EngineStepError, ExecutionTrace, StepRecord, run
from .verify import (
    DivergenceWitness,
    EnumerationCapError,
    PolicyClass,
    VerificationReport,
    WorstCaseWitness,
    replay_witness,
    verify_deterministic,
    verify_probabilistic_support,
)
from .experiments import (
    ExperimentConfig,
    ExperimentReport,
    InitialDistribution,
    TrialResult,
    run_experiment,
    split_seed,
    sweep,
)
from .repro import (
    AmbiguousChaseError,
    ReproReport,
    chain_schedule,
    repro_chain_worst_case,
    repro_clique_state_bound,
    repro_ring_chase,
    repro_sync_ring,
    ring_chase,
    ring_chase_initial,
)
