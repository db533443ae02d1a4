"""Monte Carlo batches of seeded runs, with bound comparison.

Trials are independent and reproducible: trial t derives its seeds from
``seed_base + t`` through a keyed hash split (one stream for drawing the
initial configuration, one for the run itself), so a report is a pure
function of its config and merging is order-independent.  The compared
statistic is moves (process activations), not scheduler rounds, and the
probabilistic bound n(k-1)/(k-max_degree) is checked one-sided only, since
it is an upper bound on the expectation rather than an exact value.
"""

from __future__ import annotations

import hashlib
import math
import random
import statistics
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction

from .core import Configuration, DirectedGraph, UsageError
from .algorithms import AlgorithmKind, AlgorithmSpec, _check_prob_headroom, expected_total_steps_bound
from .engine import EngineStepError, default_max_steps, run
from .schedulers import SchedulerPolicy


class InitialDistribution(Enum):
    UNIFORM_COLOR0 = "uniform0"
    RANDOM_EACH_TRIAL = "random"


def split_seed(seed_base: int, trial_index: int, stream: str) -> int:
    """Derive an independent 64-bit stream seed for one trial.

    blake2b over "<seed_base+trial_index>:<stream>"; documented so external
    tools can reproduce any single trial.
    """
    tag = f"{seed_base + trial_index}:{stream}".encode()
    return int.from_bytes(hashlib.blake2b(tag, digest_size=8).digest(), "big")


@dataclass(frozen=True)
class ExperimentConfig:
    graph: DirectedGraph
    algorithm: AlgorithmSpec
    scheduler: SchedulerPolicy
    trials: int
    seed_base: int = 0
    initial: InitialDistribution = InitialDistribution.RANDOM_EACH_TRIAL
    max_steps: int | None = None

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise UsageError(f"need at least one trial, got {self.trials}")
        if self.max_steps is not None and self.max_steps < 0:
            raise UsageError(f"max_steps must be >= 0, got {self.max_steps}")
        if self.algorithm.kind is AlgorithmKind.PROBABILISTIC:
            _check_prob_headroom(self.graph, self.algorithm.k)


@dataclass(frozen=True)
class TrialResult:
    index: int
    moves: int
    steps: int
    converged: bool
    error: str | None = None


@dataclass(frozen=True)
class ExperimentReport:
    graph: dict
    algorithm: dict
    scheduler: str
    trials: int
    seed_base: int
    initial: str
    max_steps: int | None
    per_trial: tuple[TrialResult, ...]
    converged: int
    censored: int
    failed: int
    mean_moves: float
    stddev_moves: float
    min_moves: int
    max_moves: int
    bound: Fraction | None
    bound_satisfied: bool | None
    bound_z_score: float | None

    def to_dict(self) -> dict:
        return {
            "graph": self.graph,
            "algorithm": self.algorithm,
            "scheduler": self.scheduler,
            "trials": self.trials,
            "seed_base": self.seed_base,
            "initial": self.initial,
            "max_steps": self.max_steps,
            "converged": self.converged,
            "censored": self.censored,
            "failed": self.failed,
            "mean_moves": self.mean_moves,
            "stddev_moves": self.stddev_moves,
            "min_moves": self.min_moves,
            "max_moves": self.max_moves,
            "bound": None if self.bound is None else [self.bound.numerator, self.bound.denominator],
            "bound_value": None if self.bound is None else float(self.bound),
            "bound_satisfied": self.bound_satisfied,
            "bound_z_score": self.bound_z_score,
            "bound_check": "one-sided 3-sigma, mean <= bound + 3*stderr",
            "per_trial_moves": [t.moves for t in self.per_trial],
            "errors": [{"index": t.index, "error": t.error} for t in self.per_trial if t.error],
        }

    def per_trial_tsv(self) -> str:
        lines = ["trial\tmoves\tsteps\tconverged"]
        for t in self.per_trial:
            lines.append(f"{t.index}\t{t.moves}\t{t.steps}\t{int(t.converged)}")
        return "\n".join(lines) + "\n"


def random_initial(n: int, k: int, seed_base: int, index: int) -> Configuration:
    """The random start of trial ``index`` of a batch seeded ``seed_base``."""
    return Configuration.random(n, k, random.Random(split_seed(seed_base, index, "init")))


def _initial_for_trial(config: ExperimentConfig, index: int) -> Configuration:
    n = config.graph.n
    k = config.algorithm.k
    if config.initial is InitialDistribution.RANDOM_EACH_TRIAL:
        return random_initial(n, k, config.seed_base, index)
    return Configuration.uniform(n, 0, k)


def run_trial(config: ExperimentConfig, index: int) -> TrialResult:
    try:
        trace = run(
            config.graph,
            config.algorithm,
            config.scheduler,
            _initial_for_trial(config, index),
            max_steps=config.max_steps,
            seed=split_seed(config.seed_base, index, "engine"),
            record="none",
        )
    except EngineStepError as exc:
        return TrialResult(index=index, moves=0, steps=0, converged=False, error=str(exc))
    return TrialResult(
        index=index,
        moves=trace.total_moves,
        steps=trace.total_steps,
        converged=trace.terminated,
    )


def run_experiment(config: ExperimentConfig, jobs: int = 1) -> ExperimentReport:
    """Run the batch and aggregate; trial errors are recorded, not raised.

    The default step cap is resolved once here, not once per trial; the
    report keeps ``config.max_steps`` as given.  Trials come back in index
    order.  A trial that hits the cap is censored: its move count is only a
    lower bound, so any censored trial leaves the bound verdict null.
    """
    if jobs < 1:
        raise UsageError(f"jobs must be >= 1, got {jobs}")
    capped = config
    if config.max_steps is None:
        capped = replace(config, max_steps=default_max_steps(config.graph, config.algorithm))
    indices = range(config.trials)
    if jobs > 1:
        # Imported here: the pool pulls in multiprocessing, which would slow every ``import unicolor``.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(run_trial, [capped] * config.trials, indices, chunksize=64))
    else:
        results = [run_trial(capped, i) for i in indices]

    ok = [t for t in results if t.error is None]
    moves = [t.moves for t in ok]
    mean = statistics.fmean(moves) if moves else 0.0
    stddev = statistics.stdev(moves) if len(moves) > 1 else 0.0
    converged = sum(1 for t in ok if t.converged)
    censored = len(ok) - converged

    bound: Fraction | None = None
    bound_satisfied: bool | None = None
    z: float | None = None
    # A graph without arcs has no degree for the bound to count conflicts by.
    if config.algorithm.kind is AlgorithmKind.PROBABILISTIC and moves and config.graph.arcs:
        bound = expected_total_steps_bound(
            config.graph.n, config.graph.max_degree, config.algorithm.k
        )
    if bound is not None and not censored:
        stderr = stddev / math.sqrt(len(moves))
        if stderr > 0:
            z = (mean - float(bound)) / stderr
            bound_satisfied = z <= 3.0
        else:
            bound_satisfied = mean <= float(bound)

    return ExperimentReport(
        graph=config.graph.summary(),
        algorithm=config.algorithm.summary(),
        scheduler=config.scheduler.name,
        trials=config.trials,
        seed_base=config.seed_base,
        initial=config.initial.value,
        max_steps=config.max_steps,
        per_trial=tuple(results),
        converged=converged,
        censored=censored,
        failed=len(results) - len(ok),
        mean_moves=mean,
        stddev_moves=stddev,
        min_moves=min(moves) if moves else 0,
        max_moves=max(moves) if moves else 0,
        bound=bound,
        bound_satisfied=bound_satisfied,
        bound_z_score=z,
    )


def sweep(config: ExperimentConfig, k_values, jobs: int = 1) -> list[ExperimentReport]:
    """One report per palette size; every k validated before any trial runs."""
    specs = [replace(config, algorithm=replace(config.algorithm, k=k)) for k in k_values]
    return [run_experiment(spec, jobs=jobs) for spec in specs]


def sweep_table(reports) -> str:
    lines = ["k\tmean_moves\tbound"]
    for rep in reports:
        bound = "" if rep.bound is None else f"{float(rep.bound):.4f}"
        lines.append(f"{rep.algorithm['k']}\t{rep.mean_moves:.4f}\t{bound}")
    return "\n".join(lines) + "\n"
