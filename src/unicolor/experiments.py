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
from dataclasses import dataclass, fields
from enum import Enum
from fractions import Fraction

from .core import DirectedGraph, EnabledTracker, UsageError, _random_colors
from .algorithms import AlgorithmKind, AlgorithmSpec, _check_prob_headroom, expected_total_steps_bound, rule
from .engine import EngineStepError, _step_loop, default_max_steps
from .schedulers import SchedulerPolicy, selector


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
        """The report's JSON object: every field but ``per_trial``, whose
        moves and errors it lists instead, and ``bound`` as an exact pair."""
        out = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "per_trial"}
        bound = self.bound
        out["bound"] = None if bound is None else [bound.numerator, bound.denominator]
        out["bound_value"] = None if bound is None else float(bound)
        out["bound_check"] = "one-sided 3-sigma, mean <= bound + 3*stderr"
        out["per_trial_moves"] = [t.moves for t in self.per_trial]
        out["errors"] = [{"index": t.index, "error": t.error} for t in self.per_trial if t.error]
        return out


def random_initial(n: int, k: int, seed_base: int, index: int) -> list[int]:
    """The random start of trial ``index`` of a batch seeded ``seed_base``:
    the ``n`` colors ``Configuration.random`` draws from a ``Random``
    seeded with the trial's init stream."""
    return _random_colors(n, k, random.Random(split_seed(seed_base, index, "init")).getrandbits)


# The most trials that share one run set-up.
CHUNK = 64


def run_chunk(config: ExperimentConfig, start: int, stop: int) -> list[TrialResult]:
    """The results of trials ``start .. stop - 1`` of ``config``'s batch:
    the one path every trial takes, alone or in a batch.

    The set-up that ``engine.run`` makes per run is made here once for all
    of them: the step cap (``default_max_steps`` when ``config.max_steps``
    is None), the scheduler's pick and, for the probabilistic rule, the
    command.  Both read one generator, which each trial seeds with its
    engine stream, so a trial draws what ``run`` from its own ``Random``
    would.  The deterministic command is made per trial, since its view
    table lives for one run.  A trial starts from ``random_initial`` or
    from color 0 everywhere.  ``ExperimentConfig`` has checked the palette
    and the cap, and every start holds ``n`` colors of the palette.  A
    trial pays for its two seeds, its initial colors, the tracker's first
    count and its steps, and builds no trace.
    """
    graph, algo = config.graph, config.algorithm
    n, k = graph.n, algo.k
    max_steps = default_max_steps(graph, algo) if config.max_steps is None else config.max_steps
    drawn = config.initial is InitialDistribution.RANDOM_EACH_TRIAL
    rng = random.Random()
    select = selector(config.scheduler, graph, rng)
    per_trial = algo.kind is AlgorithmKind.DETERMINISTIC
    command = None if per_trial else rule(algo.kind, graph, k, rng)
    results = []
    for index in range(start, stop):
        colors = random_initial(n, k, config.seed_base, index) if drawn else [0] * n
        rng.seed(split_seed(config.seed_base, index, "engine"))
        if per_trial:
            command = rule(algo.kind, graph, k, rng)
        try:
            steps, moves, converged = _step_loop(select, command, EnabledTracker(graph, colors), max_steps)
        except EngineStepError as exc:
            results.append(TrialResult(index=index, moves=0, steps=0, converged=False, error=str(exc)))
        else:
            results.append(TrialResult(index=index, moves=moves, steps=steps, converged=converged))
    return results


def _run_share(chunks: list[tuple[ExperimentConfig, int, int]]) -> list[list[TrialResult]]:
    """The results of ``chunks``, one ``run_chunk`` list each, in order: a
    process's part of a batch, sent to a pool worker as one task."""
    return [run_chunk(*chunk) for chunk in chunks]


def run_experiment(config: ExperimentConfig, jobs: int = 1) -> ExperimentReport:
    """The report of one batch; see ``run_batches``."""
    return run_batches([config], jobs)[0]


def run_batches(configs: list[ExperimentConfig], jobs: int = 1) -> list[ExperimentReport]:
    """Run each batch in ``configs`` and aggregate; trial errors are
    recorded, not raised.

    Each batch's trials run in chunks of at most ``CHUNK``, each chunk
    with one run set-up (see ``run_chunk``).  ``jobs`` counts the
    processes that run chunks, this one included; no more run than there
    are chunks, and this one always does.  With two or more, the chunks
    are dealt out in turn, this process first, and one process pool of
    the others runs theirs while this one runs its own; dealt so, every
    process gets a like mix of the batches, whatever their order and
    cost.  Each chunk resolves a default step cap for itself; each report
    keeps its ``max_steps`` as given.  Reports come back in the order of
    ``configs``, and trials in index order.  A trial that hits the cap is
    censored: its move count is only a lower bound, so any censored trial
    leaves the bound verdict null.
    """
    if jobs < 1:
        raise UsageError(f"jobs must be >= 1, got {jobs}")
    chunks = [(c, start, min(start + CHUNK, c.trials)) for c in configs for start in range(0, c.trials, CHUNK)]
    processes = max(1, min(jobs, len(chunks)))
    if processes == 1:
        by_chunk = _run_share(chunks)
    else:
        # Imported here: the pool pulls in multiprocessing, which would slow every ``import unicolor``.
        from concurrent.futures import ProcessPoolExecutor

        # Chunk j is process j % processes's; this one is process 0, so
        # it runs the first chunk and never fewer than a worker.
        by_chunk = [None] * len(chunks)
        with ProcessPoolExecutor(max_workers=processes - 1) as pool:
            theirs = pool.map(_run_share, [chunks[i::processes] for i in range(1, processes)])
            by_chunk[::processes] = _run_share(chunks[::processes])
            for i, share in enumerate(theirs, 1):
                by_chunk[i::processes] = share
    results = [t for chunk in by_chunk for t in chunk]
    reports = []
    start = 0
    for config in configs:
        reports.append(_aggregate(config, results[start:start + config.trials]))
        start += config.trials
    return reports


def _aggregate(config: ExperimentConfig, results: list[TrialResult]) -> ExperimentReport:
    """The report of one batch from its trials, in index order."""
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


def sweep_table(reports) -> str:
    lines = ["k\tmean_moves\tbound"]
    for rep in reports:
        bound = "" if rep.bound is None else f"{float(rep.bound):.4f}"
        lines.append(f"{rep.algorithm['k']}\t{rep.mean_moves:.4f}\t{bound}")
    return "\n".join(lines) + "\n"
