"""Named, self-asserting scenario runs for the boundary constructions.

Each scenario is a thin composition over the engine, schedulers, and
verifier, next to the start and schedules of its construction; it runs a
bounded execution and checks the expected outcome, returning a report
rather than raising, so the CLI can turn the result into an exit code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import Configuration, bidirectional_clique, chain, is_legitimate, ring
from .algorithms import AlgorithmSpec
from .engine import EngineStepError, ExecutionTrace, run
from .schedulers import SchedulerPolicy, Script, ScriptViolationError
from .verify import verify_probabilistic_support


class AmbiguousChaseError(RuntimeError):
    """Chase schedule found several enabled processes where one was required."""


@dataclass(frozen=True)
class ReproReport:
    scenario: str
    ok: bool
    details: dict
    failures: tuple[str, ...] = ()


def chain_schedule(n: int) -> Script:
    """Worst-case singleton schedule for the n-process chain.

    With the sink as process 0 and the source as process n-1, activates
    processes 0..j-1 in ascending order for j = n-1 down to 1: exactly
    n(n-1)/2 activations, each moving the uniform prefix one color forward.
    """
    if n < 2:
        raise ValueError(f"chain schedule needs n >= 2, got {n}")
    steps = [(i,) for j in range(n - 1, 0, -1) for i in range(j)]
    return Script(steps=tuple(steps))


def ring_chase_initial(n: int, k: int | None = None) -> Configuration:
    """Ring configuration with one duplicated adjacent pair.

    Colors (0, 0, 1, 2, ..., n-2): the unique near-coloring (up to
    rotation) on an n-ring with a k = n-1 palette that has exactly one
    conflicting adjacent pair.
    """
    if n < 3:
        raise ValueError(f"chase initial needs n >= 3, got {n}")
    if k is None:
        k = n - 1
    if k < n - 1:
        raise ValueError(f"palette k={k} cannot hold colors 0..{n - 2}")
    return Configuration(colors=(0,) + tuple(range(n - 1)), k=k)


def ring_chase(
    n: int,
    max_steps: int,
    k: int | None = None,
    initial: Configuration | None = None,
) -> ExecutionTrace:
    """Run the chase: always activate the single conflicted ring process.

    Runs the deterministic rule on the n-ring from ``initial`` (default:
    :func:`ring_chase_initial`) under the synchronous policy, which fires
    every enabled process: while exactly one is enabled, that is the chase.
    Stops at ``max_steps`` or when no process is enabled, so a legitimate
    start yields no steps.  With the default k = n-1 palette the conflict
    is chased around the ring forever; with k = n it dies out.  The trace
    records every configuration.  Raises :class:`AmbiguousChaseError` at
    the first step that fires several processes, which would mean the
    single conflict split and the construction is wrong.
    """
    config = ring_chase_initial(n, k) if initial is None else initial
    algo = AlgorithmSpec.deterministic(config.k)
    trace = run(ring(n), algo, SchedulerPolicy.synchronous(), config, max_steps=max_steps, record="full")
    for t, rec in enumerate(trace.steps):
        if len(rec.activated) > 1:
            raise AmbiguousChaseError(
                f"expected one enabled process, found {rec.activated} after {t} steps"
            )
    return trace


def repro_sync_ring(n: int, steps: int, k: int | None = None) -> ReproReport:
    """Synchronous lock-step on a uniform ring never breaks symmetry.

    All processes move together every round, so each reached configuration
    stays uniform (colors cycling through the palette) and is never
    terminal.
    """
    if k is None:
        k = n
    graph = ring(n)
    algo = AlgorithmSpec.deterministic(k)
    trace = run(
        graph,
        algo,
        SchedulerPolicy.synchronous(),
        Configuration.uniform(n, 0, k),
        max_steps=steps,
        record="full",
    )
    failures = []
    for t, rec in enumerate(trace.steps, start=1):
        assert rec.config_after is not None
        expected_color = t % k
        if rec.config_after != (expected_color,) * n:
            failures.append(
                f"step {t}: expected uniform color {expected_color}, got {rec.config_after}"
            )
            break
    if trace.terminated:
        failures.append("execution terminated; it must run forever")
    if trace.total_steps != steps:
        failures.append(f"ran {trace.total_steps} steps, wanted {steps}")
    return ReproReport(
        scenario="sync-ring",
        ok=not failures,
        details={"n": n, "k": k, "steps": trace.total_steps, "period": k},
        failures=tuple(failures),
    )


def repro_chain_worst_case(n: int) -> ReproReport:
    """The chain schedule forces exactly n(n-1)/2 moves before termination."""
    k = n
    graph = chain(n)
    algo = AlgorithmSpec.deterministic(k)
    script = chain_schedule(n)
    expected = n * (n - 1) // 2
    failures = []
    details: dict = {"n": n, "k": k, "expected_moves": expected}
    try:
        trace = run(
            graph,
            algo,
            SchedulerPolicy.scripted(script),
            Configuration.uniform(n, 0, k),
            max_steps=len(script) + 1,
        )
    except EngineStepError as exc:
        violation = isinstance(exc.cause, ScriptViolationError)
        failures.append(
            f"scripted activation was not enabled: {exc}" if violation else f"run failed: {exc}"
        )
        return ReproReport("chain", False, details, tuple(failures))
    details["moves"] = trace.total_moves
    details["final"] = list(trace.final)
    if trace.total_moves != expected:
        failures.append(f"{trace.total_moves} moves, expected exactly {expected}")
    if not trace.terminated:
        failures.append("execution did not reach a terminal configuration")
    if not is_legitimate(graph, Configuration(colors=trace.final, k=k)):
        failures.append(f"final configuration {trace.final} is not a proper coloring")
    return ReproReport("chain", not failures, details, tuple(failures))


def _rotations(colors: tuple[int, ...]) -> list[tuple[int, ...]]:
    n = len(colors)
    return [colors[r:] + colors[:r] for r in range(n)]


def repro_ring_chase(n: int, laps: int) -> ReproReport:
    """A single conflict is chased around the ring when one color is short.

    With a k = n-1 palette on the n-ring, activating the unique conflicted
    process for n-1 steps rotates the configuration by one position, so the
    execution never terminates: after each lap the configuration equals the
    initial one rotated by the lap count.  The same instance with k = n
    terminates within n-1 moves, showing the missing color is what keeps
    the chase alive.
    """
    if laps < 1:
        raise ValueError(f"need laps >= 1, got {laps}")
    k = n - 1
    initial = ring_chase_initial(n, k)
    failures = []
    details: dict = {"n": n, "k": k, "laps": laps, "initial": list(initial.colors)}
    try:
        trace = ring_chase(n, max_steps=laps * (n - 1), k=k)
    except AmbiguousChaseError as exc:
        failures.append(f"chase schedule generation failed: {exc}")
        return ReproReport("ring-chase", False, details, tuple(failures))
    if trace.total_steps != laps * (n - 1):
        failures.append(f"chase died after {trace.total_steps} activations; the run must not terminate")
        return ReproReport("ring-chase", False, details, tuple(failures))

    rotations = _rotations(initial.colors)
    seen = []
    for lap in range(1, laps + 1):
        after_lap = trace.steps[lap * (n - 1) - 1].config_after
        expected = rotations[lap % n]
        seen.append(list(after_lap))
        if after_lap != expected:
            failures.append(
                f"lap {lap}: configuration {after_lap} is not the initial one rotated by {lap}"
            )
    if trace.terminated:
        failures.append("chase execution terminated; with k = n-1 it must not")
    details["lap_configurations"] = seen

    # Contrast: one more color and the same chase dies out.
    contrast = ring_chase(n, max_steps=laps * (n - 1), k=n)
    details["terminating_k"] = n
    details["terminating_moves"] = contrast.total_moves
    if not contrast.terminated:
        failures.append(f"with k={n} the chase should terminate, it did not")
    elif contrast.total_moves != n - 1:
        failures.append(f"with k={n} expected {n - 1} moves, got {contrast.total_moves}")
    return ReproReport("ring-chase", not failures, details, tuple(failures))


def repro_clique_state_bound(delta: int) -> ReproReport:
    """Pigeonhole: a (delta+1)-clique admits no proper coloring with only
    delta colors, and delta+1 colors restore both colorings and
    probabilistic convergence.

    A proper coloring of a clique gives its n processes distinct colors, so
    with k colors there are ``perm(k, n)`` of them: 0 for k = delta, n! for
    k = delta+1.  The latter count is read off the verifier's report, whose
    terminal configurations are exactly the proper colorings.
    """
    if delta < 1:
        raise ValueError(f"need delta >= 1, got {delta}")
    n = delta + 1
    support = verify_probabilistic_support(bidirectional_clique(n), k=delta + 1)
    enough = support.terminal_count
    details = {
        "delta": delta,
        "n": n,
        "legitimate_with_k_delta": math.perm(delta, n),
        "legitimate_with_k_delta_plus_1": enough,
        "expected_with_k_delta_plus_1": math.factorial(n),
        "probabilistic_support": support.all_converge,
    }
    failures = []
    if enough != math.factorial(n):
        failures.append(
            f"{enough} proper colorings with k={delta + 1}, expected {math.factorial(n)}"
        )
    if not support.all_converge:
        failures.append("probabilistic support check failed with k=delta+1")
    return ReproReport("clique-bound", not failures, details, tuple(failures))
