"""The execution loop: scheduler round, command application, trace record.

Within one step every activated process computes its command against the
pre-step configuration and all moves are applied together.  That
synchronous-within-step semantics is what lets the synchronous policy
exhibit lock-step non-convergence on uniform rings; for single-activation
policies it coincides with plain interleaving.  Moves write disjoint
variables (one process moves at most once per step), so application order
inside a step is immaterial.
"""

from __future__ import annotations

import json
import math
import random
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from functools import partial
from operator import add
from typing import NamedTuple

from .core import Configuration, DirectedGraph, EnabledTracker, UsageError
from .algorithms import (
    AlgorithmKind,
    AlgorithmSpec,
    Move,
    NonTerminatingCommandError,
    _check_prob_headroom,
    expected_total_steps_bound,
    rule,
)
from .schedulers import SchedulerPolicy, ScriptViolationError, selector

# The model's own failures: a command with no color to move to, a script
# that activates a disabled process or two neighbors.  Anything else,
# ``ValueError`` included, is a bug and propagates unwrapped.
MODEL_ERRORS = (NonTerminatingCommandError, ScriptViolationError)


class EngineStepError(RuntimeError):
    """A model error (see ``MODEL_ERRORS``) raised by a step's scheduler
    round or commands, tagged with the step it happened at."""

    def __init__(self, step_index: int, cause: BaseException):
        super().__init__(f"step {step_index}: {cause}")
        self.step_index = step_index
        self.cause = cause


class StepRecord(NamedTuple):
    """One step, column by column: ``activated[m]`` left ``old_colors[m]``
    for ``new_colors[m]``.  ``config_after`` is the configuration after the
    step, kept only by ``record="full"``.  A named tuple, so ``run`` builds
    one per step in C; it also equals, and unpacks like, the plain 4-tuple
    of its fields."""

    activated: tuple[int, ...]
    old_colors: tuple[int, ...]
    new_colors: tuple[int, ...]
    config_after: tuple[int, ...] | None = None

    @property
    def moves(self) -> tuple[Move, ...]:
        """The step's moves, built from the columns on each access."""
        return tuple(map(Move, self.activated, self.old_colors, self.new_colors))


# A newline and the indent of JSON nesting depth 0..5 under ``indent=2``.
_INDENT = tuple("\n" + "  " * depth for depth in range(6))


def _dumps(value) -> str:
    """``value`` as a member of the top-level object (depth 1)."""
    return json.dumps(value, sort_keys=True, indent=2).replace("\n", _INDENT[1])


def _array(items: Iterable[str], depth: int) -> str:
    """A JSON array at ``depth`` whose items are already rendered."""
    inner = _INDENT[depth + 1]
    body = ("," + inner).join(items)
    return "[" + inner + body + _INDENT[depth] + "]" if body else "[]"


def _step_renderer(names: list[str]) -> Callable[[StepRecord], str]:
    """The renderer of one step record as an object at depth 2, for a trace
    whose process ids and colors all index ``names``.

    A move ``[i, old, new]`` is laid out as ``prefix[i] + middle[old] +
    tail[new]``, entries of three tables built once here, so a step costs
    a few C-level ``map`` passes over its columns.
    """
    d4, d5 = _INDENT[4], _INDENT[5]
    name = names.__getitem__
    prefix = ["[" + d5 + s + "," + d5 for s in names].__getitem__
    middle = [s + "," + d5 for s in names].__getitem__
    tail = [s + d4 + "]" for s in names].__getitem__

    def step_json(rec: StepRecord) -> str:
        text = '{\n      "activated": ' + _array(map(name, rec.activated), 3)
        if rec.config_after is not None:
            text += ',\n      "config": ' + _array(map(name, rec.config_after), 3)
        moves = map(add, map(add, map(prefix, rec.activated), map(middle, rec.old_colors)),
                    map(tail, rec.new_colors))
        return text + ',\n      "moves": ' + _array(moves, 3) + _INDENT[2] + "}"

    return step_json


@dataclass(frozen=True)
class ExecutionTrace:
    """Step-by-step record of one execution.

    ``total_steps`` counts scheduler rounds, ``total_moves`` counts process
    activations; convergence bounds are stated in moves.  ``terminated``
    means the final configuration has no enabled process, which for these
    rules coincides with legitimacy.
    """

    graph: dict
    algorithm: dict
    scheduler: str
    seed: int
    max_steps: int
    initial: tuple[int, ...]
    steps: tuple[StepRecord, ...]
    final: tuple[int, ...]
    terminated: bool
    total_steps: int
    total_moves: int

    def json_chunks(self) -> Iterator[str]:
        """The ``run --out`` JSON in pieces: the members before ``"steps"``,
        one piece per step, then the rest.  Joined, they are exactly
        ``json.dumps`` of the trace's dict (``reference_trace_dict`` in
        ``tests/helpers.py``) with ``sort_keys=True, indent=2``, plus a
        newline.  Header values go through ``json.dumps``, so string
        escaping stays the stdlib's; the integer lists are laid out here
        from the trace's :meth:`_names`, which keeps the cost O(moves).
        """
        names = self._names()
        name = names.__getitem__
        yield (
            '{\n  "algorithm": ' + _dumps(self.algorithm)
            + ',\n  "final": ' + _array(map(name, self.final), 1)
            + ',\n  "graph": ' + _dumps(self.graph)
            + ',\n  "initial": ' + _array(map(name, self.initial), 1)
            + ',\n  "max_steps": ' + _dumps(self.max_steps)
            + ',\n  "scheduler": ' + _dumps(self.scheduler)
            + ',\n  "seed": ' + _dumps(self.seed)
            + ',\n  "steps": '
        )
        if not self.steps:
            yield "[]"
        else:
            step_json = _step_renderer(names)
            sep = "[" + _INDENT[2]
            for rec in self.steps:
                yield sep + step_json(rec)
                sep = "," + _INDENT[2]
            yield _INDENT[1] + "]"
        yield (
            ',\n  "terminated": ' + _dumps(self.terminated)
            + ',\n  "total_moves": ' + _dumps(self.total_moves)
            + ',\n  "total_steps": ' + _dumps(self.total_steps)
            + "\n}\n"
        )

    def to_json(self) -> str:
        return "".join(self.json_chunks())

    def to_tsv(self) -> str:
        """One ``step, process, old, new`` row per move, from the same
        :meth:`_names` table as the JSON."""
        names = self._names()
        name = names.__getitem__
        tab = [s + "\t" for s in names].__getitem__
        rows = ["step\tprocess\told\tnew\n"]
        for t, rec in enumerate(self.steps):
            if rec.activated:  # a script may activate nobody: no rows
                head = f"{t}\t"
                moves = map(add, map(add, map(tab, rec.activated), map(tab, rec.old_colors)),
                            map(name, rec.new_colors))
                rows.append(head + ("\n" + head).join(moves) + "\n")
        return "".join(rows)

    def _names(self) -> list[str]:
        """The decimal names of ``0 .. max(n, k) - 1``, which cover every
        process id and color in the trace."""
        return [*map(str, range(max(len(self.initial), self.algorithm["k"])))]


def default_max_steps(graph: DirectedGraph, algo: AlgorithmSpec) -> int:
    """10 n^2 rounds for the deterministic rule (well above n(n-1)/2), and
    for a graph without arcs, where no process is ever enabled; 100x the
    exact expected-move bound for the probabilistic one."""
    if algo.kind is AlgorithmKind.DETERMINISTIC or not graph.arcs:
        return 10 * graph.n * graph.n
    return math.ceil(100 * expected_total_steps_bound(graph.n, graph.max_degree, algo.k))


# ``tuple.__new__`` skips the named tuple's Python-level ``__new__``.
_step_record = partial(tuple.__new__, StepRecord)


def _step_loop(select, command, tracker: EnabledTracker, max_steps: int,
               steps: list[StepRecord] | None = None, full: bool = False) -> tuple[int, int, bool]:
    """The steps of one run from ``tracker``'s colors, which it updates:
    ``(total_steps, total_moves, terminated)``.

    Each step takes ``select``'s pick and ``command``'s new colors, as
    :func:`run` resolved them, and appends its record to ``steps`` unless
    that is None; ``full`` keeps the configuration after each step.  A
    model error is raised as an :class:`EngineStepError`.  ``run`` and the
    trials of ``experiments.run_chunk`` both step through here.
    """
    colors = tracker.colors
    enabled_now = tracker.members
    apply = tracker.apply
    recording = steps is not None
    step_record = _step_record
    total_moves = 0
    total_steps = 0
    while True:
        if not enabled_now:
            return total_steps, total_moves, True
        if total_steps >= max_steps:
            return total_steps, total_moves, False
        try:
            chosen = select(enabled_now, total_steps)
            if chosen is None:
                return total_steps, total_moves, False  # script exhausted before termination
            # Every command reads the pre-step colors.
            new_colors = command(chosen, colors)
        except MODEL_ERRORS as exc:
            raise EngineStepError(total_steps, exc) from exc
        if recording:
            old_colors = tuple(map(colors.__getitem__, chosen))
        apply(chosen, new_colors)
        total_moves += len(chosen)
        total_steps += 1
        if recording:
            steps.append(step_record((chosen, old_colors, new_colors, tuple(colors) if full else None)))


def run(
    graph: DirectedGraph,
    algo: AlgorithmSpec,
    policy: SchedulerPolicy,
    initial: Configuration,
    max_steps: int | None = None,
    seed: int = 0,
    record: str = "moves",
) -> ExecutionTrace:
    """Run until terminal or the step cap; return the trace.

    ``record`` is "full" (per-step configurations), "moves" (activation
    sets and moves only), or "none" (counters only, for long experiment
    batches).  Non-termination within the cap is reported via
    ``terminated=False``, not raised.
    """
    if len(initial.colors) != graph.n:
        raise UsageError(f"initial configuration has {len(initial.colors)} colors for n={graph.n}")
    if initial.k != algo.k:
        raise ValueError(f"initial palette {initial.k} != algorithm palette {algo.k}")
    if algo.kind is AlgorithmKind.PROBABILISTIC:
        _check_prob_headroom(graph, algo.k)
    if record not in ("none", "moves", "full"):
        raise ValueError(f"unknown record mode {record!r}")
    if max_steps is None:
        max_steps = default_max_steps(graph, algo)
    elif max_steps < 0:
        raise UsageError(f"max_steps must be >= 0, got {max_steps}")

    rng = random.Random(seed)
    # The scheduler and the rule are resolved once: each step calls only
    # these closures.
    select = selector(policy, graph, rng)
    command = rule(algo.kind, graph, algo.k, rng)
    colors = list(initial.colors)
    steps: list[StepRecord] | None = None if record == "none" else []
    total_steps, total_moves, terminated = _step_loop(
        select, command, EnabledTracker(graph, colors), max_steps, steps, record == "full"
    )

    return ExecutionTrace(
        graph=graph.summary(),
        algorithm=algo.summary(),
        scheduler=policy.name,
        seed=seed,
        max_steps=max_steps,
        initial=initial.colors,
        steps=tuple(steps or ()),
        final=tuple(colors),
        terminated=terminated,
        total_steps=total_steps,
        total_moves=total_moves,
    )
