"""The two local recoloring rules and their closed-form expectation bounds.

Both rules share one guard: a process is enabled when some predecessor
holds its color.  The deterministic command walks the palette cyclically
from the current color to the first color no predecessor holds, all in one
atomic move.  The probabilistic command draws uniformly among the colors no
predecessor holds.  The bound evaluators return exact rationals so that
tests can compare them without tolerances.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import filterfalse
from operator import itemgetter

from .core import DirectedGraph, UsageError, _randbelow


class AlgorithmKind(Enum):
    DETERMINISTIC = "det"
    PROBABILISTIC = "prob"


@dataclass(frozen=True)
class AlgorithmSpec:
    """Which rule a run executes, and the palette size it uses.

    The probabilistic rule additionally needs ``k > max_degree`` of the
    target graph; that depends on the graph, so it is checked at run setup
    rather than here.
    """

    kind: AlgorithmKind
    k: int

    def __post_init__(self) -> None:
        if self.k < 2:
            raise UsageError(f"palette size must be >= 2, got k={self.k}")

    @classmethod
    def deterministic(cls, k: int) -> AlgorithmSpec:
        return cls(AlgorithmKind.DETERMINISTIC, k)

    @classmethod
    def probabilistic(cls, k: int) -> AlgorithmSpec:
        return cls(AlgorithmKind.PROBABILISTIC, k)

    def summary(self) -> dict:
        return {"kind": self.kind.value, "k": self.k}


@dataclass(frozen=True)
class Move:
    """One command execution: a process leaving old_color for new_color."""

    process: int
    old_color: int
    new_color: int


class NonTerminatingCommandError(RuntimeError):
    """Deterministic command found every palette color among predecessors."""


def _check_prob_headroom(graph: DirectedGraph, k: int) -> None:
    """The probabilistic rule's set-up check: ``k > max_degree``."""
    if k <= graph.max_degree:
        raise UsageError(
            f"probabilistic rule needs k > max_degree, got k={k}, max_degree={graph.max_degree}"
        )


def moves(kind: AlgorithmKind, graph: DirectedGraph, k: int):
    """The moves of rule ``kind`` on ``graph`` with palette ``k``:
    ``moves_of(i, colors)`` returns the colors process ``i`` may step to
    from ``colors``, and ``()`` when ``i`` is not enabled (the guard: its
    color is among its predecessors').

    The deterministic rule has one move, the inner increment loop run to
    quiescence as one atomic move: the first of ``old+1, old+2, ...`` (mod
    k) absent from the predecessors' colors.  It raises
    :class:`NonTerminatingCommandError` when they hold every color, which
    that loop would never escape.  The probabilistic rule's moves are the
    colors of ``0..k-1`` absent from the predecessors', ascending; it raises
    ``ValueError`` when there are none.  Both errors name the process.
    """
    preds = graph.preds
    deterministic = kind is AlgorithmKind.DETERMINISTIC
    palette = range(k)

    def moves_of(i: int, colors) -> tuple[int, ...]:
        preds_i = preds[i]
        taken = set(map(colors.__getitem__, preds_i))
        old = colors[i]
        if old not in taken:
            return ()
        if deterministic:
            if len(taken) >= k:
                raise NonTerminatingCommandError(
                    f"process {i}: all {k} colors held by predecessors (in-degree {len(preds_i)})"
                )
            new = (old + 1) % k
            while new in taken:
                new = (new + 1) % k
            return (new,)
        candidates = (*filterfalse(taken.__contains__, palette),)
        if not candidates:
            raise ValueError(
                f"process {i}: empty candidate set, palette {k} too small for in-degree {len(preds_i)}"
            )
        return candidates

    return moves_of


def rule(kind: AlgorithmKind, graph: DirectedGraph, k: int, rng: random.Random | None):
    """The command of rule ``kind`` for one run on ``graph``:
    ``command(processes, colors)`` returns the new colors of ``processes``,
    in their order.

    ``colors`` are the pre-step colors; every process reads them, none sees
    another's new color.  Each process takes one of its moves from
    :func:`moves`: the deterministic rule's only one, and for the
    probabilistic rule one ``rng.choice`` among them per move, in the order
    of ``processes`` (drawn through ``core._randbelow``, which takes the
    same bits), so runs are bit-reproducible for a fixed seed.  The
    deterministic rule draws nothing and may have no ``rng``.  The first
    process that fails raises: ``ValueError`` when it is not enabled, a
    caller's bug, and otherwise what :func:`moves` raises for it.

    A deterministic move is a function of the mover's view alone, its own
    color and its predecessors' (``graph.views``), so the deterministic
    command keeps each view's first answer for as long as it lives.  A
    view enters only once the plain command accepted it, so a hit skips no
    check that could fail; a call with any unseen view goes to the plain
    command whole, which raises as it would have.
    """
    moves_of = moves(kind, graph, k)
    deterministic = kind is AlgorithmKind.DETERMINISTIC
    getrandbits = getattr(rng, "getrandbits", None)

    def command(processes, colors) -> tuple[int, ...]:
        new_colors = []
        append = new_colors.append
        for i in processes:
            choices = moves_of(i, colors)
            if not choices:
                raise ValueError(f"process {i} is not enabled")
            append(choices[0] if deterministic else choices[_randbelow(getrandbits, len(choices))])
        return tuple(new_colors)

    if not deterministic:
        return command
    # A process without predecessors has no view: its own color stands in,
    # a key no answer is kept under, so ``command`` says it is not enabled.
    views = [view or itemgetter(i) for i, view in enumerate(graph.views)]
    table = {}
    known = table.get

    def remembered(processes, colors) -> tuple[int, ...]:
        if len(processes) == 1:  # lc1 and most scripts: no list to build
            view = views[processes[0]](colors)
            new = known(view)
            if new is None:
                new = table[view] = command(processes, colors)[0]
            return (new,)
        new_colors = tuple([known(views[i](colors)) for i in processes])
        if None in new_colors:
            new_colors = command(processes, colors)
            table.update(zip([views[i](colors) for i in processes], new_colors))
        return new_colors

    return remembered


def conflict_creation_bound(max_degree: int, k: int) -> Fraction:
    """Graph-wide bound (max_degree - 1) / (k - 1) on conflicts per move."""
    if max_degree < 1:
        raise ValueError(f"need max_degree >= 1, got {max_degree}")
    if k <= max_degree:
        raise ValueError(f"need k > max_degree, got k={k}, max_degree={max_degree}")
    return Fraction(max_degree - 1, k - 1)


def expected_steps_per_conflict(max_degree: int, k: int) -> Fraction:
    """Expected moves to extinguish one conflict and its descendants.

    Geometric series over the per-move creation bound M: sum of M^i equals
    1/(1 - M) = (k - 1)/(k - max_degree).
    """
    bound = conflict_creation_bound(max_degree, k)
    return 1 / (1 - bound)


def expected_total_steps_bound(n: int, max_degree: int, k: int) -> Fraction:
    """Expected-move bound n(k-1)/(k-max_degree) from a worst-case start.

    At most n initial conflicts, each costing ``expected_steps_per_conflict``.
    With k = max_degree + 1 this is n * max_degree; as k grows it tends to n.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return n * expected_steps_per_conflict(max_degree, k)
