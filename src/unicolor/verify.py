"""Exhaustive small-instance verification over the full configuration space.

Every configuration is a legal starting point, so stabilization under a
scheduler class is certified by checking the whole transition graph over
all k^n color vectors: the deterministic check proves every maximal path
terminates (no cycle) and measures the exact worst-case move count by
memoized longest path; the probabilistic check certifies the structural
precondition for probability-1 convergence (some scheduler-and-random
outcome path reaches a terminal configuration from everywhere; the
terminal configurations are exactly the legitimate ones, since an arc
joining equal colors is what enables its head) and measures the worst
shortest escape.  With ``k > max_degree``, which that check requires, the
verdict always holds: an enabled process can move to a color no neighbour
holds, which disables it and enables nobody, so every escape is at most n
moves.  Its information is the escape length.

Both checks run on one builder, :func:`_transitions`.  A configuration is
its base-k code ``sum(colors[i] * k**i)``, process 0 being the lowest
digit.  Both rules commute with the palette rotation ``c -> c+1 mod k``:
the guard compares colors for equality, the deterministic scan is cyclic
and the free-color set rotates with the palette.  The rotation has no
fixed point, so every orbit holds exactly k configurations, and the
builder keeps one row per orbit (Emerson & Sistla 1996; Ip & Dill 1996):
the representative whose top digit, the color of process ``n-1``, is 0.
These are the codes ``0 .. k**(n-1) - 1``, each the smallest code of its
orbit.  The builder walks them in ascending order, applying the rule
straight to the digits: a move of process ``i`` from ``old`` to ``new``
adds ``(new - old) * k**i`` to the code, and a move of process ``n-1`` to
``s`` also rotates the new colors by ``-s``, so no ``Configuration`` is
built per state.  Edges are stored as compressed rows: the edges of
representative ``c`` are ``offsets[c]:offsets[c + 1]`` in ``targets``
(the successors' representatives) and ``masks`` (the activated processes
as a bitmask).  An edge keeps no record of the rotation it applies.

Both searches run on these forward rows and keep one value per orbit;
their reports are the ones the full k^n walk gives.  Counts of terminal
configurations are k times the orbit counts; ``configurations_checked``
and the cap stay on k^n.  Longest paths and escape distances are the same
across an orbit, and the first code of any rotation-closed set is a
representative, so every argmax is one.  Rotation keeps the order of a
row, so schedules read off the representatives are the concrete ones.

The probabilistic search computes escape distances one layer at a time:
layer 0 is the empty rows, and an unresolved orbit is at distance d once
one of its targets is at d - 1.  Since every escape is at most n, the
sweep takes at most n rounds after layer 0.

The deterministic search is a DFS over orbits that keeps the longest move
and step counts of each finished orbit.  A witness is re-read from those
values: at each orbit it takes the first edge whose cost (the moves of
the edge, or 1 step) plus its target's value is the orbit's own value.
The orbit graph has a cycle iff the concrete one has: a cycle of orbits
whose schedule rotates its start by ``r`` closes a concrete cycle when
followed ``k / gcd(k, r)`` times.  Rotation matters only once the search
meets an orbit already on its stack: :func:`_cycle_witness` replays the
path to that orbit from the root's representative, reads the cycle's
start and ``r`` off the trace, and repeats the cycle's schedule.  That is
the cycle the full walk reports: when it re-enters an orbit on its stack
in a rotated configuration, every edge before the one on its path leads to
a finished orbit, so it follows the same edges round after round until the
rotation cancels.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from enum import Enum
from itertools import combinations, product
from math import gcd

from .core import Configuration, DirectedGraph, process_enabled
from .algorithms import AlgorithmKind, AlgorithmSpec, _check_prob_headroom, free_colors, recolor
from .engine import ExecutionTrace, run
from .schedulers import SchedulerPolicy, Script


class EnumerationCapError(RuntimeError):
    def __init__(self, required: int, allowed: int):
        super().__init__(f"state space needs {required} configurations, cap is {allowed}")
        self.required = required
        self.allowed = allowed


class PolicyClass(Enum):
    ALL_LOCALLY_CENTRAL_SINGLE = "lc1"
    ALL_DISTRIBUTED_SUBSETS = "subsets"


@dataclass(frozen=True)
class DivergenceWitness:
    initial: tuple[int, ...]
    schedule: tuple[tuple[int, ...], ...]
    note: str


@dataclass(frozen=True)
class WorstCaseWitness:
    initial: tuple[int, ...]
    schedule: tuple[tuple[int, ...], ...]
    moves: int


@dataclass(frozen=True)
class VerificationReport:
    graph: dict
    algorithm: dict
    policy_class: str
    configurations_checked: int
    all_converge: bool
    worst_case_moves: int | None
    witness_divergence: DivergenceWitness | None
    worst_case_witness: WorstCaseWitness | None
    terminal_count: int
    legitimate_count: int
    terminal_equals_legitimate: bool


def _decode(code: int, n: int, k: int) -> tuple[int, ...]:
    """The colors of ``code``."""
    colors = []
    for _ in range(n):
        colors.append(code % k)
        code //= k
    return tuple(colors)


def _processes(mask: int, n: int) -> tuple[int, ...]:
    return tuple(i for i in range(n) if mask >> i & 1)


def _transitions(graph: DirectedGraph, kind: AlgorithmKind, k: int, policy_class: PolicyClass, cap: int):
    """Build the transition graph of rule ``kind`` under ``policy_class``,
    one row per palette-rotation orbit.

    The deterministic rule gives each enabled process one move (the
    :func:`recolor` target); the probabilistic rule gives it one move per
    color no predecessor holds.  Under ``lc1`` every move is an edge; under
    ``subsets`` every nonempty set of moves is one, applied together, in
    ``combinations`` order by size.  Rows exist for the representatives
    only, codes ``0 .. k**(n-1) - 1``.  An edge that moves process ``n-1``
    to color ``s`` lands on a configuration whose top digit is ``s``: it
    stores that configuration rotated by ``-s``, its representative.  A row
    is empty iff no process is enabled, which is also iff the configuration is
    legitimate (an arc joining equal colors makes its head enabled); for
    the probabilistic rule that needs ``k > max_degree``, which its caller
    checks.  Returns the rows ``offsets, targets, masks`` and
    ``report(worst_moves, divergence, worst_witness=None)``, which fills a
    :class:`VerificationReport` with the counts taken here.
    """
    # The spec rejects a palette below 2 before any state is built.
    algorithm = AlgorithmSpec(kind, k).summary()
    n = graph.n
    total = k**n
    if total > cap:
        raise EnumerationCapError(required=total, allowed=cap)
    preds = graph.preds
    top = n - 1
    top_bit = 1 << top
    weights = [k**i for i in range(n)]
    deterministic = kind is AlgorithmKind.DETERMINISTIC
    subsets = policy_class is PolicyClass.ALL_DISTRIBUTED_SUBSETS
    offsets, targets, masks = array("q", [0]), array("q"), array("q")
    terminal_orbits = 0
    # The probabilistic rule's free colors depend only on the set of colors
    # the predecessors hold, so they are computed once per such set.
    free_of: dict[frozenset[int], list[int]] = {}
    # ``product`` varies its last digit fastest, so reversed tuples come in
    # ascending code order with process 0 as the lowest digit; its first
    # factor holds process n-1 at color 0.
    for code, digits in enumerate(product((0,), *[range(k)] * top)):
        colors = digits[::-1]
        moves = []
        enabled = []
        for i in range(n):
            if not process_enabled(preds[i], colors, i):
                continue
            if deterministic:
                enabled.append(i)
            else:
                taken = frozenset(map(colors.__getitem__, preds[i]))
                free = free_of.get(taken)
                if free is None:
                    free = free_of[taken] = free_colors(taken, k)
                moves += [(i, c) for c in free]
        if enabled:
            moves = [*zip(enabled, recolor(kind, enabled, preds, colors, k, None))]
        terminal_orbits += not moves
        if not subsets:
            for i, c in moves:
                masks.append(1 << i)
                if i == top:
                    targets.append(sum(((colors[j] - c) % k) * weights[j] for j in range(top)))
                else:
                    targets.append(code + (c - colors[i]) * weights[i])
        elif moves:
            # One deterministic move per process, so process n-1, if it
            # moves, comes last; a set holding it lands on ``rotated`` plus
            # the moves measured in the frame rotated by -s.
            s = moves[-1][1] if moves[-1][0] == top else 0
            rotated = sum(((c - s) % k) * w for c, w in zip(colors, weights))
            steps = [
                (1 << i, (c - colors[i]) * weights[i], ((c - s) % k - (colors[i] - s) % k) * weights[i])
                for i, c in moves
            ]
            for size in range(1, len(steps) + 1):
                for choice in combinations(steps, size):
                    bits, deltas, rotated_deltas = zip(*choice)
                    mask = sum(bits)
                    masks.append(mask)
                    targets.append(rotated + sum(rotated_deltas) if mask & top_bit else code + sum(deltas))
        offsets.append(len(targets))

    def report(worst_moves, divergence, worst_witness=None) -> VerificationReport:
        return VerificationReport(
            graph=graph.summary(),
            algorithm=algorithm,
            policy_class=policy_class.value,
            configurations_checked=total,
            all_converge=divergence is None,
            worst_case_moves=worst_moves,
            witness_divergence=divergence,
            worst_case_witness=worst_witness,
            terminal_count=k * terminal_orbits,
            legitimate_count=k * terminal_orbits,
            terminal_equals_legitimate=True,
        )

    return offsets, targets, masks, report


def _cycle_witness(
    graph: DirectedGraph, k: int, root: int, schedule: tuple[tuple[int, ...], ...], start: int
) -> DivergenceWitness:
    """Lift a cycle of orbits to a cycle of configurations.

    ``schedule`` leads from representative ``root`` along the search stack
    and back into the orbit at stack position ``start``.  Replayed, it
    reaches that orbit twice: first at the cycle's start, then at the start
    rotated by some ``r``.  Both rules commute with the rotation, so the
    cycle's schedule, repeated ``k / gcd(k, r)`` times, returns to the start.
    """
    probe = DivergenceWitness(initial=_decode(root, graph.n, k), schedule=schedule, note="")
    trace = replay_witness(graph, AlgorithmSpec.deterministic(k), probe)
    initial = trace.steps[start - 1].config_after if start else trace.initial
    rounds = k // gcd(k, trace.final[0] - initial[0])
    return DivergenceWitness(initial=initial, schedule=schedule[start:] * rounds, note="configuration cycle")


def verify_deterministic(
    graph: DirectedGraph,
    k: int,
    policy_class: PolicyClass,
    max_depth: int | None = None,
    cap: int = 10**6,
) -> VerificationReport:
    """Enumerate every execution of the deterministic rule.

    Convergence holds iff the transition graph over all k^n configurations
    is acyclic (and, when ``max_depth`` is given, no path is longer).  On
    the acyclic side the exact worst-case move count is the longest move
    path, with a schedule witnessing it; on a cycle the report
    short-circuits to a divergence witness whose replay revisits a
    configuration.  The search stores only the longest move and step
    counts per orbit; the worst-case and ``max_depth`` schedules are
    re-read from them, one edge per orbit, so they are the paths whose
    every edge is the first to reach its orbit's value.
    """
    if max_depth is not None and max_depth < 0:
        raise ValueError(f"max_depth must be >= 0, got {max_depth}")
    offsets, targets, masks, report = _transitions(graph, AlgorithmKind.DETERMINISTIC, k, policy_class, cap)
    orbits, n = len(offsets) - 1, graph.n

    # DFS over the orbits with cycle detection; on the acyclic side,
    # longest-path memo.  A frame is an orbit and its next edge, so the
    # edge it explores is that pointer minus one.  ``marks`` is 1 while an
    # orbit is on the stack and 2 once it is done; a successor marked 1
    # closes a cycle.
    marks = bytearray(orbits)
    longest_moves = array("q", [0]) * orbits
    longest_steps = array("q", [0]) * orbits

    for root in range(orbits):
        if marks[root]:
            continue
        marks[root] = 1
        stack = [[root, offsets[root]]]
        while stack:
            frame = stack[-1]
            rep, edge = frame
            if edge < offsets[rep + 1]:
                frame[1] += 1
                succ = targets[edge]
                if marks[succ] == 2:
                    continue
                if marks[succ]:
                    schedule = tuple(_processes(masks[e - 1], n) for _, e in stack)
                    start = [r for r, _ in stack].index(succ)
                    return report(None, _cycle_witness(graph, k, root, schedule, start))
                marks[succ] = 1
                stack.append([succ, offsets[succ]])
            else:
                best_m, best_s = 0, 0
                for e in range(offsets[rep], offsets[rep + 1]):
                    m = masks[e].bit_count() + longest_moves[targets[e]]
                    s = 1 + longest_steps[targets[e]]
                    if m > best_m:
                        best_m = m
                    if s > best_s:
                        best_s = s
                longest_moves[rep] = best_m
                longest_steps[rep] = best_s
                marks[rep] = 2
                stack.pop()

    def follow(rep: int, longest: array, cost) -> tuple[tuple[int, ...], ...]:
        """The path that realises ``longest[rep]``: at each orbit, the first
        edge whose cost plus its target's value is the orbit's value."""
        schedule = []
        while longest[rep]:
            for edge in range(offsets[rep], offsets[rep + 1]):
                if cost(masks[edge]) + longest[targets[edge]] == longest[rep]:
                    break
            schedule.append(_processes(masks[edge], n))
            rep = targets[edge]
        return tuple(schedule)

    # The first code of an orbit is its representative, so the first
    # maximum over representatives is the first over all codes.
    worst = max(longest_moves)
    argmax = longest_moves.index(worst)
    worst_witness = WorstCaseWitness(
        initial=_decode(argmax, n, k),
        schedule=follow(argmax, longest_moves, int.bit_count),
        moves=worst,
    )

    witness = None
    deepest = max(longest_steps)
    if max_depth is not None and deepest > max_depth:
        deep_code = longest_steps.index(deepest)
        witness = DivergenceWitness(
            initial=_decode(deep_code, n, k),
            schedule=follow(deep_code, longest_steps, lambda mask: 1)[:max_depth],
            note=f"path of {deepest} steps exceeds max_depth {max_depth}",
        )
    return report(worst, witness, worst_witness)


def verify_probabilistic_support(
    graph: DirectedGraph,
    k: int,
    max_depth: int | None = None,
    cap: int = 10**6,
) -> VerificationReport:
    """Structural probability-1 convergence check for the random rule.

    Certifies that every configuration has some path (choosing both the
    activated process and the random color) to a terminal configuration;
    the terminal configurations are exactly the legitimate ones.
    ``worst_case_moves`` here is the worst-case shortest escape: the
    largest, over configurations, of the fewest moves that can reach a
    terminal configuration.  Distances are the same for every member of an
    orbit, so the search runs over the representatives, in layers over
    their forward rows.  With ``k > max_degree`` an enabled process can
    take a color no neighbour holds, leaving one process fewer enabled, so
    every escape is at most n moves and the sweep takes at most n rounds
    after layer 0; the "no path" witness is kept as the check's own
    verdict.
    """
    if max_depth is not None and max_depth < 0:
        raise ValueError(f"max_depth must be >= 0, got {max_depth}")
    _check_prob_headroom(graph, k)
    lc1 = PolicyClass.ALL_LOCALLY_CENTRAL_SINGLE
    offsets, targets, masks, report = _transitions(graph, AlgorithmKind.PROBABILISTIC, k, lc1, cap)
    del masks  # unused here
    orbits, n = len(offsets) - 1, graph.n

    # Escape distances one layer at a time over the forward rows: layer 0
    # is the empty rows, and an unresolved orbit joins layer d + 1 once one
    # of its targets is in layer d.  A round that resolves nothing ends the
    # sweep; what is left has no path to a terminal configuration.
    pending = [rep for rep in range(orbits) if offsets[rep] < offsets[rep + 1]]
    dist = array("q", [0]) * orbits
    for rep in pending:
        dist[rep] = -1
    escape = 0
    while pending:
        left = []
        for rep in pending:
            for e in range(offsets[rep], offsets[rep + 1]):
                if dist[targets[e]] == escape:
                    dist[rep] = escape + 1
                    break
            else:
                left.append(rep)
        if len(left) == len(pending):
            break
        pending = left
        escape += 1

    witness = None
    if pending:
        witness = DivergenceWitness(
            initial=_decode(pending[0], n, k),
            schedule=(),
            note="no path to a terminal configuration",
        )
    elif max_depth is not None and escape > max_depth:
        witness = DivergenceWitness(
            initial=_decode(dist.index(escape), n, k),
            schedule=(),
            note=f"shortest escape of {escape} moves exceeds max_depth {max_depth}",
        )
    return report(escape, witness)


def replay_witness(
    graph: DirectedGraph,
    algo: AlgorithmSpec,
    witness: DivergenceWitness,
) -> ExecutionTrace:
    """Re-execute a witness schedule through the engine, recording configs.

    Divergence schedules may fire neighbors simultaneously, so the replay
    script drops the locally-central restriction (enabledness is still
    validated step by step).
    """
    script = Script(steps=witness.schedule, locally_central=False)
    policy = SchedulerPolicy.scripted(script)
    initial = Configuration(colors=witness.initial, k=algo.k)
    return run(
        graph,
        algo,
        policy,
        initial,
        max_steps=len(witness.schedule),
        seed=0,
        record="full",
    )
