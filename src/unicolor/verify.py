"""Exhaustive small-instance verification over the full configuration space.

Every configuration is a legal starting point, so stabilization under a
scheduler class is certified by checking the whole transition graph over
all k^n color vectors: the deterministic check proves every maximal path
terminates (no cycle) and measures the exact worst-case move count by
memoized longest path; the probabilistic check certifies the structural
precondition for probability-1 convergence (some scheduler-and-random
outcome path reaches a terminal configuration from everywhere; the
terminal configurations are exactly the legitimate ones, since an arc
joining equal colors is what enables its head).

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
(the successor representatives), ``masks`` (the activated processes as a
bitmask) and ``shifts`` (the rotation back to the concrete successor).

Reports are the ones the full k^n walk gives.  Counts of terminal
configurations are k times the orbit counts; ``configurations_checked``
and the cap stay on k^n.  Longest paths and escape distances are the same
across an orbit, and the first code of any rotation-closed set is a
representative, so every argmax is one.  Rotation keeps the order of a
row, so schedules read off the representatives are the concrete ones.
The deterministic search tracks concrete configurations on its stack and
skips a successor whose orbit is finished: a finished orbit-mate proves
the subtree acyclic, so the full walk would find no cycle there and
reaches the same first cycle.
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass
from enum import Enum
from itertools import combinations, product

from .core import Configuration, DirectedGraph, process_enabled
from .algorithms import AlgorithmKind, AlgorithmSpec, _check_prob_headroom, recolor
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


def _decode(code: int, n: int, k: int, shift: int = 0) -> tuple[int, ...]:
    """The colors of ``code``, each rotated by ``shift``."""
    colors = []
    for _ in range(n):
        colors.append((code + shift) % k)
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
    stores that configuration rotated by ``-s`` and the shift ``s``, so the
    concrete successor is ``targets[e]`` rotated by ``shifts[e]``.  A row is
    empty iff no process is enabled, which is also iff the configuration is
    legitimate (an arc joining equal colors makes its head enabled); for
    the probabilistic rule that needs ``k > max_degree``, which its caller
    checks.  Returns the rows ``offsets, targets, masks, shifts`` and
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
    shifts = array("B" if k <= 256 else "q")
    terminal_orbits = 0
    # ``product`` varies its last digit fastest, so reversed tuples come in
    # ascending code order with process 0 as the lowest digit; its first
    # factor holds process n-1 at color 0.
    for code, digits in enumerate(product((0,), *[range(k)] * top)):
        colors = digits[::-1]
        moves = []
        for i in range(n):
            if not process_enabled(preds[i], colors, i):
                continue
            if deterministic:
                moves.append((i, recolor(kind, i, preds[i], colors, k, None)))
            else:
                taken = {colors[p] for p in preds[i]}
                moves += [(i, c) for c in range(k) if c not in taken]
        terminal_orbits += not moves
        if not subsets:
            for i, c in moves:
                masks.append(1 << i)
                if i == top:
                    targets.append(sum(((colors[j] - c) % k) * weights[j] for j in range(top)))
                    shifts.append(c)
                else:
                    targets.append(code + (c - colors[i]) * weights[i])
                    shifts.append(0)
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
                    if mask & top_bit:
                        targets.append(rotated + sum(rotated_deltas))
                        shifts.append(s)
                    else:
                        targets.append(code + sum(deltas))
                        shifts.append(0)
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

    return offsets, targets, masks, shifts, report


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
    configuration.
    """
    if max_depth is not None and max_depth < 0:
        raise ValueError(f"max_depth must be >= 0, got {max_depth}")
    offsets, targets, masks, shifts, report = _transitions(graph, AlgorithmKind.DETERMINISTIC, k, policy_class, cap)
    orbits, n = len(offsets) - 1, graph.n

    # DFS with cycle detection; on the acyclic side, longest-path memo.
    # The stack holds concrete configurations, each a representative and a
    # shift, keyed ``rep * k + shift``; a successor already on it closes a
    # cycle.  Memo tables and ``done`` are per orbit: a finished orbit-mate
    # proves the subtree acyclic, so its walk would find no cycle.  Paths
    # are kept as edge indices into the rows.
    done = bytearray(orbits)
    longest_moves = array("q", [0]) * orbits
    longest_steps = array("q", [0]) * orbits
    best_move_edge = array("q", [-1]) * orbits
    best_step_edge = array("q", [-1]) * orbits

    for root in range(orbits):
        if done[root]:
            continue
        stack = [[root, 0, offsets[root]]]  # frames: orbit, shift, next edge
        incoming = [-1]
        pos = {root * k: 0}
        while stack:
            frame = stack[-1]
            rep, shift, edge = frame
            if edge < offsets[rep + 1]:
                frame[2] += 1
                succ = targets[edge]
                if done[succ]:
                    continue
                succ_shift = (shift + shifts[edge]) % k
                key = succ * k + succ_shift
                if key in pos:
                    schedule = tuple(
                        _processes(masks[e], n) for e in incoming[pos[key] + 1:] + [edge]
                    )
                    witness = DivergenceWitness(
                        initial=_decode(succ, n, k, succ_shift),
                        schedule=schedule,
                        note="configuration cycle",
                    )
                    return report(None, witness)
                pos[key] = len(stack)
                stack.append([succ, succ_shift, offsets[succ]])
                incoming.append(edge)
            else:
                best_m, best_s = 0, 0
                for e in range(offsets[rep], offsets[rep + 1]):
                    m = masks[e].bit_count() + longest_moves[targets[e]]
                    s = 1 + longest_steps[targets[e]]
                    if m > best_m:
                        best_m = m
                        best_move_edge[rep] = e
                    if s > best_s:
                        best_s = s
                        best_step_edge[rep] = e
                longest_moves[rep] = best_m
                longest_steps[rep] = best_s
                done[rep] = 1
                del pos[rep * k + shift]
                stack.pop()
                incoming.pop()

    def follow(rep: int, best_edge: array) -> tuple[tuple[int, ...], ...]:
        schedule = []
        while best_edge[rep] >= 0:
            edge = best_edge[rep]
            schedule.append(_processes(masks[edge], n))
            rep = targets[edge]
        return tuple(schedule)

    # The first code of an orbit is its representative, so the first
    # maximum over representatives is the first over all codes.
    worst = max(longest_moves)
    argmax = longest_moves.index(worst)
    worst_witness = WorstCaseWitness(
        initial=_decode(argmax, n, k),
        schedule=follow(argmax, best_move_edge),
        moves=worst,
    )

    witness = None
    deepest = max(longest_steps)
    if max_depth is not None and deepest > max_depth:
        deep_code = longest_steps.index(deepest)
        witness = DivergenceWitness(
            initial=_decode(deep_code, n, k),
            schedule=follow(deep_code, best_step_edge)[:max_depth],
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
    orbit, so the search runs over the representatives.
    """
    if max_depth is not None and max_depth < 0:
        raise ValueError(f"max_depth must be >= 0, got {max_depth}")
    _check_prob_headroom(graph, k)
    lc1 = PolicyClass.ALL_LOCALLY_CENTRAL_SINGLE
    offsets, targets, _, _, report = _transitions(graph, AlgorithmKind.PROBABILISTIC, k, lc1, cap)
    orbits, n = len(offsets) - 1, graph.n

    # Reverse rows by counting sort: the predecessors of orbit c are
    # sources[starts[c]:starts[c + 1]].
    starts = array("q", [0]) * (orbits + 1)
    for succ in targets:
        starts[succ + 1] += 1
    for rep in range(orbits):
        starts[rep + 1] += starts[rep]
    fill = starts[:-1]
    sources = array("q", [0]) * len(targets)
    for rep in range(orbits):
        for succ in targets[offsets[rep]:offsets[rep + 1]]:
            sources[fill[succ]] = rep
            fill[succ] += 1

    # Backward BFS from the terminal orbits (the empty rows).
    dist = array("q", [-1]) * orbits
    queue = deque()
    for rep in range(orbits):
        if offsets[rep] == offsets[rep + 1]:
            dist[rep] = 0
            queue.append(rep)
    while queue:
        rep = queue.popleft()
        for prev in sources[starts[rep]:starts[rep + 1]]:
            if dist[prev] < 0:
                dist[prev] = dist[rep] + 1
                queue.append(prev)

    escape = max(max(dist), 0)
    witness = None
    if -1 in dist:
        witness = DivergenceWitness(
            initial=_decode(dist.index(-1), n, k),
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
