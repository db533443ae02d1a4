"""Exhaustive small-instance verification over the full configuration space.

Every configuration is a legal starting point, so stabilization under a
scheduler class is certified by checking the whole transition graph over
all k^n color vectors: the deterministic check proves every maximal path
terminates (no cycle) and measures the exact worst-case move count by
memoized longest path; the probabilistic check certifies the structural
precondition for probability-1 convergence (some scheduler-and-random
outcome path reaches a terminal configuration from everywhere, and the
terminal configurations are exactly the legitimate ones).

Both checks run on one builder, :func:`_transitions`.  A configuration is
its base-k code ``sum(colors[i] * k**i)``, process 0 being the lowest
digit.  The builder walks the codes in ascending order, applying the rule
straight to the digits: a move of process ``i`` from ``old`` to ``new``
adds ``(new - old) * k**i`` to the code, so no ``Configuration`` is built
per state.  Edges are stored as compressed rows of ``array("q")``: the
edges of code ``c`` are ``offsets[c]:offsets[c + 1]`` in ``targets`` (the
successor codes) and ``masks`` (the activated processes as a bitmask).
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

_WHITE, _GRAY, _BLACK = 0, 1, 2


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

    def to_dict(self) -> dict:
        return {
            "initial": list(self.initial),
            "schedule": [list(step) for step in self.schedule],
            "note": self.note,
        }


@dataclass(frozen=True)
class WorstCaseWitness:
    initial: tuple[int, ...]
    schedule: tuple[tuple[int, ...], ...]
    moves: int

    def to_dict(self) -> dict:
        return {
            "initial": list(self.initial),
            "schedule": [list(step) for step in self.schedule],
            "moves": self.moves,
        }


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

    def to_dict(self) -> dict:
        return {
            "graph": self.graph,
            "algorithm": self.algorithm,
            "policy_class": self.policy_class,
            "configurations_checked": self.configurations_checked,
            "all_converge": self.all_converge,
            "worst_case_moves": self.worst_case_moves,
            "witness_divergence": (
                self.witness_divergence.to_dict() if self.witness_divergence else None
            ),
            "worst_case_witness": (
                self.worst_case_witness.to_dict() if self.worst_case_witness else None
            ),
            "terminal_count": self.terminal_count,
            "legitimate_count": self.legitimate_count,
            "terminal_equals_legitimate": self.terminal_equals_legitimate,
        }


def _decode(code: int, n: int, k: int) -> tuple[int, ...]:
    colors = []
    for _ in range(n):
        colors.append(code % k)
        code //= k
    return tuple(colors)


def _processes(mask: int, n: int) -> tuple[int, ...]:
    return tuple(i for i in range(n) if mask >> i & 1)


def _transitions(graph: DirectedGraph, kind: AlgorithmKind, k: int, policy_class: PolicyClass, cap: int):
    """Build the transition graph of rule ``kind`` under ``policy_class``.

    The deterministic rule gives each enabled process one move (the
    :func:`recolor` target); the probabilistic rule gives it one move per
    color no predecessor holds.  Under ``lc1`` every move is an edge; under
    ``subsets`` every nonempty set of moves is one, applied together, in
    ``combinations`` order by size.  A code's row is empty iff no process
    is enabled (for the probabilistic rule that needs ``k > max_degree``,
    which its caller checks).  Returns the rows ``offsets, targets,
    masks``, whether the terminal and legitimate sets differ, and
    ``report(worst_moves, divergence, worst_witness=None)``, which fills a
    :class:`VerificationReport` with the counts taken here.
    """
    n = graph.n
    total = k**n
    if total > cap:
        raise EnumerationCapError(required=total, allowed=cap)
    preds, arcs = graph.preds, graph.arcs
    weights = [k**i for i in range(n)]
    deterministic = kind is AlgorithmKind.DETERMINISTIC
    subsets = policy_class is PolicyClass.ALL_DISTRIBUTED_SUBSETS
    offsets, targets, masks = array("q", [0]), array("q"), array("q")
    terminal_count = legitimate_count = 0
    mismatch = False
    # ``product`` varies its last digit fastest, so reversed tuples come in
    # ascending code order with process 0 as the lowest digit.
    for code, digits in enumerate(product(range(k), repeat=n)):
        colors = digits[::-1]
        legit = all(colors[i] != colors[j] for i, j in arcs)
        moves = []
        for i in range(n):
            if not process_enabled(preds[i], colors, i):
                continue
            if deterministic:
                news = (recolor(kind, i, preds[i], colors, k, None),)
            else:
                taken = {colors[p] for p in preds[i]}
                news = [c for c in range(k) if c not in taken]
            moves += [(1 << i, (c - colors[i]) * weights[i]) for c in news]
        legitimate_count += legit
        terminal_count += not moves
        mismatch = mismatch or legit != (not moves)
        if subsets:
            moves = [
                (sum(bit for bit, _ in choice), sum(delta for _, delta in choice))
                for size in range(1, len(moves) + 1)
                for choice in combinations(moves, size)
            ]
        for mask, delta in moves:
            masks.append(mask)
            targets.append(code + delta)
        offsets.append(len(targets))

    def report(worst_moves, divergence, worst_witness=None) -> VerificationReport:
        return VerificationReport(
            graph=graph.summary(),
            algorithm=AlgorithmSpec(kind, k).summary(),
            policy_class=policy_class.value,
            configurations_checked=total,
            all_converge=divergence is None,
            worst_case_moves=worst_moves,
            witness_divergence=divergence,
            worst_case_witness=worst_witness,
            terminal_count=terminal_count,
            legitimate_count=legitimate_count,
            terminal_equals_legitimate=not mismatch,
        )

    return offsets, targets, masks, mismatch, report


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
    offsets, targets, masks, _, report = _transitions(graph, AlgorithmKind.DETERMINISTIC, k, policy_class, cap)
    total, n = len(offsets) - 1, graph.n

    # DFS with cycle detection; on the acyclic side, longest-path memo.
    # Paths are kept as edge indices into the rows.
    state = bytearray(total)
    longest_moves = array("q", [0]) * total
    longest_steps = array("q", [0]) * total
    best_move_edge = array("q", [-1]) * total
    best_step_edge = array("q", [-1]) * total

    for root in range(total):
        if state[root] != _WHITE:
            continue
        state[root] = _GRAY
        stack = [[root, offsets[root]]]  # frames: code, next edge
        incoming = [-1]
        pos = {root: 0}
        while stack:
            frame = stack[-1]
            code, edge = frame
            if edge < offsets[code + 1]:
                frame[1] += 1
                succ = targets[edge]
                if state[succ] == _WHITE:
                    state[succ] = _GRAY
                    pos[succ] = len(stack)
                    stack.append([succ, offsets[succ]])
                    incoming.append(edge)
                elif state[succ] == _GRAY:
                    schedule = tuple(
                        _processes(masks[e], n) for e in incoming[pos[succ] + 1:] + [edge]
                    )
                    witness = DivergenceWitness(
                        initial=_decode(succ, n, k),
                        schedule=schedule,
                        note="configuration cycle",
                    )
                    return report(None, witness)
            else:
                best_m, best_s = 0, 0
                for e in range(offsets[code], offsets[code + 1]):
                    m = masks[e].bit_count() + longest_moves[targets[e]]
                    s = 1 + longest_steps[targets[e]]
                    if m > best_m:
                        best_m = m
                        best_move_edge[code] = e
                    if s > best_s:
                        best_s = s
                        best_step_edge[code] = e
                longest_moves[code] = best_m
                longest_steps[code] = best_s
                state[code] = _BLACK
                del pos[code]
                stack.pop()
                incoming.pop()

    def follow(code: int, best_edge: array) -> tuple[tuple[int, ...], ...]:
        schedule = []
        while best_edge[code] >= 0:
            edge = best_edge[code]
            schedule.append(_processes(masks[edge], n))
            code = targets[edge]
        return tuple(schedule)

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

    Certifies that the terminal configurations are exactly the legitimate
    ones and that every configuration has some path (choosing both the
    activated process and the random color) to a terminal one.
    ``worst_case_moves`` here is the worst-case shortest escape: the
    largest, over configurations, of the fewest moves that can reach a
    terminal configuration.
    """
    _check_prob_headroom(graph, k)
    lc1 = PolicyClass.ALL_LOCALLY_CENTRAL_SINGLE
    offsets, targets, _, mismatch, report = _transitions(graph, AlgorithmKind.PROBABILISTIC, k, lc1, cap)
    total, n = len(offsets) - 1, graph.n

    # Reverse rows by counting sort: the predecessors of code c are
    # sources[starts[c]:starts[c + 1]].
    starts = array("q", [0]) * (total + 1)
    for succ in targets:
        starts[succ + 1] += 1
    for code in range(total):
        starts[code + 1] += starts[code]
    fill = starts[:-1]
    sources = array("q", [0]) * len(targets)
    for code in range(total):
        for succ in targets[offsets[code]:offsets[code + 1]]:
            sources[fill[succ]] = code
            fill[succ] += 1

    # Backward BFS from the terminal codes (the empty rows).
    dist = array("q", [-1]) * total
    queue = deque()
    for code in range(total):
        if offsets[code] == offsets[code + 1]:
            dist[code] = 0
            queue.append(code)
    while queue:
        code = queue.popleft()
        for prev in sources[starts[code]:starts[code + 1]]:
            if dist[prev] < 0:
                dist[prev] = dist[code] + 1
                queue.append(prev)

    escape = max(max(dist), 0)
    witness = None
    if -1 in dist:
        witness = DivergenceWitness(
            initial=_decode(dist.index(-1), n, k),
            schedule=(),
            note="no path to a terminal configuration",
        )
    elif mismatch:
        witness = DivergenceWitness(
            initial=(), schedule=(), note="terminal and legitimate sets differ"
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
