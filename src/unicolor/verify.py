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

Both checks run on one state space, :class:`_Space`.  A configuration is
its base-k code ``sum(colors[i] * k**i)``, process 0 being the lowest
digit.  Both rules commute with the palette rotation ``c -> c+1 mod k``:
the guard compares colors for equality, the deterministic scan is cyclic
and the free-color set rotates with the palette.  The rotation has no
fixed point, so each rotation class holds exactly k configurations; its
*palette code* is the member whose top digit, the color of process
``n-1``, is 0.  These are the codes ``0 .. k**(n-1) - 1``.  A row lists
the edges of one palette code: their targets (palette codes again: a move
of process ``n-1`` to ``s`` rotates the new colors by ``-s``) and their
masks (the activated processes as a bitmask).  Rows are built from the
digits when a search asks for them; no ``Configuration`` is built per
state.

Both rules also commute with every automorphism of the digraph, a
permutation of the processes that keeps the arcs: the guard and the rules
read only the colors of a process and of its predecessors, and both
policy classes allow every (nonempty set of) enabled process(es).  So the
space is quotiented by the automorphisms and the rotation together
(Emerson & Sistla 1996; Ip & Dill 1996).  :func:`automorphism_generators`
finds a generating set of the group without listing it, and
:func:`_orbits` labels every palette code with the smallest code of its
orbit, the orbit's representative; a graph whose only automorphism is
the identity gets no table.  What is stored per orbit, at the
representative's index, is the search's value: the longest move and step
counts, or the escape distance, both the same across an orbit.

Reports are the ones the full k^n walk gives.  Terminal counts are k times
the palette codes in terminal orbits; ``configurations_checked`` and the
cap stay on k^n.  The first code of any orbit is its representative, so
the first code to reach a maximum is one, and initial configurations are
unchanged.  Schedules are read off concrete palette codes' rows, whose
order is that of the full walk's rows.

The probabilistic search builds the representatives' rows only, maps
their targets to representatives, and computes escape distances one
layer at a time: layer 0 is the empty rows, and an unresolved orbit is at
distance d once one of its targets is at d - 1.  Since every escape is at
most n, the sweep takes at most n rounds after layer 0.

The deterministic search is a DFS over palette codes with an on-stack
mark per code and a done mark per orbit.  It expands a code only when
its orbit is not done, so a convergent instance builds one row per orbit.
It finds the same first cycle as the DFS over all palette codes in the
same order: a done orbit's codes reach no cycle and no code on the stack
(an automorphism maps the finished code's reachable graph, acyclic and
finished, onto theirs), so the full DFS would have walked them without a
back edge and left the same stack; and no code of a done orbit is ever on
the stack.  A witness is re-read from the longest values: at each code it
takes the first edge whose cost (the moves of the edge, or 1 step) plus
its target's value is the code's own value.  The rotation quotient has a
cycle iff the concrete graph has: a cycle of palette codes whose schedule
rotates its start by ``r`` closes a concrete cycle when followed
``k / gcd(k, r)`` times.  At the first back edge, :func:`_cycle_witness`
replays the path from the root's palette code, reads the cycle's start
and ``r`` off the trace, and repeats the cycle's schedule.  That is the
cycle the full walk reports: when it re-enters a rotation class on its
stack in a rotated configuration, every edge before the one on its path
leads to a finished class, so it follows the same edges round after round
until the rotation cancels.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from enum import Enum
from itertools import chain, combinations, product
from math import gcd
from operator import eq

from .core import Configuration, DirectedGraph, UsageError, process_enabled
from .algorithms import AlgorithmKind, AlgorithmSpec, _check_prob_headroom, free_colors, recolor
from .engine import ExecutionTrace, run
from .schedulers import SchedulerPolicy, Script


class EnumerationCapError(UsageError):
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


def _processes(mask: int, n: int) -> tuple[int, ...]:
    return tuple(i for i in range(n) if mask >> i & 1)


def _check_arguments(graph: DirectedGraph, kind: AlgorithmKind, k: int, max_depth: int | None, cap: int) -> None:
    """Raise :class:`UsageError` on a verification request no search can
    serve, before any state is built: a negative ``max_depth``, ``k <=
    max_degree`` for the probabilistic rule, a palette below 2, more than
    ``cap`` configurations, or ``k <= max_in_degree`` for the deterministic
    rule (a process can then see all k colors among its predecessors, its
    own among them, and has no color to step to), checked in that order."""
    if max_depth is not None and max_depth < 0:
        raise UsageError(f"max_depth must be >= 0, got {max_depth}")
    if kind is AlgorithmKind.PROBABILISTIC:
        _check_prob_headroom(graph, k)
    AlgorithmSpec(kind, k)
    if k**graph.n > cap:
        raise EnumerationCapError(required=k**graph.n, allowed=cap)
    if kind is AlgorithmKind.DETERMINISTIC and k <= graph.max_in_degree:
        raise UsageError(
            f"deterministic rule needs k > max_in_degree, got k={k}, max_in_degree={graph.max_in_degree}"
        )


def automorphism_generators(graph: DirectedGraph) -> list[tuple[int, ...]]:
    """A generating set of the digraph's automorphism group.

    An automorphism ``g`` maps process ``i`` to ``g[i]`` and keeps the arcs:
    ``(i, j)`` is an arc iff ``(g[i], g[j])`` is.  Processes are split into
    cells by in- and out-degree, refined by the cells of their predecessors
    and successors until no cell splits; every automorphism keeps the cells.
    The search walks the stabiliser chain of a breadth-first ``order`` from
    its deepest level up.  At level ``i`` every generator found so far fixes
    ``order[:i]``; for each process of ``order[i]``'s cell outside the
    orbit those generators give ``order[i]``, a backtracking search over
    ``order[i+1:]`` looks for one automorphism that fixes ``order[:i]`` and
    maps ``order[i]`` there.  A level adds at most its orbit size minus one
    generators, so there are at most n(n-1)/2, and the group, n! elements on
    clique:n, is never listed.  An empty list means the group is trivial.
    """
    n, preds, succs = graph.n, graph.preds, graph.succs
    arcs = set(graph.arcs)
    cell = [*zip(graph.in_degrees, graph.out_degrees)]
    while True:
        labels: dict = {}
        cell_of = cell.__getitem__
        refined = [
            labels.setdefault(
                (cell[i], tuple(sorted(map(cell_of, preds[i]))), tuple(sorted(map(cell_of, succs[i])))), len(labels)
            )
            for i in range(n)
        ]
        if len(labels) == len(set(cell)):
            break
        cell = refined
    members: dict = {}
    for i in range(n):
        members.setdefault(cell[i], []).append(i)

    # Breadth-first over the underlying graph, so each process after the
    # first of its component is adjacent to an earlier one and a wrong
    # image fails at once.
    order: list[int] = []
    for source in range(n):
        if source in order:
            continue
        head = len(order)
        order.append(source)
        while head < len(order):
            order += [w for w in graph.neighbors[order[head]] if w not in order]
            head += 1

    def fits(mapped, v, w) -> bool:
        return all(
            ((u, v) in arcs) == ((gu, w) in arcs) and ((v, u) in arcs) == ((w, gu) in arcs) for u, gu in mapped
        )

    def extend(depth, mapped, used):
        if depth == n:
            g = [0] * n
            for u, gu in mapped:
                g[u] = gu
            return tuple(g)
        v = order[depth]
        for w in members[cell[v]]:
            if w not in used and fits(mapped, v, w):
                mapped.append((v, w))
                used.add(w)
                found = extend(depth + 1, mapped, used)
                if found:
                    return found
                mapped.pop()
                used.discard(w)
        return None

    generators: list[tuple[int, ...]] = []

    def orbit_of(point) -> set[int]:
        orbit, stack = {point}, [point]
        while stack:
            x = stack.pop()
            for g in generators:
                if g[x] not in orbit:
                    orbit.add(g[x])
                    stack.append(g[x])
        return orbit

    for level in reversed(range(n)):
        base = order[level]
        orbit = orbit_of(base)
        fixed = order[:level]
        for x in members[cell[base]]:
            if x in orbit or x in fixed:
                continue
            mapped = [(u, u) for u in fixed]
            if not fits(mapped, base, x):
                continue
            found = extend(level + 1, mapped + [(base, x)], {*fixed, x})
            if found:
                generators.append(found)
                orbit = orbit_of(base)
    return generators


def _digit_sums(columns, base: int = 0, lookup=None) -> array:
    """``base + sum(columns[i][d_i])`` for every digit tuple, in code order
    (digit 0 lowest), or that entry of ``lookup`` when one is given.

    Whole-list passes, one per digit; the last digit's pass goes to the
    array a slice at a time, so no list of every sum is held at once.
    """
    *inner, last = columns or [[0]]
    values = [base]
    for column in inner:
        values = [x + s for s in column for x in values]
    out = array("q")
    for s in last:
        out.extend([x + s for x in values] if lookup is None else [lookup[x + s] for x in values])
    return out


def _palette_map(g: tuple[int, ...], n: int, k: int) -> array:
    """The action of automorphism ``g`` on palette codes, over ``0 .. k**(n-1) - 1``.

    ``g`` moves the color of process ``i`` to process ``g[i]``; the result
    is rotated by ``-t`` so that process n-1 is back at color 0, where ``t``
    is the color of ``p = g^-1(n-1)``.  Digit ``i`` of the code then adds
    ``((d_i - t) % k) * k**g[i]``, a sum over the digits once ``t`` is
    fixed.  So the map is built as ``k`` blocks of digit-wise sums, block
    ``t`` over the digits other than ``p``, and each code reads its value
    from block ``d_p`` at the code of its other digits.
    """
    top = n - 1
    p = g.index(top)
    weight = [k ** g[i] for i in range(n)]
    others = [i for i in range(top) if i != p]
    if p == top:
        return _digit_sums([[v * weight[i] for v in range(k)] for i in others])
    blocks = array("q")
    for t in range(k):
        blocks += _digit_sums([[(v - t) % k * weight[i] for v in range(k)] for i in others], (-t) % k * weight[top])
    steps = [k ** (top - 1) if i == p else k ** others.index(i) for i in range(top)]
    return _digit_sums([[v * step for v in range(k)] for step in steps], lookup=blocks)


def _orbits(generators, n: int, k: int):
    """The orbits of the palette codes under the automorphisms and rotation.

    Returns ``orbit``, which maps each palette code to the smallest code of
    its orbit, its representative; the representatives in ascending order;
    and the orbit sizes (in palette codes) of the representatives.  Codes
    are labelled in ascending order, so the first code of each new orbit is
    its smallest.  Without generators every code is its own orbit, and
    ``orbit`` is None: no table is built.
    """
    codes = k ** (n - 1)
    if not generators:
        return None, range(codes), {}
    maps = [_palette_map(g, n, k) for g in generators]
    orbit = [-1] * codes
    reps, sizes = [], {}
    for code in range(codes):
        if orbit[code] >= 0:
            continue
        orbit[code] = code
        members = [code]
        for x in members:
            for m in maps:
                y = m[x]
                if orbit[y] < 0:
                    orbit[y] = code
                    members.append(y)
        reps.append(code)
        sizes[code] = len(members)
    return orbit, reps, sizes


class _Space:
    """The transition graph of rule ``kind`` under ``policy_class``, over
    palette codes, with rows built on demand.

    The deterministic rule gives each enabled process one move (the
    :func:`recolor` target); the probabilistic rule gives it one move per
    color no predecessor holds.  Under ``lc1`` every move is an edge; under
    ``subsets`` every nonempty set of moves is one, applied together, in
    ``combinations`` order by size.  :meth:`row` returns the targets, the
    masks (the activated processes as a bitmask) and the targets'
    representatives of a palette code's edges.  An edge that moves process
    ``n-1`` to color ``s`` lands on a configuration whose top digit is
    ``s``: its target is that configuration rotated by ``-s``, a palette
    code.  A row is empty iff no process is enabled, which is also iff the
    configuration is legitimate (an arc joining equal colors makes its head
    enabled); for the probabilistic rule that needs ``k > max_degree``,
    which its caller checks.  ``orbit``, ``reps`` and ``sizes`` are those of
    :func:`_orbits`.
    """

    def __init__(self, graph: DirectedGraph, kind: AlgorithmKind, k: int, policy_class: PolicyClass):
        self.graph, self.k, self.policy_class = graph, k, policy_class
        self.algorithm = AlgorithmSpec(kind, k).summary()
        n = graph.n
        self.total = k**n
        self.codes = k ** (n - 1)
        self.orbit, self.reps, self.sizes = _orbits(automorphism_generators(graph), n, k)
        # A code's colors are the low digits' tuple joined to the high
        # digits', process n-1 at color 0 last; ``product`` varies its last
        # factor fastest, so reversed tuples come in ascending code order.
        half = (n - 1) // 2
        self.split = k**half
        self.low = [digits[::-1] for digits in product(range(k), repeat=half)]
        self.high = [digits[::-1] + (0,) for digits in product(range(k), repeat=n - 1 - half)]
        self.row = self._row_builder(kind, policy_class)

    def _row_builder(self, kind: AlgorithmKind, policy_class: PolicyClass):
        graph, k, orbit = self.graph, self.k, self.orbit
        n = graph.n
        preds = graph.preds
        top = n - 1
        top_bit = 1 << top
        weights = [k**i for i in range(n)]
        processes = range(n)
        deterministic = kind is AlgorithmKind.DETERMINISTIC
        subsets = policy_class is PolicyClass.ALL_DISTRIBUTED_SUBSETS
        split, low, high = self.split, self.low, self.high
        # The probabilistic rule's free colors depend only on the set of
        # colors the predecessors hold, so they are computed once per set.
        free_of: dict[frozenset[int], list[int]] = {}

        def row(code: int) -> tuple[list[int], list[int], list[int]]:
            high_code, low_code = divmod(code, split)
            colors = low[low_code] + high[high_code]
            enabled = [i for i in processes if process_enabled(preds[i], colors, i)]
            if deterministic:
                moves = [*zip(enabled, recolor(kind, enabled, preds, colors, k, None))] if enabled else []
            else:
                moves = []
                for i in enabled:
                    taken = frozenset(map(colors.__getitem__, preds[i]))
                    free = free_of.get(taken)
                    if free is None:
                        free = free_of[taken] = free_colors(taken, k)
                    moves += [(i, c) for c in free]
            targets: list[int] = []
            masks: list[int] = []
            if not subsets:
                for i, c in moves:
                    masks.append(1 << i)
                    if i == top:
                        targets.append(sum(((colors[j] - c) % k) * weights[j] for j in range(top)))
                    else:
                        targets.append(code + (c - colors[i]) * weights[i])
            elif moves:
                # One deterministic move per process, so process n-1, if it
                # moves, comes last; a set holding it lands on ``rotated``
                # plus the moves measured in the frame rotated by -s.
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
            return targets, masks, targets if orbit is None else [orbit[t] for t in targets]

        return row

    def colors(self, code: int) -> tuple[int, ...]:
        """The colors of palette code ``code``."""
        high_code, low_code = divmod(code, self.split)
        return self.low[low_code] + self.high[high_code]

    def count_terminal(self, reps) -> int:
        """The palette codes in the orbits of ``reps`` at which no arc joins
        equal colors: the terminal ones, whose rows are empty."""
        heads, tails = [*zip(*self.graph.arcs)] or [(), ()]
        count = 0
        for rep in reps:
            colors = self.colors(rep)
            if not any(map(eq, map(colors.__getitem__, heads), map(colors.__getitem__, tails))):
                count += self.sizes.get(rep, 1)
        return count

    def report(self, terminal_codes: int, worst_moves, divergence, worst_witness=None) -> VerificationReport:
        """The report, ``terminal_codes`` being the number of palette codes
        with an empty row; every one stands for ``k`` configurations."""
        return VerificationReport(
            graph=self.graph.summary(),
            algorithm=self.algorithm,
            policy_class=self.policy_class.value,
            configurations_checked=self.total,
            all_converge=divergence is None,
            worst_case_moves=worst_moves,
            witness_divergence=divergence,
            worst_case_witness=worst_witness,
            terminal_count=self.k * terminal_codes,
            legitimate_count=self.k * terminal_codes,
            terminal_equals_legitimate=True,
        )


def _cycle_witness(
    graph: DirectedGraph, k: int, root: tuple[int, ...], schedule: tuple[tuple[int, ...], ...], start: int
) -> DivergenceWitness:
    """Lift a cycle of rotation orbits to a cycle of configurations.

    ``schedule`` leads from ``root``, the colors of the search's root, along
    the search stack and back to the code at stack position ``start``.
    Replayed, it reaches that code's rotation orbit twice: first at the
    cycle's start, then at the start rotated by some ``r``.  Both rules
    commute with the rotation, so the cycle's schedule, repeated
    ``k / gcd(k, r)`` times, returns to the start.
    """
    probe = DivergenceWitness(initial=root, schedule=schedule, note="")
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
    re-read from them, one edge per code, so they are the paths whose
    every edge is the first to reach its code's value.

    A palette of at most ``max_in_degree`` is refused with a
    :class:`UsageError` before any state is built (:func:`_check_arguments`):
    the rule then has no move for some enabled process.
    """
    _check_arguments(graph, AlgorithmKind.DETERMINISTIC, k, max_depth, cap)
    space = _Space(graph, AlgorithmKind.DETERMINISTIC, k, policy_class)
    row, sizes, n = space.row, space.sizes, graph.n

    # DFS over palette codes with cycle detection; on the acyclic side,
    # longest-path memo per orbit.  A frame is a code, its representative,
    # its row and its next edge, so the edge it explores is that pointer
    # minus one.  ``marks`` is 1 once a code is pushed and 2 at the
    # representative once its orbit is done.  The done mark is read first,
    # so a finished code that keeps its 1 is skipped, and a code met again
    # with only its 1 is on the stack: a cycle.  No orbit is done while one
    # of its codes is on the stack, since that code would reach itself
    # through the done one.
    marks = bytearray(space.codes)
    longest_moves = array("q", [0]) * space.codes
    longest_steps = array("q", [0]) * space.codes
    terminal = 0

    for root in space.reps:
        if marks[root]:
            continue
        marks[root] = 1
        stack = [[root, root, *row(root), 0]]
        while stack:
            frame = stack[-1]
            code, rep, targets, masks, reps, edge = frame
            if edge < len(targets):
                frame[5] = edge + 1
                if marks[reps[edge]] == 2:
                    continue
                succ = targets[edge]
                if marks[succ]:
                    schedule = tuple(_processes(f[3][f[5] - 1], n) for f in stack)
                    start = [f[0] for f in stack].index(succ)
                    terminal += space.count_terminal(r for r in space.reps if marks[r] != 2)
                    return space.report(terminal, None, _cycle_witness(graph, k, space.colors(root), schedule, start))
                marks[succ] = 1
                stack.append([succ, reps[edge], *row(succ), 0])
            else:
                best_m, best_s = 0, 0
                for target, mask in zip(reps, masks):
                    m = mask.bit_count() + longest_moves[target]
                    s = 1 + longest_steps[target]
                    if m > best_m:
                        best_m = m
                    if s > best_s:
                        best_s = s
                longest_moves[rep] = best_m
                longest_steps[rep] = best_s
                marks[rep] = 2
                if not targets:
                    terminal += sizes.get(rep, 1)
                stack.pop()

    def follow(code: int, longest: array, cost) -> tuple[tuple[int, ...], ...]:
        """The path that realises ``longest`` from representative ``code``:
        at each code, the first edge whose cost plus its target's value is
        the code's own value."""
        schedule = []
        value = longest[code]
        while value:
            targets, masks, reps = row(code)
            for target, mask, rep in zip(targets, masks, reps):
                if cost(mask) + longest[rep] == value:
                    break
            schedule.append(_processes(mask, n))
            code, value = target, longest[rep]
        return tuple(schedule)

    # Values sit at the representatives, each the smallest code of its
    # orbit, so the first maximum is the first over all codes.
    worst = max(longest_moves)
    argmax = longest_moves.index(worst)
    worst_witness = WorstCaseWitness(
        initial=space.colors(argmax),
        schedule=follow(argmax, longest_moves, int.bit_count),
        moves=worst,
    )

    witness = None
    deepest = max(longest_steps)
    if max_depth is not None and deepest > max_depth:
        deep_code = longest_steps.index(deepest)
        witness = DivergenceWitness(
            initial=space.colors(deep_code),
            schedule=follow(deep_code, longest_steps, lambda mask: 1)[:max_depth],
            note=f"path of {deepest} steps exceeds max_depth {max_depth}",
        )
    return space.report(terminal, worst, witness, worst_witness)


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
    orbit, so the search runs over the representatives' rows, in layers.
    With ``k > max_degree`` an enabled process can take a color no
    neighbour holds, leaving one process fewer enabled, so every escape is
    at most n moves and the sweep takes at most n rounds after layer 0; the
    "no path" witness is kept as the check's own verdict.
    """
    _check_arguments(graph, AlgorithmKind.PROBABILISTIC, k, max_depth, cap)
    space = _Space(graph, AlgorithmKind.PROBABILISTIC, k, PolicyClass.ALL_LOCALLY_CENTRAL_SINGLE)

    # Escape distances one layer at a time over the representatives' rows,
    # their targets mapped to representatives: layer 0 is the empty rows,
    # and an unresolved orbit joins layer d + 1 once one of its targets is
    # in layer d.  A round that resolves nothing ends the sweep; what is
    # left has no path to a terminal configuration.
    dist = array("q", [0]) * space.codes
    pending = []
    terminal = 0
    for rep in space.reps:
        _, _, targets = space.row(rep)
        if targets:
            dist[rep] = -1
            pending.append((rep, targets))
        else:
            terminal += space.sizes.get(rep, 1)
    escape = 0
    while pending:
        left = []
        for item in pending:
            for target in item[1]:
                if dist[target] == escape:
                    dist[item[0]] = escape + 1
                    break
            else:
                left.append(item)
        if len(left) == len(pending):
            break
        pending = left
        escape += 1

    witness = None
    if pending:
        witness = DivergenceWitness(
            initial=space.colors(pending[0][0]),
            schedule=(),
            note="no path to a terminal configuration",
        )
    elif max_depth is not None and escape > max_depth:
        witness = DivergenceWitness(
            initial=space.colors(dist.index(escape)),
            schedule=(),
            note=f"shortest escape of {escape} moves exceeds max_depth {max_depth}",
        )
    return space.report(terminal, escape, witness)


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
