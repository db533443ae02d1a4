"""Exhaustive small-instance verification over the full configuration space.

Every configuration is a legal starting point, so stabilization under a
scheduler class is certified by checking the whole transition graph over
all k^n color vectors: the deterministic check proves every maximal path
terminates (no cycle) and measures the exact worst-case move count by
memoized longest path, one value per state that every edge lowers by at
least its move count (Floyd 1967); the probabilistic check certifies the structural
precondition for probability-1 convergence (some scheduler-and-random
outcome path reaches a terminal configuration from everywhere; the
terminal configurations are exactly the legitimate ones, since an arc
joining equal colors is what enables its head) and measures the worst
shortest escape.  With ``k > max_degree``, which that check requires, the
verdict always holds: an enabled process can move to a color no neighbour
holds, which disables it and enables nobody, so every escape is at most n
moves.  Its information is the escape length.  ``max_depth`` bounds moves
in both checks: the longest path's, or the worst shortest escape's.

Both checks run on one state space, :class:`_Space`.  A configuration is
its base-k code ``sum(colors[i] * k**i)``, process 0 being the lowest
digit.  Both rules commute with the palette rotation ``c -> c+1 mod k``:
the guard compares colors for equality, the deterministic scan is cyclic
and the free-color set rotates with the palette.  The rotation has no
fixed point, so each rotation class holds exactly k configurations; its
*palette code* is the member whose top digit, the color of process
``n-1``, is 0.  These are the codes ``0 .. k**(n-1) - 1``.  A row lists
the edges of one palette code: each enabled process's moves, one edge
each, and under ``subsets`` those moves combined into every nonempty set,
in ``combinations`` order by size.  An edge is its target (a palette code
again: a move of process ``n-1`` to ``s`` rotates the new colors by
``-s``) and its mask (the activated processes as a bitmask).  Rows are
built when a search asks for them, from one outcome table per process,
keyed by its view code (its own and its predecessors' colors as a base-k
number, read from two digit tables as the code's halves are), and two
rotation tables for the moves of process ``n-1``; no ``Configuration`` is
built per state, and a row whose views are all known builds no colors at
all.

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
representative's index, is the search's one value: the longest move count,
or the escape distance, both the same across an orbit.

Reports are the ones the full k^n walk gives.  The terminal count is one
exact count of proper colorings, k times the palette codes at which no arc
joins equal colors, made before the searches by the rule-free pass of
:func:`proper_colorings`, whose blocks also mark those codes, whose rows
are empty, so that neither search builds their rows;
``configurations_checked`` and the cap stay on k^n.  A terminal
code's whole orbit is terminal, since automorphisms and the rotation keep
proper colorings proper.  The first code of any orbit is its
representative, so the first code to reach a maximum is one, and initial
configurations are unchanged.  Schedules are read off concrete palette
codes' rows, whose order is that of the full walk's rows.

The probabilistic search builds the non-terminal representatives' rows
only, maps their targets to representatives, and computes escape
distances one layer at a time: layer 0 is the terminal codes, and an
unresolved orbit is at distance d once one of its targets is at d - 1.
Since every escape is at most n, the sweep takes at most n rounds after
layer 0, and a round that resolves nothing is a bug: it raises
``RuntimeError``.

The deterministic search is a DFS over palette codes with an on-stack
mark per code and a done mark per orbit; the terminal codes start done.
It expands a code only when its orbit is not done, so a convergent
instance builds one row per non-terminal orbit.  It finds the same first
cycle as the DFS over all palette codes in the same order: a terminal
code has no edges, so it is never on the stack and its value is 0; a done
orbit's codes reach no cycle and no code on the stack (an automorphism
maps the finished code's reachable graph, acyclic and finished, onto
theirs), so the full DFS would have walked them without a back edge and
left the same stack; and no code of a done orbit is ever on the stack.
The worst-case witness is re-read from the longest values: at each code
it takes the first edge whose moves plus its target's value are the
code's own value; a ``max_depth`` witness is its longest prefix of at
most ``max_depth`` moves.  The rotation quotient has a cycle iff the
concrete graph has: a cycle of palette codes whose schedule rotates its
start by ``r`` closes a concrete cycle when followed ``k / gcd(k, r)``
times.  At the first back edge, :func:`_cycle_witness`
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
from itertools import accumulate, combinations, product
from math import gcd
from operator import add

from .core import Configuration, DirectedGraph, UsageError
from .algorithms import AlgorithmKind, AlgorithmSpec, _check_prob_headroom, moves
from .engine import ExecutionTrace, run
from .schedulers import SchedulerPolicy, Script

# The most configurations, k^n, a search enumerates unless told otherwise.
DEFAULT_CAP = 10**6

# A bitmask's binary digits as bytes, 2 (done) at each set bit.
_DONE = bytes.maketrans(b"01", b"\0\2")


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
    maps ``order[i]`` there, once per process and level.  Each round adds
    the automorphism found that grows ``order[i]``'s orbit most, the first
    on ties, until no process outside the orbit has one; so a cyclic group
    gets one generator however its processes are numbered (Seress,
    *Permutation Group Algorithms*, ch. 4).  A level adds at most its orbit
    size minus one generators, so there are at most n(n-1)/2, and the group,
    n! elements on clique:n, is never listed.  An empty list means the group
    is trivial.
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

    def orbit_of(point, gens) -> set[int]:
        orbit, stack = {point}, [point]
        while stack:
            x = stack.pop()
            for g in gens:
                if g[x] not in orbit:
                    orbit.add(g[x])
                    stack.append(g[x])
        return orbit

    for level in reversed(range(n)):
        base = order[level]
        fixed = order[:level]
        mapped = [(u, u) for u in fixed]
        # The generators so far fix ``base`` too, so every candidate is
        # outside its orbit now: one search each serves every round.
        found = [
            g
            for x in members[cell[base]]
            if x != base and x not in fixed and fits(mapped, base, x)
            if (g := extend(level + 1, mapped + [(base, x)], {*fixed, x}))
        ]
        orbit = {base}
        while outside := [g for g in found if g[base] not in orbit]:
            # ``max`` keeps the first of equals.
            generators.append(max(outside, key=lambda g: len(orbit_of(base, [*generators, g]))))
            orbit = orbit_of(base, generators)
    return generators


def _digit_sums(columns, base: int = 0) -> array:
    """``base + sum(columns[i][d_i])`` for every digit tuple, in code order
    (digit 0 lowest).

    Whole-list passes, one per digit; the last digit's pass goes to the
    array a slice at a time, so no list of every sum is held at once.
    """
    *inner, last = columns or [[0]]
    values = [base]
    for column in inner:
        values = [x + s for s in column for x in values]
    out = array("q")
    for s in last:
        out.fromlist([*map(s.__add__, values)])
    return out


def _halves(n: int, k: int) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """The colors of the palette codes' low digits, the processes below
    ``(n-1) // 2``, and of their high digits, process n-1 at color 0 last,
    each in ascending code order: a code's colors are ``low[code %
    len(low)] + high[code // len(low)]``.  ``product`` varies its last
    factor fastest, so its reversed tuples come in that order."""
    half = (n - 1) // 2
    low = [digits[::-1] for digits in product(range(k), repeat=half)]
    high = [digits[::-1] + (0,) for digits in product(range(k), repeat=n - 1 - half)]
    return low, high


def _proper_blocks(graph: DirectedGraph, k: int, low, high):
    """The palette codes at which no arc joins equal colors, one block per
    high digits' code: ``(high_code, bits)``, bit ``low_code`` of ``bits``
    set at each such code ``high_code * len(low) + low_code``, for every
    high code with a nonzero ``bits``.

    The low digits' codes are the bits of an int: those at which no arc
    inside the low digits joins equal colors, and per low process ``u`` and
    color ``x`` those at which ``u`` does not hold ``x``.  Each high digits'
    code without a conflict inside them keeps the first set, ANDed with one
    set per arc between the halves, until it is empty.
    """
    half = len(low[0])
    inside_low, across, inside_high = [], [], []
    for u, v in graph.arcs:
        if u >= half and v >= half:
            inside_high.append((u - half, v - half))
        elif u < half and v < half:
            inside_low.append((u, v))
        else:
            across.append((u, v - half) if u < half else (v, u - half))
    proper = sum(1 << code for code, c in enumerate(low) if all(c[u] != c[v] for u, v in inside_low))
    differs = [[sum(1 << code for code, c in enumerate(low) if c[u] != x) for x in range(k)] for u in range(half)]
    for high_code, colors in enumerate(high):
        if any(colors[u] == colors[v] for u, v in inside_high):
            continue
        bits = proper
        for u, v in across:
            bits &= differs[u][colors[v]]
            if not bits:
                break
        if bits:
            yield high_code, bits


def proper_colorings(graph: DirectedGraph, k: int) -> int:
    """The colorings of ``graph`` with ``k`` colors at which no arc joins
    equal colors, counted exactly with no rule involved.

    The palette rotations ``c -> c+r mod k`` keep a coloring proper, and
    each rotation class holds ``k`` colorings, one of them a palette code
    (process n-1 at color 0).  So the count is ``k`` times that of the
    proper palette codes, which :func:`_proper_blocks` finds a block of low
    digits at a time.  The verifier's terminal count and done marks come
    from the same blocks.
    """
    return k * sum(bits.bit_count() for _, bits in _proper_blocks(graph, k, *_halves(graph.n, k)))


def _palette_map(g: tuple[int, ...], n: int, k: int) -> array:
    """The action of automorphism ``g`` on palette codes, over ``0 .. k**(n-1) - 1``.

    ``g`` moves the color of process ``i`` to process ``g[i]``; the result
    is rotated by ``-t`` so that process n-1 is back at color 0, where ``t``
    is the color of ``p = g^-1(n-1)`` (0 when ``p`` is n-1 itself).  Digit
    ``i != p`` of the code then adds ``((d_i - t) % k) * k**g[i]`` and the
    color 0 of process n-1 adds ``((-t) % k) * k**g[n-1]``: a sum over the
    digits once ``t`` is fixed.  The code is split into an inner block, the
    low and larger half of its digits, and an outer block, the rest; each
    has ``k`` tables of digit sums, table ``t`` for the rotation by ``-t``.
    Each outer block of codes is one pass that adds the outer value to the
    inner table: where ``p`` is n-1 or an outer digit, ``t`` is fixed
    across the block; where it is an inner digit, the inner values are read from the
    table of their own ``d_p`` and the outer values repeat with ``d_p``'s
    period.
    """
    top = n - 1
    p = g.index(top)
    weight = [k ** g[i] for i in range(n)]
    half = (top + 1) // 2

    def sums(digits, t: int, base: int = 0) -> array:
        return _digit_sums([[(v - t) % k * weight[i] * (i != p) for v in range(k)] for i in digits], base)

    inner = [sums(range(half), t) for t in range(k)]
    outer = [sums(range(half, top), t, (-t) % k * weight[top]) for t in range(k)]
    out = array("q")
    if p >= half:
        stride = k ** (p - half)
        for o in range(k ** (top - half)):
            t = o // stride % k
            out.fromlist([*map(outer[t][o].__add__, inner[t])])
    else:
        stride = k**p
        table = [inner[x // stride % k][x] for x in range(k**half)]
        repeats = k ** (half - p - 1)
        for o in range(k ** (top - half)):
            out.fromlist([*map(add, table, [outer[t][o] for t in range(k) for _ in range(stride)] * repeats)])
    return out


def _orbits(generators, n: int, k: int):
    """The orbits of the palette codes under the automorphisms and rotation.

    Returns ``orbit``, which maps each palette code to the smallest code of
    its orbit, its representative, and the representatives in ascending
    order.  Codes are labelled in ascending order, so the first code of each
    new orbit is its smallest.  Without generators every code is its own
    orbit, and ``orbit`` is None: no table is built.
    """
    codes = k ** (n - 1)
    if not generators:
        return None, range(codes)
    maps = [_palette_map(g, n, k) for g in generators]
    orbit = [-1] * codes
    reps = []
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
    return orbit, reps


class _Space:
    """The transition graph of rule ``kind`` under ``policy_class``, over
    palette codes, with rows built on demand.

    Each enabled process has the moves the rule's :func:`moves` gives it,
    the colors a run's command chooses among: the deterministic rule's one,
    or the probabilistic rule's free colors.  A row first lists every move
    as an edge, process by process: that is the whole ``lc1`` row.  Under
    ``subsets`` it then combines those edges into every nonempty set,
    applied together, in ``combinations`` order by size.  That relies on
    one move per enabled process, which holds because only the
    deterministic rule is searched under ``subsets``:
    :func:`verify_probabilistic_support` always passes ``lc1``, and
    ``verify --algo prob`` refuses ``--policy-class subsets``.  :meth:`row`
    returns the targets, the masks (the activated processes as a bitmask)
    and the targets' representatives of a palette code's edges.

    Each process with predecessors has an outcome table, from its view code
    to its moves as ``(code delta, new color)`` pairs, none when it is not
    enabled, filled on first use.  The view code is the process's own color
    and its predecessors' as a base-k number, the sum of two digit tables
    over the code's low and high digits; a row decodes a code's colors only
    to fill a table.  A move of process ``i < n-1`` adds its delta to the
    code.  An edge that moves process ``n-1`` to color ``s`` lands on a
    configuration whose top digit is ``s``: its target is that
    configuration rotated by ``-s``, a palette code, read as the sum of two
    rotation tables, the low and the high digits rotated by ``-s``, split as
    the colors are.  A ``subsets`` row reads each one-process edge's delta
    back as its target minus the code and sums the deltas over index
    bitmasks of the edges of processes below ``n-1``, each set one delta
    more than a smaller one; the sets that also move ``n-1`` to ``s`` are
    those sums rotated by ``-s``, read from the two rotation tables at each
    sum's halves.  The sets' order and masks are kept per set of enabled
    processes, one list shared by their rows.  The tables live as long as
    the space, one search.

    A row is empty iff no process is enabled, which is also iff the
    configuration is legitimate (an arc joining equal colors makes its head
    enabled); for the probabilistic rule that needs ``k > max_degree``,
    which its caller checks.  ``terminal`` counts those palette codes and
    ``marks`` holds a byte per palette code, 2 at those codes and 0
    elsewhere, both from the blocks :func:`proper_colorings` counts, which
    build no row; the deterministic search takes ``marks`` as its own, so a
    space serves one search.  ``orbit`` and ``reps`` are those of :func:`_orbits`.
    """

    def __init__(self, graph: DirectedGraph, kind: AlgorithmKind, k: int, policy_class: PolicyClass):
        self.graph, self.k, self.policy_class = graph, k, policy_class
        self.algorithm = AlgorithmSpec(kind, k).summary()
        n = graph.n
        self.total = k**n
        self.codes = k ** (n - 1)
        self.orbit, self.reps = _orbits(automorphism_generators(graph), n, k)
        self.low, self.high = _halves(n, k)
        half = len(self.low[0])
        self.split = k**half
        self.row = self._row_builder(kind, policy_class, half)
        # The terminal palette codes, counted and marked done.
        self.terminal = 0
        self.marks = bytearray(self.codes)
        for high_code, bits in _proper_blocks(graph, k, self.low, self.high):
            self.terminal += bits.bit_count()
            flags = bin(bits)[:1:-1].encode().translate(_DONE)
            start = high_code * self.split
            self.marks[start : start + len(flags)] = flags

    def _row_builder(self, kind: AlgorithmKind, policy_class: PolicyClass, half: int):
        graph, k, orbit = self.graph, self.k, self.orbit
        n = graph.n
        top = n - 1
        top_bit = 1 << top
        weights = [k**i for i in range(n)]
        moves_of = moves(kind, graph, k)
        split, low, high = self.split, self.low, self.high
        # Process n-1's move to ``s``: ``rotated_low[s][low_code] +
        # rotated_high[s][high_code]``.
        rotated_low, rotated_high = (
            [_digit_sums([[(v - s) % k * weights[i] for v in range(k)] for i in digits]) for s in range(k)]
            for digits in (range(half), range(half, top))
        )

        def outcomes(i: int, low_code: int, high_code: int) -> tuple[tuple[int, int], ...]:
            """The ``(code delta, new color)`` of each move of process ``i``
            at the colors of a palette code; none when it is not enabled."""
            colors = low[low_code] + high[high_code]
            return tuple(((c - colors[i]) * weights[i], c) for c in moves_of(i, colors))

        def view_codes(i: int) -> tuple[list[int], list[int]]:
            """Process ``i``'s view as a base-k code, digit ``j`` the color of
            ``(i, *preds[i])[j]``: ``low_view[low_code] + high_view[high_code]``.
            Process n-1 holds color 0 and adds nothing."""
            place = {p: k**j for j, p in enumerate((i, *graph.preds[i]))}
            return tuple(
                _digit_sums([[v * place.get(d, 0) for v in range(k)] for d in digits]).tolist()
                for digits in (range(half), range(half, top))
            )

        # The outcome tables, one per process with predecessors, keyed by
        # view code.
        movers = [(i, 1 << i, *view_codes(i), {}) for i in range(n) if graph.preds[i]]

        subsets = policy_class is PolicyClass.ALL_DISTRIBUTED_SUBSETS
        # Under ``subsets``, the edges of a set of enabled processes: every
        # nonempty subset, in ``combinations`` order by size, as an index
        # bitmask over the row's one-process edges and as a mask of processes.
        edges_of: dict[int, tuple[list[int], list[int]]] = {}

        def by_size(bits) -> list[int]:
            return [sum(choice) for r in range(1, len(bits) + 1) for choice in combinations(bits, r)]

        def row(code: int) -> tuple[list[int], list[int], list[int]]:
            high_code, low_code = divmod(code, split)
            targets: list[int] = []
            masks: list[int] = []
            for i, bit, low_view, high_view, table in movers:
                key = low_view[low_code] + high_view[high_code]
                moves = table.get(key)
                if moves is None:
                    moves = table[key] = outcomes(i, low_code, high_code)
                for delta, c in moves:
                    masks.append(bit)
                    if i != top:
                        targets.append(code + delta)
                    else:
                        s = c
                        targets.append(rotated_low[s][low_code] + rotated_high[s][high_code])
            if subsets and len(masks) > 1:
                enabled = sum(masks)
                edges = edges_of.get(enabled)
                if edges is None:
                    edges = edges_of[enabled] = (by_size([1 << j for j in range(len(masks))]), by_size(masks))
                # Targets per index bitmask, each set's one move more than the
                # set without its highest index.  Process n-1, if it moves, is
                # last; the sets holding it land on the sums of the others,
                # rotated by -s.
                sums = [code]
                for target in targets[:-1] if enabled & top_bit else targets:
                    delta = target - code
                    sums += [x + delta for x in sums]
                if enabled & top_bit:
                    rotated_l, rotated_h = rotated_low[s], rotated_high[s]
                    sums += [rotated_l[x % split] + rotated_h[x // split] for x in sums]
                order, masks = edges
                targets = [*map(sums.__getitem__, order)]
            return targets, masks, targets if orbit is None else [*map(orbit.__getitem__, targets)]

        return row

    def colors(self, code: int) -> tuple[int, ...]:
        """The colors of palette code ``code``."""
        high_code, low_code = divmod(code, self.split)
        return self.low[low_code] + self.high[high_code]

    def report(self, worst_moves, divergence, worst_witness=None) -> VerificationReport:
        """The report; each terminal palette code stands for ``k``
        configurations."""
        terminal = self.k * self.terminal
        return VerificationReport(
            graph=self.graph.summary(),
            algorithm=self.algorithm,
            policy_class=self.policy_class.value,
            configurations_checked=self.total,
            all_converge=divergence is None,
            worst_case_moves=worst_moves,
            witness_divergence=divergence,
            worst_case_witness=worst_witness,
            terminal_count=terminal,
            legitimate_count=terminal,
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
    cap: int = DEFAULT_CAP,
) -> VerificationReport:
    """Enumerate every execution of the deterministic rule.

    Convergence holds iff the transition graph over all k^n configurations
    is acyclic (and, when ``max_depth`` is given, no path has more moves).
    On the acyclic side the exact worst-case move count is the longest move
    path, with a schedule witnessing it; on a cycle the report
    short-circuits to a divergence witness whose replay revisits a
    configuration.  The search stores one value per orbit, its longest move
    count, and expands no terminal code: those start done at value 0.  The
    worst-case schedule is re-read from it, one edge per code, so it is the
    path whose every edge is the first to reach its code's value.  When that
    path has more than ``max_depth`` moves, the divergence witness starts
    where it starts and follows its longest prefix of at most ``max_depth``
    moves.

    A palette of at most ``max_in_degree`` is refused with a
    :class:`UsageError` before any state is built (:func:`_check_arguments`):
    the rule then has no move for some enabled process.
    """
    _check_arguments(graph, AlgorithmKind.DETERMINISTIC, k, max_depth, cap)
    space = _Space(graph, AlgorithmKind.DETERMINISTIC, k, policy_class)
    row, n = space.row, graph.n

    # DFS over palette codes with cycle detection; on the acyclic side,
    # longest-path memo per orbit.  A frame is a code, its representative,
    # its row and its next edge, so the edge it explores is that pointer
    # minus one.  ``marks`` is 1 once a code is pushed and 2 at the
    # representative once its orbit is done; every terminal code starts at
    # 2, its value 0, and is never pushed.  The done mark is read first,
    # so a finished code that keeps its 1 is skipped, and a code met again
    # with only its 1 is on the stack: a cycle.  No orbit is done while one
    # of its codes is on the stack, since that code would reach itself
    # through the done one.
    marks = space.marks
    longest = array("q", [0]) * space.codes

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
                    return space.report(None, _cycle_witness(graph, k, space.colors(root), schedule, start))
                marks[succ] = 1
                stack.append([succ, reps[edge], *row(succ), 0])
            else:
                best = 0
                for target, mask in zip(reps, masks):
                    m = mask.bit_count() + longest[target]
                    if m > best:
                        best = m
                longest[rep] = best
                marks[rep] = 2
                stack.pop()

    # Values sit at the representatives, each the smallest code of its
    # orbit, so the first maximum is the first over all codes.  The
    # schedule takes at each code the first edge whose moves plus its
    # target's value are the code's own value.
    worst = max(longest)
    code = longest.index(worst)
    initial = space.colors(code)
    schedule = []
    value = worst
    while value:
        targets, masks, reps = row(code)
        for target, mask, rep in zip(targets, masks, reps):
            if mask.bit_count() + longest[rep] == value:
                break
        schedule.append(_processes(mask, n))
        code, value = target, longest[rep]
    worst_witness = WorstCaseWitness(initial=initial, schedule=tuple(schedule), moves=worst)

    witness = None
    if max_depth is not None and worst > max_depth:
        # The longest prefix of at most ``max_depth`` moves.
        cut = sum(moved <= max_depth for moved in accumulate(map(len, schedule)))
        witness = DivergenceWitness(
            initial=initial,
            schedule=tuple(schedule[:cut]),
            note=f"path of {worst} moves exceeds max_depth {max_depth}",
        )
    return space.report(worst, witness, worst_witness)


def verify_probabilistic_support(
    graph: DirectedGraph,
    k: int,
    max_depth: int | None = None,
    cap: int = DEFAULT_CAP,
) -> VerificationReport:
    """Structural probability-1 convergence check for the random rule.

    Certifies that every configuration has some path (choosing both the
    activated process and the random color) to a terminal configuration;
    the terminal configurations are exactly the legitimate ones.
    ``worst_case_moves`` here is the worst-case shortest escape: the
    largest, over configurations, of the fewest moves that can reach a
    terminal configuration.  Distances are the same for every member of an
    orbit, so the search runs over the representatives' rows, in layers;
    a terminal representative, at distance 0, gets no row.
    With ``k > max_degree`` an enabled process can take a color no
    neighbour holds, leaving one process fewer enabled, so every escape is
    at most n moves and the sweep takes at most n rounds after layer 0.  A
    round that resolves nothing would contradict that, so it raises
    ``RuntimeError``: a bug, not a verdict.  ``max_depth`` fails the check
    when the worst shortest escape has more moves.
    """
    _check_arguments(graph, AlgorithmKind.PROBABILISTIC, k, max_depth, cap)
    space = _Space(graph, AlgorithmKind.PROBABILISTIC, k, PolicyClass.ALL_LOCALLY_CENTRAL_SINGLE)

    # Escape distances one layer at a time over the non-terminal
    # representatives' rows, their targets mapped to representatives:
    # layer 0 is the terminal codes, and an unresolved orbit joins layer
    # d + 1 once one of its targets is in layer d.  Every orbit resolves
    # within n rounds, so a round that resolves nothing is a bug.
    dist = array("q", [0]) * space.codes
    pending = []
    for rep in space.reps:
        if not space.marks[rep]:
            dist[rep] = -1
            pending.append((rep, space.row(rep)[2]))
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
            raise RuntimeError(f"escape sweep resolved no orbit at distance {escape + 1}, {len(left)} left")
        pending = left
        escape += 1

    witness = None
    if max_depth is not None and escape > max_depth:
        witness = DivergenceWitness(
            initial=space.colors(dist.index(escape)),
            schedule=(),
            note=f"shortest escape of {escape} moves exceeds max_depth {max_depth}",
        )
    return space.report(escape, witness)


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
