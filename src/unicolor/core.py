"""Directed-graph topologies, colored configurations, and the base predicates.

An arc ``(i, j)`` means process ``j`` can read process ``i``'s variables:
``i`` is a predecessor of ``j`` and ``j`` a successor of ``i``.  A
bidirectional link is modeled as two opposed arcs.  Everything downstream
(recoloring rules, schedulers, the execution engine, the verifier) is built
on the two predicates defined here: per-process enabledness and
configuration legitimacy (no arc joins two processes of equal color).  Both
are read off one scan of the arcs for equal colors,
:func:`conflicting_heads`.
"""

from __future__ import annotations

import random
from array import array
from bisect import bisect_left, insort
from dataclasses import dataclass
from functools import cached_property
from itertools import compress, repeat
from operator import eq, itemgetter


class UsageError(ValueError):
    """An argument no run, batch, verification or scenario can take, such as
    a palette below 2 or a negative step cap: the caller's error, which the
    CLI reports with exit code 2.  Any other ``ValueError`` the package
    raises marks a bug, in the package or in the code that calls it."""


class GraphConstructionError(UsageError):
    """Self-loop, out-of-range endpoint, or duplicate arc in a graph spec."""


@dataclass(frozen=True)
class DirectedGraph:
    """Immutable directed graph with precomputed adjacency.

    ``preds[i]``/``succs[i]`` are sorted tuples of the processes ``i`` reads
    from / is read by; ``neighbors[i]`` is their union.  ``degrees[i]`` is
    the size of that union, so a bidirectional pair of arcs counts as one
    neighbor.  Build instances through :func:`build_graph` or a generator,
    never directly.
    """

    n: int
    arcs: tuple[tuple[int, int], ...]
    preds: tuple[tuple[int, ...], ...]
    succs: tuple[tuple[int, ...], ...]
    neighbors: tuple[tuple[int, ...], ...]
    in_degrees: tuple[int, ...]
    out_degrees: tuple[int, ...]
    degrees: tuple[int, ...]
    max_in_degree: int
    max_out_degree: int
    max_degree: int
    label: str = "custom"

    def summary(self) -> dict:
        return {
            "label": self.label,
            "n": self.n,
            "arcs": len(self.arcs),
            "max_in_degree": self.max_in_degree,
            "max_out_degree": self.max_out_degree,
            "max_degree": self.max_degree,
        }

    @cached_property
    def views(self) -> tuple:
        """What each process reads: ``views[i](colors)`` is
        ``(colors[i], *pred colors)`` in ``preds[i]`` order.  A process
        without predecessors is never enabled, so its entry is ``None``.

        Built on first use and kept on the instance, outside the dataclass
        fields, so equality, hashing and ``repr`` ignore it.  ``itemgetter``
        objects pickle, so a graph that has run still ships to pool workers.
        """
        return tuple(itemgetter(i, *p) if p else None for i, p in enumerate(self.preds))

    @cached_property
    def ends(self) -> tuple:
        """The arc columns ``(tails, heads)``: arc ``a`` is ``(tails[a],
        heads[a])``.  Kept on the instance like :attr:`views`, for
        :func:`conflicting_heads`."""
        return tuple(zip(*self.arcs)) or ((), ())


def build_graph(n: int, arcs, label: str = "custom") -> DirectedGraph:
    """Validate an arc list and precompute all adjacency structure.

    Raises :class:`GraphConstructionError` naming the offending arc on a
    self-loop, an endpoint outside ``0..n-1``, or a duplicate arc.
    Duplicates are rejected rather than silently merged.
    """
    if n < 1:
        raise GraphConstructionError(f"need at least one process, got n={n}")
    seen: set[tuple[int, int]] = set()
    pred_sets: list[set[int]] = [set() for _ in range(n)]
    succ_sets: list[set[int]] = [set() for _ in range(n)]
    for arc in arcs:
        i, j = arc
        if i == j:
            raise GraphConstructionError(f"self-loop arc ({i}, {j})")
        if not (0 <= i < n and 0 <= j < n):
            raise GraphConstructionError(f"arc ({i}, {j}) endpoint out of range for n={n}")
        if (i, j) in seen:
            raise GraphConstructionError(f"duplicate arc ({i}, {j})")
        seen.add((i, j))
        succ_sets[i].add(j)
        pred_sets[j].add(i)

    preds = tuple(tuple(sorted(s)) for s in pred_sets)
    succs = tuple(tuple(sorted(s)) for s in succ_sets)
    neighbors = tuple(tuple(sorted(pred_sets[i] | succ_sets[i])) for i in range(n))
    in_degrees = tuple(len(p) for p in preds)
    out_degrees = tuple(len(s) for s in succs)
    degrees = tuple(len(nb) for nb in neighbors)
    return DirectedGraph(
        n=n,
        arcs=tuple(sorted(seen)),
        preds=preds,
        succs=succs,
        neighbors=neighbors,
        in_degrees=in_degrees,
        out_degrees=out_degrees,
        degrees=degrees,
        max_in_degree=max(in_degrees),
        max_out_degree=max(out_degrees),
        max_degree=max(degrees),
        label=label,
    )


def ring(n: int) -> DirectedGraph:
    """Unidirectional ring: arcs (i, i+1 mod n), so i's predecessor is i-1."""
    if n < 2:
        raise GraphConstructionError(f"ring needs n >= 2, got {n}")
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)], label=f"ring:{n}")


def chain(n: int) -> DirectedGraph:
    """Unidirectional chain oriented source -> sink.

    Process 0 is the sink and process n-1 the source: arcs are (i, i-1),
    so process i reads process i+1 and the source has no predecessor.
    """
    if n < 2:
        raise GraphConstructionError(f"chain needs n >= 2, got {n}")
    return build_graph(n, [(i, i - 1) for i in range(1, n)], label=f"chain:{n}")


def bidirectional_clique(n: int) -> DirectedGraph:
    """Complete graph with both arcs between every pair; max_degree = n-1."""
    if n < 2:
        raise GraphConstructionError(f"clique needs n >= 2, got {n}")
    arcs = [(i, j) for i in range(n) for j in range(n) if i != j]
    return build_graph(n, arcs, label=f"clique:{n}")


def _shuffle(x, getrandbits) -> None:
    """``random.Random.shuffle(x)`` with its ``_randbelow`` inlined: the same
    draws from ``getrandbits`` in the same order, so the same permutation
    and the same generator state afterwards.

    Position ``i`` swaps with ``r = getrandbits((i + 1).bit_length())``,
    drawn again while ``r > i``.  The bit length changes only at powers of
    two, so each run of equal bit lengths gets its own loop.
    """
    i = len(x) - 1
    while i >= 1:
        bits = (i + 1).bit_length()
        low = max(1, (1 << (bits - 1)) - 1)
        for i in range(i, low - 1, -1):
            r = getrandbits(bits)
            while r > i:
                r = getrandbits(bits)
            x[i], x[r] = x[r], x[i]
        i = low - 1


def _randbelow(getrandbits, n: int) -> int:
    """A uniform integer in ``0..n-1``, for ``n >= 1``, drawn exactly as
    CPython's ``random.Random._randbelow_with_getrandbits`` draws it: one
    ``getrandbits(n.bit_length())``, again while it is ``n`` or more.

    So ``seq[_randbelow(rng.getrandbits, len(seq))]`` is ``rng.choice(seq)``
    and ``1 + _randbelow(rng.getrandbits, n - 1)`` is ``rng.randrange(1, n)``:
    the same values and the same generator state afterwards, without the
    three Python frames of ``random.py``.
    """
    bits = n.bit_length()
    r = getrandbits(bits)
    while r >= n:
        r = getrandbits(bits)
    return r


def random_digraph(n: int, max_degree: int, seed: int) -> DirectedGraph:
    """Random digraph saturated under a combined-degree cap.

    The n(n-1) candidate arcs are tried in a seeded random order.  An arc
    joining two processes that are not yet neighbours forms a neighbour
    pair whenever neither process has ``max_degree`` neighbours already,
    and every pair that forms keeps both of its arcs.  So ``random:``
    graphs are symmetric: no arc is one-way, and random instances test
    only the bidirectional case of the unidirectional model.  On a
    saturated graph the cap is reached exactly (some process has
    ``max_degree`` neighbors) whenever ``max_degree < n``.

    The build is O(n^2) and nearly all of it is the shuffle of the n(n-1)
    candidates: about 0.5 s for ``random:1000:4:S`` and 2.5 s for
    ``random:2000:4:S`` on a 2-core Xeon under Python 3.11.
    """
    if n < 2 or max_degree < 1:
        raise GraphConstructionError(f"random digraph needs n >= 2, max_degree >= 1, got n={n}, max_degree={max_degree}")
    m = n - 1
    # Candidate t is the arc from t // m to its (t % m)-th other process:
    # ascending (i, j) order without the self-loops.
    candidates = array("q", range(n * m))
    _shuffle(candidates, random.Random(seed).getrandbits)
    # open_[t] is 1 while neither endpoint of arc t has max_degree
    # neighbours and the two are not yet neighbours.  ``compress`` reads it
    # lazily, so each candidate sees the map as the pairs before it left it.
    open_ = bytearray(b"\x01") * (n * m)
    row_zeros = bytes(m)
    degrees = [0] * n
    arcs = []
    unsaturated = n
    for t in compress(candidates, map(open_.__getitem__, candidates)):
        i, r = divmod(t, m)
        j = r + (r >= i)
        open_[t] = open_[j * m + i - (i > j)] = 0
        arcs += (i, j), (j, i)
        for p in i, j:
            degrees[p] += 1
            if degrees[p] == max_degree:
                # Close p's row, then its column: arc (x, p) is at
                # x*m + p - 1 for x < p and at x*m + p for x > p.
                open_[p * m:p * m + m] = row_zeros
                open_[p - 1:p * m:m] = row_zeros[:p]
                open_[p * m + m + p::m] = row_zeros[p:]
                unsaturated -= 1
        if unsaturated <= 1:
            break  # no pair can form any more
    graph = build_graph(n, arcs, label=f"random:{n}:{max_degree}:{seed}")
    if max_degree < n and graph.max_degree != max_degree:
        raise GraphConstructionError(
            f"saturation reached max_degree {graph.max_degree}, wanted {max_degree}"
        )
    return graph


def parse_graph_text(text: str, label: str = "file") -> DirectedGraph:
    """Parse the plain-text graph format.

    First non-comment line is the process count ``n``; each following line
    is one arc ``i j``.  ``#`` starts a comment, blank lines are skipped.
    """
    n: int | None = None
    arcs: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if n is None:
            if len(fields) != 1:
                raise GraphConstructionError(f"line {lineno}: expected process count, got {raw!r}")
            n = int(fields[0])
            continue
        if len(fields) != 2:
            raise GraphConstructionError(f"line {lineno}: expected 'i j', got {raw!r}")
        arcs.append((int(fields[0]), int(fields[1])))
    if n is None:
        raise GraphConstructionError("empty graph file")
    return build_graph(n, arcs, label=label)


def read_graph_file(path: str) -> DirectedGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph_text(fh.read(), label=f"file:{path}")


@dataclass(frozen=True)
class Configuration:
    """A color per process, drawn from the palette ``0..k-1``."""

    colors: tuple[int, ...]
    k: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"palette size must be >= 1, got k={self.k}")
        object.__setattr__(self, "colors", tuple(self.colors))
        for i, c in enumerate(self.colors):
            if not (0 <= c < self.k):
                raise ValueError(f"color {c} of process {i} outside palette 0..{self.k - 1}")

    @classmethod
    def uniform(cls, n: int, color: int, k: int) -> Configuration:
        return cls(colors=(color,) * n, k=k)

    @classmethod
    def random(cls, n: int, k: int, rng: random.Random) -> Configuration:
        """``n`` colors from ``rng.randrange(k)``, drawn as it draws them:
        ``getrandbits(k.bit_length())`` values, keeping those below ``k``.
        Each pass draws only as many as are still missing, so no draw is
        made past the ``n``-th kept value."""
        return cls(colors=tuple(_random_colors(n, k, rng.getrandbits)), k=k)


def _random_colors(n: int, k: int, getrandbits) -> list[int]:
    """The colors of :meth:`Configuration.random`, drawn from
    ``getrandbits``, as a list."""
    if k < 1:  # nothing is below k: the loop would never end
        raise ValueError(f"palette size must be >= 1, got k={k}")
    bits = k.bit_length()
    colors: list[int] = []
    while len(colors) < n:
        colors += filter(k.__gt__, map(getrandbits, repeat(bits, n - len(colors))))
    return colors


def _check_length(graph: DirectedGraph, colors) -> None:
    if len(colors) != graph.n:
        raise ValueError(f"configuration has {len(colors)} colors for a {graph.n}-process graph")


def conflicting_heads(graph: DirectedGraph, colors):
    """The head of each arc whose two ends hold equal colors, in arc order,
    as a lazy iterator: each is one conflict the paper's proof counts, and
    there is none iff ``colors`` is legitimate."""
    tails, heads = graph.ends
    color_of = colors.__getitem__
    return compress(heads, map(eq, map(color_of, tails), map(color_of, heads)))


class EnabledTracker:
    """The enabled set of a color list that changes a few processes at a time.

    ``conflicts[j]`` counts the predecessors of ``j`` that hold ``j``'s
    color, the conflicts the paper's proof counts, so ``j`` is enabled iff
    it is nonzero.  ``members`` holds the enabled processes in ascending
    order.  ``colors`` is shared with the caller, and :meth:`apply` writes
    each step's new colors into it.  A move by ``i`` changes only the
    counts of ``i`` and of its successors: ``i`` is recounted over its
    predecessors, O(in-degree), and each successor that did not move
    gains or loses one conflict in O(1).  A count that turns zero or
    nonzero costs a bisected list update.
    """

    __slots__ = ("preds", "succs", "colors", "conflicts", "members")

    def __init__(self, graph: DirectedGraph, colors: list[int]):
        _check_length(graph, colors)
        self.preds = graph.preds
        self.succs = graph.succs
        self.colors = colors
        conflicts = [0] * graph.n
        for j in conflicting_heads(graph, colors):
            conflicts[j] += 1
        self.conflicts = conflicts
        self.members = [*compress(range(graph.n), conflicts)]

    def apply(self, movers, new_colors) -> None:
        """Give the distinct processes ``movers`` the colors ``new_colors``,
        all at once, and update the counts and ``members``.

        Any recoloring is followed, not only a legal move: a mover may keep
        its color, and a disabled process may move.
        """
        preds, succs, colors, conflicts, members = self.preds, self.succs, self.colors, self.conflicts, self.members
        if len(movers) == 1:
            # One mover, as under ``lc1`` and most scripts.  No process is
            # its own successor, so all its successors stood still.
            i = movers[0]
            new = new_colors[0]
            old = colors[i]
            colors[i] = new
            count = 0
            for p in preds[i]:
                if colors[p] == new:
                    count += 1
            was = conflicts[i]
            conflicts[i] = count
            if count and not was:
                insort(members, i)
            elif was and not count:
                del members[bisect_left(members, i)]
            if old != new:
                for j in succs[i]:
                    cj = colors[j]
                    if cj == old:
                        conflicts[j] -= 1
                        if not conflicts[j]:
                            del members[bisect_left(members, j)]
                    elif cj == new:
                        conflicts[j] += 1
                        if conflicts[j] == 1:
                            insort(members, j)
            return
        # Every color is written before any count is taken, since a mover
        # may read another.  A successor that moved is recounted in full,
        # so only the standing ones gain or lose one.
        old_colors = [*map(colors.__getitem__, movers)]
        for i, new in zip(movers, new_colors):
            colors[i] = new
        moving = set(movers)
        for i, old, new in zip(movers, old_colors, new_colors):
            count = 0
            for p in preds[i]:
                if colors[p] == new:
                    count += 1
            was = conflicts[i]
            conflicts[i] = count
            if count and not was:
                insort(members, i)
            elif was and not count:
                del members[bisect_left(members, i)]
            if old == new:
                continue
            for j in succs[i]:
                if j in moving:
                    continue
                cj = colors[j]
                if cj == old:
                    conflicts[j] -= 1
                    if not conflicts[j]:
                        del members[bisect_left(members, j)]
                elif cj == new:
                    conflicts[j] += 1
                    if conflicts[j] == 1:
                        insort(members, j)


def is_legitimate(graph: DirectedGraph, config: Configuration) -> bool:
    """True iff every arc joins two distinct colors (read off the arcs, not the guard)."""
    _check_length(graph, config.colors)
    return next(conflicting_heads(graph, config.colors), None) is None
