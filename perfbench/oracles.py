"""Output checks computed apart from the program.

Nothing here imports ``unicolor``: adjacency is rebuilt from the arc list,
the recoloring rules are re-derived from their definitions, and the counts
the paper states are evaluated from closed forms.  Each check returns a list
of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import hashlib
import math
import statistics
from fractions import Fraction


class Topology:
    """Predecessor and neighbour sets rebuilt from ``(i, j)`` arcs."""

    def __init__(self, n: int, arcs) -> None:
        self.n = n
        self.arcs = tuple(arcs)
        self.preds: list[list[int]] = [[] for _ in range(n)]
        self.nbrs: list[set[int]] = [set() for _ in range(n)]
        for i, j in self.arcs:
            self.preds[j].append(i)
            self.nbrs[i].add(j)
            self.nbrs[j].add(i)
        self.max_degree = max(len(s) for s in self.nbrs)

    def improper_arcs(self, colors) -> list[tuple[int, int]]:
        return [(i, j) for i, j in self.arcs if colors[i] == colors[j]]

    def enabled(self, colors, i: int) -> bool:
        return any(colors[p] == colors[i] for p in self.preds[i])


def proper_coloring(topo: Topology, colors, k: int) -> list[str]:
    if len(colors) != topo.n or any(not 0 <= c < k for c in colors):
        return [f"final configuration {list(colors)[:12]}... is not a {topo.n}-vector over 0..{k - 1}"]
    bad = topo.improper_arcs(colors)
    return [f"final configuration is not a proper coloring: arcs {bad[:3]} join equal colors"] if bad else []


def replay(topo: Topology, k: int, rule: str, policy: str, initial, steps, after_step=None):
    """Re-apply recorded steps to the pre-step configuration.

    ``steps`` yields ``(activated, moves)`` with moves as ``(process, old,
    new)``.  Checks that every mover was enabled and moved once, that a
    ``det`` move took the first color in cyclic order that no predecessor
    holds, that a ``prob`` move took a color no predecessor holds, and the
    policy's constraint on the activated set.  ``after_step(t, colors)``
    may add a problem after step ``t`` (1-based).  Returns ``(final,
    moves, problems)``.
    """
    colors = list(initial)
    total = 0
    for t, (activated, moves) in enumerate(steps, start=1):
        activated = tuple(activated)
        where = f"step {t}"
        if not activated or list(activated) != sorted(set(activated)):
            return colors, total, [f"{where}: activated set {activated} is empty or unsorted"]
        if [m[0] for m in moves] != list(activated):
            return colors, total, [f"{where}: moves {moves} do not match activated {activated}"]
        if policy in ("lc1", "script") and len(activated) != 1:
            return colors, total, [f"{where}: {policy} fired {len(activated)} processes"]
        if policy == "lcmax":
            for a in activated:
                clash = topo.nbrs[a].intersection(activated)
                if clash:
                    return colors, total, [f"{where}: lcmax fired neighbours {a} and {min(clash)}"]
        if policy == "sync":
            expected = tuple(i for i in range(topo.n) if topo.enabled(colors, i))
            if activated != expected:
                return colors, total, [f"{where}: sync fired {len(activated)} of {len(expected)} enabled"]
        updates = []
        for i, old, new in moves:
            taken = {colors[p] for p in topo.preds[i]}
            if old != colors[i] or old not in taken:
                return colors, total, [f"{where}: process {i} moved while not enabled"]
            if rule == "det":
                want = next((c % k for c in range(old + 1, old + k) if c % k not in taken), None)
                if new != want:
                    return colors, total, [f"{where}: det move of {i} took {new}, first free is {want}"]
            elif not 0 <= new < k or new in taken:
                return colors, total, [f"{where}: prob move of {i} took {new}, held by a predecessor"]
            updates.append((i, new))
        for i, new in updates:
            colors[i] = new
        total += len(moves)
        if after_step is not None:
            problem = after_step(t, colors)
            if problem:
                return colors, total, [f"{where}: {problem}"]
    return colors, total, []


def check_trace(topo: Topology, k: int, rule: str, policy: str, trace: dict,
                expect_terminated: bool | None = True, after_step=None) -> list[str]:
    """Check one execution.

    ``trace`` holds ``initial``, ``final``, ``terminated``, ``total_steps``,
    ``total_moves`` and ``steps`` as ``(activated, moves)`` pairs.
    """
    final, moves, problems = replay(topo, k, rule, policy, trace["initial"], trace["steps"], after_step)
    if problems:
        return problems
    if list(trace["final"]) != final:
        return ["recorded final configuration differs from the replayed one"]
    if trace["total_moves"] != moves or trace["total_steps"] != len(trace["steps"]):
        return [f"counters say {trace['total_steps']} steps/{trace['total_moves']} moves, "
                f"replay found {len(trace['steps'])}/{moves}"]
    if expect_terminated is not None and trace["terminated"] != expect_terminated:
        return [f"terminated={trace['terminated']}, expected {expect_terminated}"]
    if trace["terminated"]:
        return proper_coloring(topo, final, k)
    return []


def ring_proper_colorings(n: int, k: int) -> int:
    """Chromatic polynomial of the n-cycle."""
    return (k - 1) ** n + (-1) ** n * (k - 1)


def chain_proper_colorings(n: int, k: int) -> int:
    return k * (k - 1) ** (n - 1)


def worst_case_moves(n: int) -> int:
    """n(n-1)/2: the moves of the scripted chain schedule, and the worst
    case of ``det`` with k = n under ``lc1`` on ring:n and chain:n."""
    return n * (n - 1) // 2


def move_bound(n: int, max_degree: int, k: int) -> Fraction:
    """Expected-move bound n(k-1)/(k-Delta) of the probabilistic rule."""
    return Fraction(n * (k - 1), k - max_degree)


def trial_seed(seed_base: int, trial: int, stream: str) -> int:
    """The documented per-trial stream split: blake2b-64 of "<seed_base+t>:<stream>"."""
    tag = f"{seed_base + trial}:{stream}".encode()
    return int.from_bytes(hashlib.blake2b(tag, digest_size=8).digest(), "big")


def mean_within_bound(moves, bound: Fraction) -> list[str]:
    """One-sided: mean <= bound + 3 standard errors."""
    mean = statistics.fmean(moves)
    stderr = statistics.stdev(moves) / math.sqrt(len(moves))
    if Fraction(mean) > bound + 3 * Fraction(stderr):
        return [f"mean {mean:.3f} moves exceeds bound {float(bound):.3f} + 3 * {stderr:.3f}"]
    return []
