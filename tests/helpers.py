"""Independent oracles and instance generators shared by the test suite.

The oracles work straight off arc lists and color tuples, never through
the package's precomputed adjacency, so they stay independent of the code
paths they check.
"""

from __future__ import annotations

import random

from unicolor import (
    Configuration,
    DirectedGraph,
    EngineStepError,
    ExecutionTrace,
    StepRecord,
    build_graph,
    command,
    enabled_set,
    select,
)
from unicolor.engine import default_max_steps


def oracle_enabled(arcs, colors, i) -> bool:
    return any(colors[p] == colors[i] for (p, q) in arcs if q == i)


def oracle_enabled_set(arcs, colors) -> set[int]:
    return {i for i in range(len(colors)) if oracle_enabled(arcs, colors, i)}


def oracle_legitimate(arcs, colors) -> bool:
    return all(colors[i] != colors[j] for (i, j) in arcs)


def oracle_conflict_pairs(arcs, colors) -> set[tuple[int, int]]:
    return {(j, i) for (i, j) in arcs if colors[i] == colors[j]}


def oracle_det_do_loop(colors_of_preds, old: int, k: int, fuel: int = 10_000) -> int:
    """Literal increment loop run to quiescence; fuel bounds runaway loops."""
    c = old
    while c in colors_of_preds:
        c = (c + 1) % k
        fuel -= 1
        if fuel == 0:
            raise RuntimeError("do-loop did not quiesce")
    return c


def random_arcs(rng: random.Random, n: int) -> list[tuple[int, int]]:
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    rng.shuffle(pairs)
    count = rng.randrange(1, len(pairs) + 1)
    return pairs[:count]


def random_instance(rng: random.Random, max_n: int = 8, max_k: int = 5):
    """A random (graph, configuration) pair for property sweeps."""
    n = rng.randrange(2, max_n + 1)
    arcs = random_arcs(rng, n)
    graph = build_graph(n, arcs)
    k = rng.randrange(2, max_k + 1)
    config = Configuration(colors=tuple(rng.randrange(k) for _ in range(n)), k=k)
    return graph, config


def apply_moves(config: Configuration, moves) -> Configuration:
    return config.replace({m.process: m.new_color for m in moves})


def graph_arc_list(graph: DirectedGraph) -> list[tuple[int, int]]:
    return list(graph.arcs)


def reference_random_digraph_arcs(n: int, max_degree: int, seed: int) -> list[tuple[int, int]]:
    """The saturation loop of ``random_digraph`` over a shuffled list of all
    n(n-1) candidate pairs, sorted like ``DirectedGraph.arcs``."""
    rng = random.Random(seed)
    candidates = [(i, j) for i in range(n) for j in range(n) if i != j]
    rng.shuffle(candidates)
    neighbor_sets: list[set[int]] = [set() for _ in range(n)]
    arcs = []
    for i, j in candidates:
        grows_i = j not in neighbor_sets[i]
        grows_j = i not in neighbor_sets[j]
        if grows_i and len(neighbor_sets[i]) >= max_degree:
            continue
        if grows_j and len(neighbor_sets[j]) >= max_degree:
            continue
        neighbor_sets[i].add(j)
        neighbor_sets[j].add(i)
        arcs.append((i, j))
    return sorted(arcs)


def reference_run(graph, algo, policy, initial, max_steps=None, seed=0, record="moves") -> ExecutionTrace:
    """``engine.run`` as a full rescan per step: ``enabled_set``, then
    ``select`` (which scans again), then ``command`` against a frozen
    ``Configuration`` and ``Configuration.replace``.  Argument checks are
    left to the caller; the differential tests run both on valid input."""
    if max_steps is None:
        max_steps = default_max_steps(graph, algo)
    rng = random.Random(seed)
    config = initial
    steps = []
    total_moves = 0
    total_steps = 0
    terminated = False
    while True:
        if not enabled_set(graph, config):
            terminated = True
            break
        if total_steps >= max_steps:
            break
        try:
            chosen = select(policy, graph, config, rng, total_steps)
            if chosen is None:
                break
            moves = tuple(command(graph, config, i, algo, rng) for i in chosen)
        except Exception as exc:
            raise EngineStepError(total_steps, exc) from exc
        config = config.replace({m.process: m.new_color for m in moves})
        total_moves += len(moves)
        total_steps += 1
        if record != "none":
            config_after = config.colors if record == "full" else None
            steps.append(StepRecord(activated=chosen, moves=moves, config_after=config_after))
    return ExecutionTrace(
        graph=graph.summary(),
        algorithm=algo.summary(),
        scheduler=policy.name,
        seed=seed,
        max_steps=max_steps,
        initial=initial.colors,
        steps=tuple(steps),
        final=config.colors,
        terminated=terminated,
        total_steps=total_steps,
        total_moves=total_moves,
    )
