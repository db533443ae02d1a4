"""Independent oracles and instance generators shared by the test suite.

The oracles work straight off arc lists and color tuples, never through
the package's precomputed adjacency, so they stay independent of the code
paths they check.
"""

from __future__ import annotations

import random
from collections import deque
from itertools import combinations

from unicolor import (
    AlgorithmKind,
    AlgorithmSpec,
    AmbiguousChaseError,
    Configuration,
    DirectedGraph,
    DivergenceWitness,
    EnabledTracker,
    EngineStepError,
    EnumerationCapError,
    ExecutionTrace,
    Move,
    NonTerminatingCommandError,
    PolicyClass,
    Script,
    ScriptViolationError,
    StepRecord,
    VerificationReport,
    WorstCaseWitness,
    build_graph,
    enabled_set,
    is_legitimate,
    recolor,
    ring,
    ring_chase_initial,
    select_from,
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


def with_colors(colors: tuple[int, ...], assignments) -> tuple[int, ...]:
    """``colors`` with each ``(process, color)`` of ``assignments`` applied."""
    updated = list(colors)
    for i, c in assignments:
        updated[i] = c
    return tuple(updated)


def apply_moves(config: Configuration, moves) -> Configuration:
    new = with_colors(config.colors, ((m.process, m.new_color) for m in moves))
    return Configuration(colors=new, k=config.k)


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
    ``select_from`` on it, then ``recolor`` against a frozen
    ``Configuration`` and a fresh one built from the moves.  Argument
    checks are left to the caller; the differential tests run both on
    valid input."""
    if max_steps is None:
        max_steps = default_max_steps(graph, algo)
    rng = random.Random(seed)
    config = initial
    steps = []
    total_moves = 0
    total_steps = 0
    terminated = False
    while True:
        enabled_now = enabled_set(graph, config)
        if not enabled_now:
            terminated = True
            break
        if total_steps >= max_steps:
            break
        try:
            chosen = select_from(policy, graph, enabled_now, rng, total_steps)
            if chosen is None:
                break
            colors = config.colors
            moves = tuple(
                Move(i, colors[i], recolor(algo.kind, i, graph.preds[i], colors, algo.k, rng)) for i in chosen
            )
        except (NonTerminatingCommandError, ScriptViolationError) as exc:
            raise EngineStepError(total_steps, exc) from exc
        config = apply_moves(config, moves)
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


def reference_ring_chase_schedule(
    n: int,
    max_steps: int,
    k: int | None = None,
    initial: Configuration | None = None,
) -> Script:
    """The activation sets of ``repro.ring_chase`` as its own loop over
    an ``EnabledTracker``: each step raises ``AmbiguousChaseError`` unless
    exactly one process is enabled, then recolors that one process."""
    graph = ring(n)
    config = ring_chase_initial(n, k) if initial is None else initial
    colors = list(config.colors)
    tracker = EnabledTracker(graph, colors)
    steps: list[tuple[int, ...]] = []
    for _ in range(max_steps):
        enabled_now = tracker.members
        if not enabled_now:
            break
        if len(enabled_now) > 1:
            raise AmbiguousChaseError(
                f"expected one enabled process, found {tuple(enabled_now)} after {len(steps)} steps"
            )
        i = enabled_now[0]
        colors[i] = recolor(AlgorithmKind.DETERMINISTIC, i, graph.preds[i], colors, config.k, None)
        tracker.refresh((i,))
        steps.append((i,))
    return Script(steps=tuple(steps))


def reference_trace_dict(trace: ExecutionTrace) -> dict:
    """The trace as the dict whose ``json.dumps(..., sort_keys=True,
    indent=2) + "\\n"`` is the ``run --out`` artifact (the former
    ``ExecutionTrace.to_dict``); the reference for ``to_json``."""
    return {
        "graph": trace.graph,
        "algorithm": trace.algorithm,
        "scheduler": trace.scheduler,
        "seed": trace.seed,
        "max_steps": trace.max_steps,
        "initial": list(trace.initial),
        "final": list(trace.final),
        "terminated": trace.terminated,
        "total_steps": trace.total_steps,
        "total_moves": trace.total_moves,
        "steps": [
            {
                "activated": list(rec.activated),
                "moves": [[m.process, m.old_color, m.new_color] for m in rec.moves],
                **(
                    {"config": list(rec.config_after)}
                    if rec.config_after is not None
                    else {}
                ),
            }
            for rec in trace.steps
        ],
    }


# The exhaustive verifier as it was before the shared code-space builder:
# each check enumerates the k^n configurations itself, through
# ``Configuration``, ``enabled_set``, ``is_legitimate`` and ``recolor``.
# Kept as the reference for the differential tests.

_WHITE, _GRAY, _BLACK = 0, 1, 2


def _encode(colors: tuple[int, ...], k: int) -> int:
    code = 0
    for c in reversed(colors):
        code = code * k + c
    return code


def _decode(code: int, n: int, k: int) -> tuple[int, ...]:
    colors = []
    for _ in range(n):
        colors.append(code % k)
        code //= k
    return tuple(colors)


def _state_space_size(graph: DirectedGraph, k: int, cap: int) -> int:
    total = k ** graph.n
    if total > cap:
        raise EnumerationCapError(required=total, allowed=cap)
    return total


def _subset_choices(enabled_now: tuple[int, ...], policy_class: PolicyClass):
    if policy_class is PolicyClass.ALL_LOCALLY_CENTRAL_SINGLE:
        return [(i,) for i in enabled_now]
    return [
        subset
        for size in range(1, len(enabled_now) + 1)
        for subset in combinations(enabled_now, size)
    ]


def reference_verify_deterministic(
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
    total = _state_space_size(graph, k, cap)
    n = graph.n

    # Precompute per-configuration outgoing edges (choice, successor code).
    adj: list[list[tuple[tuple[int, ...], int]]] = []
    terminal_count = 0
    legitimate_count = 0
    mismatch = False
    for code in range(total):
        config = Configuration(colors=_decode(code, n, k), k=k)
        enabled_now = enabled_set(graph, config)
        legit = is_legitimate(graph, config)
        if legit:
            legitimate_count += 1
        if not enabled_now:
            terminal_count += 1
            if not legit:
                mismatch = True
            adj.append([])
            continue
        if legit:
            mismatch = True
        edges = []
        colors = config.colors
        for choice in _subset_choices(enabled_now, policy_class):
            moves = [(i, recolor(AlgorithmKind.DETERMINISTIC, i, graph.preds[i], colors, k, None)) for i in choice]
            edges.append((choice, _encode(with_colors(colors, moves), k)))
        adj.append(edges)

    def report(all_converge, worst_moves, div, worst_wit):
        return VerificationReport(
            graph=graph.summary(),
            algorithm=AlgorithmSpec.deterministic(k).summary(),
            policy_class=policy_class.value,
            configurations_checked=total,
            all_converge=all_converge,
            worst_case_moves=worst_moves,
            witness_divergence=div,
            worst_case_witness=worst_wit,
            terminal_count=terminal_count,
            legitimate_count=legitimate_count,
            terminal_equals_legitimate=not mismatch,
        )

    # DFS with cycle detection; on the acyclic side, longest-path memo.
    state = bytearray(total)
    longest_moves = [0] * total
    longest_steps = [0] * total
    best_move_edge: list[tuple[tuple[int, ...], int] | None] = [None] * total
    best_step_edge: list[tuple[tuple[int, ...], int] | None] = [None] * total

    for root in range(total):
        if state[root] != _WHITE:
            continue
        state[root] = _GRAY
        stack: list[list[int]] = [[root, 0]]
        pos = {root: 0}
        incoming: list[tuple[int, ...] | None] = [None]
        while stack:
            frame = stack[-1]
            code = frame[0]
            edges = adj[code]
            if frame[1] < len(edges):
                choice, succ = edges[frame[1]]
                frame[1] += 1
                if state[succ] == _WHITE:
                    state[succ] = _GRAY
                    pos[succ] = len(stack)
                    stack.append([succ, 0])
                    incoming.append(choice)
                elif state[succ] == _GRAY:
                    start = pos[succ]
                    schedule = tuple(
                        incoming[d] for d in range(start + 1, len(stack))
                    ) + (choice,)
                    witness = DivergenceWitness(
                        initial=_decode(succ, n, k),
                        schedule=schedule,
                        note="configuration cycle",
                    )
                    return report(False, None, witness, None)
            else:
                best_m, best_s = 0, 0
                for choice, succ in edges:
                    m = len(choice) + longest_moves[succ]
                    s = 1 + longest_steps[succ]
                    if m > best_m:
                        best_m = m
                        best_move_edge[code] = (choice, succ)
                    if s > best_s:
                        best_s = s
                        best_step_edge[code] = (choice, succ)
                longest_moves[code] = best_m
                longest_steps[code] = best_s
                state[code] = _BLACK
                del pos[code]
                stack.pop()
                incoming.pop()

    def follow(start: int, edge_table) -> tuple[tuple[int, ...], ...]:
        schedule = []
        code = start
        while edge_table[code] is not None:
            choice, succ = edge_table[code]
            schedule.append(choice)
            code = succ
        return tuple(schedule)

    worst = max(longest_moves)
    argmax = longest_moves.index(worst)
    worst_witness = WorstCaseWitness(
        initial=_decode(argmax, n, k),
        schedule=follow(argmax, best_move_edge),
        moves=worst,
    )

    deepest = max(longest_steps)
    if max_depth is not None and deepest > max_depth:
        deep_code = longest_steps.index(deepest)
        witness = DivergenceWitness(
            initial=_decode(deep_code, n, k),
            schedule=follow(deep_code, best_step_edge)[:max_depth],
            note=f"path of {deepest} steps exceeds max_depth {max_depth}",
        )
        return report(False, worst, witness, worst_witness)
    return report(True, worst, None, worst_witness)


def reference_verify_probabilistic_support(
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
    if k <= graph.max_degree:
        raise ValueError(
            f"probabilistic rule needs k > max_degree, got k={k}, max_degree={graph.max_degree}"
        )
    total = _state_space_size(graph, k, cap)
    n = graph.n

    rev: list[list[int]] = [[] for _ in range(total)]
    terminal_codes = []
    terminal_count = 0
    legitimate_count = 0
    mismatch = False
    for code in range(total):
        config = Configuration(colors=_decode(code, n, k), k=k)
        enabled_now = enabled_set(graph, config)
        legit = is_legitimate(graph, config)
        if legit:
            legitimate_count += 1
        if not enabled_now:
            terminal_count += 1
            terminal_codes.append(code)
            if not legit:
                mismatch = True
            continue
        if legit:
            mismatch = True
        colors = config.colors
        for i in enabled_now:
            taken = {colors[p] for p in graph.preds[i]}
            for c in range(k):
                if c in taken:
                    continue
                succ = _encode(colors[:i] + (c,) + colors[i + 1:], k)
                rev[succ].append(code)

    dist = [-1] * total
    queue = deque()
    for code in terminal_codes:
        dist[code] = 0
        queue.append(code)
    while queue:
        code = queue.popleft()
        for prev in rev[code]:
            if dist[prev] < 0:
                dist[prev] = dist[code] + 1
                queue.append(prev)

    stuck = [code for code in range(total) if dist[code] < 0]
    reached = [d for d in dist if d >= 0]
    escape = max(reached) if reached else 0
    depth_ok = max_depth is None or escape <= max_depth
    all_converge = not stuck and not mismatch and depth_ok

    witness = None
    if stuck:
        witness = DivergenceWitness(
            initial=_decode(stuck[0], n, k),
            schedule=(),
            note="no path to a terminal configuration",
        )
    elif mismatch:
        witness = DivergenceWitness(
            initial=(), schedule=(), note="terminal and legitimate sets differ"
        )
    elif not depth_ok:
        far = dist.index(escape)
        witness = DivergenceWitness(
            initial=_decode(far, n, k),
            schedule=(),
            note=f"shortest escape of {escape} moves exceeds max_depth {max_depth}",
        )

    return VerificationReport(
        graph=graph.summary(),
        algorithm=AlgorithmSpec.probabilistic(k).summary(),
        policy_class="lc1",
        configurations_checked=total,
        all_converge=all_converge,
        worst_case_moves=escape,
        witness_divergence=witness,
        worst_case_witness=None,
        terminal_count=terminal_count,
        legitimate_count=legitimate_count,
        terminal_equals_legitimate=not mismatch,
    )
