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
    UsageError,
    VerificationReport,
    WorstCaseWitness,
    build_graph,
    is_legitimate,
    ring,
    ring_chase_initial,
    rule,
)
from unicolor.engine import default_max_steps


def oracle_enabled(arcs, colors, i) -> bool:
    return any(colors[p] == colors[i] for (p, q) in arcs if q == i)


def oracle_enabled_set(arcs, colors) -> set[int]:
    return {i for i in range(len(colors)) if oracle_enabled(arcs, colors, i)}


def tracker_members(graph, config) -> tuple[int, ...]:
    """The enabled processes of ``config``, ascending, from a fresh
    ``EnabledTracker``: a full O(n) scan, for loops that keep no tracker."""
    return tuple(EnabledTracker(graph, list(config.colors)).members)


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


def reference_mask_decode(mask: int, enabled_now) -> tuple[int, ...]:
    """The processes of ``enabled_now`` whose bit is set in ``mask``, bit 0
    for the first, one shift of the whole mask per process."""
    return tuple(i for bit, i in enumerate(enabled_now) if mask >> bit & 1)


def reference_select(policy, arcs, colors, enabled_now, rng: random.Random, step_index: int):
    """A ``selector`` pick with the stdlib's own draws: ``rng.choice``,
    ``rng.randrange(1, 1 << m)`` and ``rng.shuffle``, and a script checked
    against ``oracle_enabled`` and the arc list."""
    kind = policy.kind.value
    if kind == "sync":
        return enabled_now
    if kind == "dist":
        return reference_mask_decode(rng.randrange(1, 1 << len(enabled_now)), enabled_now)
    if kind == "lc1":
        return (rng.choice(enabled_now),)
    if kind == "lcmax":
        order = list(enabled_now)
        rng.shuffle(order)
        picked: list[int] = []
        for i in order:
            if all((i, p) not in arcs and (p, i) not in arcs for p in picked):
                picked.append(i)
        return tuple(sorted(picked))
    script = policy.script
    if step_index >= len(script.steps):
        return None
    chosen = script.steps[step_index]
    for i in chosen:
        if not oracle_enabled(arcs, colors, i):
            raise ScriptViolationError(step_index, f"process {i} is not enabled")
    if script.locally_central:
        for a, b in combinations(chosen, 2):
            if (a, b) in arcs or (b, a) in arcs:
                raise ScriptViolationError(step_index, f"processes {a} and {b} are neighbors")
    return chosen


def reference_new_color(algo, arcs, colors, i, rng: random.Random) -> int:
    """The new color of enabled process ``i`` read off the arc list: the
    increment loop for the deterministic rule, ``rng.choice`` over the
    free colors for the probabilistic one."""
    preds = [p for (p, q) in arcs if q == i]
    taken = {colors[p] for p in preds}
    if algo.kind is AlgorithmKind.PROBABILISTIC:
        return rng.choice([c for c in range(algo.k) if c not in taken])
    if len(taken) >= algo.k:
        raise NonTerminatingCommandError(
            f"process {i}: all {algo.k} colors held by predecessors (in-degree {len(preds)})"
        )
    return oracle_det_do_loop(taken, colors[i], algo.k)


def reference_run(graph, algo, policy, initial, max_steps=None, seed=0, record="moves") -> ExecutionTrace:
    """``engine.run`` as a full rescan per step: ``tracker_members``, then
    ``reference_select`` on it, then ``reference_new_color`` against a
    frozen ``Configuration`` and a fresh one built from the moves.  Every
    draw goes through ``random.Random``'s own methods, so the engine's
    inlined draws are checked bit for bit.  Argument checks are left to
    the caller; the differential tests run both on valid input."""
    if max_steps is None:
        max_steps = default_max_steps(graph, algo)
    rng = random.Random(seed)
    arcs = set(graph.arcs)
    config = initial
    steps = []
    total_moves = 0
    total_steps = 0
    terminated = False
    while True:
        enabled_now = tracker_members(graph, config)
        if not enabled_now:
            terminated = True
            break
        if total_steps >= max_steps:
            break
        colors = config.colors
        try:
            chosen = reference_select(policy, arcs, colors, enabled_now, rng, total_steps)
            if chosen is None:
                break
            moves = tuple(Move(i, colors[i], reference_new_color(algo, arcs, colors, i, rng)) for i in chosen)
        except (NonTerminatingCommandError, ScriptViolationError) as exc:
            raise EngineStepError(total_steps, exc) from exc
        config = apply_moves(config, moves)
        total_moves += len(moves)
        total_steps += 1
        if record != "none":
            config_after = config.colors if record == "full" else None
            rec = StepRecord(
                activated=chosen,
                old_colors=tuple(m.old_color for m in moves),
                new_colors=tuple(m.new_color for m in moves),
                config_after=config_after,
            )
            assert rec.moves == moves
            steps.append(rec)
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
        tracker.apply((i,), (oracle_det_do_loop({colors[p] for p in graph.preds[i]}, colors[i], config.k),))
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


def reference_tsv(trace: ExecutionTrace) -> str:
    """The trace TSV rendered from each step's ``Move`` objects; the
    reference for ``to_tsv``, which reads the columns."""
    lines = ["step\tprocess\told\tnew"]
    for t, rec in enumerate(trace.steps):
        lines += [f"{t}\t{m.process}\t{m.old_color}\t{m.new_color}" for m in rec.moves]
    return "\n".join(lines) + "\n"


# The exhaustive verifier as it was before the shared code-space builder:
# each check enumerates the k^n configurations itself, through
# ``Configuration``, ``tracker_members``, ``is_legitimate`` and a fresh
# ``rule`` command per move.
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


def reference_row(arcs, n: int, k: int, kind: AlgorithmKind, policy_class: PolicyClass, code: int):
    """The edges of palette code ``code`` (process n-1 at color 0), built from
    the arc list and the colors alone: ``(targets, masks)``.

    Each enabled process has one move under the deterministic rule (the
    literal increment loop) and one per free color under the probabilistic
    one.  Under ``lc1`` every move is an edge; under ``subsets`` (one move
    per process) every nonempty set of moves is one, in ``combinations``
    order by size.  A target is the new colors rotated by minus the new
    color of process n-1, encoded; a mask has bit ``i`` for each mover.
    """
    colors = _decode(code, n, k)
    options = []
    for i in range(n):
        if not oracle_enabled(arcs, colors, i):
            continue
        taken = {colors[p] for p, q in arcs if q == i}
        if kind is AlgorithmKind.DETERMINISTIC:
            options.append([(i, oracle_det_do_loop(taken, colors[i], k))])
        else:
            options.append([(i, c) for c in range(k) if c not in taken])
    moves = [move for choices in options for move in choices]
    if policy_class is PolicyClass.ALL_LOCALLY_CENTRAL_SINGLE:
        edges = [(move,) for move in moves]
    else:
        edges = [edge for size in range(1, len(moves) + 1) for edge in combinations(moves, size)]
    targets, masks = [], []
    for edge in edges:
        new = with_colors(colors, edge)
        targets.append(_encode(tuple((c - new[-1]) % k for c in new), k))
        masks.append(sum(1 << i for i, _ in edge))
    return targets, masks


def reference_verify_deterministic(
    graph: DirectedGraph,
    k: int,
    policy_class: PolicyClass,
    max_depth: int | None = None,
    cap: int = 10**6,
) -> VerificationReport:
    """Enumerate every execution of the deterministic rule.

    Convergence holds iff the transition graph over all k^n configurations
    is acyclic (and, when ``max_depth`` is given, no path has more moves).
    On the acyclic side the exact worst-case move count is the longest move
    path, with a schedule witnessing it, cut to its longest prefix of at
    most ``max_depth`` moves for the ``max_depth`` witness; on a cycle the
    report short-circuits to a divergence witness whose replay revisits a
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
        enabled_now = tracker_members(graph, config)
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
            moves = [(i, rule(AlgorithmKind.DETERMINISTIC, graph, k, None)((i,), colors)[0]) for i in choice]
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
    best_move_edge: list[tuple[tuple[int, ...], int] | None] = [None] * total

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
                best_m = 0
                for choice, succ in edges:
                    m = len(choice) + longest_moves[succ]
                    if m > best_m:
                        best_m = m
                        best_move_edge[code] = (choice, succ)
                longest_moves[code] = best_m
                state[code] = _BLACK
                del pos[code]
                stack.pop()
                incoming.pop()

    worst = max(longest_moves)
    argmax = longest_moves.index(worst)
    schedule = []
    code = argmax
    while best_move_edge[code] is not None:
        choice, code = best_move_edge[code]
        schedule.append(choice)
    worst_witness = WorstCaseWitness(
        initial=_decode(argmax, n, k),
        schedule=tuple(schedule),
        moves=worst,
    )

    if max_depth is not None and worst > max_depth:
        prefix, moved = [], 0
        for choice in schedule:
            moved += len(choice)
            if moved > max_depth:
                break
            prefix.append(choice)
        witness = DivergenceWitness(
            initial=worst_witness.initial,
            schedule=tuple(prefix),
            note=f"path of {worst} moves exceeds max_depth {max_depth}",
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
        raise UsageError(
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
        enabled_now = tracker_members(graph, config)
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
