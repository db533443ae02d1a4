"""Check ``ExecutionTrace.to_json`` against ``json.dumps``, and ``to_tsv``
against rows rendered move by move, without pytest.

The trace encoder reproduces the stdlib's ``indent=2`` layout by hand, so
it is worth checking under every supported interpreter, including bare
ones with no test dependencies:

    PYTHONPATH=src:tests python tests/encoder_check.py [RUNS]

Runs RUNS (default 2000) seeded random executions over every rule,
policy, start and record mode, plus fixed cases: a zero-step run, palettes
larger than the graph, process ids of two and three digits under ``sync``,
``dist`` and ``lcmax`` with full records, a scripted step that activates
nobody, and a graph label that needs escaping.  Exits 1 on the first
mismatch.
"""

from __future__ import annotations

import json
import random
import sys

from unicolor import (
    AlgorithmSpec,
    Configuration,
    EngineStepError,
    SchedulerKind,
    SchedulerPolicy,
    Script,
    bidirectional_clique,
    chain,
    parse_graph_text,
    random_digraph,
    ring,
    run,
)

from helpers import reference_trace_dict, reference_tsv

POLICIES = [
    SchedulerPolicy(SchedulerKind.SYNCHRONOUS),
    SchedulerPolicy(SchedulerKind.DISTRIBUTED_RANDOM_SUBSET),
    SchedulerPolicy(SchedulerKind.LOCALLY_CENTRAL_SINGLE),
    SchedulerPolicy(SchedulerKind.LOCALLY_CENTRAL_MAXIMAL),
]


def random_case(rng: random.Random):
    n = rng.randint(2, 9)
    graph = rng.choice([ring(n), chain(n), bidirectional_clique(min(n, 6)),
                        random_digraph(n, rng.randint(1, 4), rng.randrange(10**6))])
    if rng.random() < 0.5:
        algo = AlgorithmSpec.probabilistic(graph.max_degree + rng.randint(1, 9))
    else:
        algo = AlgorithmSpec.deterministic(rng.randint(2, 12))
    colors = tuple(rng.randrange(algo.k) for _ in range(graph.n))
    if rng.random() < 0.3:
        colors = (colors[0],) * graph.n
    max_steps = rng.choice([None, 0, 1, 5, 40])
    record = rng.choice(["none", "moves", "full"])
    return graph, algo, rng.choice(POLICIES), Configuration(colors, algo.k), max_steps, record


def fixed_cases():
    sync, dist, lc1, lcmax = POLICIES
    yield ring(3), AlgorithmSpec.deterministic(3), lc1, Configuration((0, 1, 2), 3), None, "full"
    yield bidirectional_clique(11), AlgorithmSpec.deterministic(12), lcmax, Configuration.uniform(11, 0, 12), None, "full"
    # A palette larger than the graph: colors outnumber process ids.
    yield ring(4), AlgorithmSpec.deterministic(15), lc1, Configuration((14, 14, 3, 9), 15), None, "full"
    yield chain(3), AlgorithmSpec.probabilistic(40), sync, Configuration.uniform(3, 37, 40), None, "moves"
    # Multi-digit process ids, every one moving at once, and a full record.
    yield ring(250), AlgorithmSpec.deterministic(3), sync, Configuration.uniform(250, 0, 3), 4, "moves"
    yield ring(120), AlgorithmSpec.deterministic(3), sync, Configuration.uniform(120, 2, 3), 3, "full"
    big = random_digraph(120, 4, 11)
    start = random.Random(5)
    yield big, AlgorithmSpec.probabilistic(5), dist, Configuration.random(120, 5, start), None, "full"
    yield big, AlgorithmSpec.probabilistic(6), lcmax, Configuration.random(120, 6, start), None, "moves"
    # A scripted step that activates nobody: empty arrays.
    empty = SchedulerPolicy(SchedulerKind.SCRIPTED, Script(steps=((), (1,))))
    yield ring(3), AlgorithmSpec.deterministic(3), empty, Configuration.uniform(3, 0, 3), None, "full"
    label = 'file:a "quoted" \\ graph ß☃.txt'
    yield parse_graph_text("3\n0 1\n1 2\n2 0\n", label=label), AlgorithmSpec.deterministic(3), lc1, Configuration.uniform(3, 0, 3), None, "moves"


def main(argv: list[str]) -> int:
    runs = int(argv[1]) if len(argv) > 1 else 2000
    rng = random.Random(20081)
    cases = list(fixed_cases()) + [random_case(rng) for _ in range(runs)]
    checked = 0
    for index, (graph, algo, policy, initial, max_steps, record) in enumerate(cases):
        try:
            trace = run(graph, algo, policy, initial, max_steps=max_steps, seed=index, record=record)
        except EngineStepError:
            continue  # a palette below the in-degree: no trace to encode
        want = json.dumps(reference_trace_dict(trace), sort_keys=True, indent=2) + "\n"
        if trace.to_json() != want:
            print(f"case {index}: to_json differs from json.dumps ({graph.label}, {policy.name}, {record})")
            return 1
        if trace.to_tsv() != reference_tsv(trace):
            print(f"case {index}: to_tsv differs from the per-move rows ({graph.label}, {policy.name}, {record})")
            return 1
        checked += 1
    print(f"{checked} traces byte-identical to json.dumps and the reference TSV on Python {sys.version.split()[0]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
