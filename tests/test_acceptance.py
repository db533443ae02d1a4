"""Acceptance suite: one test per shipped criterion, each printing a
PASS/FAIL line (visible with ``pytest -s`` or on failure).  Tolerances are
exact unless a criterion is explicitly statistical (one-sided 3 sigma).
"""

import json
import math
import random
import time

import pytest

from unicolor import (
    AlgorithmKind,
    AlgorithmSpec,
    Configuration,
    PolicyClass,
    SchedulerPolicy,
    build_graph,
    is_legitimate,
    random_digraph,
    replay_witness,
    ring,
    chain,
    rule,
    run,
    verify_deterministic,
)
from unicolor.experiments import ExperimentConfig, InitialDistribution, run_experiment
from unicolor.cli import main

from helpers import random_instance, tracker_members


def report(num: int, ok: bool, detail: str, elapsed: float, limit: float) -> None:
    status = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"[ACCEPTANCE] criterion {num}: {status} ({elapsed:.2f}s < {limit:g}s) {detail}")
    assert ok, detail
    assert elapsed < limit, f"criterion {num} took {elapsed:.2f}s, limit {limit}s"


def repro_cli(tmp_path, capsys, argv, tag):
    out = tmp_path / f"{tag}.json"
    code = main(argv + ["--out", str(out)])
    capsys.readouterr()
    return code, json.loads(out.read_text())


def test_criterion_1_chain_worst_case_exact(tmp_path, capsys):
    t0 = time.perf_counter()
    ok = True
    for n in (2, 5, 10, 50):
        code, payload = repro_cli(tmp_path, capsys, ["repro", "chain", "--n", str(n)], f"c1_{n}")
        ok = ok and code == 0 and payload["ok"]
        ok = ok and payload["details"]["moves"] == n * (n - 1) // 2
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        report(1, ok, "chain schedule: exactly N(N-1)/2 moves, terminal proper coloring", elapsed, 1.0)


def test_criterion_2_synchronous_divergence(tmp_path, capsys):
    t0 = time.perf_counter()
    ok = True
    for n in (2, 4, 7):
        code, payload = repro_cli(
            tmp_path, capsys, ["repro", "sync-ring", "--n", str(n), "--steps", "200"], f"c2_{n}"
        )
        ok = ok and code == 0 and payload["ok"]
        ok = ok and payload["details"]["steps"] == 200
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        report(2, ok, "synchronous uniform rings: 200 uniform non-terminal steps, colors cycling mod k", elapsed, 1.0)


def test_criterion_3_ring_chase_state_bound(tmp_path, capsys):
    t0 = time.perf_counter()
    ok = True
    for n in (3, 4, 6):
        code, payload = repro_cli(
            tmp_path, capsys, ["repro", "ring-chase", "--n", str(n), "--laps", "3"], f"c3_{n}"
        )
        details = payload["details"]
        ok = ok and code == 0 and payload["ok"]
        ok = ok and details["k"] == n - 1
        ok = ok and details["terminating_k"] == n and details["terminating_moves"] == n - 1
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        report(3, ok, "k=N-1 chases rotate forever; k=N terminates", elapsed, 1.0)


def test_criterion_4_clique_pigeonhole(tmp_path, capsys):
    t0 = time.perf_counter()
    ok = True
    for delta in (2, 3, 4):
        code, payload = repro_cli(
            tmp_path, capsys, ["repro", "clique-bound", "--delta", str(delta)], f"c4_{delta}"
        )
        details = payload["details"]
        ok = ok and code == 0 and payload["ok"]
        ok = ok and details["legitimate_with_k_delta"] == 0
        ok = ok and details["legitimate_with_k_delta_plus_1"] == math.factorial(delta + 1)
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        report(4, ok, "cliques: zero proper colorings with k=D, (D+1)! with k=D+1 (full enumeration)", elapsed, 1.0)


def test_criterion_5_exhaustive_stabilization():
    t0 = time.perf_counter()
    ok = True
    for make in (ring, chain):
        for n in (2, 3, 4):
            rep = verify_deterministic(make(n), n, PolicyClass.ALL_LOCALLY_CENTRAL_SINGLE)
            ok = ok and rep.all_converge and rep.worst_case_moves == n * (n - 1) // 2
    for n in (2, 3, 4):
        rep = verify_deterministic(ring(n), n, PolicyClass.ALL_DISTRIBUTED_SUBSETS)
        ok = ok and not rep.all_converge and rep.witness_divergence is not None
        if ok:
            trace = replay_witness(ring(n), AlgorithmSpec.deterministic(n), rep.witness_divergence)
            ok = ok and not trace.terminated and trace.final == rep.witness_divergence.initial
    report(5, ok, "enumeration: lc1 converges with worst case exactly n(n-1)/2; subsets yield replayable cycles", time.perf_counter() - t0, 30.0)


def test_criterion_6_probabilistic_move_bound():
    t0 = time.perf_counter()
    ok = True
    details = []
    instances = [
        (ring(20), 2),
        (random_digraph(30, 4, seed=424242), 4),
    ]
    for graph, delta in instances:
        assert graph.max_degree == delta
        for k in (delta + 1, 2 * delta, 16):
            config = ExperimentConfig(
                graph=graph,
                algorithm=AlgorithmSpec.probabilistic(k),
                scheduler=SchedulerPolicy.locally_central_single(),
                trials=2000,
                seed_base=2024,
                initial=InitialDistribution.RANDOM_EACH_TRIAL,
            )
            rep = run_experiment(config)
            ok = ok and rep.converged == 2000 and rep.failed == 0
            ok = ok and rep.bound_satisfied
            details.append(f"{graph.label} k={k}: mean={rep.mean_moves:.2f} bound={float(rep.bound):.2f}")
    report(6, ok, "; ".join(details), time.perf_counter() - t0, 60.0)


def test_criterion_7_terminal_iff_legitimate():
    t0 = time.perf_counter()
    rng = random.Random(777)
    ok = True
    for _ in range(10_000):
        graph, cfg = random_instance(rng, max_n=8)
        ok = ok and (not tracker_members(graph, cfg)) == is_legitimate(graph, cfg)
    policies = [
        SchedulerPolicy.locally_central_single(),
        SchedulerPolicy.locally_central_maximal(),
        SchedulerPolicy.distributed(),
    ]
    terminated_seen = 0
    for trial in range(200):
        graph, cfg = random_instance(rng, max_n=6)
        algo = AlgorithmSpec.probabilistic(graph.max_degree + 1 + trial % 3)
        cfg = Configuration(colors=tuple(c % algo.k for c in cfg.colors), k=algo.k)
        trace = run(graph, algo, policies[trial % 3], cfg, max_steps=500, seed=trial)
        if trace.terminated:
            terminated_seen += 1
            ok = ok and is_legitimate(graph, Configuration(colors=trace.final, k=algo.k))
    ok = ok and terminated_seen > 0
    report(7, ok, f"10^4 pairs: nothing enabled <=> legitimate; {terminated_seen}/200 terminated traces all legitimate", time.perf_counter() - t0, 10.0)


def test_criterion_8_prob_command_distribution():
    t0 = time.perf_counter()
    draws = 30_000
    fixtures = [
        # (k, predecessor colors, own color)
        (4, (2,), 2),
        (6, (0, 3), 3),
        (5, (1, 4), 1),
    ]
    ok = True
    for k, pred_colors, own in fixtures:
        arcs = [(p + 1, 0) for p in range(len(pred_colors))]
        graph = build_graph(len(pred_colors) + 1, arcs)
        config = Configuration(colors=(own, *pred_colors), k=k)
        candidates = [c for c in range(k) if c not in pred_colors]
        rng = random.Random(9000 + k)
        counts = {c: 0 for c in candidates}
        for _ in range(draws):
            new = rule(AlgorithmKind.PROBABILISTIC, graph, k, rng)((0,), config.colors)[0]
            ok = ok and new not in pred_colors
            counts[new] += 1
        p = 1 / len(candidates)
        sigma = math.sqrt(draws * p * (1 - p))
        for c in candidates:
            ok = ok and abs(counts[c] - draws * p) <= 3 * sigma
    report(8, ok, f"{draws} draws per fixture uniform over candidates within 3 sigma, never a predecessor color", time.perf_counter() - t0, 5.0)


def test_criterion_9_byte_identical_outputs(tmp_path, capsys):
    t0 = time.perf_counter()
    invocations = [
        ["run", "--graph", "ring:6", "--algo", "prob", "--k", "3", "--seed", "5"],
        ["run", "--graph", "chain:5", "--algo", "det", "--k", "5", "--sched", "lcmax",
         "--seed", "9", "--format", "tsv"],
        ["experiment", "--graph", "ring:8", "--k", "3", "--trials", "40", "--seed-base", "4"],
        ["verify", "--graph", "ring:3", "--k", "3", "--policy-class", "subsets", "--expect-diverge"],
        ["verify", "--graph", "clique:3", "--algo", "prob", "--k", "3"],
        ["repro", "sync-ring", "--n", "4", "--steps", "200"],
        ["repro", "chain", "--n", "10"],
        ["repro", "ring-chase", "--n", "4", "--laps", "3"],
        ["repro", "clique-bound", "--delta", "3"],
    ]
    ok = True
    for idx, argv in enumerate(invocations):
        first = tmp_path / f"{idx}_a.out"
        second = tmp_path / f"{idx}_b.out"
        code_a = main(argv + ["--out", str(first)])
        code_b = main(argv + ["--out", str(second)])
        capsys.readouterr()
        ok = ok and code_a == code_b == 0
        ok = ok and first.read_bytes() == second.read_bytes()
    tsv_a, tsv_b = tmp_path / "trials_a.tsv", tmp_path / "trials_b.tsv"
    exp = ["experiment", "--graph", "ring:8", "--k", "3", "--trials", "40", "--seed-base", "4"]
    main(exp + ["--out", str(tmp_path / "r1.json"), "--trials-tsv", str(tsv_a)])
    main(exp + ["--out", str(tmp_path / "r2.json"), "--trials-tsv", str(tsv_b)])
    capsys.readouterr()
    ok = ok and tsv_a.read_bytes() == tsv_b.read_bytes()
    with capsys.disabled():
        report(9, ok, "every subcommand repeated: byte-identical artifacts", time.perf_counter() - t0, 60.0)
