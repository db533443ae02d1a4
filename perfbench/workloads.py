"""The four workloads: inputs made from the seed, operations, output checks.

A workload's setup builds every graph, initial configuration and policy it
uses through ``unicolor.cli`` parsers and library constructors.  Each
operation is one call into a public function of the program; the
benchmark times the call and then checks its output with ``oracles``.
Calls go through module attributes (``engine.run``, not a bound
reference), so the traced run's wrappers see them.
"""

from __future__ import annotations

import json
import random
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable

from unicolor import cli, core, engine, experiments, repro, verify
from unicolor.algorithms import AlgorithmSpec
from unicolor.core import Configuration

import oracles
from oracles import Topology

# sparse-run: one move per step, so the O(n) rescans per step show as a
# per-move cost that grows with n.
RING_SIZES = (100, 200, 400, 800)
CHAIN_N = 100
# dense-run: hundreds of moves per step; the sync artifact is about 9 MB.
SYNC_RING_N, SYNC_STEPS = 2000, 60
REPRO_SYNC_N, REPRO_SYNC_STEPS = 1000, 30
RANDOM_N, PROB_K = 1000, 5
ENGINE_SEEDS = 3
# batch: the ROADMAP baseline instance.
BATCH_GRAPH, BATCH_TRIALS, BATCH_SAMPLES = "random:100:4:7", 200, 3
# verify: 6^6 = 46,656 configurations for each det instance, 4^8 = 65,536
# for the probabilistic one.
VERIFY_N, VERIFY_K = 6, 6
PROB_RING_N, PROB_RING_K = 8, 4


@dataclass
class Op:
    """One timed call and its independent check.

    ``items`` counts the simulated moves, trials or configurations the
    output stands for.  ``timing`` optionally names a per-layer metric
    derived from the call's median untraced time: ``(name, unit, fn)``
    with ``fn(seconds, items) -> value``.
    """

    name: str
    call: Callable[[], Any]
    check: Callable[[Any], list[str]]
    items: Callable[[Any], int]
    timing: tuple[str, str, Callable[[float, int], float]] | None = None


@dataclass
class Workload:
    ops: list[Op]
    facts: dict[str, float] = field(default_factory=dict)


class NoSpans:
    def span(self, name: str):
        return nullcontext()


def trace_view(trace) -> dict:
    """An ``ExecutionTrace`` in the form ``oracles.check_trace`` reads."""
    return {
        "initial": trace.initial,
        "final": trace.final,
        "terminated": trace.terminated,
        "total_steps": trace.total_steps,
        "total_moves": trace.total_moves,
        "steps": [
            (rec.activated, [(m.process, m.old_color, m.new_color) for m in rec.moves])
            for rec in trace.steps
        ],
    }


def artifact_view(text: str) -> dict:
    """The ``run --out`` JSON artifact in the form ``oracles.check_trace`` reads."""
    doc = json.loads(text)
    doc["steps"] = [(s["activated"], s["moves"]) for s in doc["steps"]]
    return doc


def _seeds(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def sparse_run(seed: int, spans) -> Workload:
    rng = _seeds("sparse-run", seed)
    det3 = cli.parse_algo("det", 3)
    lc1 = cli.parse_policy("lc1")
    ops = []
    for n in RING_SIZES:
        graph = cli.parse_graph_spec(f"ring:{n}")
        initial = cli.parse_initial("uniform:0", graph, 3, 0)
        topo = Topology(graph.n, graph.arcs)
        run_seed = rng.getrandbits(32)
        ops.append(Op(
            name=f"run ring:{n} det lc1",
            call=lambda g=graph, i=initial, s=run_seed: engine.run(g, det3, lc1, i, seed=s),
            check=lambda tr, t=topo: oracles.check_trace(t, 3, "det", "lc1", trace_view(tr)),
            items=lambda tr: tr.total_moves,
            timing=(f"engine.us_per_move.ring-{n}", "us/move", lambda s, moves: 1e6 * s / moves),
        ))

    chain_topo = Topology(CHAIN_N, [(i, i - 1) for i in range(1, CHAIN_N)])
    expected = oracles.worst_case_moves(CHAIN_N)

    def check_chain(rep) -> list[str]:
        if not rep.ok or rep.details.get("moves") != expected:
            return [f"repro chain: ok={rep.ok} moves={rep.details.get('moves')}, expected {expected}"]
        return oracles.proper_coloring(chain_topo, rep.details["final"], CHAIN_N)

    ops.append(Op(
        name=f"repro chain --n {CHAIN_N}",
        call=lambda: repro.repro_chain_worst_case(CHAIN_N),
        check=check_chain,
        items=lambda rep: expected,
        timing=("repro.repro_chain_worst_case.s", "s", lambda s, moves: s),
    ))
    return Workload(ops)


def dense_run(seed: int, spans) -> Workload:
    rng = _seeds("dense-run", seed)
    wl = Workload([])
    det3 = cli.parse_algo("det", 3)
    sync = cli.parse_policy("sync")
    ring_graph = cli.parse_graph_spec(f"ring:{SYNC_RING_N}")
    ring_topo = Topology(ring_graph.n, ring_graph.arcs)
    uniform = cli.parse_initial("uniform:0", ring_graph, 3, 0)

    def sync_artifact() -> str:
        trace = engine.run(ring_graph, det3, sync, uniform, max_steps=SYNC_STEPS, record="moves")
        return trace.to_json()

    def check_sync(text: str) -> list[str]:
        wl.facts["engine.artifact_bytes"] = len(text.encode())
        view = artifact_view(text)
        if view["total_steps"] != SYNC_STEPS:
            return [f"sync ran {view['total_steps']} steps, wanted {SYNC_STEPS}"]

        def uniform_after(t, colors):
            return None if colors.count(t % 3) == len(colors) else f"ring is not uniform {t % 3}"

        return oracles.check_trace(ring_topo, 3, "det", "sync", view, False, uniform_after)

    sync_moves = SYNC_RING_N * SYNC_STEPS
    wl.ops.append(Op(
        name=f"run ring:{SYNC_RING_N} det sync --max-steps {SYNC_STEPS} --out json",
        call=sync_artifact,
        check=check_sync,
        items=lambda text: sync_moves,
    ))

    def check_repro_sync(rep) -> list[str]:
        if not rep.ok or rep.details.get("steps") != REPRO_SYNC_STEPS:
            return [f"repro sync-ring: ok={rep.ok} failures={list(rep.failures)[:2]}"]
        return []

    wl.ops.append(Op(
        name=f"repro sync-ring --n {REPRO_SYNC_N} --steps {REPRO_SYNC_STEPS}",
        call=lambda: repro.repro_sync_ring(REPRO_SYNC_N, REPRO_SYNC_STEPS, k=3),
        check=check_repro_sync,
        items=lambda rep: REPRO_SYNC_N * REPRO_SYNC_STEPS,
        timing=("repro.repro_sync_ring.s", "s", lambda s, moves: s),
    ))

    spec = f"random:{RANDOM_N}:4:{rng.randrange(10**6)}"
    graph = cli.parse_graph_spec(spec)
    topo = Topology(graph.n, graph.arcs)
    prob = cli.parse_algo("prob", PROB_K)
    for policy_name in ("dist", "lcmax"):
        policy = cli.parse_policy(policy_name)
        for start in ("uniform:0", "random"):
            for _ in range(ENGINE_SEEDS):
                initial = cli.parse_initial(start, graph, PROB_K, rng.getrandbits(32))
                run_seed = rng.getrandbits(32)
                wl.ops.append(Op(
                    name=f"run {spec} prob {policy_name} --initial {start} --seed {run_seed}",
                    call=lambda p=policy, i=initial, s=run_seed: engine.run(graph, prob, p, i, seed=s),
                    check=lambda tr, p=policy_name: oracles.check_trace(topo, PROB_K, "prob", p, trace_view(tr)),
                    items=lambda tr: tr.total_moves,
                ))
    return wl


def batch(seed: int, spans) -> Workload:
    rng = _seeds("batch", seed)
    graph = cli.parse_graph_spec(BATCH_GRAPH)
    topo = Topology(graph.n, graph.arcs)
    algo = cli.parse_algo("prob", PROB_K)
    lc1 = cli.parse_policy("lc1")
    seed_base = rng.randrange(10**6)
    config = experiments.ExperimentConfig(
        graph=graph,
        algorithm=algo,
        scheduler=lc1,
        trials=BATCH_TRIALS,
        seed_base=seed_base,
        initial=experiments.InitialDistribution("random"),
    )
    bound = oracles.move_bound(graph.n, topo.max_degree, PROB_K)
    samples = sorted(rng.sample(range(BATCH_TRIALS), BATCH_SAMPLES))
    serial: dict[str, Any] = {}

    def check_serial(rep) -> list[str]:
        serial["report"] = rep
        trials = rep.per_trial
        if [t.index for t in trials] != list(range(BATCH_TRIALS)):
            return ["per-trial results are not trials 0..T-1 in order"]
        if rep.failed or rep.converged != BATCH_TRIALS or not all(t.converged and t.error is None for t in trials):
            return [f"{rep.converged} of {BATCH_TRIALS} trials converged, {rep.failed} errored"]
        moves = [t.moves for t in trials]
        if rep.bound != bound or not rep.bound_satisfied:
            return [f"report bound {rep.bound} (satisfied={rep.bound_satisfied}), expected {bound}"]
        if abs(rep.mean_moves - sum(moves) / len(moves)) > 1e-9 * max(1.0, rep.mean_moves):
            return [f"report mean {rep.mean_moves} differs from the per-trial mean"]
        problems = oracles.mean_within_bound(moves, bound)
        for t in samples:
            init_rng = random.Random(oracles.trial_seed(seed_base, t, "init"))
            initial = Configuration(colors=tuple(init_rng.randrange(PROB_K) for _ in range(graph.n)), k=PROB_K)
            alone = engine.run(graph, algo, lc1, initial, seed=oracles.trial_seed(seed_base, t, "engine"))
            if (alone.total_moves, alone.total_steps) != (trials[t].moves, trials[t].steps):
                problems.append(f"trial {t} re-run alone made {alone.total_moves} moves, batch says {trials[t].moves}")
            problems += oracles.check_trace(topo, PROB_K, "prob", "lc1", trace_view(alone))
        return problems

    def check_parallel(rep) -> list[str]:
        if rep != serial.get("report"):
            return ["jobs=2 report differs from the jobs=1 report"]
        return []

    return Workload([
        Op(
            name=f"experiment {BATCH_GRAPH} prob k={PROB_K} lc1 --trials {BATCH_TRIALS} --jobs 1",
            call=lambda: experiments.run_experiment(config, jobs=1),
            check=check_serial,
            items=lambda rep: BATCH_TRIALS,
            timing=("experiments.trials_per_s", "trials/s", lambda s, trials: trials / s),
        ),
        Op(
            name=f"experiment {BATCH_GRAPH} prob k={PROB_K} lc1 --trials {BATCH_TRIALS} --jobs 2",
            call=lambda: experiments.run_experiment(config, jobs=2),
            check=check_parallel,
            items=lambda rep: BATCH_TRIALS,
            timing=("experiments.trials_per_s_jobs2", "trials/s", lambda s, trials: trials / s),
        ),
    ])


def _relabeled(kind: str, n: int, rng: random.Random):
    """``ring:n`` or ``chain:n`` with process ids permuted by the seed."""
    perm = list(range(n))
    rng.shuffle(perm)
    if kind == "ring":
        arcs = [(perm[i], perm[(i + 1) % n]) for i in range(n)]
    else:
        arcs = [(perm[i], perm[i - 1]) for i in range(1, n)]
    return core.build_graph(n, arcs, label=f"{kind}:{n}:relabeled")


def verify_workload(seed: int, spans) -> Workload:
    rng = _seeds("verify", seed)
    ring6 = _relabeled("ring", VERIFY_N, rng)
    chain6 = _relabeled("chain", VERIFY_N, rng)
    ring8 = _relabeled("ring", PROB_RING_N, rng)
    lc1 = verify.PolicyClass("lc1")
    subsets = verify.PolicyClass("subsets")
    det = AlgorithmSpec.deterministic(VERIFY_K)
    lc1_worst = oracles.worst_case_moves(VERIFY_N)

    def counts(rep, graph, k, proper: int) -> list[str]:
        if rep.configurations_checked != k ** graph.n:
            return [f"checked {rep.configurations_checked} configurations, k^n = {k ** graph.n}"]
        if not rep.terminal_equals_legitimate or rep.terminal_count != proper or rep.legitimate_count != proper:
            return [f"terminal={rep.terminal_count} legitimate={rep.legitimate_count}, "
                    f"proper colorings = {proper}"]
        return []

    def replay(graph, witness):
        with spans.span("verify.replay_witness"):
            return verify.replay_witness(graph, det, witness)

    def check_converging(graph, policy: str, exact: bool):
        topo = Topology(graph.n, graph.arcs)
        proper = (oracles.ring_proper_colorings if graph.label.startswith("ring")
                  else oracles.chain_proper_colorings)(graph.n, VERIFY_K)

        def check(rep) -> list[str]:
            problems = counts(rep, graph, VERIFY_K, proper)
            worst = rep.worst_case_moves
            if not rep.all_converge or worst is None or (worst != lc1_worst if exact else worst < lc1_worst):
                return problems + [f"all_converge={rep.all_converge} worst={worst}, lc1 worst is {lc1_worst}"]
            tr = replay(graph, rep.worst_case_witness)
            if tr.total_moves != worst or tr.initial != rep.worst_case_witness.initial:
                problems.append(f"worst-case witness replays in {tr.total_moves} moves, report says {worst}")
            return problems + oracles.check_trace(topo, VERIFY_K, "det", policy, trace_view(tr))

        return check

    ring6_topo = Topology(ring6.n, ring6.arcs)
    ring6_proper = oracles.ring_proper_colorings(VERIFY_N, VERIFY_K)

    def check_diverging(rep) -> list[str]:
        problems = counts(rep, ring6, VERIFY_K, ring6_proper)
        witness = rep.witness_divergence
        if rep.all_converge or witness is None or not witness.schedule:
            return problems + ["ring:6 k=6 under subsets must diverge with a witness"]
        tr = replay(ring6, witness)
        if tr.final != witness.initial or tr.total_steps != len(witness.schedule):
            problems.append("divergence witness does not return to its initial configuration")
        return problems + oracles.check_trace(ring6_topo, VERIFY_K, "det", "dist", trace_view(tr), False)

    ring8_proper = oracles.ring_proper_colorings(PROB_RING_N, PROB_RING_K)

    def check_support(rep) -> list[str]:
        problems = counts(rep, ring8, PROB_RING_K, ring8_proper)
        if not rep.all_converge or rep.witness_divergence is not None or not rep.worst_case_moves:
            problems.append(f"support check: all_converge={rep.all_converge} escape={rep.worst_case_moves}")
        return problems

    def op(name, call, check, graph, k):
        return Op(name, call, check, items=lambda rep: k ** graph.n,
                  timing=(f"verify.{name}.s", "s", lambda s, configs: s))

    return Workload([
        op("ring6-lc1", lambda: verify.verify_deterministic(ring6, VERIFY_K, lc1),
           check_converging(ring6, "lc1", exact=True), ring6, VERIFY_K),
        op("chain6-subsets", lambda: verify.verify_deterministic(chain6, VERIFY_K, subsets),
           check_converging(chain6, "dist", exact=False), chain6, VERIFY_K),
        op("ring6-subsets", lambda: verify.verify_deterministic(ring6, VERIFY_K, subsets),
           check_diverging, ring6, VERIFY_K),
        op("ring8-prob", lambda: verify.verify_probabilistic_support(ring8, PROB_RING_K),
           check_support, ring8, PROB_RING_K),
    ])


WORKLOADS = {
    "sparse-run": sparse_run,
    "dense-run": dense_run,
    "batch": batch,
    "verify": verify_workload,
}
