"""Command-line entry point: run, experiment, verify, and repro subcommands.

Exit codes: 0 on success (assertions pass), 1 on assertion failure,
2 on usage errors.  Machine-readable artifacts go to --out; stdout gets a
short human summary.  All randomness is derived from explicit seed flags,
so identical invocations produce identical outputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Iterable
from dataclasses import asdict

from .core import (
    Configuration,
    DirectedGraph,
    UsageError,
    bidirectional_clique,
    chain,
    random_digraph,
    read_graph_file,
    ring,
)
from .algorithms import AlgorithmKind, AlgorithmSpec
from .engine import EngineStepError, run
from .experiments import (
    ExperimentConfig,
    InitialDistribution,
    random_initial,
    run_experiment,
    sweep,
    sweep_table,
)
from .schedulers import SchedulerPolicy, Script
from .verify import (
    PolicyClass,
    verify_deterministic,
    verify_probabilistic_support,
)
from .repro import (
    repro_chain_worst_case,
    repro_clique_state_bound,
    repro_ring_chase,
    repro_sync_ring,
)


def parse_graph_spec(spec: str) -> DirectedGraph:
    """ring:N | chain:N | clique:N | random:N:DELTA:SEED | file:PATH"""
    kind, _, rest = spec.partition(":")
    try:
        if kind == "ring":
            return ring(int(rest))
        if kind == "chain":
            return chain(int(rest))
        if kind == "clique":
            return bidirectional_clique(int(rest))
        if kind == "random":
            n, delta, seed = rest.split(":")
            return random_digraph(int(n), int(delta), int(seed))
        if kind == "file":
            return read_graph_file(rest)
    except (ValueError, OSError) as exc:
        raise UsageError(f"bad graph spec {spec!r}: {exc}") from exc
    raise UsageError(f"unknown graph spec {spec!r} (want ring:N, chain:N, clique:N, random:N:D:SEED, file:PATH)")


def parse_algo(name: str, k: int) -> AlgorithmSpec:
    if name == "det":
        return AlgorithmSpec.deterministic(k)
    if name == "prob":
        return AlgorithmSpec.probabilistic(k)
    raise UsageError(f"unknown algorithm {name!r} (want det or prob)")


def parse_policy(spec: str) -> SchedulerPolicy:
    if spec == "sync":
        return SchedulerPolicy.synchronous()
    if spec == "dist":
        return SchedulerPolicy.distributed()
    if spec == "lc1":
        return SchedulerPolicy.locally_central_single()
    if spec == "lcmax":
        return SchedulerPolicy.locally_central_maximal()
    if spec.startswith("script:"):
        path = spec.split(":", 1)[1]
        try:
            return SchedulerPolicy.scripted(Script.from_file(path))
        except (OSError, ValueError) as exc:
            raise UsageError(f"bad script file {path!r}: {exc}") from exc
    raise UsageError(f"unknown scheduler {spec!r} (want sync, dist, lc1, lcmax, script:<file>)")


def parse_initial(spec: str, graph: DirectedGraph, k: int, seed: int) -> Configuration:
    try:
        if spec.startswith("uniform:"):
            return Configuration.uniform(graph.n, int(spec.split(":", 1)[1]), k)
        if spec == "random":
            return random_initial(graph.n, k, seed, 0)
        colors = tuple(int(tok) for tok in spec.split(","))
        return Configuration(colors=colors, k=k)
    except ValueError as exc:
        raise UsageError(f"bad initial spec {spec!r}: {exc}") from exc


def _write_out(args, chunks: Iterable[str]) -> None:
    """Write the artifact's pieces to --out, if given, one after another."""
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)


def _json_text(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def cmd_run(args) -> int:
    graph = parse_graph_spec(args.graph)
    algo = parse_algo(args.algo, args.k)
    policy = parse_policy(args.sched)
    if policy.script is not None:
        # The library reports such a process as not enabled at its step;
        # from a file it is a usage error, caught before the run.
        for t, step in enumerate(policy.script.steps):
            for i in step:
                if not 0 <= i < graph.n:
                    raise UsageError(f"script step {t}: process {i} outside 0..{graph.n - 1} "
                                     f"of a {graph.n}-process graph")
    initial = parse_initial(args.initial, graph, args.k, args.seed)
    try:
        trace = run(
            graph,
            algo,
            policy,
            initial,
            max_steps=args.max_steps,
            seed=args.seed,
            record=args.trace,
        )
    except EngineStepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(
        f"graph={graph.label} algo={args.algo} k={args.k} sched={policy.name} seed={args.seed}"
    )
    print(
        f"terminated={trace.terminated} steps={trace.total_steps} moves={trace.total_moves}"
    )
    print(f"final={','.join(str(c) for c in trace.final)}")
    _write_out(args, [trace.to_tsv()] if args.format == "tsv" else trace.json_chunks())
    return 0


# The experiment settings: the --config keys, with their JSON type and default.
# The flags fill the same fields (--sweep fills k_sweep) with the same defaults.
EXPERIMENT_SETTINGS = {
    "graph": (str, None),
    "algo": (str, "prob"),
    "k": (int, None),
    "sched": (str, "lc1"),
    "trials": (int, 100),
    "seed_base": (int, 0),
    "initial": (str, "random"),
    "max_steps": (int, None),
    "k_sweep": (list, None),
}


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",")]


def _experiment_settings(args) -> dict:
    """The experiment's settings from the --config file, or else from the flags."""
    if not args.config:
        return {key: getattr(args, key) for key in EXPERIMENT_SETTINGS}
    where = f"config file {args.config!r}"
    with open(args.config, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise UsageError(f"{where}: {exc}") from exc
    if not isinstance(raw, dict):
        raise UsageError(f"{where}: want a JSON object")
    unknown = sorted(set(raw) - set(EXPERIMENT_SETTINGS))
    if unknown:
        raise UsageError(f"{where}: unknown key(s) {', '.join(map(repr, unknown))} "
                         f"(want {', '.join(EXPERIMENT_SETTINGS)})")
    settings = {key: raw.get(key, default) for key, (_, default) in EXPERIMENT_SETTINGS.items()}
    # json.load builds exact types, so ``type(...) is int`` also turns away
    # true and false, which ``isinstance`` would take for 1 and 0.  A null
    # stands for the default only where the default is None itself.
    for key, (kind, default) in EXPERIMENT_SETTINGS.items():
        value = settings[key]
        if type(value) is not kind and (value is not None or default is not None):
            raise UsageError(f"{where}: {key!r} must be {kind.__name__}, got {value!r}")
    if not all(type(k) is int for k in settings["k_sweep"] or ()):
        raise UsageError(f"{where}: 'k_sweep' must be a list of int, got {settings['k_sweep']!r}")
    if settings["initial"] not in {d.value for d in InitialDistribution}:
        raise UsageError(f"{settings['initial']!r} is not a valid InitialDistribution")
    return settings


def cmd_experiment(args) -> int:
    settings = _experiment_settings(args)
    if settings["graph"] is None or settings["k"] is None:
        raise UsageError(f"config file {args.config!r} needs both 'graph' and 'k'" if args.config
                         else "experiment needs --config or both --graph and --k")
    graph = parse_graph_spec(settings["graph"])
    algo = parse_algo(settings["algo"], settings["k"])
    policy = parse_policy(settings["sched"])
    config = ExperimentConfig(
        graph=graph,
        algorithm=algo,
        scheduler=policy,
        trials=settings["trials"],
        seed_base=settings["seed_base"],
        initial=InitialDistribution(settings["initial"]),
        max_steps=settings["max_steps"],
    )
    swept = bool(settings["k_sweep"])
    if swept:
        reports = sweep(config, settings["k_sweep"], jobs=args.jobs)
    else:
        reports = [run_experiment(config, jobs=args.jobs)]

    ok = True
    for rep in reports:
        bound = "" if rep.bound is None else f" bound={float(rep.bound):.4f} within_bound={rep.bound_satisfied}"
        print(
            f"k={rep.algorithm['k']} trials={rep.trials} converged={rep.converged} "
            f"mean_moves={rep.mean_moves:.4f} max_moves={rep.max_moves}{bound}"
        )
        if rep.failed:
            print(f"  WARNING: {rep.failed} trial(s) errored", file=sys.stderr)
        if rep.censored:
            print(
                f"  WARNING: {rep.censored} trial(s) hit the step cap without converging",
                file=sys.stderr,
            )
        if rep.failed or (rep.censored and not args.allow_capped) or rep.bound_satisfied is False:
            ok = False
    # A sweep's artifacts keep one shape for any number of palettes.
    if swept:
        print(sweep_table(reports), end="")
    payload = [rep.to_dict() for rep in reports]
    _write_out(args, [_json_text({"reports": payload} if swept else payload[0])])
    if args.trials_tsv:
        text = reports[0].per_trial_tsv()
        if swept:
            # One header, and each row led by its palette.
            rows = [
                f"{rep.algorithm['k']}\t{line}" for rep in reports for line in rep.per_trial_tsv().splitlines(True)[1:]
            ]
            text = "k\ttrial\tmoves\tsteps\tconverged\n" + "".join(rows)
        with open(args.trials_tsv, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0 if ok else 1


def cmd_verify(args) -> int:
    kind = AlgorithmKind(args.algo)
    policy_class = PolicyClass(args.policy_class)
    if kind is AlgorithmKind.PROBABILISTIC and policy_class is not PolicyClass.ALL_LOCALLY_CENTRAL_SINGLE:
        raise UsageError(f"--policy-class {policy_class.value} needs --algo det: "
                         "the probabilistic check searches lc1 only")
    graph = parse_graph_spec(args.graph)
    if kind is AlgorithmKind.DETERMINISTIC:
        report = verify_deterministic(graph, args.k, policy_class, max_depth=args.max_depth, cap=args.cap)
    else:
        report = verify_probabilistic_support(graph, args.k, max_depth=args.max_depth, cap=args.cap)
    print(
        f"graph={graph.label} algo={args.algo} k={args.k} policy_class={report.policy_class} "
        f"configurations={report.configurations_checked}"
    )
    print(
        f"all_converge={report.all_converge} worst_case_moves={report.worst_case_moves} "
        f"terminal={report.terminal_count} legitimate={report.legitimate_count}"
    )
    if report.witness_divergence:
        print(f"divergence: {report.witness_divergence.note}")
    _write_out(args, [_json_text(asdict(report))])
    if args.expect_diverge:
        return 0 if not report.all_converge else 1
    return 0 if report.all_converge else 1


def cmd_repro(args) -> int:
    if args.scenario == "sync-ring":
        report = repro_sync_ring(args.n, args.steps, k=args.k)
    elif args.scenario == "chain":
        report = repro_chain_worst_case(args.n)
        print(f"moves={report.details.get('moves')} expected={report.details['expected_moves']}", end=" ")
    elif args.scenario == "ring-chase":
        report = repro_ring_chase(args.n, args.laps)
    else:
        report = repro_clique_state_bound(args.delta)
    print("OK" if report.ok else "FAIL")
    for failure in report.failures:
        print(f"  {failure}", file=sys.stderr)
    _write_out(args, [_json_text(asdict(report))])
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unicolor",
        description="Self-stabilizing vertex coloring on unidirectional networks: "
        "simulate, experiment, verify, reproduce.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--out", help="write the machine-readable artifact here")

    p_run = sub.add_parser("run", help="run one execution and print its summary")
    p_run.add_argument("--graph", required=True, help="ring:N | chain:N | clique:N | random:N:D:SEED | file:PATH")
    p_run.add_argument("--algo", default="det", choices=["det", "prob"])
    p_run.add_argument("--k", type=int, required=True, help="palette size")
    p_run.add_argument("--sched", default="lc1", help="sync | dist | lc1 | lcmax | script:<file>")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--initial", default="uniform:0", help="uniform:<c> | random | c0,c1,...")
    p_run.add_argument("--max-steps", type=int, default=None)
    p_run.add_argument("--trace", default="moves", choices=["moves", "full"])
    p_run.add_argument("--format", default="json", choices=["json", "tsv"])
    add_common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_exp = sub.add_parser("experiment", help="seeded Monte Carlo batches with bound comparison")
    p_exp.add_argument("--config", help="JSON experiment config file")
    p_exp.add_argument("--graph")
    p_exp.add_argument("--algo", choices=["det", "prob"])
    p_exp.add_argument("--k", type=int)
    p_exp.add_argument("--sched")
    p_exp.add_argument("--trials", type=int)
    p_exp.add_argument("--seed-base", type=int)
    p_exp.add_argument("--initial", choices=[d.value for d in InitialDistribution])
    p_exp.add_argument("--max-steps", type=int)
    p_exp.add_argument("--sweep", dest="k_sweep", metavar="SWEEP", type=_int_list,
                       help="comma-separated palette sizes, one report each")
    p_exp.add_argument("--jobs", type=int, default=1)
    p_exp.add_argument("--trials-tsv", help="also write per-trial moves as TSV here")
    p_exp.add_argument("--allow-capped", action="store_true",
                       help="do not fail on trials that hit the step cap (divergence studies)")
    add_common(p_exp)
    p_exp.set_defaults(func=cmd_experiment, **{key: d for key, (_, d) in EXPERIMENT_SETTINGS.items()})

    p_ver = sub.add_parser("verify", help="exhaustive small-instance stabilization check")
    p_ver.add_argument("--graph", required=True)
    p_ver.add_argument("--algo", default="det", choices=["det", "prob"])
    p_ver.add_argument("--k", type=int, required=True)
    p_ver.add_argument("--policy-class", default="lc1", choices=[c.value for c in PolicyClass])
    p_ver.add_argument("--max-depth", type=int, default=None)
    p_ver.add_argument("--cap", type=int, default=10**6)
    p_ver.add_argument("--expect-diverge", action="store_true",
                       help="succeed when a divergence witness is found")
    add_common(p_ver)
    p_ver.set_defaults(func=cmd_verify)

    p_rep = sub.add_parser("repro", help="named scenario runs asserting expected outcomes")
    rep_sub = p_rep.add_subparsers(dest="scenario", required=True)
    p_sync = rep_sub.add_parser("sync-ring", help="uniform ring never stabilizes in lock-step")
    p_sync.add_argument("--n", type=int, required=True)
    p_sync.add_argument("--steps", type=int, default=200)
    p_sync.add_argument("--k", type=int, default=None)
    add_common(p_sync)
    p_chain = rep_sub.add_parser("chain", help="chain schedule costs exactly n(n-1)/2 moves")
    p_chain.add_argument("--n", type=int, required=True)
    add_common(p_chain)
    p_chase = rep_sub.add_parser("ring-chase", help="one missing color keeps a conflict alive forever")
    p_chase.add_argument("--n", type=int, required=True)
    p_chase.add_argument("--laps", type=int, default=3)
    add_common(p_chase)
    p_clique = rep_sub.add_parser("clique-bound", help="pigeonhole floor on palette size")
    p_clique.add_argument("--delta", type=int, required=True)
    add_common(p_clique)
    p_rep.set_defaults(func=cmd_repro)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
