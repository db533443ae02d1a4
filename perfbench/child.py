"""One workload in its own process: set up, measure, check, report.

Started by ``run.py``; prints one JSON object as its last stdout line.
With ``--trace 1`` it measures untraced rounds first, then repeats one
setup and one round under the span wrappers of ``tracer.py`` and reports
the per-layer metrics, the tracing overhead, and writes the spans to
``.perfbench/`` at the root of the checkout.  ``--only NAME`` runs a
single operation once and reports that process's peak RSS.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

import reference

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
IMPORT_REPEATS = 11
# Seconds of timed calls per sample of the reference work.
REF_EVERY_S = 0.1
# Samples of the reference work between two set-up repeats.
REF_SAMPLES = 3
# A fresh interpreter per sample: the cost a user pays, stdlib imports included.
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import unicolor; print(time.perf_counter() - t)"
)


def import_once(src: Path) -> float:
    """Seconds to import ``unicolor`` in a fresh interpreter."""
    return float(subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(src)],
                                capture_output=True, text=True, timeout=60, check=True).stdout)


def repeat(fn, times: int) -> tuple[list[float], list[float]]:
    """``times`` results of ``fn()``, which returns seconds, and
    ``REF_SAMPLES`` times of the reference work before the first call and
    after each."""
    def sample() -> list[float]:
        return [reference.seconds() for _ in range(REF_SAMPLES)]

    seconds, refs = [], sample()
    for _ in range(times):
        seconds.append(fn())
        refs += sample()
    return seconds, refs


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_op(op, tracer=None):
    """Time one call, then check its output; returns (output, seconds, problems).

    With a tracer, only the call runs under the program's wrappers.
    """
    t0 = perf_counter()
    try:
        with tracer.traced(f"bench.op.{op.name}") if tracer else nullcontext():
            out = op.call()
    except Exception:  # a crash is a failed operation, reported with its traceback
        return None, perf_counter() - t0, [f"{op.name} raised:\n{traceback.format_exc()}"]
    seconds = perf_counter() - t0
    try:
        problems = op.check(out)
    except Exception:
        problems = [f"checking {op.name} raised:\n{traceback.format_exc()}"]
    return out, seconds, problems


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, op, problems) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"FAILED {op.name}: {problems[0]}", file=sys.stderr)
        return not problems


def measure(wl, seconds: float, tally: Tally):
    """Whole rounds over every operation until the next would overrun ``seconds``.

    The first round only warms up.  Returns per later round
    ``(items, busy_s, {op name: seconds}, refs)``, where
    ``busy_s`` sums the timed calls only, not the checks, and ``refs`` are
    times of the reference work, one after each call and one more for every
    further ``REF_EVERY_S`` it took, so that the samples spread evenly over
    the calls' time; each operation's item count; and the peak RSS after the
    first round.  Later rounds repeat the same work, so they need no more
    memory: what RSS they add is heap fragmentation from the rounds' own
    bookkeeping.
    """
    rounds, op_items, first_peak = [], {}, None
    owed = 0.0  # seconds of calls not yet covered by a reference sample
    start = perf_counter()
    warm = False
    while True:
        gc.collect()  # every round starts from the same heap
        items, busy, per_op, refs = 0, 0.0, {}, []
        for op in wl.ops:
            out, dt, problems = run_op(op)
            busy += dt
            per_op[op.name] = dt
            if tally.record(op, problems):
                op_items[op.name] = op.items(out)
                items += op_items[op.name]
            out = None
            owed += dt
            while owed > 0:
                refs.append(reference.seconds())
                owed -= REF_EVERY_S
        if not warm:  # the first round warms caches and is not timed
            warm, owed = True, 0.0
            first_peak = peak_rss_mb()
            continue
        rounds.append((items, busy, per_op, refs))
        elapsed = perf_counter() - start
        if elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            return rounds, op_items, first_peak


def at_reference_speed(seconds: float, refs: list[float]) -> float:
    """``seconds`` measured while the reference work took ``refs``, as they
    would read at the speed at which it takes ``reference.NOMINAL_S``.

    The samples are spread over the measured stretch, so their mean stands
    for the machine's mean speed in it; a single sample does not, since the
    speed moves within a second.
    """
    return seconds * reference.NOMINAL_S / statistics.mean(refs)


def install_wrappers(tracer) -> None:
    """Wrap the program's public functions where their callers look them up."""
    from unicolor import algorithms, cli, core, engine, experiments, repro, schedulers, verify

    def count_run(tr, trace) -> None:
        tr.counters["engine.steps"] = tr.counters.get("engine.steps", 0) + trace.total_steps
        tr.counters["engine.moves"] = tr.counters.get("engine.moves", 0) + trace.total_moves

    patch = tracer.patch
    for module in (core, cli, repro, schedulers):
        for attr in ("build_graph", "ring", "chain", "bidirectional_clique", "random_digraph"):
            patch(module, attr, "core.graph_build")
    patch(core.Configuration, "__post_init__", "core.configuration.init")
    patch(core.Configuration, "replace", "core.configuration.replace")
    for module in (engine, schedulers, verify):
        patch(module, "enabled_set", "core.enabled_set")
    for module in (verify, repro):
        patch(module, "is_legitimate", "core.is_legitimate")
    for module in (algorithms, schedulers, verify):
        patch(module, "det_command", "algorithms.det_command")
    patch(algorithms, "prob_command", "algorithms.prob_command")
    patch(engine, "select", lambda policy, *a, **k: f"schedulers.select.{policy.kind.value}")
    for module in (engine, experiments, repro, verify, cli):
        patch(module, "run", "engine.run", on_result=count_run)
    patch(engine.ExecutionTrace, "to_json", "engine.to_json")
    patch(experiments, "run_trial", "experiments.run_trial")
    for module in (experiments, cli):
        patch(module, "split_seed", "experiments.split_seed")
    patch(experiments, "run_experiment", lambda config, jobs=1: f"experiments.run_experiment.jobs{jobs}")
    for module in (verify, repro, cli):
        patch(module, "verify_deterministic", "verify.check")
        patch(module, "verify_probabilistic_support", "verify.check")
    for attr in ("repro_chain_worst_case", "repro_sync_ring"):
        patch(repro, attr, f"repro.{attr}")
    patch(cli, "parse_graph_spec", "cli.parse_graph_spec")


def op_timings(wl, rounds, op_items) -> dict[str, float]:
    """Per-layer metrics derived from each operation's median untraced time."""
    out = {}
    for op in wl.ops:
        if op.timing is not None and op.name in op_items:
            name, _, derive = op.timing
            out[name] = derive(statistics.median(r[2][op.name] for r in rounds), op_items[op.name])
    return out


def layer_metrics(tracer, wl, rounds, op_items, traced_busy: float) -> dict[str, float]:
    agg = tracer.aggregate()
    in_verify = tracer.aggregate(context="verify.check")

    def calls(name, table=agg):
        return table.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return agg.get(name, (0, 0.0, 0.0))[1]

    def self_s(*names):
        return sum(agg.get(n, (0, 0.0, 0.0))[2] for n in names)

    def ratio(a, b):
        return a / b if b else 0.0

    moves = tracer.counters.get("engine.moves", 0)
    steps = tracer.counters.get("engine.steps", 0)
    states = calls("core.enabled_set", in_verify)
    untraced = statistics.median(r[1] for r in rounds)
    m = {
        "trace.untraced_round_s": untraced,
        "trace.traced_round_s": traced_busy,
        "trace.overhead_s": traced_busy - untraced,
        "trace.overhead_ratio": ratio(traced_busy - untraced, untraced),
        "trace.spans": len(tracer.start),
        "core.enabled_set.calls": calls("core.enabled_set"),
        "core.enabled_set.self_s": self_s("core.enabled_set"),
        "core.enabled_set.calls_per_move": ratio(calls("core.enabled_set"), moves),
        "core.configurations_built": calls("core.configuration.init"),
        "core.configuration.self_s": self_s("core.configuration.init", "core.configuration.replace"),
        "core.is_legitimate.calls": calls("core.is_legitimate"),
        "core.is_legitimate.self_s": self_s("core.is_legitimate"),
        "core.graph_build_s": self_s("core.graph_build"),
        "cli.parse_graph_spec.s": total("cli.parse_graph_spec"),
        "algorithms.det_command.calls": calls("algorithms.det_command"),
        "algorithms.det_command.self_s": self_s("algorithms.det_command"),
        "algorithms.prob_command.calls": calls("algorithms.prob_command"),
        "algorithms.prob_command.self_s": self_s("algorithms.prob_command"),
        "engine.run.self_s": self_s("engine.run"),
        "engine.steps": steps,
        "engine.moves": moves,
        "engine.moves_per_step": ratio(moves, steps),
        "engine.to_json.self_s": self_s("engine.to_json"),
        "experiments.run_trial.self_s": self_s("experiments.run_trial"),
        "experiments.split_seed.calls": calls("experiments.split_seed"),
        "experiments.split_seed.self_s": self_s("experiments.split_seed"),
        "experiments.aggregate_s": self_s("experiments.run_experiment.jobs1"),
        "verify.self_s": self_s("verify.check"),
        "verify.states": states,
        "verify.det_command_per_state": ratio(calls("algorithms.det_command", in_verify), states),
        "verify.replay_witness.s": total("verify.replay_witness"),
    }
    for policy in ("lc1", "script", "sync", "dist", "lcmax"):
        m[f"schedulers.select.{policy}.calls"] = calls(f"schedulers.select.{policy}")
        m[f"schedulers.select.{policy}.self_s"] = self_s(f"schedulers.select.{policy}")
    m.update(op_timings(wl, rounds, op_items))
    serial = m.get("experiments.trials_per_s", 0.0)
    m["experiments.parallel_efficiency"] = ratio(m.get("experiments.trials_per_s_jobs2", 0.0), 2 * serial)
    m.update(wl.facts)
    return m


def only_peak_rss(args, op_names) -> dict[str, float]:
    """Peak RSS of a fresh process per operation, for the verify instances.

    Linux carries ``ru_maxrss`` across fork and exec, so this runs before
    the caller's own memory grows past a bare interpreter with unicolor.
    """
    out = {}
    for name in op_names:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed), "--only", name],
            capture_output=True, text=True, timeout=120, check=True,
        )
        out[f"verify.{name}.peak_rss_mb"] = json.loads(proc.stdout.splitlines()[-1])["peak_rss_mb"]
    return out


def emit(kind: str, computed: dict[str, float]) -> dict:
    """Every metric ``BENCHMARK.json`` lists under ``kind``, 0 where this
    workload does not exercise it."""
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    names = {m["name"] for m in listed}
    unknown = sorted(set(computed) - names)
    if unknown:
        raise SystemExit(f"metrics missing from BENCHMARK.json {kind}: {unknown}")
    return {m["name"]: {"value": computed.get(m["name"], 0), "unit": m["unit"]} for m in listed}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--only", default=None)
    args = parser.parse_args()

    src = ROOT / "src"
    if not (src / "unicolor" / "__init__.py").is_file():
        print(f"no unicolor package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads
    from tracer import Tracer

    make = workloads.WORKLOADS[args.workload]
    if args.only:
        wl = make(args.seed, workloads.NoSpans())
        (op,) = [op for op in wl.ops if op.name == args.only]
        _, _, problems = run_op(op)
        print(json.dumps({"peak_rss_mb": peak_rss_mb(), "problems": problems}))
        return 1 if problems else 0

    instance_rss = {}
    if args.trace and args.workload == "verify":
        instance_rss = only_peak_rss(args, [op.name for op in make(args.seed, workloads.NoSpans()).ops])

    built = []

    def build() -> float:
        t0 = perf_counter()
        built[:] = [make(args.seed, workloads.NoSpans())]
        return perf_counter() - t0

    build_s, build_refs = repeat(build, SETUP_REPEATS)
    wl = built.pop()
    tally = Tally()
    rounds, op_items, first_peak = measure(wl, args.seconds, tally)

    if not args.trace:
        import_s, import_refs = repeat(lambda: import_once(src), IMPORT_REPEATS)
        # Set-up is scaled by the speed around its own repeats, the rounds by
        # the speed over all of them: speed moves within seconds.
        computed = {
            "setup_s": at_reference_speed(statistics.median(import_s), import_refs)
            + at_reference_speed(statistics.median(build_s), build_refs),
            "items_per_s": sum(r[0] for r in rounds) / at_reference_speed(
                sum(r[1] for r in rounds), [x for r in rounds for x in r[3]]),
            "peak_rss_mb": first_peak,
        }
        metrics = emit("end_to_end", computed)
    else:
        tracer = Tracer()
        install_wrappers(tracer)
        with tracer.traced("bench.setup"):
            wl = make(args.seed, tracer)
        traced_busy = 0.0
        for op in wl.ops:
            _, dt, problems = run_op(op, tracer)
            traced_busy += dt
            tally.record(op, problems)
        tracer.unpatch()
        computed = layer_metrics(tracer, wl, rounds, op_items, traced_busy)
        computed.update(instance_rss)
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        stem = out_dir / f"{args.workload}-seed{args.seed}"
        tracer.write_spans(stem.with_suffix(".spans.tsv.gz"))
        metrics = emit("per_layer", computed)
        stem.with_suffix(".layers.json").write_text(json.dumps(metrics, indent=1) + "\n")

    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
