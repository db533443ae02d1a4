import math
import os
import random
import subprocess
import sys
from dataclasses import replace

import pytest

import unicolor
from unicolor import (
    AlgorithmSpec,
    SchedulerPolicy,
    Script,
    UsageError,
    bidirectional_clique,
    chain,
    chain_schedule,
    ring,
    split_seed,
)
from unicolor import Configuration, engine, experiments
from unicolor.cli import parse_initial
from unicolor.engine import default_max_steps
from unicolor.experiments import (
    ExperimentConfig,
    InitialDistribution,
    random_initial,
    run_batches,
    run_experiment,
    sweep_table,
)

LC1 = SchedulerPolicy.locally_central_single()


def prob_config(graph, k, trials=200, **kwargs):
    return ExperimentConfig(
        graph=graph,
        algorithm=AlgorithmSpec.probabilistic(k),
        scheduler=LC1,
        trials=trials,
        seed_base=kwargs.pop("seed_base", 42),
        **kwargs,
    )


class TestRunExperiment:
    def test_reports_reproducible(self):
        config = prob_config(ring(8), 3, trials=50)
        assert run_experiment(config).to_dict() == run_experiment(config).to_dict()

    def test_deterministic_chain_schedule_single_trial(self):
        n = 10
        config = ExperimentConfig(
            graph=chain(n),
            algorithm=AlgorithmSpec.deterministic(n),
            scheduler=SchedulerPolicy.scripted(chain_schedule(n)),
            trials=1,
            initial=InitialDistribution.UNIFORM_COLOR0,
        )
        report = run_experiment(config)
        assert report.per_trial[0].moves == 45
        assert report.converged == 1
        assert report.bound is None  # bound fields only for the probabilistic rule

    def test_ring_mean_under_bound(self):
        report = run_experiment(prob_config(ring(20), 3, trials=400))
        assert report.converged == 400
        assert report.bound == 40
        assert report.mean_moves <= float(report.bound)
        assert report.bound_satisfied

    def test_large_palette_mean_near_n(self):
        report = run_experiment(prob_config(ring(20), 100, trials=400))
        assert float(report.bound) == pytest.approx(20 * 99 / 98)
        assert report.mean_moves <= float(report.bound)

    def test_stats_fields_consistent(self):
        report = run_experiment(prob_config(ring(6), 3, trials=64))
        moves = [t.moves for t in report.per_trial]
        assert report.min_moves == min(moves)
        assert report.max_moves == max(moves)
        assert report.mean_moves == pytest.approx(sum(moves) / len(moves))

    def test_uniform0_initial_used(self):
        config = prob_config(ring(6), 3, trials=5, initial=InitialDistribution.UNIFORM_COLOR0)
        report = run_experiment(config)
        # a uniform start conflicts everywhere, so every trial must move
        assert report.min_moves >= 1

    def test_trial_errors_recorded_not_raised(self):
        # Script activates process 1 twice; the second activation is illegal.
        config = ExperimentConfig(
            graph=ring(3),
            algorithm=AlgorithmSpec.deterministic(3),
            scheduler=SchedulerPolicy.scripted(Script(steps=((1,), (1,)))),
            trials=3,
            initial=InitialDistribution.UNIFORM_COLOR0,
        )
        report = run_experiment(config)
        assert report.failed == 3
        assert report.converged == 0
        assert all(t.error for t in report.per_trial)
        assert report.to_dict()["errors"] == [{"index": t.index, "error": t.error} for t in report.per_trial]

    def test_nonterminating_commands_recorded_as_errors(self):
        # clique:4 needs k >= 4; with k = 3 a command finds no free color.
        config = ExperimentConfig(
            graph=bidirectional_clique(4),
            algorithm=AlgorithmSpec.deterministic(3),
            scheduler=LC1,
            trials=20,
        )
        report = run_experiment(config)
        assert report.failed == 20
        assert all("all 3 colors held" in t.error for t in report.per_trial)

    def test_programming_error_propagates(self, monkeypatch):
        def broken(*args):
            raise TypeError("bug in a command")

        monkeypatch.setattr(experiments, "rule", lambda *args: broken)
        with pytest.raises(TypeError, match="bug in a command"):
            run_experiment(prob_config(ring(6), 3, trials=3), jobs=1)

    def test_value_error_propagates(self, monkeypatch):
        # A ValueError inside a step is a bug, not an errored trial.
        def broken(*args):
            raise ValueError("bug in a command")

        monkeypatch.setattr(experiments, "rule", lambda *args: broken)
        with pytest.raises(ValueError, match="bug in a command"):
            run_experiment(prob_config(ring(6), 3, trials=3), jobs=1)

    def test_default_cap_resolved_once_per_chunk(self, monkeypatch):
        calls = []

        def counting(graph, algo):
            calls.append(graph.label)
            return default_max_steps(graph, algo)

        monkeypatch.setattr(engine, "default_max_steps", counting)
        monkeypatch.setattr(experiments, "default_max_steps", counting)
        # 70 trials: a chunk of 64 and one of 6.
        report = run_experiment(prob_config(ring(6), 3, trials=70), jobs=1)
        assert calls == ["ring:6"] * 2
        assert report.to_dict()["max_steps"] is None

    def test_censored_trials_leave_the_verdict_null(self):
        report = run_experiment(prob_config(ring(8), 3, trials=40, max_steps=1))
        assert report.censored == report.trials - report.converged > 0
        assert report.bound is not None
        assert report.bound_satisfied is None and report.bound_z_score is None
        assert report.to_dict()["censored"] == report.censored

    def test_report_json_keys(self):
        report = run_experiment(prob_config(ring(4), 3, trials=2)).to_dict()
        assert sorted(report) == sorted([
            "graph", "algorithm", "scheduler", "trials", "seed_base", "initial", "max_steps",
            "converged", "censored", "failed", "mean_moves", "stddev_moves", "min_moves", "max_moves",
            "bound", "bound_value", "bound_satisfied", "bound_z_score", "bound_check",
            "per_trial_moves", "errors",
        ])
        assert report["bound"] == [8, 1] and report["bound_value"] == 8.0

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_floor(self, jobs):
        with pytest.raises(UsageError, match=f"jobs must be >= 1, got {jobs}"):
            run_experiment(prob_config(ring(4), 3, trials=2), jobs=jobs)

    def test_parallel_matches_sequential(self):
        config = prob_config(ring(8), 3, trials=40)
        assert run_experiment(config, jobs=2).to_dict() == run_experiment(config, jobs=1).to_dict()

    def test_import_leaves_the_process_pool_out(self):
        # A fresh interpreter: this one has run the pool above.
        probe = "import sys, unicolor; print('concurrent.futures.process' in sys.modules)"
        src = os.path.dirname(os.path.dirname(unicolor.__file__))
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, check=True)
        assert proc.stdout == "False\n"

    def test_trials_floor(self):
        with pytest.raises(UsageError):
            prob_config(ring(4), 3, trials=0)

    def test_negative_step_cap_rejected(self):
        with pytest.raises(UsageError, match="max_steps must be >= 0"):
            prob_config(ring(4), 3, max_steps=-1)
        assert prob_config(ring(4), 3, max_steps=0).max_steps == 0

    def test_palette_headroom_checked_at_config(self):
        with pytest.raises(UsageError, match="max_degree"):
            prob_config(ring(4), 2)


class TestSeedSplitting:
    def test_streams_differ(self):
        assert split_seed(1, 0, "init") != split_seed(1, 0, "engine")

    def test_trials_differ(self):
        assert split_seed(1, 0, "engine") != split_seed(1, 1, "engine")

    def test_base_plus_index(self):
        # derivation is from seed_base + trial index
        assert split_seed(5, 2, "engine") == split_seed(7, 0, "engine")

    @pytest.mark.parametrize("seed", [0, 1, 7, 2**40 + 3])
    def test_run_random_start_is_trial_zero_start(self, seed):
        graph = ring(9)
        assert parse_initial("random", graph, 4, seed).colors == tuple(random_initial(graph.n, 4, seed, 0))

    @pytest.mark.parametrize("seed_base", [0, 7, 2**40 + 3])
    @pytest.mark.parametrize("index", [0, 1, 63, 64])
    @pytest.mark.parametrize("k", [2, 3, 5, 8, 16])
    def test_random_initial_is_randrange_on_the_init_stream(self, k, index, seed_base):
        n = 40
        rng = random.Random(split_seed(seed_base, index, "init"))
        assert random_initial(n, k, seed_base, index) == [rng.randrange(k) for _ in range(n)]


class TestSweep:
    """A palette sweep is one config per palette, run by ``run_batches``."""

    def test_single_k_equals_run_experiment(self):
        config = prob_config(ring(8), 3, trials=30)
        assert run_batches([config])[0].to_dict() == run_experiment(config).to_dict()

    def test_mean_weakly_decreasing_in_k(self):
        reports = run_batches([prob_config(ring(20), k, trials=400) for k in [3, 4, 8, 64]])
        for lo, hi in zip(reports, reports[1:]):
            slack = 3 * math.sqrt(
                (lo.stddev_moves**2 + hi.stddev_moves**2) / lo.trials
            )
            assert hi.mean_moves <= lo.mean_moves + slack

    def test_parallel_sweep_uses_one_pool(self, monkeypatch):
        made = counting_pools(monkeypatch)
        # 70 trials each: every palette's trials run in chunks of 64 and 6,
        # and all four chunks but this process's share go through one pool.
        configs = [prob_config(ring(8), k, trials=70) for k in [3, 5]]
        parallel = [rep.to_dict() for rep in run_batches(configs, jobs=2)]
        assert parallel == [rep.to_dict() for rep in run_batches(configs, jobs=1)]
        assert len(made) == 1

    def test_table_shape(self):
        table = sweep_table(run_batches([prob_config(ring(6), k, trials=10) for k in [3, 5]]))
        lines = table.strip().splitlines()
        assert lines[0] == "k\tmean_moves\tbound"
        assert len(lines) == 3


def counting_pools(monkeypatch):
    """The keyword arguments of every process pool started from here on."""
    import concurrent.futures

    made = []

    class Counting(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            made.append(kwargs)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Counting)
    return made


def alone(config, index):
    """Trial ``index`` of ``config``'s batch as ``engine.run`` makes it, with
    its own ``Random`` for each stream."""
    start = Configuration.random(config.graph.n, config.algorithm.k,
                                 random.Random(split_seed(config.seed_base, index, "init")))
    trace = engine.run(config.graph, config.algorithm, config.scheduler, start, max_steps=config.max_steps,
                       seed=split_seed(config.seed_base, index, "engine"), record="none")
    return trace.total_moves, trace.total_steps, trace.terminated


class TestChunks:
    """A batch runs in chunks of at most 64 trials, each with one run set-up;
    ``jobs`` counts the processes that run chunks, this one included."""

    @pytest.mark.parametrize("trials", [1, 63, 64, 65, 130])
    def test_reports_equal_at_every_jobs(self, trials):
        config = prob_config(ring(8), 3, trials=trials, seed_base=trials)
        serial = run_experiment(config, jobs=1)
        assert [run_experiment(config, jobs=jobs).to_dict() for jobs in (2, 3)] == [serial.to_dict()] * 2
        assert [t.index for t in serial.per_trial] == list(range(trials))
        capped = replace(config, max_steps=default_max_steps(config.graph, config.algorithm))
        assert [(t.moves, t.steps, t.converged) for t in serial.per_trial] == [
            alone(capped, index) for index in range(trials)]

    def test_sweep_chunks_straddle_no_config(self):
        # 70 trials each: a chunk of 64 and one of 6 per palette, so a
        # chunk cut across the flat list of trials would hold both palettes.
        configs = [prob_config(ring(8), k, trials=70) for k in [3, 5]]
        alone_reports = [run_experiment(config).to_dict() for config in configs]
        for jobs in (1, 2, 3):
            assert [rep.to_dict() for rep in run_batches(configs, jobs=jobs)] == alone_reports

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_model_errors_recorded_at_every_jobs(self, jobs):
        # Script activates process 1 twice; the second activation is illegal.
        config = ExperimentConfig(
            graph=ring(3),
            algorithm=AlgorithmSpec.deterministic(3),
            scheduler=SchedulerPolicy.scripted(Script(steps=((1,), (1,)))),
            trials=70,
            initial=InitialDistribution.UNIFORM_COLOR0,
        )
        report = run_experiment(config, jobs=jobs)
        assert report.failed == 70
        assert {t.error for t in report.per_trial} == {"step 1: script: process 1 is not enabled"}

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_other_errors_propagate_at_every_jobs(self, jobs):
        # A batch past its config's checks: k = 2 on clique:3 leaves a
        # conflicting process no free color, a bug and not a model error.
        # It is the second of two chunks, the one a worker runs at jobs=2.
        good = prob_config(bidirectional_clique(3), 3, trials=64, max_steps=100,
                           initial=InitialDistribution.UNIFORM_COLOR0)
        bad = replace(good, trials=1)
        object.__setattr__(bad, "algorithm", AlgorithmSpec.probabilistic(2))
        with pytest.raises(ValueError, match="empty candidate set"):
            run_batches([good, bad], jobs=jobs)

    def test_chunks_dealt_in_turn(self, monkeypatch):
        # Chunks (k=3, 0..64), (k=3, 64..70), (k=5, 0..64), (k=5, 64..70):
        # at jobs=2 this process runs the first and third, one of each
        # palette, and the worker the other two.
        ran = []
        real = experiments.run_chunk

        def recording(config, start, stop):
            ran.append((config.algorithm.k, start, stop))
            return real(config, start, stop)

        monkeypatch.setattr(experiments, "run_chunk", recording)
        configs = [prob_config(ring(8), k, trials=70) for k in [3, 5]]
        parallel = [rep.to_dict() for rep in run_batches(configs, jobs=2)]
        assert ran == [(3, 0, 64), (5, 0, 64)]
        ran.clear()
        assert parallel == [rep.to_dict() for rep in run_batches(configs, jobs=1)]
        assert ran == [(3, 0, 64), (3, 64, 70), (5, 0, 64), (5, 64, 70)]

    def test_pool_sizes(self, monkeypatch):
        made = counting_pools(monkeypatch)
        run_experiment(prob_config(ring(8), 3, trials=65), jobs=2)
        assert made == [{"max_workers": 1}]
        # Two chunks: one for this process, one for a single worker.
        run_experiment(prob_config(ring(8), 3, trials=65), jobs=3)
        assert made == [{"max_workers": 1}] * 2
        run_experiment(prob_config(ring(8), 3, trials=130), jobs=3)
        assert made == [{"max_workers": 1}] * 2 + [{"max_workers": 2}]

    def test_one_chunk_starts_no_pool(self, monkeypatch):
        made = counting_pools(monkeypatch)
        for trials in (1, 64):
            run_experiment(prob_config(ring(8), 3, trials=trials), jobs=4)
        assert run_batches([], jobs=4) == []
        assert made == []

    @pytest.mark.parametrize("algo, calls", [(AlgorithmSpec.deterministic(3), 70),
                                             (AlgorithmSpec.probabilistic(3), 2)], ids=["det", "prob"])
    def test_no_view_table_outlives_a_trial(self, monkeypatch, algo, calls):
        # The deterministic command keeps a view table for its run, so each
        # trial gets its own; the probabilistic one keeps nothing and is
        # made once per chunk.
        made = []
        real = experiments.rule

        def counting_rule(*args):
            made.append(args[0])
            return real(*args)

        monkeypatch.setattr(experiments, "rule", counting_rule)
        run_experiment(replace(prob_config(ring(8), 3, trials=70), algorithm=algo), jobs=1)
        assert made == [algo.kind] * calls

    def test_mid_batch_chunk_equals_its_trials_alone(self):
        config = prob_config(ring(8), 3, trials=70, max_steps=1000)
        chunk = experiments.run_chunk(config, 60, 70)
        assert [t.index for t in chunk] == list(range(60, 70))
        assert [experiments.run_chunk(config, index, index + 1)[0] for index in range(60, 70)] == chunk
        assert [(t.moves, t.steps, t.converged) for t in chunk] == [alone(config, index) for index in range(60, 70)]
