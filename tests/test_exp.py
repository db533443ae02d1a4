import math
import os
import subprocess
import sys

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
from unicolor import engine, experiments
from unicolor.cli import parse_initial
from unicolor.engine import default_max_steps
from unicolor.experiments import (
    ExperimentConfig,
    InitialDistribution,
    run_experiment,
    sweep,
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

        monkeypatch.setattr(engine, "recolor", broken)
        with pytest.raises(TypeError, match="bug in a command"):
            run_experiment(prob_config(ring(6), 3, trials=3), jobs=1)

    def test_value_error_propagates(self, monkeypatch):
        # A ValueError inside a step is a bug, not an errored trial.
        def broken(*args):
            raise ValueError("bug in a command")

        monkeypatch.setattr(engine, "recolor", broken)
        with pytest.raises(ValueError, match="bug in a command"):
            run_experiment(prob_config(ring(6), 3, trials=3), jobs=1)

    def test_default_cap_resolved_once_per_batch(self, monkeypatch):
        calls = []

        def counting(graph, algo):
            calls.append(graph.label)
            return default_max_steps(graph, algo)

        monkeypatch.setattr(engine, "default_max_steps", counting)
        monkeypatch.setattr(experiments, "default_max_steps", counting)
        report = run_experiment(prob_config(ring(6), 3, trials=20), jobs=1)
        assert calls == ["ring:6"]
        assert report.to_dict()["max_steps"] is None

    def test_censored_trials_leave_the_verdict_null(self):
        report = run_experiment(prob_config(ring(8), 3, trials=40, max_steps=1))
        assert report.censored == report.trials - report.converged > 0
        assert report.bound is not None
        assert report.bound_satisfied is None and report.bound_z_score is None
        assert report.to_dict()["censored"] == report.censored

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
        config = prob_config(graph, 4, trials=1, seed_base=seed)
        assert parse_initial("random", graph, 4, seed) == experiments._initial_for_trial(config, 0)


class TestSweep:
    def test_single_k_equals_run_experiment(self):
        config = prob_config(ring(8), 3, trials=30)
        assert sweep(config, [3])[0].to_dict() == run_experiment(config).to_dict()

    def test_mean_weakly_decreasing_in_k(self):
        config = prob_config(ring(20), 3, trials=400)
        reports = sweep(config, [3, 4, 8, 64])
        for lo, hi in zip(reports, reports[1:]):
            slack = 3 * math.sqrt(
                (lo.stddev_moves**2 + hi.stddev_moves**2) / lo.trials
            )
            assert hi.mean_moves <= lo.mean_moves + slack

    def test_invalid_k_rejected_before_any_trial(self):
        config = prob_config(ring(8), 3, trials=10)
        with pytest.raises(ValueError, match="max_degree"):
            sweep(config, [3, 2])  # k=2 equals the ring's max degree

    def test_table_shape(self):
        config = prob_config(ring(6), 3, trials=10)
        table = sweep_table(sweep(config, [3, 5]))
        lines = table.strip().splitlines()
        assert lines[0] == "k\tmean_moves\tbound"
        assert len(lines) == 3
