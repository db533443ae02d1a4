import math
import random
from fractions import Fraction

import pytest

from unicolor import (
    AlgorithmKind,
    AlgorithmSpec,
    Configuration,
    NonTerminatingCommandError,
    UsageError,
    build_graph,
    conflict_creation_bound,
    expected_steps_per_conflict,
    expected_total_steps_bound,
    ring,
    rule,
)

from helpers import oracle_det_do_loop, random_instance


def star_into(n_preds, pred_colors, own_color, k):
    """Graph where process 0 reads n_preds others, with the given colors."""
    arcs = [(p, 0) for p in range(1, n_preds + 1)]
    graph = build_graph(n_preds + 1, arcs)
    config = Configuration(colors=(own_color, *pred_colors), k=k)
    return graph, config


def det_new(graph, config, i):
    return rule(AlgorithmKind.DETERMINISTIC, graph, config.k, None)((i,), config.colors)[0]


def prob_new(graph, config, i, rng):
    return rule(AlgorithmKind.PROBABILISTIC, graph, config.k, rng)((i,), config.colors)[0]


class TestSpec:
    def test_palette_floor(self):
        with pytest.raises(UsageError):
            AlgorithmSpec.deterministic(1)

    def test_constructors(self):
        assert AlgorithmSpec.probabilistic(4).kind is AlgorithmKind.PROBABILISTIC
        assert AlgorithmSpec.deterministic(3).kind is AlgorithmKind.DETERMINISTIC


class TestDetCommand:
    def test_single_increment(self):
        graph, config = star_into(1, [3], 3, k=5)
        assert det_new(graph, config, 0) == 4

    def test_skips_occupied_colors(self):
        # Do-loop by hand: 1 -> 2 (taken) -> 3 (taken) -> 0 (free).
        graph, config = star_into(3, [1, 2, 3], 1, k=4)
        new = det_new(graph, config, 0)
        assert new == 0
        assert new == oracle_det_do_loop({1, 2, 3}, 1, 4)

    def test_palette_exhausted(self):
        graph, config = star_into(3, [0, 1, 2], 0, k=3)
        with pytest.raises(NonTerminatingCommandError):
            det_new(graph, config, 0)

    def test_requires_enabled(self):
        graph, config = star_into(1, [2], 0, k=3)
        with pytest.raises(ValueError, match="not enabled"):
            det_new(graph, config, 0)

    def test_matches_do_loop_oracle_randomly(self):
        rng = random.Random(7)
        checked = 0
        while checked < 300:
            graph, config = random_instance(rng)
            for i in range(graph.n):
                taken = {config.colors[p] for p in graph.preds[i]}
                if config.colors[i] not in taken or len(taken) >= config.k:
                    continue
                new = det_new(graph, config, i)
                assert new == oracle_det_do_loop(taken, config.colors[i], config.k)
                assert new != config.colors[i]
                checked += 1

    def test_never_jumps_a_free_color(self):
        # Every color cyclically between old and new is held by a predecessor.
        rng = random.Random(13)
        checked = 0
        while checked < 200:
            graph, config = random_instance(rng)
            for i in range(graph.n):
                taken = {config.colors[p] for p in graph.preds[i]}
                if config.colors[i] not in taken or len(taken) >= config.k:
                    continue
                new = det_new(graph, config, i)
                c = (config.colors[i] + 1) % config.k
                while c != new:
                    assert c in taken
                    c = (c + 1) % config.k
                checked += 1

    def test_pure_function(self):
        graph, config = star_into(2, [1, 2], 1, k=4)
        assert det_new(graph, config, 0) == det_new(graph, config, 0)

    def test_single_predecessor_reduces_to_plain_increment(self):
        # With one predecessor the guard forces its color to equal the
        # mover's own, so the next color is always free: the general rule
        # degenerates to the ring rule's single +1 mod k.
        rng = random.Random(5)
        g = ring(6)
        for _ in range(200):
            k = rng.randrange(2, 6)
            config = Configuration.random(6, k, rng)
            for i in range(6):
                pred = g.preds[i][0]
                if config.colors[i] != config.colors[pred]:
                    continue
                assert det_new(g, config, i) == (config.colors[i] + 1) % k


class TestProbCommand:
    def test_singleton_candidate_deterministic(self):
        graph, config = star_into(1, [0], 0, k=2)
        for seed in range(20):
            assert prob_new(graph, config, 0, random.Random(seed)) == 1

    def test_never_predecessor_color_never_stays(self):
        rng = random.Random(31)
        checked = 0
        while checked < 300:
            graph, config = random_instance(rng)
            for i in range(graph.n):
                taken = {config.colors[p] for p in graph.preds[i]}
                if config.colors[i] not in taken or len(taken) >= config.k:
                    continue
                new = prob_new(graph, config, i, rng)
                assert new not in taken
                assert new != config.colors[i]
                checked += 1

    def test_uniform_over_candidates(self):
        # 30000 seeded draws against uniform{0,1,3}: each within 3 sigma.
        graph, config = star_into(1, [2], 2, k=4)
        rng = random.Random(2024)
        counts = {0: 0, 1: 0, 3: 0}
        trials = 30_000
        for _ in range(trials):
            counts[prob_new(graph, config, 0, rng)] += 1
        expected = trials / 3
        sigma = math.sqrt(trials * (1 / 3) * (2 / 3))
        for color, count in counts.items():
            assert abs(count - expected) <= 3 * sigma, (color, count)

    def test_tight_palette_single_candidate(self):
        # delta_in = max_degree and k = max_degree + 1: one candidate left.
        delta = 3
        pred_colors = list(range(1, delta + 1))
        graph, config = star_into(delta, pred_colors, 1, k=delta + 1)
        # make the process conflicted: own color 1 collides with a predecessor
        for seed in range(10):
            assert prob_new(graph, config, 0, random.Random(seed)) == 0

    def test_empty_candidate_set_rejected(self):
        graph, config = star_into(3, [0, 1, 2], 0, k=3)
        with pytest.raises(ValueError, match="empty candidate set"):
            prob_new(graph, config, 0, random.Random(0))


class TestCommand:
    @pytest.mark.parametrize("kind", list(AlgorithmKind), ids=lambda kind: kind.value)
    def test_process_without_predecessors_is_not_enabled(self, kind):
        # Processes 0 and 2 read nobody, so they have no view.  Before and
        # after process 1's view is known, asking for either of them, alone
        # or beside process 1, raises as the guard does.
        graph = build_graph(3, [(0, 1)])
        command = rule(kind, graph, 3, random.Random(0))
        for _ in range(2):
            for processes, i in [((0,), 0), ((2,), 2), ((1, 2), 2), ((0, 1), 0)]:
                with pytest.raises(ValueError, match=f"^process {i} is not enabled$"):
                    command(processes, (0, 0, 0))
            assert command((1,), (0, 0, 0))[0] in (1, 2)


class TestBounds:
    @pytest.mark.parametrize(
        "delta,k,value",
        [(3, 4, Fraction(2, 3)), (1, 2, 0), (1, 17, 0), (2, 3, Fraction(1, 2))],
    )
    def test_conflict_creation_bound(self, delta, k, value):
        assert conflict_creation_bound(delta, k) == value

    def test_conflict_creation_bound_domain(self):
        # No argument of a command reaches the evaluators' checks: a caller
        # that fails one has a bug, so the error is a plain ValueError.
        for args in [(3, 3), (0, 2)]:
            with pytest.raises(ValueError) as err:
                conflict_creation_bound(*args)
            assert type(err.value) is ValueError

    @pytest.mark.parametrize(
        "delta,k,value",
        [(3, 4, 3), (1, 2, 1), (2, 1002, Fraction(1001, 1000))],
    )
    def test_expected_steps_per_conflict(self, delta, k, value):
        assert expected_steps_per_conflict(delta, k) == Fraction(value)

    def test_steps_per_conflict_is_geometric_sum(self):
        # Independent route: partial geometric sums converge to the closed form.
        for delta, k in [(2, 3), (3, 5), (4, 16)]:
            m = Fraction(delta - 1, k - 1)
            partial = sum(m**i for i in range(200))
            assert abs(float(partial) - float(expected_steps_per_conflict(delta, k))) < 1e-9

    def test_total_steps_bound_values(self):
        assert expected_total_steps_bound(10, 3, 4) == 30
        assert expected_total_steps_bound(10, 3, 100) == Fraction(990, 97)
        assert expected_total_steps_bound(1, 2, 5) == Fraction(4, 3)

    def test_total_steps_bound_tight_palette_is_n_delta(self):
        for n, delta in [(5, 2), (9, 4)]:
            assert expected_total_steps_bound(n, delta, delta + 1) == n * delta

    def test_total_steps_bound_large_k_approaches_n(self):
        n, delta = 10, 3
        assert float(expected_total_steps_bound(n, delta, 10**6)) == pytest.approx(n, rel=1e-4)

    def test_exact_rationals(self):
        assert isinstance(expected_total_steps_bound(7, 2, 5), Fraction)
        assert isinstance(conflict_creation_bound(2, 5), Fraction)
