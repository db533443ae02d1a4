import math

import pytest
from hypothesis import given, settings, strategies as st

from unicolor import repro
from unicolor import (
    AmbiguousChaseError,
    Configuration,
    PolicyClass,
    chain,
    chain_schedule,
    repro_chain_worst_case,
    repro_clique_state_bound,
    repro_ring_chase,
    repro_sync_ring,
    ring_chase,
    ring_chase_initial,
    run,
    verify_deterministic,
)

from helpers import reference_ring_chase_schedule


class TestSyncRing:
    @pytest.mark.parametrize("n,k,steps", [(5, 5, 100), (2, 2, 10), (4, 3, 9)])
    def test_uniform_forever(self, n, k, steps):
        report = repro_sync_ring(n, steps, k=k)
        assert report.ok, report.failures
        assert report.details["steps"] == steps
        assert report.details["period"] == k

    def test_default_palette_is_n(self):
        assert repro_sync_ring(6, 10).details["k"] == 6


class TestChainWorstCase:
    @pytest.mark.parametrize("n", [2, 5, 10])
    def test_exact_move_count(self, n):
        report = repro_chain_worst_case(n)
        assert report.ok, report.failures
        assert report.details["moves"] == n * (n - 1) // 2

    def test_matches_verifier_worst_case(self):
        # The scripted lower bound meets the enumerated exact maximum.
        for n in (2, 3, 4, 5):
            scripted = repro_chain_worst_case(n).details["moves"]
            enumerated = verify_deterministic(
                chain(n), n, PolicyClass.ALL_LOCALLY_CENTRAL_SINGLE
            ).worst_case_moves
            assert scripted == enumerated


class TestRingChase:
    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_rotation_periodic(self, n):
        report = repro_ring_chase(n, laps=3)
        assert report.ok, report.failures
        assert len(report.details["lap_configurations"]) == 3

    def test_contrast_terminates_with_full_palette(self):
        report = repro_ring_chase(5, laps=2)
        assert report.ok, report.failures
        assert report.details["terminating_k"] == 5
        assert report.details["terminating_moves"] == 4

    def test_one_run_per_palette(self, monkeypatch):
        # One chase run for k = n-1 and one for the k = n contrast; the
        # report is read off their traces.
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[1].k)
            return run(*args, **kwargs)

        monkeypatch.setattr(repro, "run", counting)
        assert repro_ring_chase(5, laps=2).ok
        assert calls == [4, 5]

    @pytest.mark.parametrize("laps", [0, -1])
    def test_laps_floor(self, laps):
        with pytest.raises(ValueError, match=f"need laps >= 1, got {laps}"):
            repro_ring_chase(5, laps)


class TestChainSchedule:
    def test_n3_activation_order(self):
        assert chain_schedule(3).steps == ((0,), (1,), (0,))

    def test_n2_single_activation(self):
        assert chain_schedule(2).steps == ((0,),)

    @pytest.mark.parametrize("n", [2, 3, 5, 10])
    def test_length_and_singletons(self, n):
        script = chain_schedule(n)
        assert len(script) == n * (n - 1) // 2
        assert all(len(step) == 1 for step in script.steps)

    def test_descending_prefix_structure(self):
        script = chain_schedule(4)
        assert script.steps == ((0,), (1,), (2,), (0,), (1,), (0,))


def chase_steps(*args, **kwargs):
    """The activation sets of the chase run."""
    return tuple(rec.activated for rec in ring_chase(*args, **kwargs).steps)


class TestRingChaseSchedule:
    def test_initial_colors(self):
        assert ring_chase_initial(3).colors == (0, 0, 1)
        assert ring_chase_initial(3).k == 2
        assert ring_chase_initial(4).colors == (0, 0, 1, 2)
        assert ring_chase_initial(6, k=6).colors == (0, 0, 1, 2, 3, 4)

    def test_initial_needs_room(self):
        with pytest.raises(ValueError):
            ring_chase_initial(5, k=3)

    def test_short_palette_chase_never_dies(self):
        assert len(chase_steps(3, max_steps=50)) == 50

    def test_chase_walks_around_the_ring(self):
        # The conflicted process advances one position per activation.
        for n in (3, 4, 6):
            steps = chase_steps(n, max_steps=3 * (n - 1))
            assert steps == tuple(((t + 1) % n,) for t in range(3 * (n - 1)))

    def test_full_palette_chase_dies(self):
        for n in (3, 4, 6):
            assert len(chase_steps(n, max_steps=100, k=n)) == n - 1

    def test_legitimate_initial_empty_script(self):
        initial = Configuration(colors=(0, 1, 0, 1), k=3)
        assert chase_steps(4, max_steps=10, k=3, initial=initial) == ()

    def test_ambiguous_chase_detected(self):
        # Two separate duplicated pairs: two processes enabled at once.
        initial = Configuration(colors=(0, 0, 1, 1), k=3)
        with pytest.raises(AmbiguousChaseError) as exc:
            ring_chase(4, max_steps=10, k=3, initial=initial)
        assert str(exc.value) == "expected one enabled process, found (1, 3) after 0 steps"


@st.composite
def chases(draw):
    """Arguments of ``ring_chase``: the chase start (which needs
    k >= n-1) or a random one, with any step budget."""
    n = draw(st.integers(2, 8))
    k = draw(st.integers(2, 6))
    max_steps = draw(st.integers(0, 30))
    if draw(st.booleans()):
        return n, max_steps, k, None
    colors = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    return n, max_steps, k, Configuration(colors=tuple(colors), k=k)


def chase_outcome(steps, *args):
    """The activation sets, or the type and message of what was raised."""
    try:
        return steps(*args)
    except Exception as exc:
        return type(exc), str(exc)


class TestChaseOnTheEngine:
    """The chase runs on ``engine.run``; ``reference_ring_chase_schedule``
    keeps the former loop of its own."""

    @settings(max_examples=400, deadline=None)
    @given(chases())
    def test_matches_reference_loop(self, args):
        reference = chase_outcome(lambda *a: reference_ring_chase_schedule(*a).steps, *args)
        assert chase_outcome(chase_steps, *args) == reference


class TestCliqueBound:
    @pytest.mark.parametrize("delta", [2, 3, 4])
    def test_pigeonhole(self, delta):
        report = repro_clique_state_bound(delta)
        assert report.ok, report.failures
        assert report.details["legitimate_with_k_delta"] == 0
        assert report.details["legitimate_with_k_delta_plus_1"] == math.factorial(delta + 1)
        assert report.details["probabilistic_support"] is True

    def test_delta_floor(self):
        with pytest.raises(ValueError):
            repro_clique_state_bound(0)


class TestBugsAreNotFailures:
    def test_chain_run_bug_propagates(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("bug in run")

        monkeypatch.setattr(repro, "run", broken)
        with pytest.raises(TypeError, match="bug in run"):
            repro_chain_worst_case(4)

    def test_chase_schedule_bug_propagates(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("bug in the chase")

        monkeypatch.setattr(repro, "ring_chase", broken)
        with pytest.raises(TypeError, match="bug in the chase"):
            repro_ring_chase(4, laps=1)
