import math

import pytest

from unicolor import repro
from unicolor import (
    PolicyClass,
    chain,
    repro_chain_worst_case,
    repro_clique_state_bound,
    repro_ring_chase,
    repro_sync_ring,
    verify_deterministic,
)


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

        monkeypatch.setattr(repro, "ring_chase_schedule", broken)
        with pytest.raises(TypeError, match="bug in the chase"):
            repro_ring_chase(4, laps=1)
