import random

import pytest

from unicolor import (
    Configuration,
    SchedulerKind,
    SchedulerPolicy,
    Script,
    ScriptViolationError,
    chain,
    ring,
    selector,
)

from helpers import random_instance, reference_mask_decode, reference_select, tracker_members


def pick(policy, graph, cfg, rng, step_index=0):
    """This step's activation set from the enabled processes of ``cfg``."""
    return selector(policy, graph, rng)(tracker_members(graph, cfg), step_index)


ALL_RANDOM_KINDS = [
    SchedulerPolicy.synchronous(),
    SchedulerPolicy.distributed(),
    SchedulerPolicy.locally_central_single(),
    SchedulerPolicy.locally_central_maximal(),
]


class TestSelect:
    def test_synchronous_takes_everyone(self):
        g = ring(3)
        cfg = Configuration.uniform(3, 0, 3)
        assert pick(SchedulerPolicy.synchronous(), g, cfg, random.Random(0)) == (0, 1, 2)

    def test_lc1_singleton_from_enabled(self):
        g = ring(3)
        cfg = Configuration.uniform(3, 0, 3)
        for seed in range(10):
            picked = pick(SchedulerPolicy.locally_central_single(), g, cfg, random.Random(seed))
            assert len(picked) == 1
            assert picked[0] in (0, 1, 2)

    def test_lcmax_on_chain_picks_one_of_two_neighbors(self):
        g = chain(3)
        cfg = Configuration.uniform(3, 0, 3)
        assert tracker_members(g, cfg) == (0, 1)
        for seed in range(10):
            picked = pick(SchedulerPolicy.locally_central_maximal(), g, cfg, random.Random(seed))
            assert len(picked) == 1  # 0 and 1 are neighbors

    @pytest.mark.parametrize("policy", ALL_RANDOM_KINDS, ids=lambda p: p.name)
    def test_always_nonempty_subset_of_enabled(self, policy):
        rng = random.Random(77)
        tried = 0
        while tried < 200:
            graph, cfg = random_instance(rng)
            enabled_now = set(tracker_members(graph, cfg))
            if not enabled_now:
                continue
            picked = pick(policy, graph, cfg, rng)
            assert picked
            assert set(picked) <= enabled_now
            tried += 1

    @pytest.mark.parametrize(
        "policy",
        [SchedulerPolicy.locally_central_single(), SchedulerPolicy.locally_central_maximal()],
        ids=lambda p: p.name,
    )
    def test_locally_central_independence(self, policy):
        rng = random.Random(123)
        tried = 0
        while tried < 200:
            graph, cfg = random_instance(rng)
            if not tracker_members(graph, cfg):
                continue
            picked = pick(policy, graph, cfg, rng)
            for a in picked:
                for b in picked:
                    if a != b:
                        assert b not in graph.neighbors[a]
            tried += 1

    def test_lcmax_is_maximal(self):
        rng = random.Random(321)
        tried = 0
        while tried < 200:
            graph, cfg = random_instance(rng)
            enabled_now = set(tracker_members(graph, cfg))
            if not enabled_now:
                continue
            picked = set(pick(SchedulerPolicy.locally_central_maximal(), graph, cfg, rng))
            for i in enabled_now - picked:
                assert picked & set(graph.neighbors[i]), f"{i} could have been added"
            tried += 1

    def test_distributed_covers_all_subsets(self):
        g = ring(2)
        cfg = Configuration.uniform(2, 0, 2)
        rng = random.Random(8)
        seen = {pick(SchedulerPolicy.distributed(), g, cfg, rng) for _ in range(200)}
        assert seen == {(0,), (1,), (0, 1)}

    @pytest.mark.parametrize("policy", ALL_RANDOM_KINDS, ids=lambda p: p.name)
    def test_draws_as_the_stdlib(self, policy):
        # A pick draws through ``getrandbits``; the reference calls
        # ``choice``, ``randrange`` and ``shuffle``.  Enabled sets of 1 to
        # 70 processes cover the distributed mask at m = 1 and past 64 bits;
        # on a chain, what lcmax keeps depends on the permutation drawn.
        for m in range(1, 71):
            graph = chain(m + 1)
            enabled_now = tuple(range(m))
            got, want = random.Random(m), random.Random(m)
            for _ in range(5):
                assert selector(policy, graph, got)(enabled_now, 0) == reference_select(
                    policy, set(graph.arcs), None, enabled_now, want, 0)
                assert got.getstate() == want.getstate()

    def test_dist_decodes_masks_as_the_reference(self):
        # A stub whose draw is ``mask - 1`` makes the dist pick take
        # ``mask``: one bit, every bit, the top bit only, and a random mask
        # over enabled sets of 1 to 1,000 processes.
        class Bits:
            def __init__(self, mask):
                self.value = mask - 1

            def getrandbits(self, bits):
                return self.value

        policy, graph = SchedulerPolicy.distributed(), chain(2000)
        rng = random.Random(5)
        for m in range(1, 1001):
            enabled_now = tuple(sorted(rng.sample(range(2 * m), m)))
            for mask in {1, (1 << m) - 1, 1 << (m - 1), rng.randrange(1, 1 << m)}:
                assert selector(policy, graph, Bits(mask))(enabled_now, 0) == reference_mask_decode(
                    mask, enabled_now)

    @pytest.mark.parametrize("policy", ALL_RANDOM_KINDS + ["script"],
                             ids=lambda p: p if isinstance(p, str) else p.name)
    def test_one_pick_matches_fresh_selectors(self, policy):
        # One run's pick, called for 250 consecutive steps, against a fresh
        # ``selector`` per step on a twin generator: the same picks, and
        # the same generator state after each.  The script is 250 random
        # independent sets of ring:40, run with every process enabled.
        graph, sets = ring(40), random.Random(9)
        if policy == "script":
            steps = []
            for _ in range(250):
                picked = set()
                for i in sets.sample(range(40), sets.randint(1, 6)):
                    if not picked & set(graph.neighbors[i]):
                        picked.add(i)
                steps.append(tuple(picked))
            policy = SchedulerPolicy.scripted(Script(steps=tuple(steps)))
        got, want = random.Random(1), random.Random(1)
        pick = selector(policy, graph, got)
        for t in range(250):
            if policy.script is not None:
                enabled_now = tuple(range(40))
            else:
                enabled_now = tuple(sorted(sets.sample(range(40), sets.randint(1, 40))))
            assert pick(enabled_now, t) == selector(policy, graph, want)(enabled_now, t)
            assert got.getstate() == want.getstate()
        if policy.script is not None:
            assert pick(tuple(range(40)), 250) is None

    @pytest.mark.parametrize("steps, enabled_now, message", [
        (((0,), (5,)), (0, 1, 2, 3), "process 5 is not enabled"),
        (((0,), (4, 2, 3)), (2, 3, 4), "processes 2 and 3 are neighbors"),
    ])
    def test_one_pick_raises_as_fresh_selectors(self, steps, enabled_now, message):
        policy = SchedulerPolicy.scripted(Script(steps=steps))
        graph = chain(6)
        pick = selector(policy, graph, random.Random(0))
        assert pick((0, 1), 0) == (0,)
        for call in (lambda: pick(enabled_now, 1), lambda: selector(policy, graph, None)(enabled_now, 1)):
            with pytest.raises(ScriptViolationError, match=f"^script: {message}$") as err:
                call()
            assert err.value.step_index == 1

    def test_seeded_determinism(self):
        g = ring(6)
        cfg = Configuration.uniform(6, 0, 4)
        for policy in ALL_RANDOM_KINDS:
            a = pick(policy, g, cfg, random.Random(42))
            b = pick(policy, g, cfg, random.Random(42))
            assert a == b


class TestScripted:
    def test_replay_in_order(self):
        g = chain(3)
        cfg = Configuration.uniform(3, 0, 3)
        policy = SchedulerPolicy.scripted(Script(steps=((0,), (1,))))
        assert pick(policy, g, cfg, random.Random(0), step_index=0) == (0,)

    def test_exhausted_script_returns_none(self):
        g = chain(3)
        cfg = Configuration.uniform(3, 0, 3)
        policy = SchedulerPolicy.scripted(Script(steps=((0,),)))
        assert pick(policy, g, cfg, random.Random(0), step_index=1) is None

    def test_disabled_activation_flagged(self):
        g = chain(3)
        cfg = Configuration.uniform(3, 0, 3)  # source (2) is never enabled
        policy = SchedulerPolicy.scripted(Script(steps=((2,),)))
        with pytest.raises(ScriptViolationError, match="^script: process 2 is not enabled$") as err:
            pick(policy, g, cfg, random.Random(0), step_index=0)
        assert err.value.step_index == 0

    def test_neighbor_clash_flagged(self):
        g = chain(3)
        cfg = Configuration.uniform(3, 0, 3)
        policy = SchedulerPolicy.scripted(Script(steps=((0, 1),)))
        with pytest.raises(ScriptViolationError, match="neighbors"):
            pick(policy, g, cfg, random.Random(0), step_index=0)

    def test_non_locally_central_script_allows_clash(self):
        g = chain(3)
        cfg = Configuration.uniform(3, 0, 3)
        policy = SchedulerPolicy.scripted(Script(steps=((0, 1),), locally_central=False))
        assert pick(policy, g, cfg, random.Random(0), step_index=0) == (0, 1)

    def test_text_round_trip(self):
        script = Script(steps=((0,), (1, 2), (0,)))
        assert Script.from_text("0\n1 2\n0\n") == script

    def test_steps_sorted_without_repeats(self):
        assert Script.from_text("3 1 3\n\n2\n").steps == ((1, 3), (2,))

    @pytest.mark.parametrize("steps, normalised", [
        ([(4,), (2,), [0], ()], ((4,), (2,), (0,), ())),  # singletons and empty steps kept
        ([(4,), (2, 1), [0]], ((4,), (1, 2), (0,))),  # one multi-process step sorts every step
        ([[5], (3, 3)], ((5,), (3,))),  # a repeat collapses
        ((s for s in [(2, 0, 2), {1}]), ((0, 2), (1,))),  # any iterable of iterables
    ])
    def test_steps_normalised(self, steps, normalised):
        script = Script(steps=steps)
        assert script.steps == normalised
        assert all(type(step) is tuple for step in script.steps)

    def test_policy_requires_script(self):
        with pytest.raises(ValueError):
            SchedulerPolicy(SchedulerKind.SCRIPTED)

