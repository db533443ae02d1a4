import dataclasses
import hashlib
import pickle
import random
from array import array

import pytest
from hypothesis import given, strategies as st

from unicolor import core
from unicolor import (
    AlgorithmSpec,
    Configuration,
    EnabledTracker,
    GraphConstructionError,
    SchedulerPolicy,
    bidirectional_clique,
    build_graph,
    chain,
    is_legitimate,
    parse_graph_text,
    random_digraph,
    ring,
    run,
)

from helpers import (
    oracle_conflict_pairs,
    oracle_enabled_set,
    oracle_legitimate,
    random_arcs,
    random_instance,
    reference_random_digraph_arcs,
    tracker_members,
)


class TestBuildGraph:
    def test_three_ring_structure(self):
        g = build_graph(3, [(0, 1), (1, 2), (2, 0)])
        assert g.in_degrees == (1, 1, 1)
        assert g.out_degrees == (1, 1, 1)
        assert g.max_degree == 2

    def test_bidirectional_edge_counts_one_neighbor(self):
        g = build_graph(2, [(0, 1), (1, 0)])
        assert g.neighbors == ((1,), (0,))
        assert g.max_degree == 1

    def test_pure_chain_arcs(self):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
        assert g.preds[0] == ()
        assert g.preds[3] == (2,)

    def test_self_loop_rejected(self):
        with pytest.raises(GraphConstructionError, match=r"\(1, 1\)"):
            build_graph(3, [(0, 1), (1, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphConstructionError, match=r"\(0, 3\)"):
            build_graph(3, [(0, 3)])

    def test_duplicate_rejected(self):
        with pytest.raises(GraphConstructionError, match=r"duplicate arc \(0, 1\)"):
            build_graph(3, [(0, 1), (0, 1)])

    def test_immutable(self):
        g = ring(3)
        with pytest.raises(AttributeError):
            g.n = 5


class TestGenerators:
    def test_ring3(self):
        assert set(ring(3).arcs) == {(0, 1), (1, 2), (2, 0)}

    def test_ring2(self):
        assert set(ring(2).arcs) == {(0, 1), (1, 0)}

    @pytest.mark.parametrize("n", [2, 3, 5, 9])
    def test_ring_degrees(self, n):
        g = ring(n)
        assert g.in_degrees == (1,) * n
        assert g.out_degrees == (1,) * n
        assert g.max_degree == (2 if n >= 3 else 1)

    def test_ring_predecessor_is_previous(self):
        g = ring(5)
        for i in range(5):
            assert g.preds[i] == ((i - 1) % 5,)

    def test_ring_too_small(self):
        with pytest.raises(GraphConstructionError):
            ring(1)

    def test_chain3(self):
        g = chain(3)
        assert set(g.arcs) == {(2, 1), (1, 0)}
        assert g.preds == ((1,), (2,), ())

    def test_chain2(self):
        assert set(chain(2).arcs) == {(1, 0)}

    def test_chain_interior_degree(self):
        g = chain(10)
        assert g.degrees[0] == 1 and g.degrees[9] == 1
        assert all(g.degrees[i] == 2 for i in range(1, 9))
        assert g.max_degree == 2

    def test_clique3(self):
        g = bidirectional_clique(3)
        assert len(g.arcs) == 6
        assert g.max_degree == 2

    def test_clique2(self):
        assert len(bidirectional_clique(2).arcs) == 2

    def test_clique4_degrees(self):
        g = bidirectional_clique(4)
        assert g.in_degrees == (3, 3, 3, 3)
        assert g.out_degrees == (3, 3, 3, 3)

    def test_random_digraph_hits_cap_exactly(self):
        g = random_digraph(30, 4, seed=7)
        assert g.max_degree == 4
        assert g.n == 30

    def test_random_digraph_deterministic(self):
        assert random_digraph(12, 3, seed=5).arcs == random_digraph(12, 3, seed=5).arcs
        assert random_digraph(12, 3, seed=5).arcs != random_digraph(12, 3, seed=6).arcs

    @pytest.mark.parametrize(
        "n,max_degree,seed",
        [(2, 1, 0), (5, 2, 1), (6, 9, 3), (12, 3, 5), (30, 4, 7), (100, 4, 7), (100, 3, 11), (1000, 4, 424242)],
    )
    def test_random_digraph_matches_pair_list_construction(self, n, max_degree, seed):
        assert list(random_digraph(n, max_degree, seed).arcs) == reference_random_digraph_arcs(n, max_degree, seed)

    @staticmethod
    def sweep_cases():
        rng = random.Random(2024)
        cases = [(n, max_degree, rng.randrange(10**6)) for n in range(2, 42) for max_degree in (1, 2, 3, 4, n - 1, n + 2)]
        return [c for c in cases if c[1] >= 1] + [(100, 4, 7)]

    def test_random_digraph_sweep_matches_pair_list_construction(self):
        # The build stops visiting candidates once at most one process is
        # unsaturated; the sweep covers graphs that end with none, one or
        # several unsaturated processes, and caps of n - 1 and above, where
        # every pair is kept.
        cases = self.sweep_cases()
        unsaturated_counts = set()
        for n, max_degree, seed in cases:
            graph = random_digraph(n, max_degree, seed)
            assert list(graph.arcs) == reference_random_digraph_arcs(n, max_degree, seed), (n, max_degree, seed)
            if max_degree < n - 1:
                unsaturated_counts.add(min(2, sum(d < max_degree for d in graph.degrees)))
        assert len(cases) > 200
        assert unsaturated_counts == {0, 1, 2}

    def test_random_digraph_keeps_both_arcs_of_every_pair(self):
        for n, max_degree, seed in self.sweep_cases():
            arcs = set(random_digraph(n, max_degree, seed).arcs)
            assert arcs == {(j, i) for i, j in arcs}, (n, max_degree, seed)

    def test_random_digraph_arcs_pinned(self):
        # Artifacts and the benchmark name random: graphs, so their arcs must
        # not change; the digest of random:2000:4:5 is in CHANGES.md.
        arcs = random_digraph(1000, 4, 5).arcs
        text = "".join(f"{i} {j}\n" for i, j in arcs)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "003f3979dfc0170b16b7e171c48604864701be0507a838b4f5f396ef229ce7b9"
        )
        assert set(arcs) == {(j, i) for i, j in arcs}

    @pytest.mark.parametrize("seed", [0, 5, 2024])
    def test_shuffle_matches_random_shuffle(self, seed):
        # Same permutation and same generator state after: the same draws.
        # The lengths cross every bit-length boundary up to 2**16 + 1.
        lengths = sorted({*range(18), *(2**b + d for b in range(1, 17) for d in (-1, 0, 1))})
        for length in lengths:
            expected, want = list(range(length)), random.Random(seed)
            want.shuffle(expected)
            got, rng = array("q", range(length)), random.Random(seed)
            core._shuffle(got, rng.getrandbits)
            assert got.tolist() == expected, length
            assert rng.getstate() == want.getstate(), length


class TestViews:
    @pytest.mark.parametrize(
        "graph",
        [ring(7), chain(6), bidirectional_clique(5), random_digraph(30, 4, 3), build_graph(4, [(0, 1), (3, 1)])],
        ids=lambda g: g.label,
    )
    def test_view_is_own_color_then_predecessor_colors(self, graph):
        rng = random.Random(graph.n)
        colors = [rng.randrange(5) for _ in range(graph.n)]
        for i, view in enumerate(graph.views):
            if graph.preds[i]:
                assert view(colors) == (colors[i], *map(colors.__getitem__, graph.preds[i]))
            else:
                assert view is None

    def test_views_leave_equality_hash_and_repr(self):
        graph, twin = ring(5), ring(5)
        before = hash(graph), repr(graph), graph.summary()
        graph.views, graph.ends
        assert "views" in vars(graph) and "ends" in vars(graph)
        assert graph == twin
        assert (hash(graph), repr(graph), graph.summary()) == before == (hash(twin), repr(twin), twin.summary())

    @pytest.mark.parametrize(
        "graph",
        [ring(7), chain(6), bidirectional_clique(5), random_digraph(30, 4, 3), build_graph(4, [(0, 1), (3, 1)]),
         build_graph(3, [(2, 0)]), build_graph(1, [])],
        ids=lambda g: f"{g.label}:{g.n}",
    )
    def test_ends_are_the_arc_columns(self, graph):
        tails, heads = graph.ends
        assert [*zip(tails, heads)] == [*graph.arcs]
        if graph.arcs:
            assert graph.ends == tuple(zip(*graph.arcs))
        assert graph.ends is graph.ends
        rng = random.Random(graph.n)
        for _ in range(20):
            colors = [rng.randrange(3) for _ in range(graph.n)]
            assert [*core.conflicting_heads(graph, colors)] == [j for i, j in graph.arcs if colors[i] == colors[j]]

    def test_graph_pickles_after_a_deterministic_step(self):
        graph = chain(5)
        run(graph, AlgorithmSpec.deterministic(3), SchedulerPolicy.synchronous(), Configuration.uniform(5, 0, 3),
            max_steps=1)
        assert "views" in vars(graph) and "ends" in vars(graph)
        copy = pickle.loads(pickle.dumps(graph))
        assert copy == graph
        assert copy.views[0]([0, 1, 2, 0, 1]) == (0, 1)
        assert copy.ends == graph.ends == ((1, 2, 3, 4), (0, 1, 2, 3))


class TestPredicates:
    def test_enabled_three_ring_oracle(self):
        # Derived by evaluating the guard over all three processes.
        g = ring(3)
        cfg = Configuration(colors=(0, 0, 1), k=2)
        assert tracker_members(g, cfg) == (1,)
        assert oracle_enabled_set(list(g.arcs), cfg.colors) == {1}

    def test_distinct_colors_nobody_enabled(self):
        g = ring(3)
        cfg = Configuration(colors=(0, 1, 2), k=3)
        assert tracker_members(g, cfg) == ()

    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_uniform_ring_everyone_enabled(self, n):
        g = ring(n)
        cfg = Configuration.uniform(n, 0, 3)
        assert tracker_members(g, cfg) == tuple(range(n))

    def test_uniform_chain_all_but_source_conflicted(self):
        n = 6
        g = chain(n)
        assert tracker_members(g, Configuration.uniform(n, 2, 3)) == tuple(range(n - 1))

    def test_legitimate_three_ring(self):
        g = ring(3)
        assert is_legitimate(g, Configuration(colors=(0, 1, 2), k=3))

    def test_illegitimate_wraparound(self):
        # Arc (2, 0) carries equal colors; checked arc by arc.
        g = ring(3)
        cfg = Configuration(colors=(0, 1, 0), k=2)
        assert not oracle_legitimate(list(g.arcs), cfg.colors)
        assert not is_legitimate(g, cfg)

    def test_bidirectional_pair_same_color(self):
        g = build_graph(2, [(0, 1), (1, 0)])
        assert not is_legitimate(g, Configuration(colors=(1, 1), k=2))

    def test_config_length_checked(self):
        with pytest.raises(ValueError):
            is_legitimate(ring(3), Configuration(colors=(0, 1), k=2))
        with pytest.raises(ValueError, match="2 colors for a 3-process graph"):
            tracker_members(ring(3), Configuration(colors=(0, 1), k=2))


class TestInvariants:
    def test_legitimate_iff_no_conflicts_random_sweep(self):
        rng = random.Random(20240817)
        for _ in range(500):
            graph, cfg = random_instance(rng)
            assert is_legitimate(graph, cfg) == (not oracle_conflict_pairs(list(graph.arcs), cfg.colors))

    def test_enabled_iff_conflicted_random_sweep(self):
        rng = random.Random(99)
        for _ in range(500):
            graph, cfg = random_instance(rng)
            conflicted = {i for i, _ in oracle_conflict_pairs(list(graph.arcs), cfg.colors)}
            assert tracker_members(graph, cfg) == tuple(sorted(conflicted))
            assert set(tracker_members(graph, cfg)) == oracle_enabled_set(list(graph.arcs), cfg.colors)

    @given(st.integers(2, 7), st.integers(1, 6), st.data())
    def test_legitimate_iff_nothing_enabled(self, n, k, data):
        # The verifier counts the terminal configurations as the legitimate
        # ones: an arc (p, i) joining equal colors is exactly what enables i.
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        graph = build_graph(n, data.draw(st.lists(st.sampled_from(pairs), unique=True)))
        colors = data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
        cfg = Configuration(colors=tuple(colors), k=k)
        assert is_legitimate(graph, cfg) == (not tracker_members(graph, cfg))

    @given(st.integers(2, 7), st.data())
    def test_degree_fields_match_set_sizes(self, n, data):
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        arcs = data.draw(st.lists(st.sampled_from(pairs), unique=True, min_size=1))
        g = build_graph(n, arcs)
        for i in range(n):
            assert g.in_degrees[i] == len(g.preds[i])
            assert g.out_degrees[i] == len(g.succs[i])
            assert set(g.neighbors[i]) == set(g.preds[i]) | set(g.succs[i])
        assert g.max_degree == max(g.degrees)


def assert_tracks(tracker, members, graph, colors) -> None:
    """``tracker`` holds the enabled set of ``colors`` in the list object
    ``members`` it started with, and counts each process's conflicts: its
    predecessors that hold its color."""
    arcs = list(graph.arcs)
    expected = sorted(oracle_enabled_set(arcs, colors))
    assert tracker.members is members
    assert tracker.colors is colors
    assert members == expected
    heads = [j for j, _ in oracle_conflict_pairs(arcs, colors)]
    assert tracker.conflicts == [heads.count(j) for j in range(graph.n)]
    assert tracker.conflicts == [sum(colors[p] == colors[j] for p in graph.preds[j]) for j in range(graph.n)]


class CountingColors(list):
    """A color list that records the index of every read."""

    def __init__(self, colors):
        super().__init__(colors)
        self.reads = []

    def __getitem__(self, i):
        self.reads.append(i)
        return super().__getitem__(i)


class TestEnabledTracker:
    @given(st.integers(0, 2**32 - 1), st.lists(st.lists(st.integers(0, 7), max_size=4), max_size=12))
    def test_apply_matches_full_scan(self, seed, batches):
        # Arbitrary recolorings, not only legal moves: the tracker must
        # follow any change the caller reports.
        rng = random.Random(seed)
        graph, cfg = random_instance(rng)
        colors = list(cfg.colors)
        tracker = EnabledTracker(graph, colors)
        members = tracker.members
        assert_tracks(tracker, members, graph, colors)
        for batch in batches:
            movers = sorted({i % graph.n for i in batch})
            tracker.apply(movers, [rng.randrange(cfg.k) for _ in movers])
            assert_tracks(tracker, members, graph, colors)

    @given(st.integers(0, 2**32 - 1), st.sampled_from(["ring", "clique", "random", "arcs"]),
           st.integers(2, 64), st.integers(1, 12))
    def test_apply_after_sync_sized_batches(self, seed, shape, n, rounds):
        # Every enabled process moves at once, as under ``sync``, to an
        # arbitrary color.  On cliques and dense arc sets the movers share
        # successors, so one process is touched by several movers.
        rng = random.Random(seed)
        if shape == "ring":
            graph = ring(n)
        elif shape == "clique":
            graph = bidirectional_clique(min(n, 12))
        elif shape == "random":
            graph = random_digraph(n, rng.randint(1, 6), seed)
        else:
            graph = build_graph(n, random_arcs(rng, n))
        k = rng.randint(2, 5)
        colors = [rng.randrange(k) for _ in range(graph.n)]
        tracker = EnabledTracker(graph, colors)
        members = tracker.members
        for _ in range(rounds):
            movers = list(members) or sorted(rng.sample(range(graph.n), rng.randint(1, graph.n)))
            tracker.apply(movers, [rng.randrange(k) for _ in movers])
            assert_tracks(tracker, members, graph, colors)

    @pytest.mark.parametrize("movers, new_colors, enabled", [
        ((1,), (0,), [1]),  # a lone mover keeps its color and its conflict
        ((0, 1), (1, 0), []),  # 1 keeps 0 as its predecessor 0 leaves it
        ((1, 2), (0, 0), [0, 1, 2]),  # 1 keeps 0; 2 joins it; 0 stands and gains
    ])
    def test_mover_keeps_its_color(self, movers, new_colors, enabled):
        # ring:3 reads 2 -> 0 -> 1 -> 2; from [0, 0, 2] only 1 is enabled.
        graph = ring(3)
        colors = [0, 0, 2]
        tracker = EnabledTracker(graph, colors)
        members = tracker.members
        assert members == [1]
        tracker.apply(movers, new_colors)
        assert members == enabled
        assert_tracks(tracker, members, graph, colors)

    def test_standing_successor_loses_and_gains_its_last_conflict(self):
        # chain:3 is one-way: 0 reads 1 and 1 reads 2.  Process 0 never
        # moves, so only the arc 1 -> 0 changes its count.
        graph = chain(3)
        colors = [0, 0, 1]
        tracker = EnabledTracker(graph, colors)
        members = tracker.members
        assert members == [0]
        tracker.apply((1,), (2,))
        assert tracker.conflicts == [0, 0, 0] and members == []
        tracker.apply((1,), (0,))
        assert tracker.conflicts == [1, 0, 0] and members == [0]
        # The same with a second mover beside 1: the source 2 moves onto
        # 1's new color as 1 leaves 0's.
        tracker.apply((1, 2), (1, 1))
        assert tracker.conflicts == [0, 1, 0] and members == [1]
        tracker.apply((1, 2), (0, 2))
        assert tracker.conflicts == [1, 0, 0] and members == [0]
        assert_tracks(tracker, members, graph, colors)

    def test_standing_successor_of_several_movers(self):
        # On ring:4, 1 and 3 stand: 1 loses its conflict as 0 leaves color
        # 0, and 3 keeps its own since 2 keeps its color.  On clique:4, 3
        # stands while 0, 1 and 2 each change its count.
        graph = ring(4)
        colors = [0, 0, 0, 0]
        tracker = EnabledTracker(graph, colors)
        tracker.apply((0, 2), (1, 0))
        assert tracker.conflicts == [0, 0, 1, 1] and tracker.members == [2, 3]
        assert_tracks(tracker, tracker.members, graph, colors)
        graph = bidirectional_clique(4)
        colors = [0, 1, 2, 3]
        tracker = EnabledTracker(graph, colors)
        tracker.apply((0, 1, 2), (3, 3, 1))
        assert tracker.conflicts == [2, 2, 0, 2] and tracker.members == [0, 1, 3]
        assert_tracks(tracker, tracker.members, graph, colors)
        tracker.apply((0, 1, 2), (0, 1, 2))
        assert tracker.conflicts == [0, 0, 0, 0] and tracker.members == []

    @pytest.mark.parametrize("graph", [ring(40), bidirectional_clique(6), chain(9)], ids=lambda g: g.label)
    def test_each_touched_process_rechecked_once(self, graph):
        # A sync step from a uniform start moves every enabled process; on
        # these graphs each successor of a mover is a mover too, so the step
        # reads each mover's old color and its predecessors' colors once.
        colors = CountingColors([0] * graph.n)
        tracker = EnabledTracker(graph, colors)
        movers = tuple(tracker.members)
        assert set().union(*(graph.succs[i] for i in movers)) <= set(movers)
        colors.reads.clear()
        tracker.apply(movers, (1,) * len(movers))
        assert sorted(colors.reads) == sorted([*movers, *(p for i in movers for p in graph.preds[i])])
        assert tracker.members == sorted(oracle_enabled_set(list(graph.arcs), colors))

    @pytest.mark.parametrize("lone", [False, True], ids=["every-other", "lone"])
    @pytest.mark.parametrize("graph", [ring(40), bidirectional_clique(6), chain(9)], ids=lambda g: g.label)
    def test_standing_successor_read_once_per_arc(self, graph, lone):
        # Every other process moves, or the last one alone: each mover that
        # changes color also reads each standing successor once, and a
        # mover that keeps its color reads none.
        colors = CountingColors([0] * graph.n)
        tracker = EnabledTracker(graph, colors)
        movers = (graph.n - 1,) if lone else tuple(range(0, graph.n, 2))
        new_colors = [1 if lone or m % 4 == 0 else 0 for m in movers]
        colors.reads.clear()
        tracker.apply(movers, new_colors)
        standing = [j for i, c in zip(movers, new_colors) if c for j in graph.succs[i] if j not in movers]
        assert standing
        expected = [*movers, *(p for i in movers for p in graph.preds[i]), *standing]
        assert sorted(colors.reads) == sorted(expected)
        assert_tracks(tracker, tracker.members, graph, colors)

    def test_length_checked(self):
        with pytest.raises(ValueError, match="2 colors for a 3-process graph"):
            EnabledTracker(ring(3), [0, 0])


class TestConfiguration:
    def test_color_outside_palette(self):
        with pytest.raises(ValueError):
            Configuration(colors=(0, 3), k=3)

    def test_uniform_and_replace(self):
        # dataclasses.replace rebuilds through __post_init__: colors become
        # a tuple and are checked against the palette again.
        cfg = Configuration.uniform(4, 1, 3)
        assert cfg.colors == (1, 1, 1, 1)
        assert dataclasses.replace(cfg, colors=[1, 1, 0, 1]).colors == (1, 1, 0, 1)
        assert cfg.colors == (1, 1, 1, 1)
        with pytest.raises(ValueError, match="outside palette"):
            dataclasses.replace(cfg, colors=(1, 1, 3, 1))

    def test_random_respects_palette(self):
        cfg = Configuration.random(50, 4, random.Random(1))
        assert all(0 <= c < 4 for c in cfg.colors)

    def test_random_draws_as_randrange(self):
        # Powers of two and their neighbours draw with different rejection
        # rates; each run starts where the last left the generator.
        got, want = random.Random(5), random.Random(5)
        for k in range(2, 34):
            for n in range(201):
                assert Configuration.random(n, k, got).colors == tuple(want.randrange(k) for _ in range(n))
                assert got.getstate() == want.getstate()

    def test_random_empty_palette(self):
        with pytest.raises(ValueError, match="palette size must be >= 1"):
            Configuration.random(3, 0, random.Random(1))


class TestGraphFile:
    def test_parse_with_comments(self):
        text = "# a triangle\n3\n0 1\n1 2  # wraps\n2 0\n"
        g = parse_graph_text(text)
        assert set(g.arcs) == {(0, 1), (1, 2), (2, 0)}

    def test_parse_errors(self):
        with pytest.raises(GraphConstructionError):
            parse_graph_text("")
        with pytest.raises(GraphConstructionError):
            parse_graph_text("2\n0 1 2\n")
        with pytest.raises(GraphConstructionError):
            parse_graph_text("2\n0 0\n")
