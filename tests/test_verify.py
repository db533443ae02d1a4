import json
from dataclasses import asdict
from itertools import permutations, product
from math import factorial

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from unicolor import (
    AlgorithmKind,
    AlgorithmSpec,
    Configuration,
    EnumerationCapError,
    NonTerminatingCommandError,
    PolicyClass,
    UsageError,
    bidirectional_clique,
    build_graph,
    chain,
    is_legitimate,
    recolor,
    replay_witness,
    ring,
    verify_deterministic,
    verify_probabilistic_support,
)
from unicolor.core import process_enabled
from unicolor.verify import DivergenceWitness, _decode, _orbits, _Space, automorphism_generators

from helpers import reference_verify_deterministic, reference_verify_probabilistic_support

LC1 = PolicyClass.ALL_LOCALLY_CENTRAL_SINGLE
SUBSETS = PolicyClass.ALL_DISTRIBUTED_SUBSETS


@st.composite
def small_graphs(draw):
    kind = draw(st.sampled_from(["ring", "chain", "clique", "random"]))
    if kind == "ring":
        return ring(draw(st.integers(2, 5)))
    if kind == "chain":
        return chain(draw(st.integers(2, 5)))
    if kind == "clique":
        return bidirectional_clique(draw(st.integers(2, 4)))
    n = draw(st.integers(2, 5))
    pairs = list(permutations(range(n), 2))
    return build_graph(n, draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True)))


@st.composite
def symmetric_graphs(draw):
    """A random arc set joined with its images under a random relabeling
    that cycles every process, so the automorphism group is nontrivial."""
    n = draw(st.integers(2, 5))
    cycle = draw(st.permutations(range(n)))
    step = dict(zip(cycle, cycle[1:] + cycle[:1]))
    pairs = list(permutations(range(n), 2))
    arcs = set(draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=4, unique=True)))
    for _ in range(n):
        arcs |= {(step[i], step[j]) for i, j in arcs}
    return build_graph(n, sorted(arcs))


def closure(generators, n):
    """Every permutation the generators make, by breadth-first search."""
    group = {tuple(range(n))}
    frontier = list(group)
    while frontier:
        frontier = [
            image
            for g in frontier
            for h in generators
            if (image := tuple(h[g[i]] for i in range(n))) not in group and not group.add(image)
        ]
    return group


def automorphisms(graph):
    """Every permutation of the processes that keeps the arc set."""
    arcs = set(graph.arcs)
    return {
        g
        for g in permutations(range(graph.n))
        if {(g[i], g[j]) for i, j in arcs} == arcs
    }


class TestDeterministic:
    def test_ring3_lc1_converges_with_exact_worst_case(self):
        report = verify_deterministic(ring(3), 3, LC1)
        assert report.configurations_checked == 27
        assert report.all_converge
        assert report.witness_divergence is None
        assert report.worst_case_moves == 3

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_chain_worst_case_pinches(self, n):
        report = verify_deterministic(chain(n), n, LC1)
        assert report.all_converge
        assert report.worst_case_moves == n * (n - 1) // 2

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_ring_worst_case_pinches(self, n):
        report = verify_deterministic(ring(n), n, LC1)
        assert report.all_converge
        assert report.worst_case_moves == n * (n - 1) // 2

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_ring_subsets_diverge(self, n):
        report = verify_deterministic(ring(n), n, SUBSETS)
        assert not report.all_converge
        assert report.worst_case_moves is None
        assert report.witness_divergence is not None

    def test_divergence_witness_replays_to_a_cycle(self):
        report = verify_deterministic(ring(3), 3, SUBSETS)
        witness = report.witness_divergence
        trace = replay_witness(ring(3), AlgorithmSpec.deterministic(3), witness)
        assert not trace.terminated
        assert trace.final == witness.initial  # schedule closes the cycle

    def test_worst_case_witness_replays_to_worst(self):
        report = verify_deterministic(chain(4), 4, LC1)
        witness = report.worst_case_witness
        assert witness.moves == report.worst_case_moves == 6
        from unicolor import Script, SchedulerPolicy, run

        policy = SchedulerPolicy.scripted(Script(steps=witness.schedule, locally_central=False))
        trace = run(
            chain(4),
            AlgorithmSpec.deterministic(4),
            policy,
            Configuration(colors=witness.initial, k=4),
            max_steps=len(witness.schedule) + 1,
        )
        assert trace.terminated
        assert trace.total_moves == 6

    def test_terminal_equals_legitimate(self):
        for graph, k in [(ring(3), 3), (chain(4), 4)]:
            report = verify_deterministic(graph, k, LC1)
            assert report.terminal_equals_legitimate
            assert report.terminal_count == report.legitimate_count

    def test_cap_refusal_reports_counts(self):
        with pytest.raises(EnumerationCapError) as err:
            verify_deterministic(ring(4), 4, LC1, cap=100)
        assert err.value.required == 256
        assert err.value.allowed == 100

    def test_max_depth_binds(self):
        report = verify_deterministic(chain(3), 3, LC1, max_depth=2)
        assert not report.all_converge
        assert "max_depth" in report.witness_divergence.note
        assert report.worst_case_moves == 3  # still measured

    def test_reports_deterministic(self):
        a = verify_deterministic(ring(3), 3, SUBSETS)
        b = verify_deterministic(ring(3), 3, SUBSETS)
        assert asdict(a) == asdict(b)


class TestProbabilisticSupport:
    def test_ring3_all_escape(self):
        report = verify_probabilistic_support(ring(3), 3)
        assert report.all_converge
        assert report.terminal_equals_legitimate
        # proper colorings of a 3-cycle with 3 colors, by enumeration
        proper = sum(
            1
            for colors in product(range(3), repeat=3)
            if is_legitimate(ring(3), Configuration(colors=colors, k=3))
        )
        assert report.terminal_count == proper == 6

    def test_clique3_terminals_are_permutations(self):
        report = verify_probabilistic_support(bidirectional_clique(3), 3)
        assert report.all_converge
        assert report.terminal_count == 6
        assert report.legitimate_count == 6

    def test_chain_support(self):
        report = verify_probabilistic_support(chain(4), 3)
        assert report.all_converge
        assert report.worst_case_moves is not None

    def test_needs_palette_headroom(self):
        with pytest.raises(UsageError, match="max_degree"):
            verify_probabilistic_support(bidirectional_clique(3), 2)

    def test_cap_applies(self):
        with pytest.raises(EnumerationCapError):
            verify_probabilistic_support(ring(8), 5, cap=1000)

    def test_max_depth_binds(self):
        full = verify_probabilistic_support(ring(4), 3)
        assert full.all_converge
        tight = verify_probabilistic_support(ring(4), 3, max_depth=full.worst_case_moves - 1)
        assert not tight.all_converge

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(small_graphs(), st.integers(1, 3))
    def test_escape_within_n_moves(self, graph, headroom):
        # With k > max_degree an enabled process can take a color no
        # neighbour holds, which leaves one process fewer enabled.
        report = verify_probabilistic_support(graph, graph.max_degree + headroom)
        assert report.all_converge
        assert report.worst_case_moves <= graph.n


class TestTransitions:
    """Rows are built per palette code, the configuration with process n-1
    at color 0: the targets are palette codes and the masks the activated
    processes.  Each row also maps its targets to their orbits'
    representatives, the smallest codes that an automorphism of the graph
    and a rotation of the palette reach."""

    @staticmethod
    def row(graph, kind, k, policy_class, code=0):
        return _Space(graph, kind, k, policy_class, cap=10**6).row(code)

    @staticmethod
    def palette_codes(codes, n, k):
        """Each concrete code rotated until process n-1 holds color 0."""
        return [sum((code // k**i - code // k ** (n - 1)) % k * k**i for i in range(n)) for code in codes]

    def test_rows_of_uniform_ring(self):
        # Code 0 is the all-0 ring: every process moves to color 1, which
        # adds k**i to the code.
        targets, masks, _ = self.row(ring(3), AlgorithmKind.DETERMINISTIC, 3, LC1)
        assert (targets, masks) == (self.palette_codes([1, 3, 9], 3, 3), [1, 2, 4])

    def test_move_of_the_top_process_is_stored_rotated(self):
        # Process 2's move to color 1 lands on (0, 0, 1), stored as its
        # rotation by -1, (2, 2, 0).  The ring's rotation of the processes
        # puts all three targets in the orbit of (1, 0, 0), code 1.
        targets, _, reps = self.row(ring(3), AlgorithmKind.DETERMINISTIC, 3, LC1)
        assert targets == [1, 3, 8]
        assert reps == [1, 1, 1]

    def test_subset_rows_in_combinations_order(self):
        targets, masks, reps = self.row(ring(3), AlgorithmKind.DETERMINISTIC, 3, SUBSETS)
        assert (targets, masks) == (
            self.palette_codes([1, 3, 9, 4, 10, 12, 13], 3, 3),
            [1, 2, 4, 3, 5, 6, 7],
        )
        # One process, two or all three: three orbits, whose smallest codes
        # are (1, 0, 0), (2, 0, 0) (the rotation of (0, 1, 1) by -1) and
        # (0, 0, 0).
        assert reps == [1] * 3 + [2] * 3 + [0]

    def test_probabilistic_rows_hold_every_free_color(self):
        # Code 0 of chain:2: process 0 reads process 1, both hold 0, so
        # process 0 may take color 1 or 2.  The chain has no automorphism
        # but the identity, so every target is its own representative.
        targets, masks, reps = self.row(chain(2), AlgorithmKind.PROBABILISTIC, 3, LC1)
        assert (targets, masks) == (self.palette_codes([1, 2], 2, 3), [1, 1])
        assert reps is targets


def outcome(verify, *args, **kwargs):
    try:
        return asdict(verify(*args, **kwargs))
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


class TestAgainstReference:
    """The code-space verifier against the per-check enumerations it
    replaced (``tests/helpers.py``)."""

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        st.one_of(small_graphs(), symmetric_graphs()),
        st.integers(2, 5),
        st.sampled_from([LC1, SUBSETS]),
        st.one_of(st.none(), st.integers(0, 6)),
        st.sampled_from([10**6, 100]),
    )
    def test_deterministic(self, graph, k, policy_class, max_depth, cap):
        args = (graph, k, policy_class)
        kwargs = dict(max_depth=max_depth, cap=cap)
        assert outcome(verify_deterministic, *args, **kwargs) == outcome(
            reference_verify_deterministic, *args, **kwargs
        )

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        st.one_of(small_graphs(), symmetric_graphs()),
        st.integers(2, 5),
        st.one_of(st.none(), st.integers(0, 6)),
        st.sampled_from([10**6, 100]),
    )
    def test_probabilistic(self, graph, k, max_depth, cap):
        kwargs = dict(max_depth=max_depth, cap=cap)
        assert outcome(verify_probabilistic_support, graph, k, **kwargs) == outcome(
            reference_verify_probabilistic_support, graph, k, **kwargs
        )

    @pytest.mark.parametrize("policy_class", [LC1, SUBSETS])
    def test_palette_below_in_degree_raises_the_same_error(self, policy_class):
        # clique:4 has in-degree 3: with k = 3 some command has no free color.
        new = outcome(verify_deterministic, bidirectional_clique(4), 3, policy_class)
        old = outcome(reference_verify_deterministic, bidirectional_clique(4), 3, policy_class)
        assert new == old
        assert new[0] is NonTerminatingCommandError


class _Pick:
    """A stand-in rng whose draw is a fixed index into the candidates."""

    def __init__(self, index):
        self.index = index

    def choice(self, candidates):
        return candidates[self.index % len(candidates)]


class TestPaletteRotation:
    """The lemma behind the orbit quotient: rotating every color by ``r``
    commutes with the guard and with both rules."""

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 7), st.integers(1, 7), st.data())
    def test_rotation_commutes_with_guard_and_rules(self, n, k, data):
        pairs = list(permutations(range(n), 2))
        graph = build_graph(n, data.draw(st.lists(st.sampled_from(pairs), unique=True)))
        colors = tuple(data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)))

        def outcomes(kind, i, colors):
            try:
                return {recolor(kind, (i,), graph.preds, colors, k, _Pick(j))[0] for j in range(k)}
            except (ValueError, NonTerminatingCommandError) as exc:
                return type(exc)

        for r in range(k):
            rotated = tuple((c + r) % k for c in colors)
            for i in range(n):
                assert process_enabled(graph.preds[i], rotated, i) == process_enabled(
                    graph.preds[i], colors, i
                )
                for kind in AlgorithmKind:
                    before, after = outcomes(kind, i, colors), outcomes(kind, i, rotated)
                    if isinstance(before, set):
                        before = {(c + r) % k for c in before}
                    assert after == before


def relabeled(kind, n, perm):
    if kind == "ring":
        arcs = [(perm[i], perm[(i + 1) % n]) for i in range(n)]
    else:
        arcs = [(perm[i], perm[i - 1]) for i in range(1, n)]
    return build_graph(n, arcs, label=f"{kind}:{n}:relabeled")


def report_bytes(report) -> str:
    return json.dumps(asdict(report), sort_keys=True, indent=2)


class TestOrbitReportsByteIdentical:
    """Instances past the hypothesis sizes, with process n-1 placed away
    from the ring and chain order."""

    @pytest.mark.parametrize(
        "graph, k, policy_class, max_depth",
        [
            pytest.param(
                relabeled(kind, 5, (3, 0, 4, 1, 2)),
                5,
                policy_class,
                None,
                id=f"{kind}5-relabeled-{policy_class.value}",
            )
            for kind in ("ring", "chain")
            for policy_class in (LC1, SUBSETS)
        ]
        + [
            # Divergence witnesses that follow their cycle of orbits for
            # several rounds before the rotation cancels: 4 and 5 rounds
            # under lc1, and a rotation of 0 (one round) on the clique.
            pytest.param(ring(5), 4, LC1, None, id="ring5-k4-lc1"),
            pytest.param(ring(6), 5, LC1, None, id="ring6-k5-lc1"),
            pytest.param(ring(5), 4, SUBSETS, None, id="ring5-k4-subsets"),
            pytest.param(bidirectional_clique(4), 4, SUBSETS, None, id="clique4-k4-subsets"),
            # Witnesses re-read from the longest-path values: the 25-step
            # path cut at max_depth and the 31-move worst case leave (0,) * 6
            # along different paths.
            pytest.param(
                build_graph(6, [(0, 1), (1, 0), (1, 4), (2, 1), (2, 3), (2, 5), (4, 3), (5, 1), (5, 4)]),
                6,
                SUBSETS,
                24,
                id="six-k6-subsets-depth24",
            ),
        ],
    )
    def test_deterministic(self, graph, k, policy_class, max_depth):
        report = verify_deterministic(graph, k, policy_class, max_depth=max_depth)
        reference = reference_verify_deterministic(graph, k, policy_class, max_depth=max_depth)
        assert report_bytes(report) == report_bytes(reference)
        witness = report.witness_divergence
        if witness is not None and max_depth is None:
            trace = replay_witness(graph, AlgorithmSpec.deterministic(k), witness)
            assert trace.final == witness.initial

    @pytest.mark.parametrize("graph, k", [(relabeled("ring", 5, (3, 0, 4, 1, 2)), 5), (ring(7), 3)])
    def test_probabilistic(self, graph, k):
        # The escapes are 3 and 4; one move less makes max_depth bind.
        report = verify_probabilistic_support(graph, k)
        assert report_bytes(report) == report_bytes(reference_verify_probabilistic_support(graph, k))
        tight = report.worst_case_moves - 1
        assert tight == {5: 2, 3: 3}[k]
        assert report_bytes(verify_probabilistic_support(graph, k, max_depth=tight)) == report_bytes(
            reference_verify_probabilistic_support(graph, k, max_depth=tight)
        )

    def test_wide_palette(self):
        # Colors past 255, so no row or table may hold them in a byte.
        report = verify_deterministic(ring(2), 300, LC1)
        assert report.all_converge
        assert report.terminal_count == report.legitimate_count == 300 * 299
        assert report.worst_case_witness.initial == (0, 0)


def bidirectional(n, edges):
    return build_graph(n, [*edges, *((j, i) for i, j in edges)])


def replays(graph, k, report, max_depth):
    """Every witness of ``report`` replays through the engine."""
    witness = report.witness_divergence
    if witness is not None and witness.schedule:
        trace = replay_witness(graph, AlgorithmSpec.deterministic(k), witness)
        if max_depth is None:
            assert trace.final == witness.initial
    worst = report.worst_case_witness
    if worst is not None:
        schedule = DivergenceWitness(worst.initial, worst.schedule, "")
        trace = replay_witness(graph, AlgorithmSpec.deterministic(k), schedule)
        assert trace.terminated
        assert trace.total_moves == worst.moves


BIRING5 = bidirectional(5, [(i, (i + 1) % 5) for i in range(5)])


class TestSymmetricReportsByteIdentical:
    """Graphs with large automorphism groups, where the search reads one
    value per orbit of the graph's automorphisms and the palette rotation."""

    @pytest.mark.parametrize(
        "graph, k, policy_class, max_depth",
        [
            pytest.param(relabeled("ring", 6, (3, 0, 4, 1, 5, 2)), 6, LC1, None, id="ring6-relabeled-lc1"),
            pytest.param(relabeled("ring", 6, (3, 0, 4, 1, 5, 2)), 6, SUBSETS, None, id="ring6-relabeled-subsets"),
            pytest.param(BIRING5, 4, LC1, None, id="biring5-k4-lc1"),
            pytest.param(BIRING5, 4, SUBSETS, None, id="biring5-k4-subsets"),
            pytest.param(bidirectional_clique(4), 4, LC1, None, id="clique4-k4-lc1"),
            pytest.param(bidirectional_clique(4), 4, SUBSETS, None, id="clique4-k4-subsets"),
            pytest.param(bidirectional(5, [(0, i) for i in range(1, 5)]), 5, LC1, None, id="star5-k5-lc1"),
            pytest.param(bidirectional(5, [(0, i) for i in range(1, 5)]), 5, SUBSETS, None, id="star5-k5-subsets"),
            pytest.param(ring(5), 4, LC1, 3, id="ring5-k4-lc1-depth3"),
            pytest.param(ring(5), 5, LC1, 9, id="ring5-k5-lc1-depth9"),
        ],
    )
    def test_deterministic(self, graph, k, policy_class, max_depth):
        report = verify_deterministic(graph, k, policy_class, max_depth=max_depth)
        reference = reference_verify_deterministic(graph, k, policy_class, max_depth=max_depth)
        assert report_bytes(report) == report_bytes(reference)
        replays(graph, k, report, max_depth)

    @pytest.mark.parametrize(
        "graph, k",
        [
            (BIRING5, 3),
            (bidirectional_clique(4), 4),
            (bidirectional(5, [(0, i) for i in range(1, 5)]), 5),
        ],
    )
    def test_probabilistic(self, graph, k):
        report = verify_probabilistic_support(graph, k)
        assert report_bytes(report) == report_bytes(reference_verify_probabilistic_support(graph, k))
        tight = report.worst_case_moves - 1
        assert report_bytes(verify_probabilistic_support(graph, k, max_depth=tight)) == report_bytes(
            reference_verify_probabilistic_support(graph, k, max_depth=tight)
        )


class TestOrbitTable:
    @pytest.mark.parametrize("n, k, count", [(5, 5, 129), (6, 6, 1316), (8, 4, 2070), (7, 7, 16813)])
    def test_representatives_match_burnside(self, n, k, count):
        # Necklaces of n beads in k colors up to rotation of the beads and
        # of the colors: (1 / (n k)) * sum over (i, c) of the colorings that
        # rotating the beads by i and the colors by c fixes.
        _, reps, sizes = _orbits(automorphism_generators(ring(n)), n, k)
        assert len(reps) == count
        assert sum(sizes.values()) == k ** (n - 1)

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(small_graphs(), symmetric_graphs()), st.integers(2, 4), st.data())
    def test_codes_map_to_the_smallest_of_their_orbit(self, graph, k, data):
        n = graph.n
        generators = automorphism_generators(graph)
        orbit, reps, _ = _orbits(generators, n, k)
        code = data.draw(st.integers(0, k ** (n - 1) - 1))
        start = _decode(code, n, k)
        seen = {start}
        frontier = [start]
        while frontier:
            images = []
            for colors in frontier:
                for g in generators:
                    moved = [0] * n
                    for i in range(n):
                        moved[g[i]] = colors[i]
                    images.append(tuple(moved))
                images.append(tuple((c + 1) % k for c in colors))
            frontier = [c for c in images if c not in seen and not seen.add(c)]
        smallest = min(sum(c * k**i for i, c in enumerate(colors)) for colors in seen)
        assert (code if orbit is None else orbit[code]) == smallest
        assert smallest in reps

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_chain_keeps_every_row(self, n):
        assert automorphism_generators(chain(n)) == []
        orbit, reps, _ = _orbits([], n, 3)
        assert orbit is None
        assert list(reps) == list(range(3 ** (n - 1)))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_clique_generators_are_few_and_make_the_symmetric_group(self, n):
        generators = automorphism_generators(bidirectional_clique(n))
        assert len(generators) <= n * (n - 1) // 2
        assert len(closure(generators, n)) == factorial(n)

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(small_graphs(), symmetric_graphs()))
    def test_generators_make_the_automorphism_group(self, graph):
        generators = automorphism_generators(graph)
        assert closure(generators, graph.n) == automorphisms(graph)
