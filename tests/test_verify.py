import json
import random
from dataclasses import asdict
from itertools import permutations, product
from math import factorial, perm

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

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
    moves,
    replay_witness,
    ring,
    rule,
    verify_deterministic,
    verify_probabilistic_support,
)
from unicolor.cli import main
from unicolor.verify import (
    DivergenceWitness,
    _check_arguments,
    _orbits,
    _palette_map,
    _Space,
    automorphism_generators,
    proper_colorings,
)

from helpers import (
    _decode,
    _encode,
    oracle_enabled,
    reference_row,
    reference_verify_deterministic,
    reference_verify_probabilistic_support,
)

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


def relabeled(kind, n, perm):
    if kind == "ring":
        arcs = [(perm[i], perm[(i + 1) % n]) for i in range(n)]
    else:
        arcs = [(perm[i], perm[i - 1]) for i in range(1, n)]
    return build_graph(n, arcs, label=f"{kind}:{n}:relabeled")


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

    def test_max_depth_counts_moves_not_steps(self):
        # Under subsets the worst case here is 6 moves in 3 steps of two
        # movers each; a bound of 4 counted in steps would let it pass.
        graph = build_graph(3, [(0, 1), (1, 0), (2, 0)])
        report = verify_deterministic(graph, 3, SUBSETS, max_depth=4)
        assert not report.all_converge
        assert report.worst_case_moves == 6
        assert len(report.worst_case_witness.schedule) == 3
        witness = report.witness_divergence
        assert witness == DivergenceWitness(
            initial=(0, 0, 0), schedule=((0, 1), (0, 1)), note="path of 6 moves exceeds max_depth 4"
        )
        trace = replay_witness(graph, AlgorithmSpec.deterministic(3), witness)
        assert trace.total_moves == 4
        assert verify_deterministic(graph, 3, SUBSETS, max_depth=6).all_converge

    @pytest.mark.parametrize(
        "graph, k, max_depth",
        [
            pytest.param(chain(4), 4, 4, id="chain4-k4-depth4"),
            pytest.param(ring(5), 5, 9, id="ring5-k5-depth9"),
            pytest.param(ring(4), 4, 0, id="ring4-k4-depth0"),
        ],
    )
    def test_max_depth_witness_is_a_prefix_of_the_worst_case(self, graph, k, max_depth):
        # Under lc1 every step is one move, so the prefix is the first
        # ``max_depth`` steps of the worst-case schedule.
        report = verify_deterministic(graph, k, LC1, max_depth=max_depth)
        worst = report.worst_case_witness
        assert report.witness_divergence == DivergenceWitness(
            initial=worst.initial,
            schedule=worst.schedule[:max_depth],
            note=f"path of {worst.moves} moves exceeds max_depth {max_depth}",
        )

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

    @pytest.fixture
    def stalled(self, monkeypatch):
        """Rows in which the first representative with moves has itself as
        its only target, so the escape sweep meets a round that resolves
        nothing."""
        build = _Space._row_builder

        def builder(space, *args):
            row = build(space, *args)
            stuck = next(code for code in space.reps if row(code)[0])

            def looped(code):
                if code != stuck:
                    return row(code)
                _, masks, _ = row(code)
                return [code], masks[:1], [code]

            return looped

        monkeypatch.setattr(_Space, "_row_builder", builder)

    def test_stalled_sweep_is_a_bug(self, stalled):
        with pytest.raises(RuntimeError, match="escape sweep resolved no orbit"):
            verify_probabilistic_support(ring(4), 3)

    def test_stalled_sweep_crashes_the_cli(self, stalled):
        # A bug ends in a traceback: neither exit 1 (a verdict) nor 2 (a
        # usage error).
        with pytest.raises(RuntimeError, match="escape sweep resolved no orbit"):
            main(["verify", "--graph", "ring:4", "--algo", "prob", "--k", "3"])

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
        return _Space(graph, kind, k, policy_class).row(code)

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

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        st.one_of(small_graphs(), symmetric_graphs()),
        st.sampled_from(
            [
                (AlgorithmKind.DETERMINISTIC, LC1),
                (AlgorithmKind.DETERMINISTIC, SUBSETS),
                (AlgorithmKind.PROBABILISTIC, LC1),
            ]
        ),
        st.data(),
    )
    def test_every_row_matches_the_reference(self, graph, rule, data):
        # Every palette code's row against one built from the arcs and the
        # colors alone, on every palette from 2 to 5 the rule accepts (at
        # most 5 processes, so every degree is below 5).
        kind, policy_class = rule
        floor = 1 + (graph.max_in_degree if kind is AlgorithmKind.DETERMINISTIC else graph.max_degree)
        k = data.draw(st.integers(max(2, floor), 5))
        _check_arguments(graph, kind, k, None, 10**6)
        space = _Space(graph, kind, k, policy_class)
        for code in range(space.codes):
            targets, masks, reps = space.row(code)
            assert (targets, masks) == reference_row(graph.arcs, graph.n, k, kind, policy_class, code)
            assert reps == (targets if space.orbit is None else [space.orbit[t] for t in targets])

    @pytest.mark.parametrize(
        "graph",
        [
            pytest.param(relabeled("ring", 6, (2, 5, 0, 3, 1, 4)), id="ring6-relabeled"),
            pytest.param(relabeled("chain", 6, (4, 1, 5, 0, 2, 3)), id="chain6-relabeled"),
            pytest.param(relabeled("ring", 7, (5, 2, 6, 0, 3, 1, 4)), id="ring7-relabeled"),
            pytest.param(relabeled("chain", 7, (3, 6, 1, 4, 0, 5, 2)), id="chain7-relabeled"),
            # Process 3 reads process 0, a low digit, and process 4, a high
            # one (the low digits are 0 .. (n-1) // 2 - 1).
            pytest.param(build_graph(6, [(0, 3), (4, 3), (1, 2), (2, 5)]), id="six-preds-in-both-halves"),
            pytest.param(build_graph(7, [(1, 4), (5, 4), (0, 2), (2, 6), (3, 0)]), id="seven-preds-in-both-halves"),
            # Process 1 reads process n-1, which holds color 0 at every
            # palette code.
            pytest.param(build_graph(6, [(5, 1), (1, 4), (4, 0), (2, 3)]), id="six-reads-the-top"),
            pytest.param(build_graph(7, [(6, 1), (1, 4), (4, 0), (2, 3), (3, 5)]), id="seven-reads-the-top"),
        ],
    )
    @pytest.mark.parametrize(
        "kind, policy_class",
        [
            (AlgorithmKind.DETERMINISTIC, LC1),
            (AlgorithmKind.DETERMINISTIC, SUBSETS),
            (AlgorithmKind.PROBABILISTIC, LC1),
        ],
        ids=["det-lc1", "det-subsets", "prob-lc1"],
    )
    def test_rows_past_five_processes_match_the_reference(self, graph, kind, policy_class):
        # Past the hypothesis sizes, where each half of a code holds several
        # digits; every degree is at most 2, so k = 3 serves every rule.
        k = 3
        _check_arguments(graph, kind, k, None, 10**6)
        space = _Space(graph, kind, k, policy_class)
        for code in range(space.codes):
            targets, masks, reps = space.row(code)
            assert (targets, masks) == reference_row(graph.arcs, graph.n, k, kind, policy_class, code)
            assert reps == (targets if space.orbit is None else [space.orbit[t] for t in targets])

    @pytest.mark.parametrize("n, k", [(1, 3), (2, 2), (4, 3), (6, 2)])
    def test_colors_decode_every_palette_code(self, n, k):
        space = _Space(build_graph(n, []), AlgorithmKind.DETERMINISTIC, k, LC1)
        assert space.codes == k ** (n - 1)
        for code in range(space.codes):
            assert space.colors(code) == _decode(code, n, k)


def outcome(verify, *args, **kwargs):
    try:
        return asdict(verify(*args, **kwargs))
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


def in_degree_refusal(graph, k):
    return UsageError, f"deterministic rule needs k > max_in_degree, got k={k}, max_in_degree={graph.max_in_degree}"


def expected_deterministic(graph, k, policy_class, **kwargs):
    """The reference's outcome, with its ``NonTerminatingCommandError``, met
    while it enumerates, as the verifier's up-front refusal."""
    expected = outcome(reference_verify_deterministic, graph, k, policy_class, **kwargs)
    if isinstance(expected, tuple) and expected[0] is NonTerminatingCommandError:
        return in_degree_refusal(graph, k)
    return expected


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
        assert outcome(verify_deterministic, *args, **kwargs) == expected_deterministic(*args, **kwargs)

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
    @pytest.mark.parametrize("n", [2, 3])
    def test_refuses_exactly_where_the_reference_has_no_move(self, n, policy_class):
        # Every labelled digraph on n processes, each palette from 2 to n.
        pairs = list(permutations(range(n), 2))
        refused = 0
        for bits in range(1 << len(pairs)):
            graph = build_graph(n, [pair for i, pair in enumerate(pairs) if bits >> i & 1])
            for k in range(2, n + 1):
                try:
                    expected = report_bytes(reference_verify_deterministic(graph, k, policy_class))
                except NonTerminatingCommandError:
                    expected = in_degree_refusal(graph, k)
                    refused += 1
                    assert k <= graph.max_in_degree
                try:
                    new = report_bytes(verify_deterministic(graph, k, policy_class))
                except UsageError as exc:
                    new = type(exc), str(exc)
                assert new == expected
        # A process with both arcs in: 64 - 3**3 of the 3-process digraphs.
        assert refused == {2: 0, 3: 37}[n]

    def test_refusal_builds_no_state(self, monkeypatch):
        def unbuilt(*args):
            raise AssertionError("state built for a refused request")

        monkeypatch.setattr("unicolor.verify._Space", unbuilt)
        monkeypatch.setattr("unicolor.verify.automorphism_generators", unbuilt)
        in_star = build_graph(8, [(i, 0) for i in range(1, 8)])
        for policy_class in (LC1, SUBSETS):
            with pytest.raises(UsageError) as err:
                verify_deterministic(in_star, 5, policy_class)
            assert (type(err.value), str(err.value)) == in_degree_refusal(in_star, 5)

    def test_cap_is_checked_before_the_in_degree(self):
        with pytest.raises(EnumerationCapError, match="state space needs 6561 configurations, cap is 100"):
            verify_deterministic(bidirectional_clique(8), 3, LC1, cap=100)


class _Pick:
    """A stand-in rng for a probabilistic command's draw: its first ``getrandbits`` is
    ``index``, cut to the bits asked for, and every later one is 0.  So
    the draw picks the candidate at ``index`` when there is one, and over
    ``index`` in ``0..k-1`` every candidate is picked."""

    def __init__(self, index):
        self.draws = iter([index])

    def getrandbits(self, bits):
        return next(self.draws, 0) % (1 << bits)


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
                return {rule(kind, graph, k, _Pick(j))((i,), colors)[0] for j in range(k)}
            except (ValueError, NonTerminatingCommandError) as exc:
                return type(exc)

        for r in range(k):
            rotated = tuple((c + r) % k for c in colors)
            for i in range(n):
                assert oracle_enabled(graph.arcs, rotated, i) == oracle_enabled(graph.arcs, colors, i)
                for kind in AlgorithmKind:
                    before, after = outcomes(kind, i, colors), outcomes(kind, i, rotated)
                    if isinstance(before, set):
                        before = {(c + r) % k for c in before}
                    assert after == before



class TestRule:
    @settings(max_examples=60, deadline=None)
    @given(small_graphs(), st.integers(2, 4))
    def test_moves_are_the_commands_answers(self, graph, k):
        # At every configuration, ``moves`` gives each process what a fresh
        # command can answer for it over every draw, ascending; ``()``
        # exactly where the command says the process is not enabled (and
        # the guard says so too), and the command's own error otherwise.
        def outcome(call):
            try:
                return call()
            except (ValueError, NonTerminatingCommandError) as exc:
                return type(exc), str(exc)

        for kind in AlgorithmKind:
            moves_of = moves(kind, graph, k)
            for colors in product(range(k), repeat=graph.n):
                for i in range(graph.n):
                    want = outcome(lambda: tuple(sorted({rule(kind, graph, k, _Pick(j))((i,), colors)[0]
                                                         for j in range(k)})))
                    got = outcome(lambda: moves_of(i, colors))
                    disabled = not oracle_enabled(graph.arcs, colors, i)
                    assert (want == (ValueError, f"process {i} is not enabled")) == disabled
                    assert got == (() if disabled else want)

    @settings(max_examples=60, deadline=None)
    @given(small_graphs(), st.integers(2, 4), st.integers(0, 2**32))
    def test_one_command_matches_fresh_rules(self, graph, k, seed):
        # One run's command, called on every configuration in turn with
        # all its enabled processes and then with every process, against
        # a fresh ``rule`` per call on a twin generator: the same colors
        # or error, and the same state.  The deterministic command reuses
        # its view table throughout, hits beside misses included.
        def outcome(call):
            try:
                return call()
            except (ValueError, NonTerminatingCommandError) as exc:
                return type(exc), str(exc)

        for kind in AlgorithmKind:
            got, want = random.Random(seed), random.Random(seed)
            command = rule(kind, graph, k, got)
            for colors in product(range(k), repeat=graph.n):
                enabled = [i for i in range(graph.n) if oracle_enabled(graph.arcs, colors, i)]
                for processes in (enabled, range(graph.n)):
                    assert outcome(lambda: command(processes, colors)) == outcome(
                        lambda: rule(kind, graph, k, want)(processes, colors))
                    assert got.getstate() == want.getstate()

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
            # Witnesses re-read from the longest-path values: the 31-move
            # worst case from (0,) * 6, and its longest prefix of at most 24
            # moves.
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
        orbit, reps = _orbits(automorphism_generators(ring(n)), n, k)
        assert len(reps) == count
        assert sorted(set(orbit)) == reps

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(small_graphs(), symmetric_graphs()), st.integers(2, 4), st.data())
    def test_codes_map_to_the_smallest_of_their_orbit(self, graph, k, data):
        n = graph.n
        generators = automorphism_generators(graph)
        orbit, reps = _orbits(generators, n, k)
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

    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_palette_map_against_brute_force(self, n, k):
        # The builder splits a code into its low n // 2 digits and the rest.
        # g^-1(n-1) is n-1 itself for the clique's generators that fix it,
        # an outer digit for a rotation of the ring, and an inner digit for
        # its inverse.
        generators = automorphism_generators(ring(n)) + automorphism_generators(bidirectional_clique(n))
        branches = set()
        for g in generators + [tuple(map(g.index, range(n))) for g in generators]:
            p = g.index(n - 1)
            branches.add("n-1" if p == n - 1 else "inner" if p < n // 2 else "outer")
            image = _palette_map(g, n, k)
            assert len(image) == k ** (n - 1)
            for code in range(k ** (n - 1)):
                colors = _decode(code, n, k)
                moved = [0] * n
                for i in range(n):
                    moved[g[i]] = colors[i]
                assert image[code] == _encode(tuple((c - moved[-1]) % k for c in moved), k)
        # On two processes the one nontrivial automorphism is the swap.
        assert branches == ({"n-1", "inner", "outer"} if n > 2 else {"inner"})

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_chain_keeps_every_row(self, n):
        assert automorphism_generators(chain(n)) == []
        orbit, reps = _orbits([], n, 3)
        assert orbit is None
        assert list(reps) == list(range(3 ** (n - 1)))

    @pytest.mark.parametrize("n", range(3, 10))
    def test_relabelled_rings_get_one_generator(self, n):
        # However the processes are numbered, the rotations are one cyclic
        # group, and the search keeps the rotation whose orbit is all n.
        for seed in range(10):
            labels = list(range(n))
            random.Random(seed).shuffle(labels)
            graph = relabeled("ring", n, labels)
            generators = automorphism_generators(graph)
            assert len(generators) == 1
            (g,) = generators
            assert {(g[i], g[j]) for i, j in graph.arcs} == set(graph.arcs)
            # The directed ring has exactly its n rotations.
            assert len(closure(generators, n)) == n

    @pytest.mark.parametrize("n", range(2, 7))
    def test_clique_keeps_n_minus_one_generators(self, n):
        assert len(automorphism_generators(bidirectional_clique(n))) == n - 1

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


def is_terminal(graph, k, code):
    colors = _decode(code, graph.n, k)
    return all(colors[u] != colors[v] for u, v in graph.arcs)


@pytest.fixture
def built_rows(monkeypatch):
    """The palette codes whose rows a search builds, in order."""
    built = []
    build = _Space._row_builder

    def builder(space, *args):
        row = build(space, *args)

        def counted(code):
            built.append(code)
            return row(code)

        return counted

    monkeypatch.setattr(_Space, "_row_builder", builder)
    return built


class TestRowBudget:
    """A converging deterministic search builds one row per non-terminal
    orbit, then one per step of its worst-case schedule; terminal codes
    are marked done from the terminal count's pass and never expanded."""

    @pytest.mark.parametrize("graph, policy_class", [(ring(5), LC1), (chain(5), SUBSETS)])
    def test_one_row_per_non_terminal_orbit(self, built_rows, graph, policy_class):
        k = graph.n
        _, reps = _orbits(automorphism_generators(graph), graph.n, k)
        live = sum(not is_terminal(graph, k, rep) for rep in reps)
        report = verify_deterministic(graph, k, policy_class)
        assert report.all_converge
        assert 0 < live < len(reps)
        assert len(built_rows) == live + len(report.worst_case_witness.schedule)
        assert not any(is_terminal(graph, k, code) for code in built_rows)

    def test_probabilistic_builds_no_terminal_row(self, built_rows):
        graph, k = ring(6), 3
        _, reps = _orbits(automorphism_generators(graph), graph.n, k)
        assert verify_probabilistic_support(graph, k).all_converge
        assert built_rows == [rep for rep in reps if not is_terminal(graph, k, rep)]


def terminal_count(graph, k):
    """The configurations at which no arc joins equal colors, as the
    report counts them."""
    return k * _Space(graph, AlgorithmKind.DETERMINISTIC, k, LC1).terminal


@st.composite
def split_graphs(draw):
    """A digraph on 1 to 6 processes whose arcs are any, or all within the
    low digits of a palette code (processes below (n-1) // 2), or all within
    the high ones."""
    n = draw(st.integers(1, 6))
    half = (n - 1) // 2
    within = draw(st.sampled_from([range(n), range(half), range(half, n)]))
    pairs = list(permutations(within, 2))
    arcs = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return build_graph(n, arcs)


class TestTerminalCount:
    """The terminal count is one exact count of proper colorings."""

    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("n", range(2, 8))
    def test_ring(self, n, k):
        assert terminal_count(ring(n), k) == (k - 1) ** n + (-1) ** n * (k - 1)

    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("n", range(2, 8))
    def test_chain(self, n, k):
        assert terminal_count(chain(n), k) == k * (k - 1) ** (n - 1)

    @pytest.mark.parametrize("k", range(2, 7))
    @pytest.mark.parametrize("n", range(2, 6))
    def test_clique(self, n, k):
        # k! / (k-n)!, and none when the clique has more processes than colors.
        assert terminal_count(bidirectional_clique(n), k) == perm(k, n)

    @settings(max_examples=150, deadline=None)
    @given(split_graphs(), st.integers(2, 4))
    @example(build_graph(1, []), 3)
    @example(build_graph(2, [(0, 1)]), 2)
    @example(build_graph(2, [(0, 1), (1, 0)]), 3)
    def test_brute_force(self, graph, k):
        def brute_force(k):
            return sum(
                all(colors[u] != colors[v] for u, v in graph.arcs) for colors in product(range(k), repeat=graph.n)
            )

        # The count involves no rule, so every palette from 1 up is counted,
        # those at most the in-degree included.
        for palette in range(1, k + 1):
            assert proper_colorings(graph, palette) == brute_force(palette)
        proper = brute_force(k)
        assert terminal_count(graph, k) == proper
        # The same pass marks exactly the proper palette codes done.
        space = _Space(graph, AlgorithmKind.DETERMINISTIC, k, LC1)
        codes = range(k ** (graph.n - 1))
        terminal = [is_terminal(graph, k, code) for code in codes]
        assert list(space.marks) == [2 * t for t in terminal]
        if k > graph.max_in_degree:
            assert [not space.row(code)[0] for code in codes] == terminal


def invariant_fields(report):
    return report.all_converge, report.worst_case_moves, report.terminal_count, report.configurations_checked


class TestIsomorphismInvariance:
    """Renumbering the processes changes the generators, the palette codes
    and the orbits, but not what the checks find."""

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.one_of(small_graphs(), symmetric_graphs()), st.data())
    def test_relabelled_digraph_gets_the_same_verdicts(self, graph, data):
        n = graph.n
        labels = data.draw(st.permutations(range(n)))
        twin = build_graph(n, [(labels[i], labels[j]) for i, j in graph.arcs])
        k = data.draw(st.integers(graph.max_in_degree + 1, max(graph.max_in_degree + 1, 4)))
        for policy_class in (LC1, SUBSETS):
            assert invariant_fields(verify_deterministic(twin, k, policy_class)) == invariant_fields(
                verify_deterministic(graph, k, policy_class)
            )
        k = data.draw(st.integers(graph.max_degree + 1, max(graph.max_degree + 1, 4)))
        assert invariant_fields(verify_probabilistic_support(twin, k)) == invariant_fields(
            verify_probabilistic_support(graph, k)
        )
