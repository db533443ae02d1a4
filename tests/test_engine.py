import json
import random
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, Phase, given, settings, strategies as st

from unicolor import (
    AlgorithmKind,
    AlgorithmSpec,
    Configuration,
    EngineStepError,
    Move,
    NonTerminatingCommandError,
    SchedulerKind,
    SchedulerPolicy,
    Script,
    ScriptViolationError,
    StepRecord,
    UsageError,
    bidirectional_clique,
    build_graph,
    chain,
    chain_schedule,
    is_legitimate,
    random_digraph,
    read_graph_file,
    ring,
    rule,
    run,
)
from unicolor import engine

import encoder_check
from helpers import (
    apply_moves,
    random_instance,
    reference_run,
    reference_trace_dict,
    reference_tsv,
    tracker_members,
    with_colors,
)

LC1 = SchedulerPolicy(SchedulerKind.LOCALLY_CENTRAL_SINGLE)


def start(graph, algo):
    """The all-0 configuration, the adversarial start."""
    return Configuration.uniform(graph.n, 0, algo.k)


def explore_all_lc1(graph, k, config, moves_so_far, results):
    """Every single-activation execution of the deterministic rule."""
    enabled_now = tracker_members(graph, config)
    if not enabled_now:
        results.append((moves_so_far, config.colors))
        assert is_legitimate(graph, config)
        return
    assert moves_so_far < 100, "runaway execution"
    for i in enabled_now:
        new = rule(AlgorithmKind.DETERMINISTIC, graph, k, None)((i,), config.colors)[0]
        explore_all_lc1(graph, k, Configuration(with_colors(config.colors, [(i, new)]), k), moves_so_far + 1, results)


class TestRun:
    def test_three_ring_every_lc1_execution_converges_fast(self):
        # Exhaustive over all single-activation executions from (0,0,0).
        g = ring(3)
        results = []
        explore_all_lc1(g, 3, Configuration.uniform(3, 0, 3), 0, results)
        assert results
        assert max(m for m, _ in results) == 3  # n(n-1)/2

    def test_three_ring_lc1_runs_match_exhaustive_bound(self):
        g = ring(3)
        algo = AlgorithmSpec.deterministic(3)
        for seed in range(8):
            trace = run(g, algo, LC1, start(g, algo), seed=seed)
            assert trace.terminated
            assert trace.total_moves <= 3
            assert is_legitimate(g, Configuration(colors=trace.final, k=3))

    @pytest.mark.parametrize("n,k", [(2, 2), (4, 4), (5, 3)])
    def test_synchronous_uniform_ring_never_terminates(self, n, k):
        g = ring(n)
        algo = AlgorithmSpec.deterministic(k)
        trace = run(g, algo, SchedulerPolicy(SchedulerKind.SYNCHRONOUS), start(g, algo), max_steps=50, record="full")
        assert not trace.terminated
        assert trace.total_steps == 50
        for t, rec in enumerate(trace.steps, start=1):
            assert rec.config_after == ((t % k),) * n

    def test_chain_schedule_exact_moves(self):
        g = chain(4)
        algo = AlgorithmSpec.deterministic(4)
        policy = SchedulerPolicy(SchedulerKind.SCRIPTED, chain_schedule(4))
        trace = run(g, algo, policy, start(g, algo))
        assert trace.total_moves == 6
        assert trace.terminated

    def test_chain3_schedule_replayed_by_hand(self):
        # Frozen from walking the schedule manually: the two conflicted
        # processes step to color 1, then the sink must move again to 2.
        g = chain(3)
        algo = AlgorithmSpec.deterministic(3)
        trace = run(g, algo, SchedulerPolicy(SchedulerKind.SCRIPTED, chain_schedule(3)), start(g, algo))
        assert [tuple(m for m in rec.moves) for rec in trace.steps] == [
            (Move(0, 0, 1),),
            (Move(1, 0, 1),),
            (Move(0, 1, 2),),
        ]
        assert trace.final == (2, 1, 0)
        assert trace.total_moves == 3
        assert trace.terminated

    def test_uniform_start_is_never_legitimate(self):
        for n in (2, 3, 7):
            g = ring(n)
            assert not is_legitimate(g, Configuration.uniform(n, 0, 3))

    def test_probabilistic_seeded_run_frozen(self):
        # Frozen output of the seeded simulation; guards reproducibility.
        g = ring(5)
        algo = AlgorithmSpec.probabilistic(3)
        trace = run(g, algo, LC1, start(g, algo), seed=11)
        assert trace.terminated
        assert trace.total_moves == 3
        assert trace.final == (2, 1, 0, 2, 0)

    def test_trace_bytes_deterministic(self):
        g = ring(6)
        algo = AlgorithmSpec.probabilistic(4)
        kwargs = dict(max_steps=500, seed=123, record="full")
        a = run(g, algo, LC1, start(g, algo), **kwargs)
        b = run(g, algo, LC1, start(g, algo), **kwargs)
        assert a.to_json() == b.to_json()
        assert a.to_tsv() == b.to_tsv()

    def test_replaying_moves_reproduces_final(self):
        rng = random.Random(17)
        done = 0
        while done < 50:
            graph, cfg = random_instance(rng, max_n=6)
            algo = AlgorithmSpec.probabilistic(graph.max_degree + 2)
            cfg = Configuration(colors=tuple(c % algo.k for c in cfg.colors), k=algo.k)
            trace = run(graph, algo, LC1, cfg, max_steps=200, seed=done)
            replayed = cfg
            for rec in trace.steps:
                replayed = apply_moves(replayed, rec.moves)
            assert replayed.colors == trace.final
            done += 1

    def test_terminated_implies_legitimate_and_moves_change_color(self):
        rng = random.Random(23)
        done = 0
        while done < 60:
            graph, cfg = random_instance(rng, max_n=6)
            algo = AlgorithmSpec.probabilistic(graph.max_degree + 1)
            cfg = Configuration(colors=tuple(c % algo.k for c in cfg.colors), k=algo.k)
            trace = run(graph, algo, LC1, cfg, max_steps=400, seed=done)
            for rec in trace.steps:
                assert len(set(rec.activated)) == len(rec.activated)
                for m in rec.moves:
                    assert m.new_color != m.old_color
            if trace.terminated:
                assert is_legitimate(graph, Configuration(colors=trace.final, k=algo.k))
            done += 1

    def test_counters_consistent(self):
        g = ring(5)
        algo = AlgorithmSpec.deterministic(5)
        trace = run(g, algo, SchedulerPolicy(SchedulerKind.SYNCHRONOUS), start(g, algo), max_steps=10)
        assert trace.total_steps == len(trace.steps) == 10
        assert trace.total_moves == sum(len(rec.moves) for rec in trace.steps)

    def test_step_cap_reported_not_raised(self):
        g = ring(4)
        algo = AlgorithmSpec.deterministic(4)
        trace = run(g, algo, SchedulerPolicy(SchedulerKind.SYNCHRONOUS), start(g, algo), max_steps=7)
        assert not trace.terminated
        assert trace.total_steps == 7

    def test_script_violation_carries_step_index(self):
        g = ring(3)
        algo = AlgorithmSpec.deterministic(3)
        # After (1,) fires, process 1 is disabled; the second entry violates.
        policy = SchedulerPolicy(SchedulerKind.SCRIPTED, Script(steps=((1,), (1,))))
        with pytest.raises(EngineStepError) as err:
            run(g, algo, policy, start(g, algo))
        assert err.value.step_index == 1
        assert isinstance(err.value.cause, ScriptViolationError)

    def test_exhausted_script_stops_without_termination(self):
        g = ring(3)
        algo = AlgorithmSpec.deterministic(3)
        trace = run(g, algo, SchedulerPolicy(SchedulerKind.SCRIPTED, Script(steps=((1,),))), start(g, algo))
        assert not trace.terminated
        assert trace.total_steps == 1

    def test_probabilistic_needs_palette_headroom(self):
        g = ring(4)  # max_degree 2
        with pytest.raises(UsageError, match="max_degree"):
            run(g, AlgorithmSpec.probabilistic(2), LC1, Configuration.uniform(4, 0, 2))

    def test_negative_step_cap_rejected(self):
        with pytest.raises(UsageError, match="max_steps must be >= 0, got -1"):
            run(ring(3), AlgorithmSpec.deterministic(3), LC1, Configuration.uniform(3, 0, 3), max_steps=-1)

    def test_palette_mismatch_rejected(self):
        # The CLI builds both palettes from one --k, so a mismatch is a bug.
        g = ring(3)
        with pytest.raises(ValueError, match="palette") as err:
            run(g, AlgorithmSpec.deterministic(3), LC1, Configuration.uniform(3, 0, 4))
        assert type(err.value) is ValueError

    def test_record_modes(self):
        g = ring(4)
        algo = AlgorithmSpec.deterministic(4)
        none = run(g, algo, LC1, start(g, algo), seed=1, record="none")
        moves = run(g, algo, LC1, start(g, algo), seed=1, record="moves")
        full = run(g, algo, LC1, start(g, algo), seed=1, record="full")
        assert none.steps == ()
        assert none.total_moves == moves.total_moves == full.total_moves
        assert all(rec.config_after is None for rec in moves.steps)
        assert all(rec.config_after is not None for rec in full.steps)
        assert full.steps[-1].config_after == full.final

    def test_default_cap_scales(self):
        g = ring(3)
        algo = AlgorithmSpec.deterministic(3)
        trace = run(g, algo, LC1, start(g, algo), seed=2)
        assert trace.max_steps == 10 * 9

    def test_default_cap_is_exact_bound(self):
        # 100 * 4(12-1)/(12-2) is exactly 440; the float formula gave 441.
        assert engine.default_max_steps(ring(4), AlgorithmSpec.probabilistic(12)) == 440
        assert engine.default_max_steps(ring(20), AlgorithmSpec.probabilistic(3)) == 4000

    def test_probabilistic_run_on_graph_without_arcs(self):
        trace = run(build_graph(3, []), AlgorithmSpec.probabilistic(2), LC1, Configuration.uniform(3, 0, 2))
        assert trace.terminated
        assert trace.total_moves == 0


POLICIES = {
    "sync": SchedulerPolicy(SchedulerKind.SYNCHRONOUS),
    "dist": SchedulerPolicy(SchedulerKind.DISTRIBUTED_RANDOM_SUBSET),
    "lc1": LC1,
    "lcmax": SchedulerPolicy(SchedulerKind.LOCALLY_CENTRAL_MAXIMAL),
}

GRAPHS = st.one_of(
    st.integers(2, 8).map(ring),
    st.integers(2, 8).map(chain),
    st.integers(2, 6).map(bidirectional_clique),
    st.builds(random_digraph, st.integers(2, 8), st.integers(1, 4), st.integers(0, 10**6)),
)


@st.composite
def executions(draw):
    """Arguments for ``run``: small graph, either rule, every policy kind
    (scripts random or replayed from a run, possibly violating), uniform
    or random start, every record mode."""
    graph = draw(GRAPHS)
    n = graph.n
    if draw(st.booleans()):
        algo = AlgorithmSpec.probabilistic(draw(st.integers(graph.max_degree + 1, graph.max_degree + 3)))
    else:
        algo = AlgorithmSpec.deterministic(draw(st.integers(2, 6)))
    if draw(st.booleans()):
        initial = Configuration.uniform(n, draw(st.integers(0, algo.k - 1)), algo.k)
    else:
        initial = Configuration(colors=tuple(draw(st.lists(st.integers(0, algo.k - 1), min_size=n, max_size=n))), k=algo.k)
    seed = draw(st.integers(0, 2**32 - 1))
    name = draw(st.sampled_from(["sync", "dist", "lc1", "lcmax", "script-random", "script-replay"]))
    if name == "script-random":
        steps = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=1, max_size=3), max_size=10))
        script = Script(steps=tuple(map(tuple, steps)), locally_central=draw(st.booleans()))
        policy = SchedulerPolicy(SchedulerKind.SCRIPTED, script)
    elif name == "script-replay":
        source = draw(st.sampled_from(sorted(POLICIES)))
        try:
            steps = [rec.activated for rec in reference_run(graph, algo, POLICIES[source], initial, max_steps=30, seed=seed).steps]
        except EngineStepError:
            steps = []
        steps = steps[: draw(st.integers(0, len(steps)))]
        steps += draw(st.lists(st.lists(st.integers(0, n - 1), min_size=1, max_size=2).map(tuple), max_size=2))
        script = Script(steps=tuple(steps), locally_central=source in ("lc1", "lcmax"))
        policy = SchedulerPolicy(SchedulerKind.SCRIPTED, script)
    else:
        policy = POLICIES[name]
    max_steps = draw(st.one_of(st.none(), st.integers(0, 40)))
    record = draw(st.sampled_from(["none", "moves", "full"]))
    return graph, algo, policy, initial, dict(max_steps=max_steps, seed=seed, record=record)


# Shrinking a failing ``executions()`` example (graph, rule, policy,
# script and start together) took minutes, so these tests report the
# first failing example as drawn.
EXECUTIONS = settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    phases=tuple(phase for phase in Phase if phase is not Phase.shrink),
)


def outcome(runner, args, kwargs):
    try:
        return runner(*args, **kwargs)
    except EngineStepError as err:
        return err


class TestIncrementalEngine:
    @EXECUTIONS
    @given(executions())
    def test_matches_full_rescan_reference(self, case):
        *args, kwargs = case
        expected = outcome(reference_run, args, kwargs)
        got = outcome(run, args, kwargs)
        if isinstance(expected, EngineStepError):
            assert isinstance(got, EngineStepError)
            assert got.step_index == expected.step_index
            assert type(got.cause) is type(expected.cause)
            assert str(got) == str(expected)
        else:
            assert got == expected
            assert got.to_json() == expected.to_json()

    # Every step calls the command of the patched ``rule`` below.
    def test_programming_error_is_not_wrapped(self, monkeypatch):
        def broken(*args):
            raise TypeError("bug in a command")

        monkeypatch.setattr(engine, "rule", lambda *args: broken)
        with pytest.raises(TypeError, match="bug in a command"):
            run(ring(3), AlgorithmSpec.deterministic(3), LC1, Configuration.uniform(3, 0, 3))

    def test_value_error_is_not_wrapped(self, monkeypatch):
        # ValueError is not a model error: a step that raises one has a bug.
        def broken(*args):
            raise ValueError("bug in a command")

        monkeypatch.setattr(engine, "rule", lambda *args: broken)
        with pytest.raises(ValueError, match="bug in a command"):
            run(ring(3), AlgorithmSpec.deterministic(3), LC1, Configuration.uniform(3, 0, 3))

    def test_nonterminating_command_is_a_step_error(self):
        # On clique:4 with k = 3, after processes 0 and 1 move from the
        # uniform start, process 2's predecessors hold all three colors.
        policy = SchedulerPolicy(SchedulerKind.SCRIPTED, Script(steps=((0,), (1,), (2,), (3,))))
        with pytest.raises(EngineStepError) as err:
            run(bidirectional_clique(4), AlgorithmSpec.deterministic(3), policy, Configuration.uniform(4, 0, 3))
        assert err.value.step_index == 2
        assert isinstance(err.value.cause, NonTerminatingCommandError)


class TestStepRecord:
    def test_named_tuple_api(self):
        rec = StepRecord((1, 3), (0, 2), (1, 0))
        assert rec.config_after is None
        assert rec == StepRecord(activated=(1, 3), old_colors=(0, 2), new_colors=(1, 0), config_after=None)
        assert rec != StepRecord((1, 3), (0, 2), (1, 0), (1, 1, 1, 0))
        assert rec.moves == (Move(1, 0, 1), Move(3, 2, 0))
        # The one difference from the former frozen dataclass: a record is
        # a tuple, so it equals and unpacks like the tuple of its fields.
        assert rec == ((1, 3), (0, 2), (1, 0), None)
        activated, old_colors, new_colors, config_after = rec
        assert (activated, config_after) == ((1, 3), None)
        with pytest.raises(AttributeError):
            rec.activated = (2,)
        assert rec.activated == (1, 3)

    def test_run_builds_records(self):
        trace = run(ring(3), AlgorithmSpec.deterministic(3), LC1, Configuration.uniform(3, 0, 3),
                    seed=1, record="full")
        first = trace.steps[0]
        assert type(first) is StepRecord
        assert first == StepRecord(first.activated, (0,), first.new_colors, first.config_after)


def counting_misses(monkeypatch) -> list:
    """The process of each predecessor read that the commands of ``run``
    make.  A deterministic command reads ``preds`` only when its view
    table misses, once per process of the call, in the call's order."""
    reads = []

    class Preds(tuple):
        def __getitem__(self, i):
            reads.append(i)
            return tuple.__getitem__(self, i)

    def reading_rule(kind, graph, k, rng):
        return rule(kind, SimpleNamespace(preds=Preds(graph.preds), views=graph.views), k, rng)

    monkeypatch.setattr(engine, "rule", reading_rule)
    return reads


def mover_views(graph, trace) -> list:
    """The view of each step's single mover, from a ``record="full"`` trace."""
    befores = [trace.initial] + [rec.config_after for rec in trace.steps[:-1]]
    return [graph.views[rec.activated[0]](colors) for rec, colors in zip(trace.steps, befores)]


class TestViewTable:
    """The deterministic command reads each mover's new color from a table
    keyed by its view, kept for the run; only a step with an unseen view
    runs the plain command."""

    @staticmethod
    def assert_matches_reference(*args, **kwargs):
        got = run(*args, **kwargs)
        expected = reference_run(*args, **kwargs)
        assert got == expected
        assert got.to_json() == expected.to_json()
        return got

    def test_sync_ring(self):
        graph, algo = ring(300), AlgorithmSpec.deterministic(3)
        self.assert_matches_reference(graph, algo, POLICIES["sync"], start(graph, algo), max_steps=60)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("policy", ["dist", "lcmax"])
    def test_random_digraph(self, policy, seed):
        # Under dist, seeds 1 and 3 each have steps that meet seen views
        # beside unseen ones, so the command runs after partial hits.
        graph, algo = random_digraph(60, 4, seed), AlgorithmSpec.deterministic(5)
        self.assert_matches_reference(graph, algo, POLICIES[policy], start(graph, algo), seed=seed)

    def test_scripted_clique_meets_seen_views(self, monkeypatch):
        # Firing all of clique:5 together from a uniform start cycles with
        # period 5, so steps 5 and 6 meet the views of steps 0 and 1, and
        # step 7 fires process 0 alone at the view of step 2.  Step 8's
        # views are new.
        reads = counting_misses(monkeypatch)
        graph, algo = bidirectional_clique(5), AlgorithmSpec.deterministic(5)
        script = Script(steps=((0, 1, 2, 3, 4),) * 7 + ((0,), (1, 2)), locally_central=False)
        self.assert_matches_reference(graph, algo, SchedulerPolicy(SchedulerKind.SCRIPTED, script), start(graph, algo))
        assert reads == [0, 1, 2, 3, 4] * 5 + [1, 2]

    def test_kept_where_views_recur(self, monkeypatch):
        # The chain's worst-case schedule meets one new view per sweep, so
        # 435 moves make 29 misses.  A deterministic mover on a ring sees
        # (c, c), so a ring run meets at most k views; at k=16 from a
        # random start most of them come in its first moves, and the table
        # still holds them for the rest of the run.  Every step here has
        # one mover, so each miss reads ``preds`` once.
        misses = counting_misses(monkeypatch)
        graph, algo = chain(30), AlgorithmSpec.deterministic(30)
        policy = SchedulerPolicy(SchedulerKind.SCRIPTED, chain_schedule(30))
        trace = self.assert_matches_reference(graph, algo, policy, start(graph, algo), record="full")
        assert trace.total_moves == 435
        assert len(misses) == len(set(mover_views(graph, trace))) == 29
        misses.clear()
        graph, algo = ring(200), AlgorithmSpec.deterministic(3)
        self.assert_matches_reference(graph, algo, LC1, start(graph, algo), seed=4)
        assert len(misses) <= 3
        for seed in range(5):
            misses.clear()
            graph, algo = ring(1000), AlgorithmSpec.deterministic(16)
            initial = Configuration.random(1000, 16, random.Random(seed))
            trace = self.assert_matches_reference(graph, algo, LC1, initial, seed=seed)
            assert len(misses) <= 16 < trace.total_moves

    @pytest.mark.parametrize("kind", list(AlgorithmKind), ids=lambda kind: kind.value)
    def test_one_command_call_per_step(self, kind, monkeypatch):
        # Hits included: a wrapper on the command ``rule`` returns sees
        # every step, with that step's activation set.
        calls = []

        def counting_rule(*args):
            command = rule(*args)

            def counting(processes, colors):
                calls.append(processes)
                return command(processes, colors)

            return counting

        monkeypatch.setattr(engine, "rule", counting_rule)
        graph, algo = random_digraph(60, 4, 1), AlgorithmSpec(kind, 5)
        trace = run(graph, algo, SchedulerPolicy(SchedulerKind.DISTRIBUTED_RANDOM_SUBSET), start(graph, algo), seed=2)
        assert calls == [rec.activated for rec in trace.steps]
        assert len(calls) == trace.total_steps > 1


def stdlib_json(trace) -> str:
    return json.dumps(reference_trace_dict(trace), sort_keys=True, indent=2) + "\n"


class TestTraceJson:
    """``to_json`` lays the artifact out by hand; ``json.dumps`` of the
    reference dict is what it must equal, byte for byte."""

    @EXECUTIONS
    @given(executions())
    def test_matches_stdlib_encoder(self, case):
        *args, kwargs = case
        trace = outcome(run, args, kwargs)
        if isinstance(trace, EngineStepError):
            return  # no trace to encode
        assert trace.to_json() == stdlib_json(trace)

    def test_zero_steps(self):
        trace = run(ring(3), AlgorithmSpec.deterministic(3), LC1, Configuration((0, 1, 2), 3), record="full")
        assert trace.steps == ()
        assert '\n  "steps": [],\n' in trace.to_json()
        assert trace.to_json() == stdlib_json(trace)

    def test_multi_digit_colors(self):
        g = bidirectional_clique(11)
        trace = run(g, AlgorithmSpec.deterministic(12), SchedulerPolicy(SchedulerKind.LOCALLY_CENTRAL_MAXIMAL),
                    Configuration.uniform(11, 0, 12), seed=2, record="full")
        assert max(trace.final) >= 10
        assert trace.to_json() == stdlib_json(trace)

    def test_file_label_is_escaped_by_the_stdlib(self, tmp_path):
        path = tmp_path / 'a "quoted" graph \u00df.txt'
        path.write_text("3\n0 1\n1 2\n2 0\n", encoding="utf-8")
        trace = run(read_graph_file(str(path)), AlgorithmSpec.deterministic(3), LC1,
                    Configuration.uniform(3, 0, 3), seed=4)
        text = trace.to_json()
        assert '\\"quoted\\" graph \\u00df.txt"' in text
        assert text == stdlib_json(trace)

    def test_one_chunk_per_step(self):
        g = ring(6)
        trace = run(g, AlgorithmSpec.deterministic(3), SchedulerPolicy(SchedulerKind.SYNCHRONOUS),
                    Configuration.uniform(6, 0, 3), max_steps=5)
        chunks = list(trace.json_chunks())
        assert len(chunks) == 1 + len(trace.steps) + 2
        assert "".join(chunks) == stdlib_json(trace)


class TestTraceTsv:
    """``to_tsv`` reads the step columns; the same rows rendered from each
    step's ``Move`` objects are what it must equal."""

    @EXECUTIONS
    @given(executions())
    def test_matches_moves_rendering(self, case):
        *args, kwargs = case
        trace = outcome(run, args, kwargs)
        if isinstance(trace, EngineStepError):
            return  # no trace to render
        assert trace.to_tsv() == reference_tsv(trace)

    def test_moves_are_derived_from_the_columns(self):
        trace = run(ring(4), AlgorithmSpec.deterministic(3), SchedulerPolicy(SchedulerKind.SYNCHRONOUS),
                    Configuration((0, 0, 1, 1), 3), max_steps=2)
        rec = trace.steps[0]
        assert (rec.activated, rec.old_colors, rec.new_colors) == ((1, 3), (0, 1), (1, 2))
        assert rec.moves == (Move(1, 0, 1), Move(3, 1, 2))
        assert trace.to_tsv().splitlines()[1:3] == ["0\t1\t0\t1", "0\t3\t1\t2"]


@pytest.mark.parametrize(
    "index, case",
    [pytest.param(i, case, id=f"{i}-{case[2].name}-{case[5]}") for i, case in enumerate(encoder_check.fixed_cases())],
)
def test_encoder_fixed_cases(index, case):
    """The fixed cases of ``tests/encoder_check.py``, which the strategies
    above do not reach: palettes larger than the graph, three-digit process
    ids under ``sync``, ``dist`` and ``lcmax`` with full records, a scripted
    step that activates nobody and a label that needs escaping."""
    graph, algo, policy, initial, max_steps, record = case
    trace = run(graph, algo, policy, initial, max_steps=max_steps, seed=index, record=record)
    assert trace.to_json() == stdlib_json(trace)
    assert trace.to_tsv() == reference_tsv(trace)
