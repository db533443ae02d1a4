import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import unicolor
from unicolor import (
    AlgorithmSpec,
    Configuration,
    EnumerationCapError,
    GraphConstructionError,
    NonTerminatingCommandError,
    SchedulerPolicy,
    ScriptViolationError,
    UsageError,
    experiments,
    ring,
    run,
)
from unicolor.cli import main, parse_graph_spec


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def run_cli_process(argv):
    """``unicolor`` in a child process, so that a traceback shows in its output."""
    src = os.path.dirname(os.path.dirname(unicolor.__file__))
    return subprocess.run(
        [sys.executable, "-m", "unicolor.cli", *argv],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )


class TestRun:
    def test_basic_ring_run(self, capsys, tmp_path):
        out_path = tmp_path / "trace.json"
        code, out, _ = run_cli(
            ["run", "--graph", "ring:5", "--algo", "det", "--k", "5",
             "--sched", "lc1", "--seed", "7", "--out", str(out_path)],
            capsys,
        )
        assert code == 0
        assert "terminated=True" in out
        payload = json.loads(out_path.read_text())
        assert payload["terminated"] is True
        assert payload["algorithm"]["k"] == 5

    def test_tsv_trace(self, capsys, tmp_path):
        out_path = tmp_path / "trace.tsv"
        code, _, _ = run_cli(
            ["run", "--graph", "chain:4", "--k", "4", "--sched", "script:" + str(_chain_script(tmp_path)),
             "--format", "tsv", "--out", str(out_path)],
            capsys,
        )
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == "step\tprocess\told\tnew"
        assert len(lines) == 1 + 6  # header + n(n-1)/2 moves

    def test_explicit_initial_colors(self, capsys):
        code, out, _ = run_cli(
            ["run", "--graph", "ring:3", "--k", "3", "--initial", "0,1,2"], capsys
        )
        assert code == 0
        assert "moves=0" in out

    def test_prob_with_random_initial(self, capsys):
        code, out, _ = run_cli(
            ["run", "--graph", "ring:6", "--algo", "prob", "--k", "3",
             "--initial", "random", "--seed", "3"],
            capsys,
        )
        assert code == 0
        assert "terminated=True" in out

    def test_model_error_is_an_error_line(self):
        # clique:4 needs k >= 4; with k = 3 a command finds no free color.
        proc = run_cli_process(["run", "--graph", "clique:4", "--algo", "det", "--k", "3",
                                "--sched", "lc1", "--seed", "1"])
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: step ")
        assert "Traceback" not in proc.stdout + proc.stderr

    def test_negative_step_cap_is_a_usage_error(self):
        proc = run_cli_process(["run", "--graph", "ring:4", "--k", "4", "--max-steps", "-5"])
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "error: max_steps must be >= 0, got -5\n"

    @pytest.mark.parametrize("text, bad", [("7\n", "step 0: process 7"), ("-1\n", "step 0: process -1"),
                                           ("1\n0 5\n", "step 1: process 5")])
    def test_script_process_out_of_range_is_a_usage_error(self, text, bad, tmp_path):
        script = tmp_path / "bad.script"
        script.write_text(text)
        proc = run_cli_process(["run", "--graph", "ring:5", "--k", "3", "--sched", f"script:{script}"])
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == f"error: script {bad} outside 0..4 of a 5-process graph\n"

    def test_script_violation_names_its_step_once(self, tmp_path):
        script = tmp_path / "clash.script"
        script.write_text("0 1\n")
        proc = run_cli_process(["run", "--graph", "ring:5", "--k", "3", "--sched", f"script:{script}"])
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == "error: step 0: script: processes 0 and 1 are neighbors\n"

    def test_usage_error_bad_graph(self, capsys):
        code, _, err = run_cli(["run", "--graph", "torus:5", "--k", "3"], capsys)
        assert code == 2
        assert "graph spec" in err

    def test_usage_error_prob_small_palette(self, capsys):
        code, _, err = run_cli(
            ["run", "--graph", "ring:5", "--algo", "prob", "--k", "2"], capsys
        )
        assert code == 2
        assert "max_degree" in err

    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--graph", "ring:3", "--k", "3", "--bogus"])
        assert exc.value.code == 2


def _chain_script(tmp_path):
    from unicolor import chain_schedule

    path = tmp_path / "chain4.script"
    path.write_text("".join(" ".join(map(str, step)) + "\n" for step in chain_schedule(4).steps))
    return path


class TestGraphSpecs:
    def test_generators(self):
        assert parse_graph_spec("ring:4").label == "ring:4"
        assert parse_graph_spec("chain:3").n == 3
        assert parse_graph_spec("clique:3").max_degree == 2
        assert parse_graph_spec("random:10:3:1").max_degree == 3

    def test_file_graph(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        path.write_text("# triangle\n3\n0 1\n1 2\n2 0\n")
        code, out, _ = run_cli(
            ["run", "--graph", f"file:{path}", "--k", "3", "--seed", "1"], capsys
        )
        assert code == 0
        assert "terminated=True" in out

    def test_missing_file(self, capsys):
        code, _, err = run_cli(["run", "--graph", "file:/nope.txt", "--k", "3"], capsys)
        assert code == 2


class TestVerifyCommand:
    def test_converging_instance_exits_zero(self, capsys, tmp_path):
        out_path = tmp_path / "verify.json"
        code, out, _ = run_cli(
            ["verify", "--graph", "ring:3", "--algo", "det", "--k", "3",
             "--policy-class", "lc1", "--out", str(out_path)],
            capsys,
        )
        assert code == 0
        assert "all_converge=True" in out
        assert json.loads(out_path.read_text())["worst_case_moves"] == 3

    def test_divergence_exits_one(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--graph", "ring:3", "--k", "3", "--policy-class", "subsets"],
            capsys,
        )
        assert code == 1
        assert "all_converge=False" in out

    def test_expect_diverge_flips_exit(self, capsys):
        code, _, _ = run_cli(
            ["verify", "--graph", "ring:3", "--k", "3", "--policy-class", "subsets",
             "--expect-diverge"],
            capsys,
        )
        assert code == 0
        code, _, _ = run_cli(
            ["verify", "--graph", "ring:3", "--k", "3", "--policy-class", "lc1",
             "--expect-diverge"],
            capsys,
        )
        assert code == 1

    def test_probabilistic_support(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--graph", "clique:3", "--algo", "prob", "--k", "3"], capsys
        )
        assert code == 0
        assert "terminal=6" in out

    def test_cap_usage_error(self, capsys):
        code, _, err = run_cli(
            ["verify", "--graph", "ring:5", "--k", "5", "--cap", "10"], capsys
        )
        assert code == 2

    @pytest.mark.parametrize("algo", ["det", "prob"])
    def test_negative_max_depth_is_a_usage_error(self, algo):
        proc = run_cli_process(["verify", "--graph", "ring:4", "--k", "4", "--algo", algo,
                                "--max-depth", "-1"])
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "error: max_depth must be >= 0, got -1\n"

    def test_palette_below_in_degree_is_a_usage_error(self):
        # clique:4 has in-degree 3: with k = 3 some command has no free color.
        proc = run_cli_process(["verify", "--graph", "clique:4", "--k", "3"])
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "error: deterministic rule needs k > max_in_degree, got k=3, max_in_degree=3\n"

    @pytest.mark.parametrize("graph", ["ring:3", "file"])
    @pytest.mark.parametrize("k", [0, 1])
    def test_palette_below_two_is_a_usage_error(self, graph, k, tmp_path):
        # A graph with no arcs has no in-degree to reject k = 1 first.
        if graph == "file":
            path = tmp_path / "noarcs.txt"
            path.write_text("3\n")
            graph = f"file:{path}"
        proc = run_cli_process(["verify", "--graph", graph, "--k", str(k)])
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == f"error: palette size must be >= 2, got k={k}\n"


    def test_probabilistic_palette_within_max_degree_is_a_usage_error(self):
        proc = run_cli_process(["verify", "--graph", "ring:3", "--algo", "prob", "--k", "2"])
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "error: probabilistic rule needs k > max_degree, got k=2, max_degree=2\n"


class TestExitCodes:
    """Exit code 2 is for the caller's errors only, decided by the
    exception's class: a ``UsageError`` or an ``OSError``."""

    def test_usage_error_class_tree(self):
        assert issubclass(UsageError, ValueError)
        assert issubclass(GraphConstructionError, UsageError)
        assert issubclass(EnumerationCapError, UsageError)
        assert not issubclass(NonTerminatingCommandError, UsageError)
        assert not issubclass(ScriptViolationError, UsageError)

    # Each command's usage errors that no other test pins, with the exact
    # stderr line.  ``CONFIG`` stands for a config file holding ``config``.
    @pytest.mark.parametrize(
        "argv, config, message",
        [
            (["run", "--graph", "ring:3", "--algo", "prob", "--k", "2"], None,
             "probabilistic rule needs k > max_degree, got k=2, max_degree=2"),
            (["run", "--graph", "ring:3", "--k", "3", "--initial", "0,1"], None,
             "initial configuration has 2 colors for n=3"),
            (["run", "--graph", "ring:3", "--k", "1"], None, "palette size must be >= 2, got k=1"),
            (["experiment", "--graph", "ring:3", "--k", "3", "--trials", "5", "--sweep", "1,3"], None,
             "palette size must be >= 2, got k=1"),
            (["experiment", "--config", "CONFIG"], {"graph": "ring:3", "k": 3, "initial": "x"},
             "'x' is not a valid InitialDistribution"),
            (["verify", "--graph", "ring:3", "--k", "3", "--cap", "5"], None,
             "state space needs 27 configurations, cap is 5"),
            (["verify", "--graph", "clique:4", "--k", "3"], None,
             "deterministic rule needs k > max_in_degree, got k=3, max_in_degree=3"),
            (["repro", "sync-ring", "--n", "1"], None, "ring needs n >= 2, got 1"),
            (["repro", "sync-ring", "--n", "3", "--steps", "-1"], None, "need steps >= 1, got -1"),
            (["verify", "--graph", "ring:4", "--algo", "prob", "--k", "3", "--policy-class", "subsets"], None,
             "--policy-class subsets needs --algo det: the probabilistic check searches lc1 only"),
        ],
    )
    def test_usage_error_exits_two(self, argv, config, message, capsys, tmp_path):
        if config is not None:
            path = tmp_path / "exp.json"
            path.write_text(json.dumps(config))
            argv = [str(path) if arg == "CONFIG" else arg for arg in argv]
        assert run_cli(argv, capsys) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "target, argv",
        [
            ("unicolor.engine.rule", ["run", "--graph", "ring:3", "--k", "3"]),
            ("unicolor.experiments.rule", ["experiment", "--graph", "ring:3", "--k", "3", "--trials", "2",
                                      "--initial", "uniform0", "--jobs", "1"]),
            ("unicolor.engine.rule", ["repro", "chain", "--n", "3"]),
            ("unicolor.verify.moves", ["verify", "--graph", "ring:3", "--k", "3"]),
        ],
        ids=["run", "experiment", "repro", "verify"],
    )
    def test_value_error_inside_the_search_is_not_a_usage_error(self, target, argv, monkeypatch, capsys):
        # A bug in a command must crash, not exit 2 as if the arguments were
        # wrong.  Every step of a run or a trial calls the command of the
        # patched ``rule``, and the verifier's first outcome-table miss calls the
        # moves of the patched ``moves``.
        def broken(*args):
            raise ValueError("process 0 is not enabled")

        monkeypatch.setattr(target, lambda *args: broken)
        with pytest.raises(ValueError, match="process 0 is not enabled"):
            main(argv)
        assert capsys.readouterr().err == ""


class TestReproCommand:
    def test_chain_summary_line(self, capsys):
        code, out, _ = run_cli(["repro", "chain", "--n", "10"], capsys)
        assert code == 0
        assert "moves=45 expected=45 OK" in out

    def test_sync_ring(self, capsys):
        code, out, _ = run_cli(["repro", "sync-ring", "--n", "4", "--steps", "50"], capsys)
        assert code == 0
        assert "OK" in out

    def test_ring_chase(self, capsys, tmp_path):
        out_path = tmp_path / "chase.json"
        code, _, _ = run_cli(
            ["repro", "ring-chase", "--n", "4", "--laps", "3", "--out", str(out_path)],
            capsys,
        )
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["ok"] is True
        assert payload["details"]["terminating_moves"] == 3

    def test_clique_bound(self, capsys):
        code, out, _ = run_cli(["repro", "clique-bound", "--delta", "2"], capsys)
        assert code == 0

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["ring-chase", "--n", "2"], "chase initial needs n >= 3, got 2"),
            (["ring-chase", "--n", "5", "--laps", "0"], "need laps >= 1, got 0"),
            (["ring-chase", "--n", "5", "--laps", "-1"], "need laps >= 1, got -1"),
            (["clique-bound", "--delta", "0"], "need delta >= 1, got 0"),
            # 8^8 configurations: over the verifier's default cap.
            (["clique-bound", "--delta", "7"], "state space needs 16777216 configurations, cap is 1000000"),
            (["sync-ring", "--n", "3", "--k", "1"], "palette size must be >= 2, got k=1"),
            (["sync-ring", "--n", "3", "--steps", "0"], "need steps >= 1, got 0"),
        ],
    )
    def test_argument_error_is_a_usage_error(self, argv, message):
        proc = run_cli_process(["repro", *argv])
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == f"error: {message}\n"


class TestExperimentCommand:
    def test_flags_mode(self, capsys, tmp_path):
        out_path = tmp_path / "exp.json"
        code, out, _ = run_cli(
            ["experiment", "--graph", "ring:8", "--algo", "prob", "--k", "3",
             "--trials", "50", "--seed-base", "3", "--out", str(out_path)],
            capsys,
        )
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["trials"] == 50
        assert payload["converged"] == 50

    def test_config_file_mode_with_sweep(self, capsys, tmp_path):
        cfg = {"graph": "ring:8", "algo": "prob", "k": 3, "sched": "lc1",
               "trials": 30, "seed_base": 9, "k_sweep": [3, 5]}
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(cfg))
        out_path = tmp_path / "report.json"
        code, out, _ = run_cli(
            ["experiment", "--config", str(cfg_path), "--out", str(out_path)], capsys
        )
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert len(payload["reports"]) == 2

    def test_sweep_of_one_palette_keeps_the_sweep_shape(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        tsv_path = tmp_path / "trials.tsv"
        code, out, _ = run_cli(
            ["experiment", "--graph", "ring:6", "--k", "3", "--trials", "4", "--sweep", "4",
             "--out", str(out_path), "--trials-tsv", str(tsv_path)],
            capsys,
        )
        assert code == 0
        reports = json.loads(out_path.read_text())["reports"]
        assert [rep["algorithm"]["k"] for rep in reports] == [4]
        _, header, row = out.splitlines()
        assert header == "k\tmean_moves\tbound"
        assert row.startswith(f"4\t{reports[0]['mean_moves']:.4f}\t")
        lines = tsv_path.read_text().splitlines()
        assert lines[0] == "k\ttrial\tmoves\tsteps\tconverged"
        assert [line.split("\t")[:2] for line in lines[1:]] == [["4", str(t)] for t in range(4)]

    def test_sweep_tsv_has_one_header_and_a_palette_column(self, capsys, tmp_path):
        tsv_path = tmp_path / "trials.tsv"
        code, _, _ = run_cli(
            ["experiment", "--graph", "ring:6", "--algo", "det", "--k", "3", "--trials", "3", "--sweep", "4,5",
             "--trials-tsv", str(tsv_path)],
            capsys,
        )
        assert code == 0
        lines = tsv_path.read_text().splitlines()
        assert lines[0] == "k\ttrial\tmoves\tsteps\tconverged"
        assert [line.split("\t")[:2] for line in lines[1:]] == [[k, t] for k in "45" for t in "012"]

    def test_tsv_per_trial(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        tsv_path = tmp_path / "trials.tsv"
        code, _, _ = run_cli(
            ["experiment", "--graph", "ring:6", "--k", "3", "--trials", "10",
             "--out", str(out_path), "--trials-tsv", str(tsv_path)],
            capsys,
        )
        assert code == 0
        assert json.loads(out_path.read_text())["trials"] == 10
        lines = tsv_path.read_text().strip().splitlines()
        assert lines[0] == "trial\tmoves\tsteps\tconverged"
        assert len(lines) == 11

    @pytest.mark.parametrize(
        "text,message",
        [
            ('{"k": 5}', "needs 'graph' and 'k' or 'k_sweep'"),
            ('{"graph": "ring:4", "k": 5', "Expecting"),
            ('{"graph": "ring:4", "k": "x"}', "'k' must be int, got 'x'"),
            ('{"graph": "ring:4", "k": 5, "k_sweep": [5, "x"]}', "'k_sweep' must be a list of int"),
            ('[1, 2]', "want a JSON object"),
            ('{"graph": "ring:4", "k": 5, "sweep": [3, 5]}', "unknown key(s) 'sweep'"),
            ('{"graph": "ring:4", "k": 5, "trials": true}', "'trials' must be int, got True"),
            ('{"graph": "ring:4", "k": 5, "k_sweep": [5, false]}', "'k_sweep' must be a list of int"),
        ],
    )
    def test_bad_config_file_is_a_usage_error(self, tmp_path, text, message):
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(text)
        proc = run_cli_process(["experiment", "--config", str(cfg_path)])
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: config file ")
        assert message in proc.stderr
        assert "Traceback" not in proc.stdout + proc.stderr

    @pytest.mark.parametrize("key, kind", [("algo", "str"), ("sched", "str"), ("trials", "int"),
                                           ("seed_base", "int"), ("initial", "str")])
    def test_null_for_a_key_with_a_default_is_a_usage_error(self, key, kind, capsys, tmp_path):
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps({"graph": "ring:3", "k": 3, key: None}))
        assert run_cli(["experiment", "--config", str(cfg_path)], capsys) == (
            2, "", f"error: config file {str(cfg_path)!r}: {key!r} must be {kind}, got None\n")

    def test_null_for_a_key_without_a_default_takes_it(self, capsys, tmp_path):
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps({"graph": "ring:3", "k": 3, "trials": 2, "max_steps": None,
                                        "k_sweep": None}))
        code, out, _ = run_cli(["experiment", "--config", str(cfg_path)], capsys)
        assert code == 0
        assert out.startswith("k=3 trials=2 ")

    def test_config_that_is_not_utf8_is_a_usage_error(self, capsys, tmp_path):
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_bytes(b'{"graph": "ring:3", "k": \xff}')
        code, out, err = run_cli(["experiment", "--config", str(cfg_path)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: config file {str(cfg_path)!r}: 'utf-8' codec can't decode byte 0xff")

    def test_needs_graph_or_config(self, capsys):
        code, _, err = run_cli(["experiment", "--trials", "5"], capsys)
        assert code == 2

    @pytest.mark.parametrize(
        "argv, config",
        [
            (["--graph", "ring:4"], None),
            (["--k", "3", "--trials", "5"], None),
            ([], {"graph": "ring:4"}),
            ([], {"graph": "ring:4", "k_sweep": []}),
            ([], {"k_sweep": [3, 4]}),
        ],
    )
    def test_missing_graph_or_palette_is_a_usage_error(self, argv, config, capsys, tmp_path):
        message = "experiment needs --config, or --graph with --k or --sweep"
        if config is not None:
            cfg_path = tmp_path / "exp.json"
            cfg_path.write_text(json.dumps(config))
            argv = ["--config", str(cfg_path)]
            message = f"config file {str(cfg_path)!r} needs 'graph' and 'k' or 'k_sweep'"
        assert run_cli(["experiment", *argv], capsys) == (2, "", f"error: {message}\n")

    def test_sweep_replaces_k(self, capsys, tmp_path):
        # The sweep's palettes are the ones run; --k is neither run nor
        # checked, even where the probabilistic rule would refuse it.
        outputs = []
        for k_flag in [[], ["--k", "3"], ["--k", "5"]]:
            out_path, tsv_path = tmp_path / "report.json", tmp_path / "trials.tsv"
            code, out, err = run_cli(
                ["experiment", "--graph", "clique:4", "--algo", "prob", *k_flag, "--sweep", "5,6",
                 "--trials", "5", "--out", str(out_path), "--trials-tsv", str(tsv_path)],
                capsys,
            )
            assert (code, err) == (0, "")
            outputs.append((out, out_path.read_bytes(), tsv_path.read_bytes()))
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
        reports = json.loads(outputs[0][1])["reports"]
        assert [rep["algorithm"]["k"] for rep in reports] == [5, 6]

    def test_config_file_sweep_without_k(self, capsys, tmp_path):
        cfg_path, out_path = tmp_path / "exp.json", tmp_path / "report.json"
        cfg_path.write_text(json.dumps({"graph": "clique:4", "algo": "prob", "k_sweep": [5, 6], "trials": 5}))
        code, out, _ = run_cli(["experiment", "--config", str(cfg_path), "--out", str(out_path)], capsys)
        assert code == 0
        assert out.startswith("k=5 trials=5 ") and "\nk=6 trials=5 " in out
        reports = json.loads(out_path.read_text())["reports"]
        assert [(rep["algorithm"]["k"], rep["trials"]) for rep in reports] == [(5, 5), (6, 5)]

    def test_invalid_palette_in_sweep_rejected_before_any_trial(self, capsys, monkeypatch):
        # Every trial runs in a chunk: a call of ``run_chunk``.
        calls = []
        monkeypatch.setattr(experiments, "run_chunk", lambda *args: calls.append(args) or [])
        argv = ["experiment", "--graph", "ring:8", "--algo", "prob", "--sweep", "3,2", "--trials", "10"]
        assert run_cli(argv, capsys) == (
            2, "", "error: probabilistic rule needs k > max_degree, got k=2, max_degree=2\n")
        assert calls == []

    def test_settings_flags_with_config_are_a_usage_error(self, capsys, monkeypatch, tmp_path):
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps({"graph": "ring:4", "k": 3, "trials": 3}))
        calls = []
        monkeypatch.setattr(experiments, "run_chunk", lambda *args: calls.append(args) or [])
        argv = ["experiment", "--config", str(cfg_path), "--trials", "50", "--graph", "ring:9"]
        assert run_cli(argv, capsys) == (
            2, "", "error: --graph, --trials cannot be given with --config, which holds the settings\n")
        assert run_cli(["experiment", "--config", str(cfg_path), "--sweep", "3"], capsys)[2] == (
            "error: --sweep cannot be given with --config, which holds the settings\n")
        assert calls == []

    def test_config_combines_with_the_output_and_run_flags(self, capsys, tmp_path):
        cfg_path, out_path, tsv_path = tmp_path / "exp.json", tmp_path / "report.json", tmp_path / "trials.tsv"
        cfg_path.write_text(json.dumps({"graph": "ring:4", "k": 3, "trials": 3}))
        code, out, _ = run_cli(["experiment", "--config", str(cfg_path), "--jobs", "1", "--allow-capped",
                                "--out", str(out_path), "--trials-tsv", str(tsv_path)], capsys)
        assert code == 0
        assert out.startswith("k=3 trials=3 ")
        assert json.loads(out_path.read_text())["trials"] == 3
        assert len(tsv_path.read_text().splitlines()) == 4

    def test_worst_initial_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["experiment", "--graph", "ring:6", "--k", "3", "--initial", "worst"])
        assert exit_.value.code == 2
        assert "invalid choice: 'worst'" in capsys.readouterr().err

    def test_det_experiment_uniform(self, capsys):
        code, out, _ = run_cli(
            ["experiment", "--graph", "chain:6", "--algo", "det", "--k", "6",
             "--sched", "lc1", "--trials", "20", "--initial", "uniform0"],
            capsys,
        )
        assert code == 0


class TestExperimentExitCode:
    def test_negative_step_cap_is_a_usage_error(self):
        proc = run_cli_process(["experiment", "--graph", "ring:4", "--k", "4", "--max-steps", "-1"])
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "error: max_steps must be >= 0, got -1\n"

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_nonpositive_jobs_is_a_usage_error(self, jobs):
        proc = run_cli_process(["experiment", "--graph", "ring:5", "--k", "3", "--trials", "5",
                                "--jobs", jobs])
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == f"error: jobs must be >= 1, got {jobs}\n"

    def test_censored_trials_leave_the_verdict_null(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        argv = ["experiment", "--graph", "ring:8", "--algo", "prob", "--k", "3", "--max-steps", "1",
                "--trials", "40", "--out", str(out_path)]
        code, out, err = run_cli(argv + ["--allow-capped"], capsys)
        assert code == 0
        assert "within_bound=None" in out
        report = json.loads(out_path.read_text())
        assert report["censored"] == 40 - report["converged"] > 0
        assert report["bound_satisfied"] is None and report["bound_z_score"] is None
        assert f"{report['censored']} trial(s) hit the step cap" in err
        code, _, _ = run_cli(argv, capsys)
        assert code == 1

    def test_graph_without_arcs_has_no_bound(self, capsys, tmp_path):
        graph_path, out_path = tmp_path / "noarcs.txt", tmp_path / "report.json"
        graph_path.write_text("3\n")
        code, out, _ = run_cli(["experiment", "--graph", f"file:{graph_path}", "--algo", "prob", "--k", "3",
                                "--trials", "5", "--out", str(out_path)], capsys)
        assert code == 0
        assert out == "k=3 trials=5 converged=5 mean_moves=0.0000 max_moves=0\n"
        report = json.loads(out_path.read_text())
        assert report["bound"] is report["bound_satisfied"] is report["bound_z_score"] is None

    def test_capped_trials_exit_one(self, capsys):
        argv = ["experiment", "--graph", "ring:5", "--algo", "det", "--k", "5", "--sched", "sync",
                "--initial", "uniform0", "--trials", "3", "--max-steps", "50"]
        code, _, err = run_cli(argv, capsys)
        assert code == 1
        assert "3 trial(s) hit the step cap" in err
        code, _, _ = run_cli(argv + ["--allow-capped"], capsys)
        assert code == 0

    def test_errored_trials_exit_one(self, capsys):
        argv = ["experiment", "--graph", "clique:4", "--algo", "det", "--k", "3", "--trials", "20"]
        code, _, err = run_cli(argv, capsys)
        assert code == 1
        assert "20 trial(s) errored" in err
        code, _, _ = run_cli(argv + ["--allow-capped"], capsys)
        assert code == 1

    def test_failed_bound_exits_one(self, capsys, monkeypatch):
        argv = ["experiment", "--graph", "ring:8", "--k", "3", "--trials", "40", "--seed-base", "4"]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        assert "within_bound=True" in out
        monkeypatch.setattr(experiments, "expected_total_steps_bound", lambda n, d, k: Fraction(1))
        code, out, _ = run_cli(argv, capsys)
        assert code == 1
        assert "within_bound=False" in out


class TestDeterminism:
    def test_identical_invocations_identical_bytes(self, capsys, tmp_path):
        argv_sets = [
            ["run", "--graph", "ring:6", "--algo", "prob", "--k", "3", "--seed", "5"],
            ["experiment", "--graph", "ring:6", "--k", "3", "--trials", "25",
             "--seed-base", "11"],
            ["verify", "--graph", "ring:3", "--k", "3", "--policy-class", "subsets",
             "--expect-diverge"],
            ["repro", "chain", "--n", "6"],
        ]
        for argv in argv_sets:
            a_path, b_path = tmp_path / "a.json", tmp_path / "b.json"
            run_cli(argv + ["--out", str(a_path)], capsys)
            run_cli(argv + ["--out", str(b_path)], capsys)
            assert a_path.read_bytes() == b_path.read_bytes(), argv


class TestStandardLibraryOnly:
    def test_runtime_imports_only_the_standard_library(self):
        # ``-S`` skips site-packages and their ``.pth`` hooks, which import
        # third-party modules of their own.
        src = os.path.dirname(os.path.dirname(unicolor.__file__))
        code = (
            "import sys\n"
            f"sys.path.insert(0, {src!r})\n"
            "import unicolor, unicolor.cli\n"
            "print(' '.join(sorted({name.partition('.')[0] for name in sys.modules})))\n"
        )
        proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        loaded = set(proc.stdout.split())
        assert "unicolor" in loaded
        allowed = set(sys.stdlib_module_names) | {"unicolor", "__main__", "__mp_main__"}
        assert sorted(loaded - allowed) == []


# sha256 of the ``run --out`` artifacts as the stdlib encoder wrote them
# (``json.dumps(..., sort_keys=True, indent=2)``), before the trace JSON was
# laid out by hand; the encoder must keep every byte.
GOLDEN_RUNS = {
    "readme": (["--graph", "ring:5", "--algo", "det", "--k", "5", "--sched", "lc1", "--seed", "7"],
               "28c37da7e5ba0c49a2c06b979b4c64c0b106dee232306e5704fa753cb95b7f04",
               "0e0e67d5e7217a9372970a4f2c76723018188bc5e99da448a27284b76a082dfc"),
    "trace-full": (["--graph", "random:12:3:5", "--algo", "prob", "--k", "4", "--sched", "dist",
                    "--seed", "3", "--initial", "random", "--trace", "full"],
                   "e37bea06a4fbc228c6d483a39b1e83fced0e22bb51b9324d0867b38363a01bda",
                   "77af2aedaa26fbf51f906d4f3b4f31b70ffabdaf1a19e263b86f580a686bf0b0"),
    "sync-ring": (["--graph", "ring:6", "--k", "3", "--sched", "sync", "--max-steps", "20"],
                  "e4f3330dc9a98910a2478904a8b41e020a11d4060517f11d2e314ebe517236bc",
                  "0d05d9b234b0f1c82ec1a85ffb3849f3442cd5a28835cf37e242cbe71db7b53a"),
    "k12-full": (["--graph", "clique:11", "--k", "12", "--sched", "lcmax", "--seed", "2", "--trace", "full"],
                 "43d0fa4993b61a58cdc8b373f371cf9726bb83481844efd2af4ccac3a11a6382",
                 "4e13380bf00e475fe7d7e094239de5da9a57fae75bf8457766412952e23d6f7e"),
    # The benchmark's sync artifact: 120,000 moves with ids up to 1999,
    # recorded while each move was still rendered by its own f-string.
    "sync-ring-2000": (["--graph", "ring:2000", "--k", "3", "--sched", "sync", "--max-steps", "60"],
                       "1192a5556a5365af300588df60c5db90db8fbe45441aadee45b0479e94886b98",
                       "787e655ce138780e3c1d50f3e9fcabd5d0357b769dddec2df7c40e227f9f2107"),
    # Probabilistic lc1 and lcmax from random starts, recorded while every
    # draw still went through ``random.Random``'s own methods.
    "prob-lc1-random": (["--graph", "random:30:4:424242", "--algo", "prob", "--k", "5", "--sched", "lc1",
                         "--seed", "11", "--initial", "random"],
                        "7c55410cf1c8b43feed087d0a5867122366aa66b2a862409cce80ae6cb24d9b2",
                        "468c24407b952ac815908904c0a0356d82fd0ac45f16a89a628c9a1520a1a13b"),
    "prob-lcmax-ring": (["--graph", "ring:20", "--algo", "prob", "--k", "3", "--sched", "lcmax",
                         "--seed", "5", "--initial", "random"],
                        "bf12863c0cb0d48358ab722e6f7a72e17bcb2540c676c7efc174f1de222a68a6",
                        "3d74d58c75226ae4f15598bbbb2884f300f48e6c52a3449a7b0cd5174b1be709"),
    # dist from the all-0 start: the first step draws a 300-bit subset
    # mask.  Recorded while the mask was decoded one shift per process.
    "prob-dist-300": (["--graph", "random:300:4:5", "--algo", "prob", "--k", "5", "--sched", "dist",
                       "--initial", "uniform:0", "--seed", "3"],
                      "457d71ea41631e1eb2d9a488ee591b505c73503be26174c9d274cd32bb30ee08",
                      "f90384651d5bf3b47f8f5c3fc5c4cb5ccfc063af74aa569340b944c61b8648f6"),
}

# sha256 of the ``experiment --out`` report and its ``--trials-tsv``,
# recorded under the same draws as the probabilistic runs above.
GOLDEN_EXPERIMENTS = {
    "prob-dist-random-100": (["--graph", "random:100:4:7", "--algo", "prob", "--k", "5", "--sched", "dist",
                              "--trials", "200", "--seed-base", "9"],
                             "981e30b930e4eb7e3d13976a776089e96d7303dbf4994dc55171edf2340d3b36",
                             "137c012f2c44c9fa9bde59afc9f12590c735574b8ee7df0ee22c6ebbf49a52c1"),
}


# sha256 of the ``repro --out`` reports, recorded while each scenario still
# replayed its chase under a script and counted colorings by enumeration.
GOLDEN_REPROS = {
    "ring-chase-6-3": (["ring-chase", "--n", "6", "--laps", "3"],
                       "83be59fe762873b5e75a644d5e083f9b87d903bd037932f0cb292834474f52f2"),
    "ring-chase-3-1": (["ring-chase", "--n", "3", "--laps", "1"],
                       "f0b47be764ad0999ae56830cf60c932f6b279ea44ee6331ec397ed443b4916a5"),
    "clique-bound-4": (["clique-bound", "--delta", "4"],
                       "911905c27f3d5fe70360ce6b29ac828969bec9464a03d864273ca56be10517d0"),
    "chain-10": (["chain", "--n", "10"],
                 "fc201de48beba80440bbbae455ca38955b98c9da2dd61c86f92d3b4fdf09a78c"),
    "sync-ring-4-50": (["sync-ring", "--n", "4", "--steps", "50"],
                       "faee74605db3a4798eedbdabab6a9dd3d0d0fb17bd169a7b53c99d50d8decfab"),
}


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestGoldenArtifacts:
    @pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
    def test_run_artifacts_unchanged(self, name, capsys, tmp_path):
        argv, json_sha, tsv_sha = GOLDEN_RUNS[name]
        for fmt, want in (("json", json_sha), ("tsv", tsv_sha)):
            out_path = tmp_path / f"trace.{fmt}"
            code, _, _ = run_cli(["run", *argv, "--format", fmt, "--out", str(out_path)], capsys)
            assert code == 0
            assert sha256(out_path) == want, fmt

    @pytest.mark.parametrize("name", sorted(GOLDEN_EXPERIMENTS))
    def test_experiment_artifacts_unchanged(self, name, capsys, tmp_path):
        argv, json_sha, tsv_sha = GOLDEN_EXPERIMENTS[name]
        out_path, tsv_path = tmp_path / "report.json", tmp_path / "trials.tsv"
        code, _, _ = run_cli(["experiment", *argv, "--out", str(out_path), "--trials-tsv", str(tsv_path)], capsys)
        assert code == 0
        assert sha256(out_path) == json_sha
        assert sha256(tsv_path) == tsv_sha

    def test_record_none_artifact_unchanged(self):
        # ``run --trace`` takes moves or full only; record="none" is the
        # experiment batches' mode, reachable from the library.
        trace = run(ring(5), AlgorithmSpec.deterministic(5), SchedulerPolicy.locally_central_single(),
                    Configuration.uniform(5, 0, 5), seed=7, record="none")
        digest = hashlib.sha256(trace.to_json().encode()).hexdigest()
        assert digest == "365736d6ba3b450fe77fcc0fda31643f0d47606ba0018f58a97e703aaaa44000"

    @pytest.mark.parametrize("name", sorted(GOLDEN_REPROS))
    def test_repro_reports_unchanged(self, name, capsys, tmp_path):
        argv, want = GOLDEN_REPROS[name]
        out_path = tmp_path / "report.json"
        code, _, _ = run_cli(["repro", *argv, "--out", str(out_path)], capsys)
        assert code == 0
        assert sha256(out_path) == want
