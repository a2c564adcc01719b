import json
import math
import os
import subprocess
import sys

import pytest

from mbg import harness
from mbg.board import GameParams
from mbg.engine import play_game, read_trace, trace_to_json, write_trace
from mbg.errors import InvalidParams, MBGError
from mbg.boxgame import f_box
from mbg.harness import (CellResult, SweepSpec, _estimate_threshold,
                         _int_list, _load_config, main, reference_threshold,
                         run_sweep, trial_seed, worker_count)
from mbg.breaker_strategies import IsolateBreaker, make_breaker
from mbg.maker_strategies import make_maker


class TestSeeding:
    def test_pinned_values(self):
        # frozen so published CSVs stay reproducible across refactors
        assert trial_seed(0, 0, 0) == 16774267956234540618
        assert trial_seed(2026, 3, 17) == 2031269513368187027

    def test_streams_do_not_collide(self):
        seeds = {trial_seed(1, b, t) for b in range(20) for t in range(50)}
        assert len(seeds) == 1000


def test_reference_threshold():
    assert reference_threshold(40, 1) == pytest.approx(40 / (1 + math.log(40)))
    assert reference_threshold(40, 1) == pytest.approx(8.5308, abs=1e-4)


class TestWorkerCount:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("MBG_THREADS", raising=False)
        assert worker_count() == 1

    @pytest.mark.parametrize("raw, expected", [("4", 4), ("1", 1)])
    def test_parsing(self, monkeypatch, raw, expected):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setenv("MBG_THREADS", raw)
        assert worker_count() == expected

    @pytest.mark.parametrize("raw", ["0", "-3", "junk"])
    def test_rejects_anything_but_a_positive_integer(self, monkeypatch, raw):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setenv("MBG_THREADS", raw)
        with pytest.raises(InvalidParams, match=f"got '{raw}'"):
            worker_count()

    @pytest.mark.parametrize("cores, expected", [(2, 2), (None, 1)])
    def test_clamped_to_the_core_count(self, monkeypatch, cores, expected):
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        monkeypatch.setenv("MBG_THREADS", "64")
        assert worker_count() == expected


class TestSweepSpec:
    def base(self, **kw):
        defaults = dict(n=10, a=1, k=1, goal="min-degree",
                        b_values=(1, 2), trials=5)
        defaults.update(kw)
        return SweepSpec(**defaults)

    def test_valid(self):
        self.base()

    @pytest.mark.parametrize("kw", [
        {"trials": 0},
        {"b_values": ()},
        {"b_values": (3, 1)},
    ])
    def test_invalid(self, kw):
        with pytest.raises(MBGError):
            self.base(**kw)


class TestCellResult:
    def test_rates_exclude_infeasible_trials(self):
        cell = CellResult(b=2, trials=10, maker_wins=6, infeasible=2,
                          total_rounds=80, total_maker_claims=40)
        assert cell.decided == 8
        assert cell.win_rate == 0.75
        assert cell.mean_rounds == 10.0
        assert cell.mean_maker_claims == 5.0

    def test_all_infeasible_yields_zero_rates(self):
        cell = CellResult(b=2, trials=3, infeasible=3)
        assert cell.win_rate == 0.0 and cell.mean_rounds == 0.0


class TestThresholdEstimate:
    def cells(self, rates, trials=10):
        return [CellResult(b=b, trials=trials, maker_wins=round(r * trials))
                for b, r in enumerate(rates, start=1)]

    def test_midpoint_interpolation(self):
        est, interp = _estimate_threshold(self.cells([1.0, 0.8, 0.4, 0.1]))
        assert est == 2
        assert interp == pytest.approx(2.75)

    def test_no_cell_reaches_half(self):
        assert _estimate_threshold(self.cells([0.3, 0.1])) == (None, None)

    def test_last_crossing_wins_on_noise(self):
        est, interp = _estimate_threshold(self.cells([1.0, 0.4, 0.6, 0.2]))
        assert est == 3
        assert interp == pytest.approx(3.25)

    def test_open_ended_when_final_cell_is_above_half(self):
        assert _estimate_threshold(self.cells([1.0, 0.4, 0.6])) == (None, None)

    def test_every_cell_won_is_not_bracketed(self):
        assert _estimate_threshold(self.cells([1.0, 1.0, 0.9])) == (None, None)


class TestRunSweep:
    def spec(self, **kw):
        defaults = dict(n=8, a=1, k=1, goal="min-degree", b_values=(1, 2),
                        trials=4, master_seed=1)
        defaults.update(kw)
        return SweepSpec(**defaults)

    def test_counts_and_determinism(self):
        first = run_sweep(self.spec())
        second = run_sweep(self.spec())
        assert first.cells == second.cells
        for cell in first.cells:
            assert cell.decided == 4
            assert 0.0 <= cell.win_rate <= 1.0
        assert first.reference_curve == pytest.approx(
            reference_threshold(8, 1))

    def test_infeasible_strategies_are_counted_not_crashed(self):
        result = run_sweep(self.spec(breaker="isolate", b_values=(2, 7)))
        assert result.cells[0].infeasible == 4  # bias 2 cannot isolate at n=8
        assert result.cells[1].infeasible == 0
        assert result.cells[1].win_rate == 0.0  # isolation always wins here

    def test_plan_fallbacks_are_counted(self):
        # the setting of test_desk_scale_fallback_is_flagged: at n=40 and
        # b=12 Maker destroys every box and every game falls back
        result = run_sweep(self.spec(n=40, b_values=(12,), trials=2,
                                     breaker="clique-box"))
        assert result.cells[0].fallback == result.cells[0].trials == 2

    def test_csv_is_stable_apart_from_timestamp(self, tmp_path):
        paths = [tmp_path / "one.csv", tmp_path / "two.csv"]
        for path in paths:
            run_sweep(self.spec(out_path=str(path)))
        bodies = []
        for path in paths:
            lines = path.read_text(encoding="utf-8").splitlines()
            assert lines[0].startswith("# generated ")
            assert lines[1].startswith("n,a,b,k,goal,")
            assert len(lines) == 2 + 2  # comment, header, one row per bias
            bodies.append(lines[1:])
        assert bodies[0] == bodies[1]

    def test_worker_pool_matches_serial_results(self, monkeypatch, tmp_path):
        serial = tmp_path / "serial.csv"
        pooled = tmp_path / "pooled.csv"
        monkeypatch.delenv("MBG_THREADS", raising=False)
        run_sweep(self.spec(out_path=str(serial)))
        monkeypatch.setenv("MBG_THREADS", "2")
        run_sweep(self.spec(out_path=str(pooled)))
        strip = lambda p: p.read_text(encoding="utf-8").splitlines()[1:]
        assert strip(serial) == strip(pooled)

    @pytest.mark.parametrize("b_values, trials, chunksize", [
        ((1, 2), 4, 1), ((1, 2, 3, 4), 10, 5),
    ])
    def test_chunks_spread_over_the_workers(self, monkeypatch, b_values,
                                            trials, chunksize):
        # a pool stand-in that records its settings and maps in-process
        seen = []

        class RecordingPool:
            def __init__(self, max_workers):
                seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize):
                seen.append(chunksize)
                return map(fn, tasks)

        spec = self.spec(b_values=b_values, trials=trials)
        monkeypatch.delenv("MBG_THREADS", raising=False)
        serial = run_sweep(spec)
        monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setenv("MBG_THREADS", "2")
        assert run_sweep(spec).cells == serial.cells
        assert seen == [2, chunksize]


class TestConfigHandling:
    def test_load_config_parses_and_normalises(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\n\nn = 9\nb-min=2\n", encoding="utf-8")
        assert _load_config(str(cfg)) == {"n": "9", "b_min": "2"}

    def test_load_config_rejects_bare_words(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nonsense\n", encoding="utf-8")
        with pytest.raises(MBGError):
            _load_config(str(cfg))

    def test_config_supplies_defaults_and_flags_win(self, tmp_path, capsys):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("n=9\nb=2\nseed=3\n", encoding="utf-8")
        assert main(["simulate", "--config", str(cfg)]) == 0
        from_config = capsys.readouterr().out
        assert main(["simulate", "--n", "9", "--b", "2", "--seed", "3"]) == 0
        explicit = capsys.readouterr().out
        assert from_config == explicit
        # a flag on the command line overrides the file
        assert main(["simulate", "--config", str(cfg), "--seed", "5"]) == 0
        overridden = capsys.readouterr().out
        assert main(["simulate", "--n", "9", "--b", "2", "--seed", "5"]) == 0
        assert overridden == capsys.readouterr().out


    @pytest.mark.parametrize("lines, message", [
        ("n=abc\n", "mbg simulate: argument --n: invalid int value: 'abc'"),
        ("goal=domination\n", "mbg simulate: argument --goal: invalid choice"),
        ("frobnicate=1\n", "mbg: unrecognized arguments: --frobnicate=1"),
        ("no-early-stop=yes\n", "--no-early-stop: ignored explicit argument")])
    def test_bad_config_lines_are_one_line_errors(self, tmp_path, capsys,
                                                  lines, message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(lines, encoding="utf-8")
        assert main(["simulate", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert message in captured.err
        assert captured.out == ""

    def test_config_checks_keys_against_its_own_subcommand(self, tmp_path,
                                                           capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("n=8\ntrials=2\nb_values=1,x\n", encoding="utf-8")
        assert main(["sweep", "--config", str(cfg)]) == 2
        assert "argument --b-values: expected comma-separated integers" in \
            capsys.readouterr().err
        cfg.write_text("n=14\nrandom_games=3\n", encoding="utf-8")
        assert main(["boxgame", "f", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == (
            "error: mbg: unrecognized arguments: --n=14 --random-games=3\n")

    def test_every_subcommand_takes_a_config(self, tmp_path, capsys):
        cfg = tmp_path / "verify.cfg"
        cfg.write_text("random-games=5\nn=14\nb=5\nk=2\nseed=1\n",
                       encoding="utf-8")
        assert main(["verify", "--config", str(cfg)]) == 0
        from_config = capsys.readouterr().out
        assert main(["verify", "--random-games", "5", "--n", "14",
                     "--b", "5", "--k", "2", "--seed", "1"]) == 0
        assert from_config == capsys.readouterr().out

        edges = tmp_path / "c3.txt"
        edges.write_text("0 1\n1 2\n0 2\n", encoding="utf-8")
        cfg = tmp_path / "oracle.cfg"
        # required options may come from the file alone
        cfg.write_text(f"n=3\nedges={edges}\ncheck=hamiltonian\n",
                       encoding="utf-8")
        assert main(["oracle", "--config", str(cfg)]) == 0
        assert capsys.readouterr().out == "hamiltonian=true\n"

        cfg = tmp_path / "box.cfg"
        cfg.write_text("k=5\np=5\nq=2\n", encoding="utf-8")
        assert main(["boxgame", "f", "--config", str(cfg), "--q", "1"]) == 0
        assert capsys.readouterr().out == f"{f_box(5, 5, 1)}\n"


def test_int_list():
    assert _int_list("1,2,3") == (1, 2, 3)
    assert _int_list(" 4 , 5 ") == (4, 5)
    assert _int_list("") == ()


class TestCli:
    def test_simulate_regression_line(self, capsys):
        assert main(["simulate", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert out == "winner=Maker rounds=18 reason=goal-achieved\n"

    def test_simulate_trace_round_trip(self, tmp_path, capsys):
        path = tmp_path / "game.json"
        assert main(["simulate", "--n", "10", "--b", "9",
                     "--breaker", "isolate", "--trace-out", str(path)]) == 0
        out = capsys.readouterr().out
        assert "winner=Breaker" in out
        trace, outcome = read_trace(str(path))
        assert outcome is not None
        assert outcome.decisive_round == 1
        assert trace.params.n == 10

    def test_sweep_prints_cells_and_estimate(self, capsys):
        assert main(["sweep", "--n", "8", "--trials", "2",
                     "--b-values", "1,2", "--seed", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("b=1 win_rate=")
        assert lines[1].startswith("b=2 win_rate=")
        assert lines[2].startswith("estimated_threshold=")
        assert "reference_curve=" in lines[2]

    def test_sweep_rejects_a_bad_thread_count(self, monkeypatch, capsys):
        monkeypatch.setenv("MBG_THREADS", "junk")
        assert main(["sweep", "--n", "8", "--trials", "2",
                     "--b-values", "1,2", "--seed", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: MBG_THREADS must be a positive integer, got 'junk'\n"
        assert captured.out == ""

    def test_sweep_says_when_the_crossing_is_not_bracketed(self, capsys):
        assert main(["sweep", "--n", "20", "--trials", "3",
                     "--b-values", "1,2", "--seed", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[2].startswith("estimated_threshold=not-bracketed ")

    def test_python_dash_m_runs_clean(self):
        src = os.path.dirname(os.path.dirname(harness.__file__))
        done = subprocess.run(
            [sys.executable, "-m", "mbg", "simulate", "--n", "20", "--b", "3"],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True,
            text=True, timeout=60)
        assert done.returncode == 0
        assert done.stderr == ""
        assert done.stdout.startswith("winner=")

    def test_python_dash_m_harness_runs_the_same_command_line(self):
        # the package imports harness lazily, so runpy runs it without the
        # "found in sys.modules" warning and it prints what python -m mbg does
        src = os.path.dirname(os.path.dirname(harness.__file__))
        argv = ["simulate", "--n", "20", "--b", "3"]
        runs = [subprocess.run(
            [sys.executable, "-m", module, *argv],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True,
            text=True, timeout=60) for module in ("mbg.harness", "mbg")]
        assert [done.returncode for done in runs] == [0, 0]
        assert runs[0].stderr == ""
        assert runs[0].stdout == runs[1].stdout
        assert runs[0].stdout.startswith("winner=")

    def test_boxgame_f_with_lower_bound(self, capsys):
        assert main(["boxgame", "f", "--k", "5", "--p", "5", "--q", "2",
                     "--lower"]) == 0
        assert capsys.readouterr().out == "30\nlower_bound=26.5000\n"

    @pytest.mark.parametrize("argv, message", [
        (["boxgame", "f", "--k", "100000", "--p", "3", "--lower"],
         "f_lower_bound capped at ceil(k/q)-1 <= 10000 terms, got k=100000, q=1"),
        (["simulate", "--n", "2001"], "n must be in [3, 2000], got 2001"),
        (["simulate", "--goal", "mindeg"],
         "mbg simulate: argument --goal: invalid choice: 'mindeg'")])
    def test_out_of_range_input_is_one_error_line(self, capsys, argv, message):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: " + message)
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    def test_boxgame_solve(self, capsys):
        assert main(["boxgame", "solve", "--sizes", "2,2",
                     "--p", "1", "--q", "1"]) == 0
        assert capsys.readouterr().out.strip() == "BoxBreaker"

    def test_boxgame_rejects_non_integer_sizes(self, capsys):
        assert main(["boxgame", "solve", "--sizes", "2,x"]) == 2
        captured = capsys.readouterr()
        assert captured.err == ("error: mbg boxgame: argument --sizes: "
                                "expected comma-separated integers, got '2,x'\n")
        assert captured.out == ""

    def test_boxgame_grid(self, capsys):
        assert main(["boxgame", "grid", "--max-k", "2", "--max-t", "3",
                     "--p", "2", "--q", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "k,t,p,q,f_value,sufficient,winner"
        assert lines[1] == "1,1,2,1,0,true,BoxMaker"
        assert len(lines) == 1 + 3 + 2  # k=1: t=1..3, k=2: t=2..3

    def test_oracle_checks(self, tmp_path, capsys):
        cycle = tmp_path / "c5.txt"
        cycle.write_text("0 1\n1 2\n2 3\n3 4\n0 4\n", encoding="utf-8")
        assert main(["oracle", "--n", "5", "--edges", str(cycle),
                     "--check", "hamiltonian"]) == 0
        assert capsys.readouterr().out == "hamiltonian=true\n"

        path = tmp_path / "p4.txt"
        path.write_text("0 1\n1 2\n2 3\n", encoding="utf-8")
        assert main(["oracle", "--n", "4", "--edges", str(path),
                     "--check", "boosters"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "already_hamiltonian=false boosters=1"
        assert out[1] == "0 3"

        assert main(["oracle", "--n", "5", "--edges", str(cycle),
                     "--check", "expander", "--k", "1"]) == 0
        assert capsys.readouterr().out == \
            "expander=true exhaustive=true witness=none\n"

        assert main(["oracle", "--n", "4", "--edges", str(path),
                     "--check", "longest-path"]) == 0
        assert capsys.readouterr().out == "longest_path_order=4\n"

    def test_oracle_rejects_a_non_integer_token(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("0 1\n1 x\n", encoding="utf-8")
        assert main(["oracle", "--n", "3", "--edges", str(path),
                     "--check", "hamiltonian"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: line 2: expected 'u v', got '1 x'\n"
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [
        ["oracle", "--n", "3", "--edges", "{missing}", "--check", "hamiltonian"],
        ["verify", "--trace", "{missing}"],
        ["simulate", "--config", "{missing}"],
        ["simulate", "--n", "6", "--trace-out", "{missing}/game.json"]])
    def test_unreadable_or_unwritable_files_exit_two(self, tmp_path, capsys,
                                                       argv):
        missing = str(tmp_path / "missing")
        assert main([arg.format(missing=missing) for arg in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert missing in err

    def test_verify_trace_mode(self, tmp_path, capsys):
        params = GameParams(n=20, a=1, b=7, k=3)
        outcome, trace = play_game(params, make_maker("min-deg", params),
                                   make_breaker("random", params), seed=11)
        path = tmp_path / "loss.json"
        write_trace(str(path), trace, outcome=outcome)
        assert main(["verify", "--trace", str(path)]) == 0
        out = capsys.readouterr().out
        assert "result=PASS" in out

    @pytest.mark.parametrize("flag, value", [("--round", "3"), ("--vertex", "13")])
    def test_verify_rejects_a_lone_round_or_vertex(self, tmp_path, capsys,
                                                   flag, value):
        params = GameParams(n=20, a=1, b=7, k=3)
        outcome, trace = play_game(params, make_maker("min-deg", params),
                                   make_breaker("random", params), seed=11)
        path = tmp_path / "loss.json"
        write_trace(str(path), trace, outcome=outcome)
        assert main(["verify", "--trace", str(path), flag, value]) == 2
        captured = capsys.readouterr()
        assert "--round and --vertex" in captured.err
        assert captured.out == ""

    def test_verify_rejects_a_trace_without_moves(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"params": {"n": 5}, "seed": 0}\n', encoding="utf-8")
        assert main(["verify", "--trace", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("player, column, value", [
        pytest.param("breaker", 0, "0", id="u-0"),
        pytest.param("breaker", 0, 999, id="u-999"),
        pytest.param("breaker", 2, 1.5, id="target-1.5"),
        # a target that is not an endpoint of its row's edge
        pytest.param("maker", 2, -1, id="maker-target--1"),
        pytest.param("maker", 2, 999, id="maker-target-999")])
    def test_verify_rejects_a_malformed_first_move(self, tmp_path, capsys,
                                                   player, column, value):
        params = GameParams(n=20, a=1, b=7, k=3)
        outcome, trace = play_game(params, make_maker("min-deg", params),
                                   make_breaker("random", params), seed=11)
        doc = json.loads(trace_to_json(trace, outcome))
        # round 1 opens with Breaker's b claims, then Maker's first
        row = params.b if player == "maker" else 0
        doc["moves"][row][column:column + 1] = [value]
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["verify", "--trace", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_verify_rejects_an_out_of_range_last_move(self, tmp_path, capsys):
        # a spot check of round 2 never replays the last row
        params = GameParams(n=20, a=1, b=7, k=3)
        outcome, trace = play_game(params, make_maker("min-deg", params),
                                   make_breaker("random", params), seed=11)
        doc = json.loads(trace_to_json(trace, outcome))
        doc["moves"][-1][:2] = [999, 14]
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["verify", "--trace", str(path),
                     "--round", "2", "--vertex", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert (f"move {len(doc['moves']) - 1} is (999, 14), "
                "not 0 <= u < v < 20") in captured.err

    def test_verify_random_games_mode(self, capsys):
        assert main(["verify", "--random-games", "5", "--n", "14",
                     "--b", "5", "--k", "2", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "games=5" in out and "failures=0" in out

    def test_domain_errors_exit_two(self, capsys):
        assert main(["simulate", "--n", "2"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_subcommand_is_a_usage_error(self, capsys):
        assert main(["frobnicate"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: mbg: argument command: invalid choice: "
                              "'frobnicate'")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv, message", [
        (["simulate", "--n", "x"], "mbg simulate: argument --n: invalid int"),
        (["sweep", "--b-values", "3,x"], "mbg sweep: argument --b-values:"),
        (["verify", "--frobnicate"], "mbg: unrecognized arguments: --frobnicate"),
        (["oracle", "--n", "3"], "mbg oracle: the following arguments are "
                                 "required: --edges, --check"),
        (["simulate", "--config"], "argument --config: expected one argument"),
        ([], "mbg: the following arguments are required: command")])
    def test_usage_errors_are_one_line(self, capsys, argv, message):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert message in captured.err
        assert captured.out == ""

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "-h"])
        assert exc.value.code == 0
        assert "--config FILE" in capsys.readouterr().out


def test_isolate_sweep_packaging():
    # isolate through the registry carries params validation with it
    params = GameParams(n=8, b=7)
    assert isinstance(make_breaker("isolate", params), IsolateBreaker)
