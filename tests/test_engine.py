import gc
import itertools
import json
from types import SimpleNamespace

import pytest

import _naive
from mbg import audit, engine
from mbg.audit import audit_game
from mbg.board import Board, GameParams, Player
from mbg.engine import (GameOutcome, GameTrace, MoveRecord,
                        REASON_BOARD_EXHAUSTED, REASON_GOAL_ACHIEVED,
                        REASON_GOAL_IMPOSSIBLE, detect_maker_win, move_order,
                        play_game, replay_trace, trace_from_json,
                        trace_to_json)
from mbg.errors import (InvalidParams, StrategyInfeasible, StrategyViolation,
                        TraceIncompatible)
from mbg.harness import main, trial_seed
from mbg.maker_strategies import MAKER_STRATEGIES, make_maker
from mbg.breaker_strategies import BREAKER_STRATEGIES, make_breaker


def rows_text(rows):
    """A format-2 trace on five vertices, (1:1), with the given move rows."""
    return ('{"format": 2, "params": {"n": 5, "a": 1, "b": 1, "k": 1, '
            '"goal": "min-degree"}, "seed": 0, "moves": ' + rows + '}')


def run(n=12, a=1, b=2, k=1, goal="min-degree", maker="min-deg",
        breaker="random", seed=0, **kwargs):
    params = GameParams(n=n, a=a, b=b, k=k, goal=goal)
    return play_game(params, make_maker(maker, params),
                     make_breaker(breaker, params), seed=seed, **kwargs)


class TakenEdge:
    """A strategy that always claims (0, 1), taken after its first claim:
    as Maker one edge per step, as Breaker a whole move of that one edge."""

    infeasible_reason = None

    def __init__(self, breaker=False):
        self.move = [(0, 1)] if breaker else ((0, 1), None)

    def step(self, board, rng):
        return self.move


def collector_set(enabled):
    (gc.enable if enabled else gc.disable)()


class TestDetection:
    def test_breaker_win_detector_flags_the_dead_vertex(self):
        board = Board(5)
        k1, k2 = GameParams(n=5, k=1), GameParams(n=5, k=2)
        assert k1.foreclosure_limit() == 3 and k2.foreclosure_limit() == 2
        for w in (1, 2, 3):
            board.claim(Player.BREAKER, (0, w))
        assert not board.dB[0] > k1.foreclosure_limit()
        assert board.dB[0] > k2.foreclosure_limit()
        board.claim(Player.BREAKER, (0, 4))
        assert board.dB[0] > k1.foreclosure_limit()
        # the other goals foreclose at an isolated vertex, like k = 1
        assert GameParams(n=5, k=2, goal="connectivity").foreclosure_limit() == 3

    def test_maker_win_predicates(self):
        board = Board(4)
        for e in [(0, 1), (1, 2), (2, 3)]:
            board.claim(Player.MAKER, e)
        assert detect_maker_win(board, "min-degree", k=1)
        assert not detect_maker_win(board, "min-degree", k=2)
        assert detect_maker_win(board, "connectivity")
        assert not detect_maker_win(board, "hamiltonicity")
        board.claim(Player.MAKER, (0, 3))
        assert detect_maker_win(board, "hamiltonicity")

    def test_unknown_goal_rejected(self):
        with pytest.raises(InvalidParams):
            detect_maker_win(Board(4), "matching")


class TestPlayGame:
    def test_move_order_is_breaker_then_maker_each_round(self):
        assert list(itertools.islice(move_order(2, 3), 4)) == [
            (1, Player.BREAKER, 3), (1, Player.MAKER, 2),
            (2, Player.BREAKER, 3), (2, Player.MAKER, 2)]

    def test_claims_follow_the_move_order(self):
        _, trace = run(n=20, a=2, b=3, seed=4, early_stop=False)
        claims = [(rnd, step, player)
                  for rnd, player, bias in itertools.islice(move_order(2, 3),
                                                            2 * 190)
                  for step in range(1, bias + 1)]
        assert [(mv.round, mv.step, mv.player) for mv in trace.moves] == \
            claims[:190]

    def test_deterministic_in_seed(self):
        (out1, tr1), (out2, tr2) = run(seed=42), run(seed=42)
        assert out1 == out2
        assert tr1.moves == tr2.moves
        out3, tr3 = run(seed=43)
        assert tr3.moves != tr1.moves

    def test_maker_wins_easy_min_degree_game(self):
        outcome, trace = run(n=12, b=1, seed=5)
        assert outcome.winner is Player.MAKER
        assert outcome.reason == REASON_GOAL_ACHIEVED
        assert outcome.decisive_round == trace.rounds_played()

    def test_isolate_breaker_ends_it_in_round_one(self):
        outcome, trace = run(n=10, b=9, breaker="isolate", seed=1)
        assert outcome.winner is Player.BREAKER
        assert outcome.reason == REASON_GOAL_IMPOSSIBLE
        assert outcome.decisive_round == 1
        assert trace.rounds_played() == 1
        assert trace.maker_claims() == 0

    def test_early_stop_matches_full_playout_winner(self):
        for seed in range(6):
            fast, _ = run(n=9, b=3, seed=seed)
            slow, slow_trace = run(n=9, b=3, seed=seed, early_stop=False)
            assert fast.winner is slow.winner
            assert slow.reason == REASON_BOARD_EXHAUSTED
            # the full playout uses every edge
            assert len(slow_trace.moves) == 9 * 8 // 2

    @pytest.mark.parametrize("seed", range(4))
    def test_random_breaker_move_ends_at_its_foreclosing_claim(self, seed):
        params = GameParams(n=12, b=6, k=3)
        outcome, trace = run(n=12, b=6, k=3, seed=seed)
        assert outcome.reason == REASON_GOAL_IMPOSSIBLE
        last = trace.moves[-1]
        assert last.player is Player.BREAKER and last.step <= params.b
        before = replay_trace(GameTrace.from_moves(params, seed,
                                                   trace.moves[:-1]))
        limit = params.foreclosure_limit()
        assert max(before.dB) <= limit
        assert max(before.dB[v] for v in last.edge) == limit

    @pytest.mark.parametrize("seed", range(4))
    def test_random_maker_win_is_seen_at_its_claim(self, seed):
        params = GameParams(n=8, a=3, b=1)
        outcome, trace = run(n=8, a=3, b=1, maker="random", seed=seed)
        assert outcome.reason == REASON_GOAL_ACHIEVED
        assert trace.moves[-1].player is Player.MAKER
        before = replay_trace(GameTrace.from_moves(params, seed,
                                                   trace.moves[:-1]))
        assert not detect_maker_win(before, "min-degree", 1)

    def test_connectivity_goal_plays_out(self):
        outcome, _ = run(n=8, b=1, goal="connectivity", seed=3)
        assert outcome.winner is Player.MAKER

    def test_strategy_returning_claimed_edge_is_rejected(self):
        params = GameParams(n=5, a=1, b=1)
        with pytest.raises(StrategyViolation):
            play_game(params, TakenEdge(), TakenEdge(breaker=True), seed=0)

    def test_planned_list_is_claimed_as_consecutive_steps(self):
        class Planner:
            """Plans its opening move; every later move is random."""

            infeasible_reason = None
            plan = [(0, 1), (0, 2), (3, 4), (0, 3)]

            def step(self, board, rng):
                plan, self.plan = self.plan, None
                return plan

        params = GameParams(n=8, a=1, b=4)
        _, trace = play_game(params, make_maker("min-deg", params),
                             Planner(), seed=0)
        first = trace.moves[:4]
        assert [(mv.round, mv.step, mv.player, mv.edge, mv.target)
                for mv in first] == [
            (1, 1, Player.BREAKER, (0, 1), None),
            (1, 2, Player.BREAKER, (0, 2), None),
            (1, 3, Player.BREAKER, (3, 4), None),
            (1, 4, Player.BREAKER, (0, 3), None)]

    @pytest.mark.parametrize("maker_plans, plan, message", [
        # one claim, not the whole move
        (False, ((0, 1), None), "returns 2 free edges in a list or None"),
        (False, [(0, 1)], "got 1 edges"),                  # short of b = 2
        (False, [(0, 1), (0, 2), (0, 3)], "got 3 edges"),  # past b = 2
        (False, [], "got 0 edges"),                        # claims nothing
        (False, [(0, 1), (0, 1)], "non-free edge"),        # an edge twice
        (True, [(0, 1)], "Maker step returns"),            # one per step
    ])
    def test_bad_planned_lists_are_rejected(self, maker_plans, plan, message):
        class Planner:
            infeasible_reason = None

            def step(self, board, rng):
                return plan[:] if type(plan) is list else plan

        params = GameParams(n=6, a=1, b=2)
        maker = Planner() if maker_plans else make_maker("min-deg", params)
        breaker = make_breaker("random", params) if maker_plans else Planner()
        with pytest.raises(StrategyViolation, match=message):
            play_game(params, maker, breaker, seed=0)

    def test_a_move_past_the_free_edges_left_is_what_is_left(self):
        # with fewer free edges than b, a whole move is every free edge
        class Rest:
            infeasible_reason = None

            def step(self, board, rng):
                return list(itertools.islice(board.free_edges(), 3))

        params = GameParams(n=4, a=1, b=3)
        outcome, trace = play_game(params, make_maker("min-deg", params),
                                   Rest(), seed=0, early_stop=False)
        assert outcome.reason == REASON_BOARD_EXHAUSTED
        assert [(mv.round, mv.step, mv.player) for mv in trace.moves] == [
            (1, 1, Player.BREAKER), (1, 2, Player.BREAKER),
            (1, 3, Player.BREAKER), (1, 1, Player.MAKER),
            (2, 1, Player.BREAKER), (2, 2, Player.BREAKER)]

    @pytest.mark.parametrize("seed", ["abc", None, 1.5, True])
    def test_a_seed_that_is_not_an_int_is_rejected_before_play(self, seed):
        params = GameParams(n=5)
        with pytest.raises(InvalidParams, match="seed must be an int"):
            play_game(params, make_maker("min-deg", params),
                      make_breaker("random", params), seed=seed)

    @pytest.mark.parametrize("index", [7, 20])
    def test_hamiltonicity_is_seen_before_stage_three(self, index):
        # In these games Maker's graph turns Hamiltonian while the strategy
        # is still in stage I or II; the game must end at that very claim.
        params = GameParams(n=14, a=1, b=2, goal="hamiltonicity")
        maker = make_maker("ham-3stage", params, degree_target=2)
        outcome, trace = play_game(params, maker, make_breaker("random", params),
                                   seed=trial_seed(21, 0, index))
        assert outcome.winner is Player.MAKER
        assert outcome.reason == REASON_GOAL_ACHIEVED
        assert maker.state.stage in ("I", "II")
        maker_edges = [mv.edge for mv in trace.moves if mv.player is Player.MAKER]
        assert trace.moves[-1].player is Player.MAKER
        assert _naive.hamiltonian_cycle_exists(14, maker_edges)
        assert not _naive.hamiltonian_cycle_exists(14, maker_edges[:-1])

    def test_hamiltonicity_size_guard(self):
        params = GameParams(n=30, goal="hamiltonicity")
        with pytest.raises(InvalidParams):
            play_game(params, make_maker("random", params),
                      make_breaker("random", params), seed=0)


class TestTrace:
    def test_target_log_and_counts(self):
        records = [
            MoveRecord(1, 1, Player.BREAKER, (0, 1)),
            MoveRecord(1, 1, Player.MAKER, (2, 3), target=2),
            MoveRecord(2, 1, Player.BREAKER, (0, 2)),
            MoveRecord(2, 1, Player.MAKER, (1, 4), target=4),
        ]
        trace = GameTrace.from_moves(GameParams(n=5), 0, records)
        assert trace.maker_claims() == 2
        assert trace.rounds_played() == 2
        assert trace.targets == {1: 2, 3: 4}
        assert trace.moves == records

    def test_seed_must_be_an_int(self):
        with pytest.raises(InvalidParams, match="seed must be an int"):
            GameTrace(GameParams(n=5), "x")

    def test_moves_are_built_once_and_read_only(self):
        _, trace = run(seed=11)
        moves = trace.moves
        assert trace.moves is moves
        assert len(moves) == len(trace.slots)
        with pytest.raises(AttributeError):
            trace.moves = []
        assert trace.moves is moves

    def test_replay_rebuilds_the_position(self):
        outcome, trace = run(seed=11)
        board = replay_trace(trace)
        claimed = len(trace.moves)
        assert board.free_count == board.m - claimed
        assert sum(board.dM) == 2 * trace.maker_claims()

    def test_json_round_trip_with_outcome(self):
        outcome, trace = run(seed=11)
        text = trace_to_json(trace, outcome)
        back, back_outcome = trace_from_json(text)
        assert back.params == trace.params
        assert back.seed == trace.seed
        assert back.moves == trace.moves
        assert back_outcome == outcome

    def test_json_round_trip_without_outcome(self):
        _, trace = run(seed=2)
        back, back_outcome = trace_from_json(trace_to_json(trace))
        assert back.moves == trace.moves
        assert back_outcome is None

    def test_rows_take_round_step_and_player_from_the_move_order(self):
        text = ('{"format":2,"params":{"n":5,"a":2,"b":1,"k":1,'
                '"goal":"min-degree"},"seed":0,'
                '"moves":[[0,1],[2,3,2],[1,4],[0,2]]}')
        trace, outcome = trace_from_json(text)
        assert trace.moves == [
            MoveRecord(1, 1, Player.BREAKER, (0, 1)),
            MoveRecord(1, 1, Player.MAKER, (2, 3), target=2),
            MoveRecord(1, 2, Player.MAKER, (1, 4)),
            MoveRecord(2, 1, Player.BREAKER, (0, 2)),
        ]
        assert outcome is None

    def test_rows_are_compact(self):
        _, trace = run(n=40, b=8, seed=3, early_stop=False)
        text = trace_to_json(trace)
        assert text.startswith('{"format":2,')
        assert len(text) <= 20 * len(trace.moves)

    @pytest.mark.parametrize("text", [
        "not json", "[]", '{"params": {"n": 5}, "seed": 0}',
        # a format-1 document: no format key, one object per claim
        '{"params": {"n": 5}, "seed": 0, "moves": [{"round": 1, "step": 1, '
        '"player": "Breaker", "u": 0, "v": 1, "target": null}]}',
        '{"format": 3, "params": {"n": 5, "a": 1, "b": 1, "k": 1, '
        '"goal": "min-degree"}, "seed": 0, "moves": []}',
        '{"format": 2, "params": {"n": 5, "a": 1, "b": 1, '
        '"goal": "min-degree"}, "seed": 0, "moves": []}',
        '{"format": 2, "params": {"n": 5, "a": 1, "b": 1, "k": 1, '
        '"goal": "min-degree"}, "seed": 0}',
        '{"format": 2, "params": {"n": 5, "a": 1, "b": 1, "k": 1, '
        '"goal": "min-degree"}, "seed": 0, "moves": [[0]]}',
        '{"format": 2, "params": {"n": 5, "a": 1, "b": 1, "k": 1, '
        '"goal": "min-degree"}, "seed": 0, "moves": [[0, 1, 2, 3]]}',
        '{"format": 2, "params": {"n": 5, "a": 1, "b": 1, "k": 1, '
        '"goal": "min-degree"}, "seed": 0, "moves": [[0, "1"]]}',
        '{"format": 2, "params": {"n": 5, "a": 1, "b": 1, "k": 1, '
        '"goal": "min-degree"}, "seed": 0, "moves": [[0, 1, null]]}',
        # vertices outside 0 <= u < v < n
        '{"format": 2, "params": {"n": 5, "a": 1, "b": 1, "k": 1, '
        '"goal": "min-degree"}, "seed": 0, "moves": [[1, 0]]}',
        '{"format": 2, "params": {"n": 5, "a": 1, "b": 1, "k": 1, '
        '"goal": "min-degree"}, "seed": 0, "moves": [[2, 2]]}',
        '{"format": 2, "params": {"n": 5, "a": 1, "b": 1, "k": 1, '
        '"goal": "min-degree"}, "seed": 0, "moves": [[-1, 2]]}',
        '{"format": 2, "params": {"n": 5, "a": 1, "b": 1, "k": 1, '
        '"goal": "min-degree"}, "seed": 0, "moves": [[0, 5]]}',
        # rows that are not lists
        rows_text('["01"]'), rows_text('[{"u": 0}]'),
        # bool and float vertices and targets
        rows_text('[[true, 2]]'), rows_text('[[0, 1.0]]'),
        rows_text('[[0, 1, true]]'), rows_text('[[0, 1, 1.0]]'),
        # a target that is not an endpoint of its row
        rows_text('[[0, 1, 3]]'),
        # moves that are not a list
        rows_text('{}'), rows_text('"01"'),
    ])
    def test_malformed_json_is_incompatible(self, text):
        with pytest.raises(TraceIncompatible):
            trace_from_json(text)

    @pytest.mark.parametrize("change, message", [
        ({"seed": "abc"}, "seed is str, not int"),
        ({"seed": None}, "seed is NoneType, not int"),
        ({"seed": 1.5}, "seed is float, not int"),
        ({"seed": True}, "seed is bool, not int"),
        ({"params": {"k": True}}, "params.k is bool, not int"),
        ({"params": {"n": 5.0}}, "params.n is float, not int"),
        ({"params": {"goal": 1}}, "params.goal is int, not str"),
        ({"outcome": {"decisiveRound": "7"}},
         "outcome.decisiveRound is str, not int"),
        ({"outcome": {"decisiveRound": True}},
         "outcome.decisiveRound is bool, not int"),
        ({"outcome": {"reason": 5}}, "outcome.reason is int, not str"),
        ({"outcome": {"flags": "strategy-infeasible"}},
         "outcome.flags is str, not list"),
        ({"outcome": {"flags": [1]}}, "outcome.flags holds a non-string"),
        ({"outcome": []}, "outcome is list, not dict"),
    ])
    def test_fields_of_the_wrong_type_are_named(self, change, message):
        # as in rows, a bool is not an int
        outcome, trace = run(seed=11)
        doc = json.loads(trace_to_json(trace, outcome))
        for key, value in change.items():
            if type(value) is dict:
                doc[key].update(value)
            else:
                doc[key] = value
        with pytest.raises(TraceIncompatible, match=message):
            trace_from_json(json.dumps(doc))

    @pytest.mark.parametrize("rows, message", [
        ('[["a", 1, 5]]', "move 0 is not a row of 2 or 3 ints"),
        ('[[0, 1], [true, 2]]', "move 1 is not a row of 2 or 3 ints"),
        ('[[0, 1, 3]]', "move 0 targets 3, not an endpoint"),
        ('[[3, 1, 5]]', r"move 0 is \(3, 1\), not 0 <= u < v < 5"),
        ('[[0, 1], [0, 1, 3]]', "move 1 targets 3, not an endpoint"),
        ('[[0, 1], [2, 3], [0, 1]]',
         r"move 2 repeats the edge \(0, 1\) of move 0"),
    ])
    def test_row_checks_keep_their_precedence(self, rows, message):
        # a row's types are checked before its range, its range before
        # its target, its target before a repeat of an earlier edge
        with pytest.raises(TraceIncompatible, match=message):
            trace_from_json(rows_text(rows))

    @pytest.mark.parametrize("params, maker, options, seed, winner", [
        (GameParams(n=20, b=7, k=3), "min-deg", {}, 11, Player.BREAKER),
        (GameParams(n=14, b=2, goal="hamiltonicity"), "ham-3stage",
         {"degree_target": 2}, trial_seed(21, 0, 0), Player.MAKER),
    ])
    def test_round_trip_keeps_records_and_targets(self, params, maker,
                                                  options, seed, winner):
        outcome, trace = play_game(
            params, make_maker(maker, params, **options),
            make_breaker("random", params), seed=seed)
        assert outcome.winner is winner
        back, back_outcome = trace_from_json(trace_to_json(trace, outcome))
        assert back.moves == trace.moves
        assert back_outcome == outcome
        assert all(type(mv) is MoveRecord for mv in back.moves)
        assert all(mv.target is None or type(mv.target) is int
                   for mv in back.moves)
        assert any(mv.target is not None for mv in back.moves)

    def test_out_of_range_last_row_names_its_move(self):
        outcome, trace = run(n=20, b=7, k=3, seed=11)
        doc = json.loads(trace_to_json(trace, outcome))
        last = len(doc["moves"]) - 1
        doc["moves"][last][:2] = [999, 14]
        with pytest.raises(TraceIncompatible,
                           match=rf"move {last} is \(999, 14\)"):
            trace_from_json(json.dumps(doc))

    def test_verify_rejects_a_repeated_edge_it_would_not_audit(self,
                                                                tmp_path,
                                                                capsys):
        # an audit of round 1 never reaches the last row; reading does
        outcome, trace = run(n=20, b=8, k=2, seed=0)
        doc = json.loads(trace_to_json(trace, outcome))
        doc["moves"][-1] = doc["moves"][0][:2]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["verify", "--trace", str(path), "--round", "1",
                     "--vertex", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: move ") and "of move 0" in err
        assert err.count("\n") == 1

    def test_empty_trace_counts(self):
        trace = GameTrace(params=GameParams(n=5), seed=0)
        assert trace.rounds_played() == 0
        assert trace.maker_claims() == 0


class TestCollectorPause:
    """Play, trace I/O and the audit run with automatic collection paused,
    and leave the collector as they found it."""

    @pytest.mark.parametrize("enabled", [True, False],
                             ids=["enabled", "disabled"])
    @pytest.mark.parametrize("section, error", [
        ("play_game", None),
        ("play_game_taken_edge", StrategyViolation),
        ("trace_to_json", None),
        ("trace_from_json", None),
        ("trace_from_json_repeated_edge", TraceIncompatible),
        ("audit_game", None),
        ("moves", None),
    ])
    def test_collector_state_is_kept(self, section, error, enabled):
        outcome, trace = run(n=20, b=7, k=3, seed=11)
        assert outcome.winner is Player.BREAKER
        text = trace_to_json(trace, outcome)
        call = {
            "play_game": lambda: run(n=20, b=7, k=3, seed=11),
            "play_game_taken_edge": lambda: play_game(
                GameParams(n=5), TakenEdge(), TakenEdge(breaker=True),
                seed=0),
            "trace_to_json": lambda: trace_to_json(trace, outcome),
            "trace_from_json": lambda: trace_from_json(text),
            "trace_from_json_repeated_edge": lambda: trace_from_json(
                rows_text("[[0, 1], [2, 3], [0, 1]]")),
            "audit_game": lambda: audit_game(trace),
            "moves": lambda: trace_from_json(text)[0].moves,
        }[section]
        was = gc.isenabled()
        collector_set(enabled)
        try:
            if error is None:
                assert call() is not None
            else:
                with pytest.raises(error):
                    call()
            assert gc.isenabled() is enabled
        finally:
            collector_set(was)

    def test_the_collector_is_off_inside_each_section(self, monkeypatch):
        seen = []

        def probe(fn):
            def probed(*args, **kwargs):
                seen.append((fn.__name__, gc.isenabled()))
                return fn(*args, **kwargs)
            return probed

        monkeypatch.setattr(engine, "detect_maker_win",
                            probe(engine.detect_maker_win))
        monkeypatch.setattr(engine, "json", SimpleNamespace(
            dumps=probe(json.dumps), loads=probe(json.loads)))
        monkeypatch.setattr(engine, "_new_tuple", probe(engine._new_tuple))
        monkeypatch.setattr(audit, "compute_g", probe(audit.compute_g))
        was = gc.isenabled()
        gc.enable()
        try:
            outcome, trace = run(n=20, b=7, k=3, seed=11)
            back, _ = trace_from_json(trace_to_json(trace, outcome))
            assert audit_game(back) is not None
            assert back.moves
            assert gc.isenabled()
        finally:
            collector_set(was)
        # play keeps no object per claim, so it runs with the collector on;
        # the JSON rows, the audit's tuples and the records are paused
        assert {name for name, _ in seen} == {
            "detect_maker_win", "dumps", "loads", "__new__", "compute_g"}
        assert all(on == (name == "detect_maker_win") for name, on in seen)

    def test_play_trace_io_and_audit_make_no_reference_cycles(self):
        # The pause is safe because these sections leave nothing for the
        # collector: with it off throughout, every game of every Maker and
        # Breaker on all three goals, its JSON round trip and the audit of
        # each min-degree loss leave no cyclic garbage behind.  (goal, n, k,
        # biases): the low bias gives clique-box fallbacks and ham-3stage
        # wins in stages II and III; the high bias n - 1 lets isolate play
        # and clique-box finish its box game with planned lists.
        goals = (("min-degree", 20, 2, (6, 19)),
                 ("connectivity", 20, 1, (4, 19)),
                 ("hamiltonicity", 14, 1, (2, 13)))
        games = [(GameParams(n=n, b=b, k=k, goal=goal), maker, breaker, index)
                 for goal, n, k, biases in goals for b in biases
                 for maker, breaker, index in itertools.product(
                     MAKER_STRATEGIES, BREAKER_STRATEGIES, (0, 1))]
        maker_stages, breaker_stages = set(), set()
        audited = 0
        was = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            for params, maker_name, breaker_name, index in games:
                try:
                    breaker = make_breaker(breaker_name, params)
                except StrategyInfeasible:
                    continue
                options = ({"degree_target": 2}
                           if maker_name == "ham-3stage" else {})
                maker = make_maker(maker_name, params, **options)
                outcome, trace = play_game(params, maker, breaker,
                                           seed=trial_seed(21, 0, index))
                back, _ = trace_from_json(trace_to_json(trace, outcome))
                if (maker_name == "min-deg" and params.goal == "min-degree"
                        and outcome.winner is Player.BREAKER):
                    assert audit_game(back) is not None
                    audited += 1
                for strategy, stages in ((maker, maker_stages),
                                         (breaker, breaker_stages)):
                    state = getattr(strategy, "state", None)
                    stages.add(getattr(state, "stage", None))
            assert gc.collect() == 0
        finally:
            collector_set(was)
        assert {"II", "III"} <= maker_stages
        assert {"done", "fallback"} <= breaker_stages
        assert audited > 0

    def test_played_records_are_move_records(self):
        # min-deg's single claims against a clique-box Breaker that plans
        # lists, then falls back to random runs
        params = GameParams(n=20, b=6, k=2)
        breaker = make_breaker("clique-box", params)
        plan_step, kinds = breaker.step, set()

        def step(board, rng):
            move = plan_step(board, rng)
            kinds.add(type(move))
            return move

        breaker.step = step
        outcome, trace = play_game(params, make_maker("min-deg", params),
                                   breaker, seed=trial_seed(21, 0, 0))
        assert outcome.flags == ("strategy-infeasible",)
        assert kinds == {list, type(None)}
        assert any(mv.target is not None for mv in trace.moves)
        assert all(type(mv) is MoveRecord for mv in trace.moves)
