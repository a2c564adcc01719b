import random

import pytest

from mbg.board import Board, GameParams, Player
from mbg.breaker_strategies import (CliquePlanState, CliqueBoxBreaker,
                                    IsolateBreaker, RandomBreaker,
                                    box_playing_move, clique_building_move,
                                    clique_size_target, make_breaker)
from mbg.engine import (REASON_BOARD_EXHAUSTED, REASON_GOAL_IMPOSSIBLE,
                        play_game)
from mbg.errors import BoxesExhausted, InvalidParams, StrategyInfeasible
from mbg.maker_strategies import MinDegMaker, make_maker


class TestIsolate:
    def test_locks_lowest_untouched_vertex(self):
        board = Board(6)
        board.claim(Player.MAKER, (2, 3))
        breaker = IsolateBreaker(GameParams(n=6, b=5))
        move = breaker.step(board, random.Random(0))
        assert breaker.target == 0
        assert move == [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)]
        board.claim_many(Player.BREAKER, move, 6)
        # the target is buried; later plans are empty, and the engine
        # makes those moves of the lowest free edges
        assert breaker.step(board, random.Random(0)) == []

    def test_saturated_target_gives_an_empty_plan(self):
        board = Board(4)
        for w in (1, 2, 3):
            board.claim(Player.MAKER, (0, w))
        breaker = IsolateBreaker(GameParams(n=4, b=3))
        move = breaker.step(board, random.Random(0))
        assert breaker.target == 0
        assert move == []

    def test_a_game_after_the_burial_is_played_with_the_lowest_free_edges(
            self):
        # the opening plan buries vertex 0 under all 7 of its edges; played
        # on, the engine completes that move and makes every later one of
        # the lowest free edges
        params = GameParams(n=8, b=9)
        outcome, trace = play_game(params, MinDegMaker(params),
                                   IsolateBreaker(params), seed=0,
                                   early_stop=False)
        assert outcome.reason == REASON_BOARD_EXHAUSTED
        board = Board(8)
        for _, player, first, end in trace.move_spans():
            edges = [mv.edge for mv in trace.moves[first:end]]
            if player is Player.BREAKER:
                expected = (board.free_incident_edges(0)[:7]
                            if first == 0 else [])
                lowest = [e for e in board.free_edges() if e not in expected]
                assert edges == expected + lowest[:end - first
                                                  - len(expected)]
            board.claim_many(player, edges, 8)

    @pytest.mark.parametrize("b, ok", [(8, False), (9, True)])
    def test_feasibility_is_checked_up_front(self, b, ok):
        params = GameParams(n=10, b=b)
        if ok:
            IsolateBreaker(params)
        else:
            with pytest.raises(StrategyInfeasible):
                IsolateBreaker(params)

    def test_quota_follows_the_goal_not_raw_k(self):
        # connectivity plays like degree one, so n - 1 edges are needed:
        # the whole plan buries vertex 0
        params = GameParams(n=10, b=9, k=3, goal="connectivity")
        move = IsolateBreaker(params).step(Board(10), random.Random(0))
        assert move == [(0, w) for w in range(1, 10)]

    def test_wins_round_one_at_sufficient_bias(self):
        params = GameParams(n=12, b=10, k=2)
        outcome, trace = play_game(params, MinDegMaker(params),
                                   IsolateBreaker(params), seed=1)
        assert outcome.winner is Player.BREAKER
        assert outcome.decisive_round == 1
        assert outcome.reason == REASON_GOAL_IMPOSSIBLE
        assert trace.maker_claims() == 0


class TestCliqueSizeTarget:
    @pytest.mark.parametrize("n, a, expected", [
        (10, 1, 2),
        (20, 2, 3),
        (40, 1, 5),
        (100, 1, 9),
    ])
    def test_values(self, n, a, expected):
        assert clique_size_target(n, a) == expected


class TestCliqueBuilding:
    def test_opening_move_joins_fresh_pair_and_pads(self):
        params = GameParams(n=20, a=1, b=3)
        state = CliquePlanState(h=3)
        plan = clique_building_move(Board(20), params, state)
        assert plan == [(0, 1), (2, 3), (2, 4)]
        assert state.clique == [0, 1]

    def test_maker_touched_candidates_are_pruned(self):
        board = Board(20)
        board.claim(Player.BREAKER, (0, 1))
        board.claim(Player.MAKER, (1, 5))
        params = GameParams(n=20, a=1, b=3)
        state = CliquePlanState(h=4, clique=[0, 1])
        plan = clique_building_move(board, params, state)
        assert state.clique == [0, 2, 3]
        assert plan == [(0, 2), (0, 3), (2, 3)]

    def test_too_few_untouched_vertices(self):
        board = Board(4)
        for e in [(0, 1), (1, 2), (2, 3)]:
            board.claim(Player.MAKER, e)
        state = CliquePlanState(h=3)
        with pytest.raises(StrategyInfeasible):
            clique_building_move(board, GameParams(n=4, a=1, b=3), state)

    def test_join_wider_than_bias(self):
        board = Board(20)
        board.claim(Player.BREAKER, (2, 3))
        params = GameParams(n=20, a=1, b=3)
        state = CliquePlanState(h=4, clique=[0, 1])
        # joining {2, 3} to {0, 1} takes four free edges, one over the bias
        with pytest.raises(StrategyInfeasible):
            clique_building_move(board, params, state)

    def test_reaching_target_freezes_boxes_and_plays(self):
        board = Board(12)
        board.claim(Player.BREAKER, (3, 7))
        params = GameParams(n=12, a=1, b=6)
        state = CliquePlanState(h=2, clique=[3, 7])
        plan = clique_building_move(board, params, state)
        assert state.stage == "box"
        assert state.v_star == [3]
        # 10 frozen, 6 played off: the far ends 8..11 are left
        assert state.boxes == {3: 0b1111_0000_0000}
        assert plan == [(0, 3), (1, 3), (2, 3), (3, 4), (3, 5), (3, 6)]

    def test_box_counts_breaker_edges_at_its_vertex(self):
        # vertex 3 already carries two Breaker edges, so with k=3 (limit 8)
        # seven more foreclose it: the box holds the lowest seven free edges
        board = Board(12)
        board.claim(Player.BREAKER, (3, 7))
        board.claim(Player.BREAKER, (0, 3))
        params = GameParams(n=12, a=1, b=6, k=3)
        state = CliquePlanState(h=2, clique=[3, 7])
        plan = clique_building_move(board, params, state)
        assert plan == [(1, 3), (2, 3), (3, 4), (3, 5), (3, 6), (3, 8)]
        assert state.boxes == {3: 1 << 9}
        assert board.dB[3] + 7 == params.foreclosure_limit() + 1


def _box(*far_ends):
    """Row mask of a box: bit w stands for the edge from its vertex to w."""
    return sum(1 << w for w in far_ends)


class TestBoxPlaying:
    def params(self, n=8, b=2):
        return GameParams(n=n, b=b)

    def test_balancing_across_two_boxes(self):
        state = CliquePlanState(
            h=3, stage="box", clique=[0, 1],
            boxes={0: _box(5, 6), 1: _box(5, 6, 7)})
        plan = box_playing_move(Board(8), self.params(), state)
        assert plan == [(1, 5), (0, 5)]
        assert state.boxes == {0: _box(6), 1: _box(6, 7)}
        assert state.stage == "box"

    def test_emptying_a_box_finishes_its_vertex(self):
        state = CliquePlanState(h=2, stage="box", clique=[4],
                                boxes={4: _box(7)})
        plan = box_playing_move(Board(8), self.params(), state)
        assert plan == [(4, 7)]
        assert state.finished_vertex == 4
        assert state.stage == "done"

    def test_maker_touched_boxes_are_dropped(self):
        board = Board(8)
        board.claim(Player.MAKER, (0, 5))
        state = CliquePlanState(
            h=3, stage="box", clique=[0, 1],
            boxes={0: _box(5), 1: _box(5, 6)})
        plan = box_playing_move(board, self.params(), state)
        assert plan == [(1, 5), (1, 6)]
        assert state.finished_vertex == 1

    def test_all_boxes_destroyed(self):
        board = Board(8)
        board.claim(Player.MAKER, (2, 6))
        state = CliquePlanState(h=2, stage="box", clique=[2],
                                boxes={2: _box(6)})
        with pytest.raises(BoxesExhausted):
            box_playing_move(board, self.params(), state)


class TestCliqueBoxBreaker:
    def test_constructor_rejects_tiny_clique_targets(self):
        with pytest.raises(StrategyInfeasible, match="clique target"):
            CliqueBoxBreaker(GameParams(n=10, a=3, b=6))

    def test_constructor_rejects_unpayable_opening(self):
        with pytest.raises(StrategyInfeasible, match="opening join"):
            CliqueBoxBreaker(GameParams(n=45, a=3, b=5))

    def test_constructor_rejects_empty_boxes(self):
        with pytest.raises(StrategyInfeasible, match="empty"):
            CliqueBoxBreaker(GameParams(n=10, a=1, b=3, k=9))

    def test_game_is_seed_deterministic(self):
        params = GameParams(n=20, a=1, b=10)
        runs = []
        for _ in range(2):
            maker = make_maker("min-deg", params)
            breaker = make_breaker("clique-box", params)
            outcome, trace = play_game(params, maker, breaker, seed=3)
            runs.append((outcome, [m.edge for m in trace.moves]))
        assert runs[0] == runs[1]

    def test_desk_scale_fallback_is_flagged(self):
        # at n=40 and b=12 the boxes are too large for the bias: Maker
        # touches every one of them before Breaker can empty one; the plan
        # detects this, flags the game, and finishes on random play
        params = GameParams(n=40, a=1, b=12)
        maker = make_maker("min-deg", params)
        breaker = make_breaker("clique-box", params)
        outcome, trace = play_game(params, maker, breaker, seed=0)
        assert breaker.state.stage == "fallback"
        assert "every remaining box" in breaker.infeasible_reason
        assert "strategy-infeasible" in outcome.flags

    def test_box_play_wins_at_desk_scale(self):
        params = GameParams(n=40, a=1, b=20)
        breaker = make_breaker("clique-box", params)
        outcome, trace = play_game(params, make_maker("min-deg", params),
                                   breaker, seed=0)
        assert breaker.state.stage == "done"
        assert breaker.infeasible_reason is None
        assert outcome.flags == ()
        assert outcome.winner is Player.BREAKER
        assert outcome.reason == REASON_GOAL_IMPOSSIBLE
        assert outcome.decisive_round == 8

    def test_each_step_is_a_whole_move_of_free_edges(self):
        # clique plans are padded with spares away from the clique, and box
        # plans spend the whole budget until a box is emptied
        params = GameParams(n=20, a=1, b=6)
        breaker = CliqueBoxBreaker(params)
        board, rng = Board(20), random.Random(0)
        stages = []
        for maker_edge in [(17, 18), (17, 19), (18, 19), (16, 19)]:
            move = breaker.step(board, rng)
            assert len(move) == params.b == len(set(move))
            assert all(board.is_free(e) for e in move)
            board.claim_many(Player.BREAKER, move, 20)
            board.claim(Player.MAKER, maker_edge)
            stages.append(breaker.state.stage)
        assert stages == ["clique", "clique", "box", "box"]

    def test_the_box_winning_plan_is_short_and_later_plans_are_empty(self):
        breaker = CliqueBoxBreaker(GameParams(n=20, a=1, b=3))
        breaker.state = CliquePlanState(h=2, stage="box", clique=[4],
                                        boxes={4: _box(7)})
        board, rng = Board(20), random.Random(0)
        move = breaker.step(board, rng)
        assert move == [(4, 7)]
        assert breaker.state.stage == "done"
        board.claim_many(Player.BREAKER, move, 20)
        # past the box game the engine makes every move of free edges
        assert breaker.step(board, rng) == []


def test_random_breaker_is_seed_deterministic():
    # the engine draws the random Breaker's claims; step only says so
    params = GameParams(n=9, b=3)
    assert RandomBreaker(params).step(Board(9), random.Random(5)) is None
    traces = {tuple(play_game(params, MinDegMaker(params),
                              RandomBreaker(params), seed=5)[1].moves)
              for _ in range(3)}
    assert len(traces) == 1


def test_fallback_leaves_the_move_to_random_play():
    params = GameParams(n=40, b=12)
    breaker = CliqueBoxBreaker(params)
    breaker.state.stage = "fallback"
    assert breaker.step(Board(40), random.Random(0)) is None


def test_registry_rejects_unknown_names():
    with pytest.raises(InvalidParams):
        make_breaker("pairing", GameParams(n=5))
