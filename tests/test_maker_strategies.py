import random

import pytest

import _naive
from mbg.board import Board, GameParams, Player
from mbg.engine import (REASON_BOARD_EXHAUSTED, REASON_GOAL_ACHIEVED,
                        REASON_GOAL_IMPOSSIBLE, play_game)
from mbg.errors import InvalidParams, NoFreeEdge, StageBlocked
from mbg.maker_strategies import (DEGREE_TARGET, GameStrategy,
                                  Ham3StageMaker, MinDegMaker, RandomMaker,
                                  ham_stage1_step, ham_stage2_move,
                                  ham_stage3_move, make_maker, min_deg_step,
                                  most_endangered)
from mbg.breaker_strategies import make_breaker
from mbg.harness import trial_seed
from mbg.oracles import SimpleGraph, longest_path_order

RNG = lambda: random.Random(0)


class _CheckedStage3:
    """A Ham3StageMaker whose stage-III claims are checked as they are made.

    Each one must be the lowest free edge of the per-edge booster reference
    for Maker's graph just before the claim; ``deficiencies`` records n minus
    the longest-path order of that graph, call by call.
    """

    def __init__(self, maker):
        self.maker = maker
        self.deficiencies = []

    def step(self, board, rng):
        g = SimpleGraph.from_board(board, Player.MAKER)
        before = self.maker.state.claims_in_stage["III"]
        edge, target = self.maker.step(board, rng)
        if self.maker.state.claims_in_stage["III"] > before:
            ref = _naive.boosters_by_edge(g)
            assert edge == min(e for e in ref.edges if board.is_free(e))
            self.deficiencies.append(g.n - longest_path_order(g))
        return edge, target


class TestMinDegStep:
    def params(self, **kw):
        defaults = dict(n=6, a=1, b=2, k=1)
        defaults.update(kw)
        return GameParams(**defaults)

    def test_targets_the_most_endangered_vertex(self):
        board = Board(6)
        board.claim(Player.BREAKER, (0, 1))
        board.claim(Player.BREAKER, (0, 2))
        edge, target = min_deg_step(board, self.params())
        assert target == 0
        assert edge == (0, 3)  # lowest free edge at the target

    def test_maker_degree_disqualifies(self):
        board = Board(6)
        board.claim(Player.BREAKER, (0, 1))
        board.claim(Player.BREAKER, (0, 2))
        board.claim(Player.MAKER, (0, 3))
        # vertex 0 is safe now (k=1); the claim moves to an untouched vertex
        edge, target = min_deg_step(board, self.params())
        assert target in (1, 2)  # dB=1 beats the untouched vertices
        assert board.is_free(edge) and target in edge

    def test_ties_break_to_lowest_vertex(self):
        board = Board(6)
        edge, target = min_deg_step(board, self.params())
        assert target == 0
        assert edge == (0, 1)

    def test_fallback_claims_lowest_free_edge_without_target(self):
        board = Board(4)
        for e in [(0, 1), (2, 3)]:
            board.claim(Player.MAKER, e)
        edge, target = min_deg_step(board, self.params(n=4))
        assert target is None
        assert edge == (0, 2)

    def test_exhausted_board_raises(self):
        board = Board(3)
        for e in [(0, 1), (0, 2), (1, 2)]:
            board.claim(Player.BREAKER, e)
        with pytest.raises(NoFreeEdge):
            min_deg_step(board, self.params(n=3))


def test_most_endangered_skips_satisfied_and_saturated_vertices():
    board = Board(5)
    for w in (1, 2, 3, 4):
        board.claim(Player.BREAKER, (0, w))
    board.claim(Player.MAKER, (1, 2))
    params = GameParams(n=5, a=1, b=1)
    # vertex 0 is the most endangered but has no free edge; 1 and 2 have
    # reached degree one, so 3 wins the tie with 4 (dB=1 each)
    assert most_endangered(board, params, below=1) == 3
    # under a higher bar 1 and 2 qualify, but dM=1 costs them 2b
    assert most_endangered(board, params, below=2) == 3
    board.claim(Player.MAKER, (3, 4))
    assert most_endangered(board, params, below=1) is None


class TestMinDegMaker:
    def test_records_targets_in_trace(self):
        params = GameParams(n=10, a=2, b=2, k=2)
        maker = make_maker("min-deg", params)
        breaker = make_breaker("random", params)
        outcome, trace = play_game(params, maker, breaker, seed=4)
        targets = [mv.target for mv in trace.moves if mv.player is Player.MAKER]
        assert targets  # at least one claim
        assert all(t is None or 0 <= t < 10 for t in targets)

    def test_uses_threshold_degree_not_raw_k(self):
        board = Board(8)
        board.claim(Player.MAKER, (0, 1))
        for w in (2, 3, 4, 5):
            board.claim(Player.BREAKER, (0, w))
        # with goal connectivity only Maker degree one counts, so vertex 0
        # (dM=1, highest dB) is safe and the claim eases vertex 2 (dB=1)
        params = GameParams(n=8, k=3, goal="connectivity")
        assert MinDegMaker(params).step(board, RNG()) == ((1, 2), 2)
        # under min-degree k=3 the same vertex is the target
        params = GameParams(n=8, k=3)
        assert MinDegMaker(params).step(board, RNG()) == ((0, 6), 0)


class TestHamStages:
    def test_stage1_prefers_low_degree_high_pressure(self):
        board = Board(6)
        board.claim(Player.BREAKER, (3, 4))
        board.claim(Player.BREAKER, (3, 5))
        edge, target = ham_stage1_step(board, GameParams(n=6), 2, RNG())
        assert target == 3
        assert 3 in edge and board.is_free(edge)

    def test_stage1_is_finished_when_degrees_are_reached(self):
        board = Board(4)
        # a 4-cycle gives every vertex Maker degree 2
        for e in [(0, 1), (1, 2), (2, 3), (0, 3)]:
            board.claim(Player.MAKER, e)
        assert ham_stage1_step(board, GameParams(n=4), 2, RNG()) is None

    def test_stage1_is_finished_when_needy_vertices_are_saturated(self):
        board = Board(4)
        for w in (1, 2, 3):
            board.claim(Player.BREAKER, (0, w))
        for e in [(1, 2), (1, 3), (2, 3)]:
            board.claim(Player.MAKER, e)
        # only vertex 0 is under target, and all of its edges are gone
        assert ham_stage1_step(board, GameParams(n=4), 1, RNG()) is None

    def test_stage2_merges_smallest_components_first(self):
        board = Board(7)
        for e in [(0, 1), (2, 3), (4, 5)]:
            board.claim(Player.MAKER, e)
        # singleton {6} pairs with the lowest two-vertex component
        assert ham_stage2_move(board) == ((0, 6), None)

    def test_stage2_is_finished_on_a_connected_graph(self):
        board = Board(4)
        for e in [(0, 1), (1, 2), (2, 3)]:
            board.claim(Player.MAKER, e)
        assert ham_stage2_move(board) is None

    def test_stage2_blocked_when_no_crossing_edge_is_free(self):
        board = Board(4)
        board.claim(Player.MAKER, (0, 1))
        board.claim(Player.MAKER, (2, 3))
        for e in [(0, 2), (0, 3), (1, 2), (1, 3)]:
            board.claim(Player.BREAKER, e)
        with pytest.raises(StageBlocked):
            ham_stage2_move(board)

    def test_stage3_claims_the_closing_booster(self):
        board = Board(4)
        for e in [(0, 1), (1, 2), (2, 3)]:
            board.claim(Player.MAKER, e)
        assert ham_stage3_move(board) == ((0, 3), None)

    def test_stage3_is_finished_on_a_hamiltonian_graph(self):
        board = Board(4)
        for e in [(0, 1), (1, 2), (2, 3), (0, 3)]:
            board.claim(Player.MAKER, e)
        assert ham_stage3_move(board) is None

    def test_stage3_blocked_when_boosters_are_taken(self):
        board = Board(4)
        for e in [(0, 1), (1, 2), (2, 3)]:
            board.claim(Player.MAKER, e)
        board.claim(Player.BREAKER, (0, 3))
        with pytest.raises(StageBlocked):
            ham_stage3_move(board)


class TestHam3StageMaker:
    def maker(self, n, degree_target):
        return Ham3StageMaker(GameParams(n=n, goal="hamiltonicity"),
                              degree_target=degree_target)

    def test_stage1_claims_count_for_stage_one(self):
        board = Board(6)
        board.claim(Player.BREAKER, (3, 4))
        maker = self.maker(6, 2)
        edge, target = maker.step(board, RNG())
        assert target == 3 and 3 in edge
        assert maker.state.claims_in_stage["I"] == 1
        assert maker.state.stage_log == ["I"]

    def test_finished_stages_hand_over_within_one_step(self):
        board = Board(4)
        for e in [(0, 1), (1, 2), (2, 3), (0, 3)]:
            board.claim(Player.MAKER, e)
        maker = self.maker(4, 2)
        edge, target = maker.step(board, RNG())
        # the cycle is already Hamiltonian, so every stage is finished
        assert maker.state.stage_log == ["I", "II", "III", "done"]
        assert (edge, target) == ((0, 2), None)
        assert sum(maker.state.claims_in_stage.values()) == 0

    def test_blocked_stage2_propagates(self):
        board = Board(4)
        for w in (1, 2, 3):
            board.claim(Player.BREAKER, (0, w))
        for e in [(1, 2), (1, 3), (2, 3)]:
            board.claim(Player.MAKER, e)
        # stage II finds no free edge joining {0} to the rest
        maker = self.maker(4, 1)
        with pytest.raises(StageBlocked):
            maker.step(board, RNG())
        assert maker.state.stage_log == ["I", "II"]

    def test_blocked_stage3_claims_a_filler_on_entry(self):
        # Stages I and II are finished, and stage III's one booster (0, 3)
        # is Breaker's: the step that enters stage III claims a filler.
        board = Board(4)
        for e in [(0, 1), (1, 2), (2, 3)]:
            board.claim(Player.MAKER, e)
        board.claim(Player.BREAKER, (0, 3))
        maker = self.maker(4, 1)
        assert maker.step(board, RNG()) == ((0, 2), None)
        assert maker.state.stage_log == ["I", "II", "III"]
        assert maker.state.claims_in_stage["III"] == 0

    def test_full_pipeline_reaches_later_stages_on_a_small_board(self):
        params = GameParams(n=8, a=2, b=1, goal="hamiltonicity")
        maker = Ham3StageMaker(params, degree_target=2)
        breaker = make_breaker("random", params)
        outcome, trace = play_game(params, maker, breaker, seed=6)
        log = maker.state.stage_log
        assert log[0] == "I"
        order = {"I": 0, "II": 1, "III": 2, "done": 3}
        assert all(order[x] <= order[y] for x, y in zip(log, log[1:]))
        assert "II" in log or "III" in log

    @pytest.mark.parametrize("index, deficiencies", [
        (0, [1, 0]), (8, [5, 4, 2, 0]), (16, [3, 1, 0]),
    ])
    def test_stage3_claims_the_lowest_free_booster(self, index, deficiencies):
        # Between them the three games reach every booster case: a Hamilton
        # path (0), a longest path of n-1 vertices (1) and shorter ones.
        params = GameParams(n=14, a=1, b=2, goal="hamiltonicity")
        maker = Ham3StageMaker(params, degree_target=2)
        checked = _CheckedStage3(maker)
        outcome, _ = play_game(params, checked, make_breaker("random", params),
                               seed=trial_seed(21, 0, index))
        assert "III" in maker.state.stage_log
        assert outcome.winner is Player.MAKER
        assert outcome.reason == REASON_GOAL_ACHIEVED
        assert checked.deficiencies == deficiencies

    @pytest.mark.parametrize("index", [0, 2])
    def test_saturated_stage1_hands_over_in_play(self, index):
        # Every vertex under degree 3 runs out of free edges in stage I;
        # the plan passes on to stages II and III instead of raising, and
        # stage III, its boosters all taken, claims fillers to the end.
        params = GameParams(n=10, a=1, b=2, goal="hamiltonicity")
        maker = Ham3StageMaker(params, degree_target=3)
        outcome, _ = play_game(params, maker, make_breaker("random", params),
                               seed=trial_seed(3, 0, index))
        assert maker.state.stage_log == ["I", "II", "III"]
        assert outcome.winner is Player.BREAKER
        assert outcome.reason == REASON_BOARD_EXHAUSTED
        assert outcome.decisive_round == 15

    def test_goal_impossible_only_when_maker_plus_free_is_disconnected(self):
        # A blocked stage III used to end the game as goal-impossible when
        # the step that entered stage III came from stage I or II; games 1,
        # 2, 13 and 16 of this set ended so while Maker could still connect.
        n = 12
        params = GameParams(n=n, a=1, b=2, goal="hamiltonicity")
        winners = []
        for index in range(20):
            maker = Ham3StageMaker(params, degree_target=2)
            outcome, trace = play_game(params, maker,
                                       make_breaker("random", params),
                                       seed=trial_seed(5, 0, index))
            winners.append(outcome.winner)
            if outcome.reason == REASON_GOAL_IMPOSSIBLE:
                claimed = {mv.edge for mv in trace.moves}
                open_to_maker = [mv.edge for mv in trace.moves
                                 if mv.player is Player.MAKER]
                open_to_maker += [(u, v) for u in range(n)
                                  for v in range(u + 1, n)
                                  if (u, v) not in claimed]
                assert not _naive.connected(n, open_to_maker), index
        assert winners[1] is Player.MAKER

    def test_degree_target_validation(self):
        with pytest.raises(InvalidParams):
            Ham3StageMaker(GameParams(n=6, goal="hamiltonicity"),
                           degree_target=0)

    def test_default_degree_target(self):
        maker = Ham3StageMaker(GameParams(n=20, goal="hamiltonicity"))
        assert maker.state.degree_target == DEGREE_TARGET


def test_random_maker_claims_free_edges():
    # step leaves each claim to the engine's random play, one per step
    params = GameParams(n=6, a=2, b=1)
    assert RandomMaker(params).step(Board(6), RNG()) is None
    outcome, trace = play_game(params, RandomMaker(params),
                               make_breaker("random", params), seed=0,
                               early_stop=False)
    assert outcome.reason == REASON_BOARD_EXHAUSTED
    made = [mv for mv in trace.moves if mv.player is Player.MAKER]
    assert len(made) == 10 and all(mv.target is None for mv in made)
    assert len({mv.edge for mv in trace.moves}) == 15


def test_registry_rejects_unknown_names():
    with pytest.raises(InvalidParams):
        make_maker("greedy", GameParams(n=5))


def test_base_strategy_step_is_abstract():
    with pytest.raises(NotImplementedError):
        GameStrategy().step(Board(4), RNG())
