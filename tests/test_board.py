import random
import tracemalloc
from collections import Counter
from itertools import combinations

import pytest

from mbg.board import (MAX_N, Board, GameParams, Player, new_board,
                       parse_edge_list)
from mbg.errors import EdgeAlreadyClaimed, InvalidParams, NoFreeEdge
from mbg.oracles import SimpleGraph


class TestGameParams:
    def test_defaults(self):
        p = GameParams(n=10)
        assert (p.a, p.b, p.k, p.goal) == (1, 1, 1, "min-degree")
        assert p.edge_total == 45

    @pytest.mark.parametrize("kwargs", [
        dict(n=2),
        dict(n=5, a=0),
        dict(n=5, b=11),  # more than the edge count
        dict(n=5, k=0),
        dict(n=5, k=5),
        dict(n=5, goal="domination"),
        dict(n=5, goal="mindeg"),  # the goal has one spelling
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(InvalidParams):
            GameParams(**kwargs)

    def test_threshold_degree_by_goal(self):
        assert GameParams(n=9, k=3).threshold_degree() == 3
        assert GameParams(n=9, k=3, goal="connectivity").threshold_degree() == 1
        assert GameParams(n=9, k=3, goal="hamiltonicity").threshold_degree() == 1

    def test_dict_round_trip(self):
        p = GameParams(n=12, a=2, b=5, k=2, goal="min-degree")
        assert GameParams.from_dict(p.as_dict()) == p


def test_claims_in_any_order_keep_every_view_of_freeness_agreeing():
    n = 6
    board = Board(n)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    assert list(board.free_edges()) == edges
    order = edges.copy()
    random.Random(4).shuffle(order)
    owners = {}
    rng = random.Random(5)
    for step, edge in enumerate(order):
        player = Player.MAKER if step % 3 == 0 else Player.BREAKER
        board.claim(player, edge)
        owners[edge] = player
        free = [e for e in edges if e not in owners]
        assert board.free_count == len(free)
        assert list(board.free_edges()) == free
        for e in edges:
            assert board.is_free(e) == (e not in owners)
            assert board.state_of(e) is owners.get(e)
        if free:
            assert all(board.random_free_edge(rng) in free for _ in range(10))
    with pytest.raises(NoFreeEdge):
        board.random_free_edge(rng)


class TestBoard:
    def test_claim_updates_state_and_degrees(self):
        board = Board(5)
        board.claim(Player.MAKER, (1, 3))
        board.claim(Player.BREAKER, (0, 3))
        assert board.state_of((1, 3)) is Player.MAKER
        assert board.state_of((0, 3)) is Player.BREAKER
        assert board.state_of((0, 1)) is None
        assert board.maker == [0, 0b1000, 0, 0b10, 0]
        assert board.breaker == [0b1000, 0, 0, 0b1, 0]
        assert board.dM == [0, 1, 0, 1, 0]
        assert board.dB == [1, 0, 0, 1, 0]
        assert board.free_count == board.m - 2

    def test_double_claim_rejected_and_board_untouched(self):
        board = Board(4)
        board.claim(Player.MAKER, (0, 1))
        before = board.snapshot()
        with pytest.raises(EdgeAlreadyClaimed):
            board.claim(Player.BREAKER, (0, 1))
        assert board.snapshot() == before
        assert board.dB == [0, 0, 0, 0]

    @pytest.mark.parametrize("edge", [(1, 0), (0, 0), (0, 9), (-1, 2)])
    def test_malformed_edges_rejected(self, edge):
        with pytest.raises(InvalidParams):
            Board(5).claim(Player.MAKER, edge)

    @pytest.mark.parametrize("edge", [(1, 0), (0, 0), (0, 9), (-1, 2)])
    def test_malformed_edges_rejected_by_lookups(self, edge):
        board = Board(5)
        for lookup in (board.is_free, board.state_of):
            with pytest.raises(InvalidParams, match="not a valid pair on 5"):
                lookup(edge)

    def test_free_incident_edges_ascend_by_other_endpoint(self):
        board = Board(5)
        board.claim(Player.BREAKER, (2, 3))
        assert board.free_incident_edges(3) == [(0, 3), (1, 3), (3, 4)]
        assert board.lowest_free_incident_edge(3) == (0, 3)
        assert board.free_row(3) == 0b10011

    def test_lowest_free_incident_edge_none_when_saturated(self):
        board = Board(3)
        board.claim(Player.BREAKER, (0, 1))
        board.claim(Player.BREAKER, (0, 2))
        assert board.lowest_free_incident_edge(0) is None
        assert board.free_row(0) == 0

    def test_lowest_free_edge_scans_lexicographically(self):
        board = Board(4)
        assert board.lowest_free_edge() == (0, 1)
        board.claim(Player.MAKER, (0, 1))
        board.claim(Player.BREAKER, (0, 2))
        assert board.lowest_free_edge() == (0, 3)

    def test_random_free_edge_is_free_and_seeded(self):
        board = Board(6)
        board.claim(Player.MAKER, (0, 1))
        picks = [board.random_free_edge(random.Random(9)) for _ in range(5)]
        assert picks == [board.random_free_edge(random.Random(9))
                         for _ in range(5)]
        assert all(board.is_free(e) for e in picks)

    def test_edges_of_sorted_by_owner(self):
        board = Board(5)
        for e in [(2, 4), (0, 3), (1, 2)]:
            board.claim(Player.MAKER, e)
        board.claim(Player.BREAKER, (0, 4))
        maker = SimpleGraph.from_board(board, Player.MAKER)
        breaker = SimpleGraph.from_board(board, Player.BREAKER)
        assert maker.edges() == [(0, 3), (1, 2), (2, 4)]
        assert breaker.edges() == [(0, 4)]
        # the graph owns a copy of the rows
        maker.add_edge(0, 1)
        assert board.maker[0] == 0b1000

    def test_free_edges_are_lazy_and_lexicographic(self):
        board = Board(5)
        for e in [(2, 4), (0, 3), (1, 2)]:
            board.claim(Player.MAKER, e)
        board.claim(Player.BREAKER, (0, 4))
        free = board.free_edges()
        assert next(free) == (0, 1)
        assert list(free) == [(0, 2), (1, 3), (1, 4), (2, 3), (3, 4)]
        assert board.lowest_free_edge() == (0, 1)

    def test_exhaustion_bookkeeping(self):
        board = Board(3)
        board.claim(Player.MAKER, (0, 1))
        board.claim(Player.BREAKER, (0, 2))
        board.claim(Player.MAKER, (1, 2))
        assert board.free_count == 0
        assert list(board.free_edges()) == []
        with pytest.raises(NoFreeEdge):
            board.random_free_edge(random.Random(0))
        with pytest.raises(NoFreeEdge):
            board.lowest_free_edge()

    @pytest.mark.parametrize("n", [3, 4, 5, 7, 12, 50])
    def test_random_free_edge_decodes_every_slot_in_combinations_order(self, n):
        class SlotRng:
            slot = 0

            def randrange(self, stop):
                return self.slot

        board, rng = Board(n), SlotRng()
        for rng.slot, edge in enumerate(combinations(range(n), 2)):
            assert board.random_free_edge(rng) == edge
        assert rng.slot == board.m - 1

    def test_random_free_edge_is_uniform_over_the_free_edges(self):
        board = Board(8)
        claims = random.Random(3).sample(list(board.free_edges()), 10)
        for step, edge in enumerate(claims):
            board.claim(Player.MAKER if step % 2 else Player.BREAKER, edge)
        free = list(board.free_edges())
        assert len(free) == 18
        rng = random.Random(11)
        draws = 18 * 1000
        counts = Counter(board.random_free_edge(rng) for _ in range(draws))
        assert set(counts) == set(free)
        expected = draws / len(free)
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        # 17 degrees of freedom: P(chi2 > 40.79) = 0.001 for a uniform draw
        assert chi2 < 40.79

    def test_new_board_small_n_rejected(self):
        with pytest.raises(InvalidParams):
            new_board(2)

    def test_n_beyond_the_cap_rejected_before_any_allocation(self):
        # a board of MAX_N + 1 vertices would hold about 2 * 10^6 edge
        # slots (about 100 MB); the check must come before the pool
        tracemalloc.start()
        try:
            with pytest.raises(InvalidParams, match=str(MAX_N)):
                Board(MAX_N + 1)
            with pytest.raises(InvalidParams, match=str(MAX_N)):
                GameParams(n=MAX_N + 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert GameParams(n=MAX_N).n == MAX_N


class TestEdgeListText:
    def test_round_trip(self):
        assert parse_edge_list("0 1\n0 2\n1 4\n") == [(0, 1), (0, 2), (1, 4)]

    def test_comments_blanks_and_swapped_endpoints(self):
        text = "# header\n\n3 1\n"
        assert parse_edge_list(text) == [(1, 3)]

    @pytest.mark.parametrize("text", ["1 2 3\n", "5 5\n", "a b\n", "0 1\n1 x\n"])
    def test_bad_lines_rejected(self, text):
        with pytest.raises(InvalidParams, match="^line "):
            parse_edge_list(text)
