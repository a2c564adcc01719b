import itertools
import random
import tracemalloc
from collections import Counter
from itertools import combinations

import pytest

from mbg.board import (MAX_N, Board, GameParams, Player, new_board,
                       parse_edge_list, slot_edges)
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

    @pytest.mark.parametrize("kwargs, field", [
        (dict(n=5, a=True, k=True), "a"),  # a bool is not an int
        (dict(n=5, k=True), "k"),
        (dict(n=5.0), "n"),
        (dict(n=5, b=2.0), "b"),
        (dict(n="5"), "n"),
        (dict(n=5, goal=None), "goal"),
    ])
    def test_rejects_values_of_the_wrong_type_naming_the_field(self, kwargs,
                                                               field):
        with pytest.raises(InvalidParams, match=f"^{field} must be an? "):
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
    step = 0
    while board.free_count:
        player = Player.MAKER if step % 3 == 0 else Player.BREAKER
        if step % 2:
            # a planned claim: the next unclaimed edge of the shuffled order
            edge = next(e for e in order if e not in owners)
            board.claim(player, edge)
        else:
            (edge,) = board.claim_random(player, rng, 1, n)
            assert edge not in owners
        owners[edge] = player
        step += 1
        free = [e for e in edges if e not in owners]
        assert board.free_count == len(free)
        assert list(board.free_edges()) == free
        for e in edges:
            assert board.is_free(e) == (e not in owners)
            assert board.state_of(e) is owners.get(e)
    with pytest.raises(NoFreeEdge):
        board.claim_random(Player.BREAKER, rng, 1, n)


def _board_with_free(count):
    """The smallest board with at least ``count`` slots, its first edges in
    lexicographic order claimed until exactly ``count`` are free."""
    n = 3
    while n * (n - 1) // 2 < count:
        n += 1
    board = Board(n)
    while board.free_count > count:
        board.claim(Player.MAKER, board.lowest_free_edge())
    return board


def _slot(n, edge):
    u, v = edge
    return u * n - u * (u + 1) // 2 + (v - u - 1)


def _draws_like_randrange(board, seed):
    rng, ref = random.Random(seed), random.Random(seed)
    slot = board._free[ref.randrange(board.free_count)]
    (edge,) = board.claim_random(Player.BREAKER, rng, 1, board.n)
    assert _slot(board.n, edge) == slot
    assert rng.getstate() == ref.getstate()


@pytest.mark.parametrize("count", sorted({1, 2, 3} | {
    2 ** j + d for j in (2, 3, 8, 16) for d in (-1, 0, 1)}))
def test_claim_random_draws_what_randrange_draws(count):
    # the inline draw is CPython's randrange algorithm: same position and
    # same random stream afterwards, so seeded traces do not depend on it
    for seed in range(6):
        board = _board_with_free(count)
        assert board.free_count == count
        _draws_like_randrange(board, seed)


def test_claim_random_draws_what_randrange_draws_on_the_largest_board():
    # m = 1,999,000 free edges at n = MAX_N, then one fewer per seed
    board = Board(MAX_N)
    for seed in range(4):
        _draws_like_randrange(board, seed)
    assert board.free_count == board.m - 4


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

    def test_claim_random_claims_free_edges_and_is_seeded(self):
        boards = [Board(6), Board(6)]
        for board in boards:
            board.claim(Player.MAKER, (0, 1))
        free = list(boards[0].free_edges())
        picks = [board.claim_random(Player.BREAKER, random.Random(9), 5, 5)
                 for board in boards]
        assert picks[0] == picks[1]
        assert len(set(picks[0])) == 5 and set(picks[0]) <= set(free)
        assert all(boards[0].state_of(e) is Player.BREAKER for e in picks[0])
        assert boards[0].snapshot() == boards[1].snapshot()

    def test_claim_random_stops_past_the_limit_or_at_an_empty_pool(self):
        board = Board(5)
        claimed = board.claim_random(Player.MAKER, random.Random(2), 10, 1)
        # the first claim that gives some vertex a second Maker edge is last
        second = {v for v in range(5) if board.dM[v] == 2}
        assert second and second <= set(claimed[-1]) and max(board.dM) == 2
        assert len(claimed) == 10 - board.free_count
        rest = board.claim_random(Player.BREAKER, random.Random(3), 99, 4)
        assert len(rest) == 10 - len(claimed) and board.free_count == 0
        assert sorted(claimed + rest) == list(combinations(range(5), 2))

    def test_claim_many_stops_after_the_first_claim_past_the_limit(self):
        board = Board(6)
        plan = [(0, 1), (0, 2), (1, 2), (3, 4)]
        # (0, 2) gives vertex 0 its second Breaker edge, one over the limit
        assert board.claim_many(Player.BREAKER, plan, 1) == [(0, 1), (0, 2)]
        assert board.dB == [2, 1, 1, 0, 0, 0]
        assert board.is_free((1, 2)) and board.free_count == board.m - 2
        assert board.claim_many(Player.BREAKER, plan[2:], 5) == plan[2:]
        assert board.free_count == board.m - 4

    def test_claim_many_stops_at_a_taken_edge_keeping_earlier_claims(self):
        board = Board(5)
        board.claim(Player.MAKER, (1, 2))
        with pytest.raises(EdgeAlreadyClaimed, match="Maker"):
            board.claim_many(Player.BREAKER, [(0, 1), (1, 2), (2, 3)], 4)
        assert board.state_of((0, 1)) is Player.BREAKER
        assert board.is_free((2, 3))
        assert board.free_count == board.m - 2

    def test_moving_pool_slots_allocates_nothing(self):
        # every claim swaps int objects the pool already holds, so an eighth
        # of the board planned by claim_many and half of it drawn by
        # claim_random leave the traced memory almost where it was (storing
        # fresh positions grew it by about 5 MiB)
        board = Board(600)
        planned = list(itertools.islice(board.free_edges(), board.m // 8))
        rng = random.Random(0)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            board.claim_many(Player.MAKER, planned, board.n)
            board.claim_random(Player.BREAKER, rng, board.m // 2, board.n)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert board.free_count == board.m - board.m // 8 - board.m // 2
        assert grown < 1 << 19

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
            board.claim_random(Player.MAKER, random.Random(0), 1, 2)
        with pytest.raises(NoFreeEdge):
            board.lowest_free_edge()

    @pytest.mark.parametrize("n", [3, 4, 5, 7, 12, 50, MAX_N])
    def test_slot_edges_inverts_the_slot_formula(self, n):
        m = n * (n - 1) // 2
        picked = sorted({0, 1, n - 2, n - 1, m // 2, m - 2, m - 1}
                        & set(range(m)))
        for slot, (u, v) in zip(picked, slot_edges(n, picked)):
            assert 0 <= u < v < n
            assert u * n - u * (u + 1) // 2 + (v - u - 1) == slot
        if n <= 50:
            assert slot_edges(n, range(m)) == list(combinations(range(n), 2))

    @pytest.mark.parametrize("seed", range(6))
    def test_the_pool_tail_is_the_claim_log(self, seed):
        # claim, claim_many and claim_random, mixed and for both players,
        # each swap the claimed slot to the end of the free prefix, so the
        # tail read backwards decodes to the claimed edges in claim order;
        # the last run is cut short by a foreclosing claim
        n = 9
        board, rng = Board(n), random.Random(seed)
        claimed = []
        for turn in range(6):
            player = Player.MAKER if turn % 2 else Player.BREAKER
            kind = (turn + seed) % 3
            if kind == 0:
                edge = next(board.free_edges())
                board.claim(player, edge)
                claimed.append(edge)
            elif kind == 1:
                plan = rng.sample(list(board.free_edges()), 3)
                claimed += board.claim_many(player, plan, n)
            else:
                claimed += board.claim_random(player, rng, 4, n)
            assert slot_edges(n, board.claimed_slots()) == claimed
        # Breaker runs that stop at the claim lifting a degree past 3
        for run in (
                lambda: board.claim_random(Player.BREAKER, rng,
                                           board.free_count, 3),
                lambda: board.claim_many(Player.BREAKER,
                                         list(board.free_edges()), 3)):
            free = board.free_count
            cut = run()
            assert 0 < len(cut) < free
            assert max(board.dB[v] for v in cut[-1]) > 3
            claimed += cut
            assert slot_edges(n, board.claimed_slots()) == claimed
        assert board.free_count == board.m - len(claimed)

    @pytest.mark.parametrize("n", [3, 4, 5, 7, 12, 50])
    def test_claim_random_decodes_every_slot_in_combinations_order(self, n):
        class LastPositionRng:
            """Draws the last free position each time: on a fresh board
            that is slot m-1, then m-2, ..., down to 0."""

            def __init__(self, m):
                self.pos = m

            def getrandbits(self, k):
                self.pos -= 1
                return self.pos

        board = Board(n)
        rng = LastPositionRng(board.m)
        claimed = board.claim_random(Player.MAKER, rng, board.m, n)
        assert claimed[::-1] == list(combinations(range(n), 2))
        assert rng.pos == 0 and board.free_count == 0

    def test_claim_random_is_uniform_over_the_free_edges(self):
        claims = random.Random(3).sample(list(Board(8).free_edges()), 10)

        def position():
            board = Board(8)
            for step, edge in enumerate(claims):
                board.claim(Player.MAKER if step % 2 else Player.BREAKER, edge)
            return board

        free = list(position().free_edges())
        assert len(free) == 18
        rng = random.Random(11)
        draws = 18 * 1000
        counts = Counter(position().claim_random(Player.BREAKER, rng, 1, 7)[0]
                         for _ in range(draws))
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
