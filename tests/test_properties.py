"""Randomised invariant checks (hypothesis), and invariants over grids of
seeded games."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import _naive
from mbg.audit import (audit_game, check_potential_lemmas, harmonic,
                       reconstruct_multisets)
from mbg.board import Board, GameParams, Player
from mbg.boxgame import (BoxPlayState, boxmaker_balancing_move,
                         canonical_instance, f_box, f_lower_bound)
from mbg.breaker_strategies import make_breaker
from mbg.engine import (REASON_GOAL_IMPOSSIBLE, GameTrace, play_game,
                        trace_from_json, trace_to_json)
from mbg.errors import MBGError, NoFreeEdge
from mbg.maker_strategies import make_maker
from mbg.oracles import SimpleGraph, boosters, is_hamiltonian

SLOW = settings(max_examples=25, deadline=None)
FAST = settings(max_examples=60, deadline=None)


@FAST
@given(n=st.integers(4, 10), seed=st.integers(0, 10**6),
       claims=st.integers(0, 45))
def test_board_degree_accounting(n, seed, claims):
    board = Board(n)
    m = board.free_count
    rng = random.Random(seed)
    made = 0
    for i in range(min(claims, m)):
        player = Player.MAKER if i % 2 == 0 else Player.BREAKER
        made += len(board.claim_random(player, rng, 1, n))
    assert made == min(claims, m)
    assert board.free_count == m - made
    assert sum(board.dM) + sum(board.dB) == 2 * made
    assert [row.bit_count() for row in board.maker] == board.dM
    assert [row.bit_count() for row in board.breaker] == board.dB
    assert sum(1 for _ in board.free_edges()) == board.free_count
    assert all(board.is_free(e) for e in board.free_edges())


@FAST
@given(n=st.integers(3, 9), seed=st.integers(0, 10**6),
       taken=st.integers(0, 36), maker=st.booleans(), count=st.integers(1, 40),
       limit=st.integers(0, 9))
def test_claim_random_matches_the_reference(n, seed, taken, maker, count,
                                            limit):
    # the same position on two boards: ``taken`` edges, claimed alternately
    boards = [Board(n), Board(n)]
    prefix = random.Random(seed).sample(list(boards[0].free_edges()),
                                        min(taken, boards[0].m))
    for board in boards:
        for i, edge in enumerate(prefix):
            board.claim(Player.MAKER if i % 2 else Player.BREAKER, edge)
    player = Player.MAKER if maker else Player.BREAKER
    rngs = [random.Random(seed + 1), random.Random(seed + 1)]
    if boards[0].free_count == 0:
        with pytest.raises(NoFreeEdge):
            boards[0].claim_random(player, rngs[0], count, limit)
        with pytest.raises(NoFreeEdge):
            _naive.claim_random(boards[1], player, rngs[1], count, limit)
        return
    fast = boards[0].claim_random(player, rngs[0], count, limit)
    slow = _naive.claim_random(boards[1], player, rngs[1], count, limit)
    assert fast == slow
    assert rngs[0].getstate() == rngs[1].getstate()
    ours, ref = boards
    assert ours.maker + ours.breaker == ref.maker + ref.breaker
    assert (ours.dM, ours.dB, ours.free_count) == (ref.dM, ref.dB,
                                                   ref.free_count)
    assert (ours._free, ours._free_pos) == (ref._free, ref._free_pos)


@FAST
@given(n=st.integers(3, 9), seed=st.integers(0, 10**6),
       taken=st.integers(0, 36), maker=st.booleans(), count=st.integers(1, 40),
       limit=st.integers(0, 9))
def test_claim_many_is_successive_claims_up_to_the_stop(n, seed, taken, maker,
                                                       count, limit):
    # ``taken`` edges claimed alternately, then a plan of ``count`` free ones
    boards = [Board(n), Board(n)]
    edges = random.Random(seed).sample(list(boards[0].free_edges()),
                                       min(taken + count, boards[0].m))
    prefix, plan = edges[:taken], edges[taken:]
    assume(plan)
    for board in boards:
        for i, edge in enumerate(prefix):
            board.claim(Player.MAKER if i % 2 else Player.BREAKER, edge)
    player = Player.MAKER if maker else Player.BREAKER
    ours, ref = boards
    claimed = ours.claim_many(player, plan, limit)
    degree = ref.dM if maker else ref.dB
    expected = []
    for u, v in plan:
        ref.claim(player, (u, v))
        expected.append((u, v))
        if degree[u] > limit or degree[v] > limit:
            break
    assert claimed == expected
    assert ours.maker + ours.breaker == ref.maker + ref.breaker
    assert (ours.dM, ours.dB, ours.free_count) == (ref.dM, ref.dB,
                                                   ref.free_count)
    assert (ours._free, ours._free_pos) == (ref._free, ref._free_pos)


@FAST
@given(k=st.integers(1, 30), p=st.integers(1, 20), q=st.integers(1, 6))
def test_f_box_is_monotone_in_p(k, p, q):
    assert f_box(k, p, q) <= f_box(k, p + 1, q)


@FAST
@given(k=st.integers(2, 60), q=st.integers(1, 6), extra=st.integers(0, 10))
def test_f_box_dominates_its_lower_bound(k, q, extra):
    assume(k > q)
    p = q + 1 + extra
    assert f_lower_bound(k, p, q) <= f_box(k, p, q)


@FAST
@given(sizes=st.lists(st.integers(0, 12), min_size=1, max_size=8),
       gone=st.sets(st.integers(0, 7)), p=st.integers(1, 30))
@example(sizes=[5, 3, 3], gone=set(), p=4)  # a lone leader meets a tie
@example(sizes=[4, 9, 2], gone={1}, p=4)    # p reaches the largest live box
@example(sizes=[0, 3], gone={1}, p=1)       # no box survives
def test_balancing_move_matches_the_reference(sizes, gone, p):
    # empty and destroyed boxes do not survive; a large p may exceed every
    # box, which wins at once
    states = [BoxPlayState(remaining=list(sizes),
                           destroyed={i for i in gone if i < len(sizes)})
              for _ in range(2)]
    results = []
    for state, move in zip(states, (boxmaker_balancing_move,
                                    _naive.balancing_move)):
        try:
            results.append(move(state, p))
        except MBGError as exc:
            results.append(type(exc))
    assert results[0] == results[1]
    ours, ref = states
    assert (ours.remaining, ours.won) == (ref.remaining, ref.won)


@FAST
@given(k=st.integers(1, 5), base=st.integers(1, 6), p=st.integers(1, 6),
       bump=st.integers(0, 4))
def test_balancing_move_keeps_profiles_balanced(k, base, p, bump):
    sizes = [base] * k
    for i in range(min(bump, k)):
        sizes[i] += 1
    state = BoxPlayState(remaining=list(sizes))
    claims = boxmaker_balancing_move(state, p)
    assert all(count >= 1 for _, count in claims)
    if state.won is not None:
        assert state.remaining[state.won] == 0
        assert sum(count for _, count in claims) <= p
    else:
        assert sum(count for _, count in claims) == p
        alive = [state.remaining[i] for i in state.surviving()]
        assert alive and max(alive) - min(alive) <= 1
    assert all(r >= 0 for r in state.remaining)


@FAST
@given(k=st.integers(1, 4), t=st.integers(4, 12), p=st.integers(1, 3),
       q=st.integers(1, 3))
def test_canonical_instance_is_balanced_and_sized(k, t, p, q):
    assume(t >= k)
    inst = canonical_instance(k, t, p=p, q=q)
    assert inst.canonical
    assert inst.t == t and inst.k == k


@SLOW
@given(n=st.integers(5, 12), a=st.integers(1, 2), b=st.integers(1, 3),
       seed=st.integers(0, 10**6))
def test_play_game_is_deterministic(n, a, b, seed):
    params = GameParams(n=n, a=a, b=b)
    runs = []
    for _ in range(2):
        maker = make_maker("min-deg", params)
        breaker = make_breaker("random", params)
        runs.append(play_game(params, maker, breaker, seed=seed))
    assert runs[0][0] == runs[1][0]
    assert runs[0][1].moves == runs[1][1].moves


@SLOW
@given(n=st.integers(5, 9), b=st.integers(1, 2), seed=st.integers(0, 10**5))
def test_early_stop_never_changes_the_winner(n, b, seed):
    params = GameParams(n=n, b=b)
    outcomes = []
    for early in (True, False):
        maker = make_maker("min-deg", params)
        breaker = make_breaker("random", params)
        outcome, _ = play_game(params, maker, breaker, seed=seed,
                               early_stop=early)
        outcomes.append(outcome.winner)
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("early_stop", [True, False])
@pytest.mark.parametrize("breaker_name", ["isolate", "clique-box"])
def test_breaker_steps_are_whole_moves(breaker_name, early_stop):
    # Every planned Breaker step is at most min(b, free edges) distinct
    # free edges: isolate's opening and empty plans, and clique-box's
    # clique, box, box-winning and finished ones.  Every claimed Breaker
    # move is exactly min(b, free edges) claims unless it ended the game.
    stages = set()
    for n, a, k, maker_name, seed in itertools.product(
            (12, 20, 40), (1, 2), (1, 2), ("min-deg", "random"), range(3)):
        for b in (n // 4, n // 2, n - k, n - 1, n + 3):
            params = GameParams(n=n, a=a, b=b, k=k)
            try:
                breaker = make_breaker(breaker_name, params)
            except MBGError:
                continue
            planner = breaker.step
            maker = make_maker(maker_name, params)
            maker_step = maker.step
            # (player, claims before the step) of every step
            steps = []

            def step(board, rng):
                steps.append((Player.BREAKER, board.m - board.free_count))
                move = planner(board, rng)
                if move is not None:
                    assert len(move) == len(set(move))
                    assert len(move) <= min(b, board.free_count)
                    assert all(board.is_free(e) for e in move)
                return move

            def step_maker(board, rng):
                steps.append((Player.MAKER, board.m - board.free_count))
                return maker_step(board, rng)

            breaker.step, maker.step = step, step_maker
            outcome, trace = play_game(params, maker, breaker, seed,
                                       early_stop=early_stop)
            claims, m = len(trace.slots), params.edge_total
            for index, (player, first) in enumerate(steps):
                if player is Player.MAKER:
                    continue
                end = steps[index + 1][1] if index + 1 < len(steps) else claims
                size = min(b, m - first)
                if end - first != size:
                    # only the last move is short, and only by foreclosing
                    assert end - first < size and index == len(steps) - 1
                    assert early_stop
                    assert outcome.reason == REASON_GOAL_IMPOSSIBLE
            stages.add(getattr(getattr(breaker, "state", None), "stage", None))
    if breaker_name == "clique-box":
        assert {"done", "fallback"} <= stages


@pytest.mark.parametrize("early_stop", [True, False])
def test_claim_counts_are_arithmetic_on_the_claim_log(early_stop):
    # only a game's last move can be short, so the rounds and Maker claims
    # of a trace follow from its claim count; count them over the records
    for n, a, b, maker_name, breaker_name, seed in itertools.product(
            (6, 12, 20), (1, 2, 3), (1, 3, 7), ("min-deg", "random"),
            ("random", "isolate", "clique-box"), range(2)):
        params = GameParams(n=n, a=a, b=b)
        try:
            breaker = make_breaker(breaker_name, params)
        except MBGError:
            continue
        _, trace = play_game(params, make_maker(maker_name, params), breaker,
                             seed, early_stop=early_stop)
        moves = trace.moves
        assert trace.rounds_played() == moves[-1].round
        assert trace.maker_claims() == sum(1 for mv in moves
                                           if mv.player is Player.MAKER)
    empty = GameTrace(GameParams(n=5, a=2, b=3), 0)
    assert empty.rounds_played() == empty.maker_claims() == 0


@SLOW
@given(n=st.integers(5, 10), seed=st.integers(0, 10**6))
def test_trace_json_round_trip(n, seed):
    params = GameParams(n=n, b=2)
    maker = make_maker("random", params)
    breaker = make_breaker("random", params)
    outcome, trace = play_game(params, maker, breaker, seed=seed)
    text = trace_to_json(trace, outcome)
    back, back_outcome = trace_from_json(text)
    assert back.moves == trace.moves
    assert back.params == trace.params
    assert back_outcome == outcome


@FAST
@given(n=st.integers(1, 12), p=st.floats(0.0, 0.6), seed=st.integers(0, 10**6))
def test_boosters_match_the_per_edge_reference(n, p, seed):
    rng = random.Random(seed)
    tree = [(rng.randrange(v), v) for v in range(1, n)]
    g = SimpleGraph(n, tree + _naive.random_graph_edges(rng, n, p))
    assert boosters(g) == _naive.boosters_by_edge(g)


@FAST
@given(n=st.integers(3, 12), p=st.floats(0.0, 0.4), seed=st.integers(0, 10**6),
       steps=st.lists(st.sampled_from(
           ("hamiltonian", "boosters", "one-edge-more", "add-edge", "fresh")),
           min_size=1, max_size=6))
def test_interleaved_oracles_never_read_a_stale_path_table(n, p, seed, steps):
    # is_hamiltonian and boosters share one memoised vertex-0 table: interleave
    # them on random graphs, on graphs one edge apart and on one SimpleGraph
    # grown in place between calls.
    rng = random.Random(seed)

    def fresh():
        """A random tree, or a random Hamilton path, plus random edges."""
        order = rng.sample(range(n), n)
        spine = ([(rng.randrange(v), v) for v in range(1, n)]
                 if rng.random() < 0.5 else list(zip(order, order[1:])))
        return SimpleGraph(n, spine + _naive.random_graph_edges(rng, n, p))

    def check(h, oracle):
        # The reference runs first, so the memo holds h's table afterwards.
        if oracle == "hamiltonian":
            expected = _naive.hamiltonian_cycle_exists(n, h.edges())
            assert is_hamiltonian(h) == expected
        else:
            expected = _naive.boosters_by_edge(h)
            assert boosters(h) == expected

    g = fresh()
    for step in steps:
        missing = g.non_edges()
        if step == "fresh":
            g = fresh()
        elif step in ("hamiltonian", "boosters"):
            check(g, step)
        elif missing and step == "add-edge":
            g.add_edge(*rng.choice(missing))
        elif missing and step == "one-edge-more":
            near = g.with_edge(*rng.choice(missing))
            check(near, rng.choice(("hamiltonian", "boosters")))
        check(g, rng.choice(("hamiltonian", "boosters")))


@FAST
@given(m=st.integers(2, 400))
def test_harmonic_steps_by_reciprocals(m):
    assert harmonic(m) - harmonic(m - 1) == Fraction(1, m)


@SLOW
@given(seed=st.integers(0, 10**6))
def test_audit_pools_nest(seed):
    params = GameParams(n=16, a=1, b=5, k=2)
    maker = make_maker("min-deg", params)
    breaker = make_breaker("random", params)
    outcome, trace = play_game(params, maker, breaker, seed=seed)
    assume(outcome.winner is Player.BREAKER)
    result = audit_game(trace)
    assume(result is not None)
    audit, report = result
    labels = sorted(audit.multisets)
    for earlier, later in zip(labels, labels[1:]):
        assert set(audit.multisets[earlier]) >= set(audit.multisets[later])
    assert audit.g_values == {j: _naive.compute_g(audit, j) for j in labels}
    assert report.passed, report.as_text()


@SLOW
@given(a=st.integers(1, 3), k=st.integers(1, 3), seed=st.integers(0, 10**6),
       early_stop=st.booleans(), data=st.data())
def test_audit_of_random_targets_matches_the_reference(a, k, seed,
                                                       early_stop, data):
    # random play aimed at random endpoints retargets vertices that already
    # hold degree k, so the pools' degree filter matters here, unlike in
    # the min-degree Maker's games
    params = GameParams(n=10, a=a, b=3 * a, k=k)
    _, trace = play_game(params, make_maker("random", params),
                         make_breaker("random", params), seed=seed,
                         early_stop=early_stop)
    rng = random.Random(seed)
    trace = _naive.trace_from_records(
        params, seed, [mv if mv.player is Player.BREAKER
                       else mv._replace(target=rng.choice(mv.edge))
                       for mv in trace.moves])
    point = _naive.foreclosure_point(trace)
    result = audit_game(trace)
    if point is None:
        assert result is None
    else:
        audit, report = result
        reference = _naive.audit(trace, *point)
        assert audit == reference
        assert report.as_text() == check_potential_lemmas(reference).as_text()
    s = data.draw(st.integers(1, trace.rounds_played()))
    vS = data.draw(st.integers(0, params.n - 1))
    try:
        expected = _naive.audit(trace, s, vS)
    except MBGError as exc:
        with pytest.raises(type(exc)):
            reconstruct_multisets(trace, s, vS)
    else:
        assert reconstruct_multisets(trace, s, vS) == expected
