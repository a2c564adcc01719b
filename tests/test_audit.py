"""Audit-module tests.

The interesting cases use small scripted traces whose pools, averages and
g-counts were worked out by hand, so every number asserted here is an
independent pencil-and-paper value, not a copy of the implementation's
output.
"""

import math
from fractions import Fraction

import pytest

import _naive
from mbg.audit import (HARMONIC_GUARD, DegreeSnapshot, audit_game,
                       canonical_audit_point, check_potential_lemmas,
                       default_split_point,
                       foreclosed_degree_floor_ok,
                       harmonic, harmonic_bounds_ok, harmonic_bounds_sweep,
                       losing_round_bound_ok, reconstruct_multisets)
from mbg.board import GameParams, Player
from mbg.engine import (GameTrace, MoveRecord, play_game, replay_trace,
                        write_trace)
from mbg.errors import (EdgeAlreadyClaimed, InvalidParams, MBGError,
                        TraceIncompatible)
from mbg.harness import main
from mbg.breaker_strategies import IsolateBreaker, make_breaker
from mbg.maker_strategies import MinDegMaker, make_maker


class CountingSlots(list):
    """A slot list that counts the slots its slices hand out."""

    consumed = 0

    def __getitem__(self, key):
        got = super().__getitem__(key)
        if isinstance(key, slice):
            self.consumed += len(got)
        return got


def scripted_trace(n, a, b, k, rounds):
    """Build a trace from ``rounds``: (breaker_edges, [(edge, target), ...])."""
    params = GameParams(n=n, a=a, b=b, k=k)
    moves = []
    for rno, (breaker_edges, maker_claims) in enumerate(rounds, start=1):
        for step, edge in enumerate(breaker_edges, start=1):
            moves.append(MoveRecord(rno, step, Player.BREAKER, edge))
        for step, (edge, target) in enumerate(maker_claims, start=1):
            moves.append(MoveRecord(rno, step, Player.MAKER, edge, target))
    return GameTrace.from_moves(params, 0, moves)


class TestHarmonic:
    def test_small_values_are_exact(self):
        assert harmonic(1) == 1
        assert harmonic(2) == Fraction(3, 2)
        assert harmonic(4) == Fraction(25, 12)

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidParams):
            harmonic(0)

    @pytest.mark.parametrize("m", [1, 2, 7, 100, 1234])
    def test_log_sandwich_holds(self, m):
        assert harmonic_bounds_ok(m)
        value = float(harmonic(m))
        assert math.log(m + 1) <= value + HARMONIC_GUARD

    def test_sweep_is_clean_at_modest_range(self):
        assert harmonic_bounds_sweep(2000) == []

    def test_sweep_rejects_bad_limit(self):
        with pytest.raises(InvalidParams):
            harmonic_bounds_sweep(0)


def test_default_split_point():
    assert default_split_point(7, 2) == 1  # floor gives 0, clamped up
    assert default_split_point(100, 1) == math.floor(100 / math.log(100))


class TestReconstruction:
    """Fixture A: a hand-played (2:2) degree-2 game on seven vertices.

    Both Maker claims of each round are genuine max-danger picks, so the
    trace is exactly what the min-degree strategy would have produced and
    every proved inequality must hold on it.
    """

    def fixture(self):
        return scripted_trace(
            n=7, a=2, b=2, k=2,
            rounds=[
                ([(0, 1), (0, 2)], [((0, 3), 0), ((1, 2), 1)]),
                ([(0, 4), (0, 5)], [((0, 6), 0), ((1, 4), 4)]),
                ([(3, 5), (3, 6)], []),
            ])

    def test_pools_are_distinct_vertex_sets(self):
        audit = reconstruct_multisets(self.fixture(), s=3, vS=5)
        assert audit.multisets == {3: (5,), 2: (0, 4, 5), 1: (0, 1, 4, 5)}

    def test_duplicate_targets_collapse(self):
        # vertex 0 was targeted in both rounds; the earliest pool holds it once
        audit = reconstruct_multisets(self.fixture(), s=3, vS=5)
        assert audit.multisets[1].count(0) == 1

    def test_g_values(self):
        audit = reconstruct_multisets(self.fixture(), s=3, vS=5)
        assert audit.g_values == {1: 0, 2: 0, 3: 0}

    def test_averages_match_hand_computation(self):
        audit = reconstruct_multisets(self.fixture(), s=3, vS=5)
        assert audit.avg_b == {0: Fraction(1), 1: Fraction(0), 2: Fraction(0)}
        assert audit.avg_m == {0: Fraction(2), 1: Fraction(4, 3),
                               2: Fraction(3, 5)}

    def test_all_checks_pass(self):
        audit = reconstruct_multisets(self.fixture(), s=3, vS=5)
        report = check_potential_lemmas(audit)
        assert report.passed
        assert len(report.checks) == 10
        text = report.as_text()
        assert "result=PASS" in text and "FAIL" not in text

    def test_bias_share_bound_is_tight_here(self):
        # at offset 1 the within-round rise equals 2b/(a+1) exactly
        audit = reconstruct_multisets(self.fixture(), s=3, vS=5)
        gap = audit.avg_m[1] - audit.avg_b[1]
        assert gap == Fraction(2 * 2, 2 * 1 + 1) == Fraction(4, 3)

    def test_snapshots_freeze_the_right_instants(self):
        audit = reconstruct_multisets(self.fixture(), s=3, vS=5)
        assert audit.snap_b[1].dB == (0,) * 7
        assert audit.snap_m[1].dB == (2, 1, 1, 0, 0, 0, 0)
        assert audit.snap_b[3].dM == (2, 2, 1, 1, 1, 0, 1)
        # round 3 has no Maker move; its Maker snapshot is the final position
        assert audit.snap_m[3].dB == (4, 1, 1, 2, 1, 2, 1)


class TestReconstructionFiltering:
    """Fixture B: a (1:1) game whose round-2 target was already satisfied.

    The stale target must drop out of the pools, and because the script is
    not danger-greedy one of the monotonicity checks genuinely fails, which
    is what keeps the checker honest.
    """

    def fixture(self):
        return scripted_trace(
            n=6, a=1, b=1, k=1,
            rounds=[
                ([(0, 1)], [((4, 5), 4)]),
                ([(0, 2)], [((3, 4), 4)]),
                ([(0, 3)], []),
            ])

    def test_satisfied_vertices_leave_the_pool(self):
        audit = reconstruct_multisets(self.fixture(), s=3, vS=0)
        assert audit.multisets[2] == (0,)  # vertex 4 had degree 1 already
        assert audit.multisets[1] == (0, 4)

    def test_non_greedy_play_fails_a_check(self):
        audit = reconstruct_multisets(self.fixture(), s=3, vS=0)
        report = check_potential_lemmas(audit)
        assert not report.passed
        failed = {(c.name, c.index) for c in report.failures()}
        assert ("avg_danger_maker_ge_next_breaker", 1) in failed
        assert all(name == "avg_danger_maker_ge_next_breaker"
                   for name, _ in failed)

    def test_satisfied_vertex_cannot_anchor_an_audit(self):
        with pytest.raises(InvalidParams, match="already has Maker degree"):
            reconstruct_multisets(self.fixture(), s=2, vS=4)


class TestGCounting:
    """Fixture C: pools with an internal Breaker edge, so g is nonzero."""

    def fixture(self):
        return scripted_trace(
            n=5, a=1, b=2, k=1,
            rounds=[
                ([(0, 1), (2, 3)], [((3, 4), 3)]),
                ([(0, 4), (1, 3)], [((1, 4), 1)]),
                ([(0, 2), (2, 4)], []),
            ])

    def test_pools(self):
        audit = reconstruct_multisets(self.fixture(), s=3, vS=0)
        assert audit.multisets == {3: (0,), 2: (0, 1), 1: (0, 1, 3)}

    def test_edge_inside_support_is_counted(self):
        audit = reconstruct_multisets(self.fixture(), s=3, vS=0)
        # (0,1) lands inside the support of the round-2 pool; nothing else does
        assert audit.g_values == {1: 0, 2: 1, 3: 0}


class TestReconstructionErrors:
    def test_round_out_of_range(self):
        trace = scripted_trace(n=5, a=1, b=1, k=1,
                               rounds=[([(0, 1)], [((2, 3), 2)])])
        for s in (0, 2, 9):
            with pytest.raises(InvalidParams):
                reconstruct_multisets(trace, s=s, vS=0)

    def test_vertex_out_of_range(self):
        trace = scripted_trace(n=5, a=1, b=1, k=1,
                               rounds=[([(0, 1)], [((2, 3), 2)])])
        with pytest.raises(InvalidParams):
            reconstruct_multisets(trace, s=1, vS=5)

    def test_split_parameter_must_be_positive(self):
        trace = scripted_trace(n=5, a=1, b=1, k=1,
                               rounds=[([(0, 1)], [((2, 3), 2)])])
        with pytest.raises(InvalidParams):
            reconstruct_multisets(trace, s=1, vS=0, r=0)

    def test_targetless_traces_are_rejected(self):
        trace = scripted_trace(
            n=6, a=1, b=1, k=1,
            rounds=[
                ([(0, 1)], [((4, 5), None)]),
                ([(0, 2)], []),
            ])
        with pytest.raises(TraceIncompatible):
            reconstruct_multisets(trace, s=2, vS=0)


class TestTraceHelpers:
    def isolate_game(self):
        params = GameParams(n=10, b=9)
        return play_game(params, MinDegMaker(params), IsolateBreaker(params),
                         seed=0)

    def test_canonical_point_on_an_isolation_loss(self):
        _, trace = self.isolate_game()
        assert canonical_audit_point(trace) == (1, 0)

    def test_no_canonical_point_when_maker_wins(self):
        params = GameParams(n=6, a=2, b=1)
        outcome, trace = play_game(params, MinDegMaker(params),
                                   make_breaker("random", params), seed=2)
        assert outcome.winner is Player.MAKER
        assert canonical_audit_point(trace) is None
        assert audit_game(trace) is None

    def test_audit_game_on_a_real_loss(self):
        params = GameParams(n=20, a=1, b=7, k=3)
        maker = make_maker("min-deg", params)
        breaker = make_breaker("random", params)
        outcome, trace = play_game(params, maker, breaker, seed=11)
        assert outcome.winner is Player.BREAKER
        result = audit_game(trace)
        assert result is not None
        audit, report = result
        assert report.passed, report.as_text()
        assert losing_round_bound_ok(trace, audit.s)
        assert foreclosed_degree_floor_ok(audit)


class TestForeclosureTie:
    """One Breaker edge lifts both of its endpoints past the limit at once.

    n = 5, k = 2, so the limit is n-1-k = 2.  Entering round 2, dB(1) and
    dB(2) are both 2; Breaker's edge (1, 2) lifts both to 3 together.
    """

    def fixture(self):
        return scripted_trace(
            n=5, a=1, b=3, k=2,
            rounds=[
                ([(1, 3), (1, 4), (2, 3)], [((0, 1), 1)]),
                ([(2, 4), (1, 2)], []),
            ])

    def test_lower_endpoint_is_the_foreclosure_point(self):
        assert canonical_audit_point(self.fixture()) == (2, 1)

    def test_audit_game_audits_the_lower_endpoint(self):
        audit, report = audit_game(self.fixture())
        assert (audit.s, audit.vS) == (2, 1)
        assert (report.s, report.vS) == (2, 1)
        assert audit.snap_m[2].dB[1] == audit.snap_m[2].dB[2] == 3


class TestSinglePass:
    def loss(self, early_stop=True):
        params = GameParams(n=20, a=1, b=6, k=2)
        return play_game(params, make_maker("min-deg", params),
                         make_breaker("random", params), seed=0,
                         early_stop=early_stop)

    def counting_slots(self, trace):
        """Swap in a slot list that counts the slots its slices hand out."""
        slots = CountingSlots(trace.slots)
        trace.slots = slots
        return slots

    def test_audit_game_claims_each_move_once(self):
        _, trace = self.loss()
        slots = self.counting_slots(trace)
        assert audit_game(trace) is not None
        assert 0 < slots.consumed <= len(slots)

    def test_played_out_win_replays_until_maker_holds_degree_k(self):
        params = GameParams(n=20, a=1, b=2, k=2)
        outcome, trace = play_game(params, make_maker("min-deg", params),
                                   make_breaker("random", params), seed=0,
                                   early_stop=False)
        won, early = play_game(params, make_maker("min-deg", params),
                               make_breaker("random", params), seed=0)
        assert outcome.winner is won.winner is Player.MAKER
        slots = self.counting_slots(trace)
        assert audit_game(trace) is None
        # after the claim that gives Maker minimum degree k nothing can
        # be foreclosed, and the early-stopped game ends at that claim
        assert slots.consumed == len(early.slots) < len(slots)

    def test_played_out_loss_is_audited_at_its_foreclosure(self, tmp_path,
                                                           capsys):
        # the early-stopped trace ends at the foreclosing claim; the
        # played-out one goes on, so the replay must stop by itself
        early_outcome, early = self.loss()
        outcome, trace = self.loss(early_stop=False)
        assert outcome.winner is Player.BREAKER
        point = canonical_audit_point(early)
        assert point[0] == early_outcome.decisive_round
        assert trace.rounds_played() > point[0]

        audit, report = audit_game(trace)
        s, vS = point
        assert (audit.s, audit.vS) == point
        first_maker = next(i for i, mv in enumerate(trace.moves)
                           if mv.round == s and mv.player is Player.MAKER)
        board = replay_trace(GameTrace.from_moves(trace.params, trace.seed,
                                                  trace.moves[:first_maker]))
        assert audit.snap_m[s] == DegreeSnapshot(tuple(board.dM),
                                                 tuple(board.dB))

        path = tmp_path / "played-out.json"
        write_trace(path, trace, outcome)
        code = main(["verify", "--trace", str(path)])
        assert code == (0 if report.passed else 1)
        canonical = capsys.readouterr().out
        assert canonical == report.as_text() + "\n"
        assert main(["verify", "--trace", str(path), "--round", str(s),
                     "--vertex", str(vS)]) == code
        assert capsys.readouterr().out == canonical


class TestReplayLegality:
    """A trace built from records checks every claim, as a board would, so
    the audit replays only legal claims."""

    def test_repeated_edge_is_already_claimed(self):
        with pytest.raises(EdgeAlreadyClaimed,
                           match=r"edge \(0, 1\) already belongs to Breaker"):
            scripted_trace(n=5, a=1, b=1, k=1, rounds=[
                ([(0, 1)], [((2, 3), 2)]),
                ([(0, 1)], []),
            ])

    @pytest.mark.parametrize("edge", [(1, 0), (2, 2), (-1, 2), (0, 5)])
    def test_pair_outside_the_board_is_invalid(self, edge):
        with pytest.raises(InvalidParams, match="not a valid pair"):
            scripted_trace(n=5, a=1, b=1, k=1, rounds=[
                ([(0, 1)], [((2, 3), 2)]),
                ([edge], []),
            ])

    @pytest.mark.parametrize("rounds", [
        [([(0, 1)], []), ([(0, 2)], [])],    # a short move before the last
        [([], [((0, 1), 0)])],                # Maker before Breaker
        [([(0, 1), (0, 2)], [])],             # one claim past Breaker's bias
    ])
    def test_records_out_of_move_order_are_invalid(self, rounds):
        with pytest.raises(InvalidParams, match="move_order has claim"):
            scripted_trace(n=5, a=1, b=1, k=1, rounds=rounds)


def outcome_of(run):
    """``run()``'s value, or the type of the package error it raised."""
    try:
        return run()
    except MBGError as exc:
        return type(exc)


@pytest.mark.parametrize("early_stop", [True, False])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("a", [1, 2, 3])
def test_audit_matches_the_reference(a, k, early_stop):
    """Every field and the report of an audit equal the slow reference's,
    at the foreclosure point and at other (s, vS); wins have no audit."""
    n = 14
    params = GameParams(n=n, a=a, b=round(2.5 * a * n / (a + math.log(n))),
                        k=k)
    losses = 0
    for seed in range(4):
        _, trace = play_game(params, make_maker("min-deg", params),
                             make_breaker("random", params), seed=seed,
                             early_stop=early_stop)
        point = _naive.foreclosure_point(trace)
        assert canonical_audit_point(trace) == point
        result = audit_game(trace)
        if point is None:
            assert result is None
            continue
        losses += 1
        audit, report = result
        reference = _naive.audit(trace, *point)
        assert audit == reference
        assert report.as_text() == check_potential_lemmas(reference).as_text()
        for s in {1, point[0] // 2 + 1, trace.rounds_played()}:
            for vS in {0, n // 2, n - 1, point[1]}:
                assert (outcome_of(lambda: reconstruct_multisets(trace, s, vS))
                        == outcome_of(lambda: _naive.audit(trace, s, vS)))
    assert losses
