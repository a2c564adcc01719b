import time
import tracemalloc
from fractions import Fraction

import pytest

from mbg import boxgame
from mbg.audit import harmonic
from mbg.boxgame import (SOLVER_MAX_BALLS, SOLVER_MAX_BOXES, BoxInstance,
                         BoxPlayState, BoxPlayer, boxmaker_balancing_move,
                         boxmaker_sufficient, canonical_instance, f_box,
                         f_lower_bound, solve_exhaustive)
from mbg.errors import (BoxesExhausted, InvalidParams, PreconditionFailed,
                        TooLarge)


class TestThresholdFunction:
    def test_base_cases(self):
        # k <= q: (k-1)(p+1); q < k <= 2q: k*p
        assert f_box(1, 4, 2) == 0
        assert f_box(2, 4, 2) == 5
        assert f_box(3, 4, 2) == 12
        assert f_box(4, 4, 2) == 16

    def test_recursive_case_by_hand(self):
        # f(5;5,2) = floor(5 * (f(3) + 3) / 3) with f(3;5,2) = 15
        assert f_box(3, 5, 2) == 15
        assert f_box(5, 5, 2) == 30

    def test_large_k_needs_no_recursion(self):
        # f(k; 1, 1) = k for every k >= 2
        assert f_box(5000, 1, 1) == 5000

    def test_huge_k_is_refused_before_the_loop(self):
        start = time.perf_counter()
        with pytest.raises(TooLarge, match="f_box capped"):
            f_box(10**9, 1, 1)
        assert time.perf_counter() - start < 0.1

    def test_step_cap_boundary(self, monkeypatch):
        # f_box takes (k-q-1)//q steps: 3 at k = 4q+1 to 5q, 4 at k = 5q+1
        monkeypatch.setattr(boxgame, "F_BOX_MAX_STEPS", 3)
        q = 4
        assert f_box(5 * q, 2, q) == 28
        with pytest.raises(TooLarge):
            f_box(5 * q + 1, 2, q)

    def test_rejects_nonpositive_parameters(self):
        for bad in [(0, 1, 1), (1, 0, 1), (1, 1, 0)]:
            with pytest.raises(InvalidParams):
                f_box(*bad)

    def test_lower_bound_exact_value(self):
        assert f_lower_bound(5, 5, 2) == Fraction(53, 2)

    def test_lower_bound_preconditions(self):
        with pytest.raises(PreconditionFailed):
            f_lower_bound(2, 5, 2)  # k <= q
        with pytest.raises(PreconditionFailed):
            f_lower_bound(5, 2, 2)  # p - q - 1 < 0

    def test_lower_bound_term_cap_boundary(self, monkeypatch):
        # the sum runs to ceil(k/q)-1: 3 at k = 3q+1 to 4q, 4 at k = 4q+1
        monkeypatch.setattr(boxgame, "F_LOWER_BOUND_MAX_TERMS", 3)
        q = 2
        assert f_lower_bound(4 * q, 4, q) == Fraction(103, 3)
        with pytest.raises(TooLarge, match="f_lower_bound capped"):
            f_lower_bound(4 * q + 1, 4, q)

    def test_huge_k_lower_bound_is_refused_before_the_sum(self):
        start = time.perf_counter()
        with pytest.raises(TooLarge, match="f_lower_bound capped"):
            f_lower_bound(10**9, 3, 1)
        assert time.perf_counter() - start < 0.1

    def test_lower_bound_keeps_little_memory_after_a_long_sum(self):
        # the exact partial sums of 1/j grow with lcm(2..j); only the last
        # one may stay alive (all 10^4 of them held about 24 MB)
        f_lower_bound(3, 2, 1)
        tracemalloc.start()
        try:
            value = f_lower_bound(10001, 3, 1)
            current = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert current < 1 << 20
        assert value == 30002 + 10001 * (harmonic(10000) - 1)

    @pytest.mark.parametrize("k,p,q", [
        (3, 2, 1), (10, 3, 1), (7, 4, 2), (50, 6, 3), (123, 9, 4),
    ])
    def test_bound_is_below_the_function(self, k, p, q):
        assert f_box(k, p, q) >= f_lower_bound(k, p, q)

    def test_sufficiency_predicate(self):
        assert boxmaker_sufficient(2, 3, 1, 1)   # t=3 <= f+p = 2+1
        assert not boxmaker_sufficient(2, 4, 1, 1)
        with pytest.raises(InvalidParams):
            boxmaker_sufficient(2, -1, 1, 1)


class TestInstances:
    def test_canonical_split(self):
        inst = canonical_instance(3, 7)
        assert inst.sizes == (3, 2, 2)
        assert inst.canonical
        assert (inst.k, inst.t) == (3, 7)

    def test_canonical_requires_a_ball_per_box(self):
        with pytest.raises(InvalidParams):
            canonical_instance(4, 3)

    def test_uneven_instance_reports_noncanonical(self):
        assert not BoxInstance((4, 1, 1)).canonical

    @pytest.mark.parametrize("kwargs", [
        dict(sizes=()),
        dict(sizes=(0, 2)),
        dict(sizes=(2,), p=0),
        dict(sizes=(2,), q=0),
    ])
    def test_invalid_instances_rejected(self, kwargs):
        with pytest.raises(InvalidParams):
            BoxInstance(**kwargs)


class TestBalancingMove:
    def test_spreads_over_largest_boxes(self):
        state = BoxPlayState(remaining=[3, 3, 2])
        assert boxmaker_balancing_move(state, 2) == [(0, 1), (1, 1)]
        assert state.remaining == [2, 2, 2]
        assert state.won is None

    def test_consecutive_claims_aggregate(self):
        state = BoxPlayState(remaining=[5, 1])
        assert boxmaker_balancing_move(state, 3) == [(0, 3)]
        assert state.remaining == [2, 1]

    def test_finishes_a_small_enough_box(self):
        state = BoxPlayState(remaining=[2, 4], destroyed={1})
        assert boxmaker_balancing_move(state, 3) == [(0, 2)]
        assert state.won == 0
        assert state.remaining[0] == 0

    def test_destroyed_boxes_are_skipped(self):
        state = BoxPlayState(remaining=[9, 2])
        state.destroy(0)
        assert boxmaker_balancing_move(state, 1) == [(1, 1)]

    def test_no_survivors(self):
        state = BoxPlayState(remaining=[1])
        state.destroy(0)
        with pytest.raises(BoxesExhausted):
            boxmaker_balancing_move(state, 1)

    def test_rejects_nonpositive_budget(self):
        with pytest.raises(InvalidParams):
            boxmaker_balancing_move(BoxPlayState(remaining=[2]), 0)


class TestExhaustiveSolver:
    def test_single_reachable_box_wins_immediately(self):
        assert solve_exhaustive(BoxInstance((1,))) is BoxPlayer.BOXMAKER

    def test_single_large_box_is_destroyed(self):
        assert solve_exhaustive(BoxInstance((3,))) is BoxPlayer.BOXBREAKER

    def test_two_twos_lose_for_boxmaker(self):
        assert solve_exhaustive(BoxInstance((2, 2))) is BoxPlayer.BOXBREAKER

    def test_first_mover_matters(self):
        inst = BoxInstance((2, 1), first_mover=BoxPlayer.BOXMAKER)
        assert solve_exhaustive(inst) is BoxPlayer.BOXMAKER
        flipped = BoxInstance((2, 1), first_mover=BoxPlayer.BOXBREAKER)
        assert solve_exhaustive(flipped) is BoxPlayer.BOXBREAKER

    def test_caps(self):
        with pytest.raises(TooLarge):
            solve_exhaustive(BoxInstance((SOLVER_MAX_BALLS + 1,)))
        with pytest.raises(TooLarge):
            solve_exhaustive(BoxInstance((1,) * (SOLVER_MAX_BOXES + 1)))

    def test_matches_sufficiency_on_a_small_grid(self):
        """Where the ball budget is sufficient, the solver must agree."""
        for k in range(1, 4):
            for t in range(k, 9):
                inst = canonical_instance(k, t, p=2, q=1)
                if boxmaker_sufficient(k, t, 2, 1):
                    assert solve_exhaustive(inst) is BoxPlayer.BOXMAKER
