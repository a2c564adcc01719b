"""End-to-end acceptance suite.

One test per acceptance criterion, so ``pytest -v`` reports a pass/fail
verdict per criterion; each test also prints a bracketed summary line
(visible with ``-s``).  The two game campaigns are module-scoped fixtures
because several criteria share their corpora.
"""

import math
import random
import time
from fractions import Fraction

import pytest

import _naive
from mbg.audit import (audit_game, foreclosed_degree_floor_ok,
                       harmonic_bounds_sweep, losing_round_bound_ok)
from mbg.board import GameParams, Player
from mbg.boxgame import (BoxPlayer, boxmaker_sufficient, canonical_instance,
                         f_box, f_lower_bound, solve_exhaustive)
from mbg.breaker_strategies import IsolateBreaker, make_breaker
from mbg.engine import play_game
from mbg.harness import (SweepSpec, reference_threshold, run_sweep,
                         trial_seed)
from mbg.maker_strategies import make_maker
from mbg.oracles import (SimpleGraph, boosters, connected_components,
                         is_connected, is_hamiltonian, is_k_expander,
                         longest_path_order)


@pytest.fixture(scope="module")
def mindeg_campaign():
    """216 seeded min-degree games across n, a and k; bias near a*n/ln(n)."""
    games = []
    index = 0
    for n in (20, 40, 60):
        for a in (1, 2, 3):
            b = max(1, round(a * n / math.log(n)))
            for k in (1, 2, 3):
                params = GameParams(n=n, a=a, b=b, k=k)
                for _ in range(8):
                    maker = make_maker("min-deg", params)
                    breaker = make_breaker("random", params)
                    outcome, trace = play_game(
                        params, maker, breaker, seed=trial_seed(2026, 0, index))
                    games.append((params, outcome, trace))
                    index += 1
    return games


@pytest.fixture(scope="module")
def ham_campaign():
    """100 seeded (2:1) Hamiltonicity games on n=14 against random play."""
    params = GameParams(n=14, a=2, b=1, goal="hamiltonicity")
    games = []
    for seed in range(100):
        maker = make_maker("ham-3stage", params)
        breaker = make_breaker("random", params)
        outcome, trace = play_game(params, maker, breaker, seed=seed)
        games.append((maker, outcome, trace))
    return games


def test_criterion_01_box_threshold_dominates_lower_bound():
    start = time.monotonic()
    points = 0
    for p in range(2, 51):
        for q in range(1, p):
            for k in range(q + 1, 201):
                assert f_lower_bound(k, p, q) <= f_box(k, p, q), (k, p, q)
                points += 1
    elapsed = time.monotonic() - start
    assert points == 224175
    assert f_box(5, 5, 2) == 30
    assert f_lower_bound(5, 5, 2) == Fraction(53, 2)
    assert elapsed < 60.0
    print(f"[criterion 1] bound holds at {points} grid points, "
          f"f(5;5,2)=30 >= 26.5, {elapsed:.1f}s")


def test_criterion_02_sufficient_budgets_win_the_solver():
    start = time.monotonic()
    sufficient = 0
    wins = 0
    for k in range(1, 6):
        for t in range(k, 13):
            for p in range(1, 4):
                for q in range(1, 4):
                    if not boxmaker_sufficient(k, t, p, q):
                        continue
                    sufficient += 1
                    inst = canonical_instance(
                        k, t, p=p, q=q, first_mover=BoxPlayer.BOXMAKER)
                    wins += solve_exhaustive(inst) is BoxPlayer.BOXMAKER
    elapsed = time.monotonic() - start
    assert sufficient == 220
    assert wins == sufficient
    assert elapsed < 300.0
    print(f"[criterion 2] {wins}/{sufficient} sufficient canonical "
          f"instances won under minimax, {elapsed:.1f}s")


def test_criterion_03_losses_audit_clean(mindeg_campaign):
    breaker_wins = 0
    checks = 0
    failures = 0
    for params, outcome, trace in mindeg_campaign:
        if outcome.winner is not Player.BREAKER:
            continue
        breaker_wins += 1
        result = audit_game(trace)
        assert result is not None, "a lost game must have a foreclosure point"
        audit, report = result
        checks += len(report.checks)
        failures += len(report.failures())
        assert losing_round_bound_ok(trace, audit.s)
        assert foreclosed_degree_floor_ok(audit)
    assert breaker_wins > 0
    assert failures == 0
    print(f"[criterion 3] {breaker_wins} losses audited across "
          f"{len(mindeg_campaign)} games, {checks} checks, 0 failures")


def test_criterion_04_claim_budgets(mindeg_campaign, ham_campaign):
    for params, outcome, trace in mindeg_campaign:
        cap = params.k * params.n + params.a
        assert trace.maker_claims() < cap, (params, trace.maker_claims())
    worst = 0
    for maker, outcome, trace in ham_campaign:
        stage1 = maker.state.claims_in_stage["I"]
        worst = max(worst, stage1)
        assert stage1 <= 16 * 14
    print(f"[criterion 4] min-degree claims stay under k*n+a on "
          f"{len(mindeg_campaign)} games; max stage-I claims {worst} <= 224")


def test_criterion_05_isolation_never_loses():
    total = 0
    breaker_wins = 0
    for n in range(10, 41):
        for k in (1, 2, 3):
            for b in (n - k, n):
                params = GameParams(n=n, a=1, b=b, k=k)
                for seed in range(20):
                    maker = make_maker("min-deg", params)
                    breaker = IsolateBreaker(params)
                    outcome, _ = play_game(params, maker, breaker, seed=seed)
                    total += 1
                    breaker_wins += outcome.winner is Player.BREAKER
    assert total == 3720
    assert breaker_wins == total
    print(f"[criterion 5] isolation won {breaker_wins}/{total} games "
          f"with b >= n-k")


def test_criterion_06_oracles_agree_with_naive_search():
    rng = random.Random(1)
    booster_sets = 0
    certified = 0
    for _ in range(500):
        n = rng.randint(4, 10)
        p = rng.uniform(0.15, 0.55)
        edges = _naive.random_graph_edges(rng, n, p)
        g = SimpleGraph(n, edges)
        assert is_hamiltonian(g) == _naive.hamiltonian_cycle_exists(n, edges)
        assert (longest_path_order(g)
                == _naive.longest_path_vertex_count(n, edges))
        assert is_connected(g) == _naive.connected(n, edges)
        if is_connected(g):
            booster_sets += 1
            assert set(boosters(g).edges) == _naive.booster_edges(n, edges)
        for k in (1, 2):
            check = is_k_expander(g, k)
            assert check.exhaustive
            assert check.holds == _naive.expands_by_two(n, edges, k)
            if check.holds:
                certified += 1
                assert all(len(c) >= 3 * k for c in connected_components(g))
    pete = _naive.petersen_graph()
    assert not is_hamiltonian(pete)
    pete_check = is_k_expander(pete, 1)
    assert pete_check.exhaustive and pete_check.holds
    assert len(boosters(pete).edges) == 30
    print(f"[criterion 6] 500 graphs agree with naive search "
          f"({booster_sets} booster sets, {certified} certified expanders); "
          f"Petersen: non-Hamiltonian 1-expander, 30 boosters")


def test_criterion_07_hamiltonicity_pipeline(ham_campaign):
    order = {"I": 0, "II": 1, "III": 2, "done": 3}
    wins = 0
    for maker, outcome, trace in ham_campaign:
        log = maker.state.stage_log
        assert all(order[x] <= order[y] for x, y in zip(log, log[1:]))
        wins += outcome.winner is Player.MAKER
    assert wins == 100
    print(f"[criterion 7] staged Hamiltonicity won {wins}/100 at n=14 "
          f"(2:1) against random play")


def test_criterion_08_bias_sweep_and_threshold():
    start = time.monotonic()
    spec = SweepSpec(n=40, a=1, k=1, goal="min-degree",
                     b_values=tuple(range(1, 23)), trials=200,
                     maker="min-deg", breaker="random", master_seed=2026)
    result = run_sweep(spec)
    elapsed = time.monotonic() - start
    for lo, hi in zip(result.cells, result.cells[1:]):
        p1, p2 = lo.win_rate, hi.win_rate
        sigma = math.sqrt((p1 * (1 - p1) + p2 * (1 - p2)) / spec.trials)
        assert p2 <= p1 + max(3 * sigma, 1e-9), (lo.b, p1, hi.b, p2)
    est = result.estimated_threshold
    ref = result.reference_curve
    assert est is not None
    assert ref == pytest.approx(reference_threshold(40, 1))
    factor = max(est / ref, ref / est)
    assert factor < 3.0
    assert elapsed < 600.0
    print(f"[criterion 8] win rate non-increasing within 3 sigma over "
          f"b=1..22; threshold {est} vs reference {ref:.2f} "
          f"(factor {factor:.2f}), {elapsed:.1f}s")


def test_criterion_09_harmonic_bounds_to_hundred_thousand():
    violations = harmonic_bounds_sweep(10**5)
    assert violations == []
    print("[criterion 9] harmonic log-sandwich clean up to 100000")


def test_criterion_10_csv_reproducibility(tmp_path, monkeypatch):
    def spec(out):
        return SweepSpec(n=20, a=1, k=1, goal="min-degree",
                         b_values=(2, 4, 6), trials=30, master_seed=7,
                         out_path=out)

    paths = [tmp_path / name for name in ("a.csv", "b.csv", "c.csv")]
    monkeypatch.delenv("MBG_THREADS", raising=False)
    run_sweep(spec(str(paths[0])))
    run_sweep(spec(str(paths[1])))
    monkeypatch.setenv("MBG_THREADS", "2")
    run_sweep(spec(str(paths[2])))

    def body(path):
        comment, rest = path.read_bytes().split(b"\n", 1)
        assert comment.startswith(b"# generated ")
        return rest

    assert body(paths[0]) == body(paths[1]) == body(paths[2])
    print("[criterion 10] CSV bodies byte-identical across repeat runs "
          "and worker pools")
