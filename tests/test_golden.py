"""Golden digest of seeded play.

Seeded traces, audit reports and sweep CSVs are the behavioural contract: a
refactor keeps them byte-identical.  This test plays a fixed set of games,
audits every min-degree loss, runs one clique-box sweep and pins the SHA-256
of everything they print.  When a change alters behaviour on purpose, the
new digest goes here together with the reason in CHANGES.md.
"""

import hashlib

from mbg.audit import audit_game
from mbg.board import GameParams, Player
from mbg.breaker_strategies import make_breaker
from mbg.engine import play_game, trace_to_json
from mbg.errors import MBGError, StrategyInfeasible
from mbg.harness import SweepSpec, run_sweep, trial_seed
from mbg.maker_strategies import make_maker

GOLDEN_DIGEST = "2d02d402bbc2abbaf3c190e6e22aa07cf347402771a2cedb939fb2a23c9c1836"

GOALS = (("min-degree", 1), ("min-degree", 2), ("connectivity", 1))

# Traces of the clique-box Breaker at n = 100 and 200, pinned before its
# moves were claimed as one planned list per move.
CLIQUE_BOX_DIGEST = (
    "ba4e7f1687f6199b7e8929a39ed91a548a6ae1ee93c9bb488e4b573e94a36e75")

# (n, a): biases that give fallbacks, box-play wins and one clique-stage win.
CLIQUE_BOX_BIASES = {(100, 1): (28, 34, 100), (100, 2): (10, 58, 64),
                     (100, 3): (10, 64, 70), (200, 1): (22, 52, 58),
                     (200, 2): (34, 100, 106), (200, 3): (46, 112, 118)}


def _min_deg_games():
    """(params, breaker, seed) of the min-degree Maker's games."""
    for n, biases in ((20, (3, 6)), (40, (6, 11))):
        for goal, k in GOALS:
            for seed in (0, 1):
                for b in biases:
                    yield GameParams(n=n, b=b, k=k, goal=goal), "random", seed
                yield GameParams(n=n, b=n - k, k=k, goal=goal), "isolate", seed
            for b in biases + (n // 2,):
                yield GameParams(n=n, b=b, k=k, goal=goal), "clique-box", 0
    # box-play wins and fallbacks of the clique-box plan
    for b in (8, 12, 20):
        yield GameParams(n=40, b=b), "clique-box", 0


def _records(tmp_path):
    for params, breaker_name, seed in _min_deg_games():
        try:
            breaker = make_breaker(breaker_name, params)
        except StrategyInfeasible as exc:
            yield f"infeasible {params} {breaker_name}: {exc}\n"
            continue
        outcome, trace = play_game(params, make_maker("min-deg", params),
                                   breaker, seed=seed)
        yield trace_to_json(trace, outcome)
        if outcome.winner is Player.BREAKER:
            try:
                audited = audit_game(trace)
            except MBGError as exc:
                yield f"audit {type(exc).__name__}: {exc}\n"
            else:
                yield "no audit\n" if audited is None else audited[1].as_text()

    ham = GameParams(n=14, a=1, b=2, goal="hamiltonicity")
    for i in range(40):
        outcome, trace = play_game(
            ham, make_maker("ham-3stage", ham, degree_target=2),
            make_breaker("random", ham), seed=trial_seed(21, 0, i))
        yield trace_to_json(trace, outcome)

    conn = GameParams(n=20, b=4, goal="connectivity")
    outcome, trace = play_game(conn, make_maker("random", conn),
                               make_breaker("random", conn), seed=5)
    yield trace_to_json(trace, outcome)

    path = tmp_path / "sweep.csv"
    run_sweep(SweepSpec(n=40, a=1, k=1, goal="min-degree",
                        b_values=(8, 12, 16, 20), trials=2,
                        maker="min-deg", breaker="clique-box",
                        master_seed=3, out_path=str(path)))
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    assert lines[0].startswith("# generated ")
    yield "".join(lines[1:])


def test_seeded_play_matches_the_golden_digest(tmp_path, monkeypatch):
    monkeypatch.setenv("MBG_THREADS", "1")
    digest = hashlib.sha256()
    for record in _records(tmp_path):
        digest.update(record.encode("utf-8"))
    assert digest.hexdigest() == GOLDEN_DIGEST


def test_clique_box_play_matches_its_digest():
    digest = hashlib.sha256()
    stages = set()
    for (n, a), biases in CLIQUE_BOX_BIASES.items():
        for b in biases:
            for maker in ("min-deg", "random"):
                params = GameParams(n=n, a=a, b=b)
                breaker = make_breaker("clique-box", params)
                outcome, trace = play_game(
                    params, make_maker(maker, params), breaker, seed=0)
                stages.add(breaker.state.stage)
                digest.update(trace_to_json(trace, outcome).encode("utf-8"))
    assert stages == {"clique", "done", "fallback"}
    assert digest.hexdigest() == CLIQUE_BOX_DIGEST
