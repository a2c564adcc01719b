"""The three benchmark workloads.

Each workload builds its inputs from the run's seed, performs one operation
per ``op(index)`` call through the module attributes a caller of ``mbg``
would use (so the traced run can hook them), and confirms every output with
the independent checks in ``checks.py``.  ``op`` returns what the check
needs; only the ``op`` call is timed.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass, replace

from mbg import audit, breaker_strategies, engine, harness, maker_strategies
from mbg.board import GameParams, Player

from checks import (CheckFailed, check_audit, check_game, check_sweep,
                    csv_body)


@dataclass
class OpResult:
    games: int
    detail: object


class SweepCliqueBox:
    """One ``run_sweep`` call: min-deg against clique-box at n = 200.

    Eight biases spread evenly over [n/ln n, 2n/ln n], one trial each, make
    8 games, short enough for about 16 operations in a run.  The timed
    sweeps run at ``MBG_THREADS=1``: on a 2-vCPU host a two-worker sweep
    competes with everything else on the machine for both CPUs and its
    times spread too far to compare.  Every operation of a run repeats the
    seed's sweep, so each CSV must match the first one, and one run of the
    same spec on a ``MBG_THREADS=2`` pool must match too.
    """

    name = "sweep-cliquebox-200"
    round_size = 1
    workers = 2
    N, TRIALS, BIASES = 200, 1, 8

    def __init__(self, seed: int, out_dir: str) -> None:
        n = self.N
        lo, hi = n / math.log(n), 2 * n / math.log(n)
        b_values = tuple(round(lo + i * (hi - lo) / (self.BIASES - 1))
                         for i in range(self.BIASES))
        self.spec = harness.SweepSpec(
            n=n, a=1, k=1, goal="min-degree", b_values=b_values,
            trials=self.TRIALS, maker="min-deg", breaker="clique-box",
            master_seed=seed)
        self.paths = {t: os.path.join(out_dir, f"sweep-{t}.csv")
                      for t in (1, self.workers)}
        self.threads = 1
        self._body: str | None = None
        self._pool_checked = False

    def op(self, index: int) -> OpResult:
        os.environ["MBG_THREADS"] = str(self.threads)
        path = self.paths[self.threads]
        result = harness.run_sweep(replace(self.spec, out_path=path))
        return OpResult(len(self.spec.b_values) * self.spec.trials, (result, path))

    def check(self, res: OpResult) -> str | None:
        result, path = res.detail
        check_sweep(self.spec, result)
        body = csv_body(path)
        if self._body is None:
            self._body = body
        elif body != self._body:
            raise CheckFailed(f"sweep CSV at MBG_THREADS={self.threads} differs "
                              f"from the first sweep of the same spec")
        self._pool_checked |= self.threads == self.workers
        return None

    def finish(self) -> None:
        if not self._pool_checked:
            self.threads = self.workers
            self.check(self.op(0))
            self.threads = 1

    def summary(self, durations: list[float]) -> list[str]:
        return []


class VerifyLoss:
    """Play a lost min-degree game, write and re-read its trace, audit it.

    n = 200, a = 1, k = 3, b = 80 against the random Breaker: b is about 2.5
    times a * n / (a + ln n), so Breaker wins and there is a loss to audit.
    Game i of a run has seed trial_seed(seed, 0, i).
    """

    name = "verify-loss-200"
    round_size = 1
    params = GameParams(n=200, a=1, b=80, k=3)

    def __init__(self, seed: int, out_dir: str) -> None:
        self.seed = seed
        self.path = os.path.join(out_dir, "trace.json")
        self.bytes = 0
        self.claims = 0

    def op(self, index: int) -> OpResult:
        params = self.params
        maker = maker_strategies.make_maker("min-deg", params)
        breaker = breaker_strategies.make_breaker("random", params)
        outcome, trace = engine.play_game(
            params, maker, breaker, seed=harness.trial_seed(self.seed, 0, index))
        engine.write_trace(self.path, trace, outcome)
        back, back_outcome = engine.read_trace(self.path)
        audited = audit.audit_game(back)
        return OpResult(1, (outcome, trace, back, back_outcome, audited))

    def check(self, res: OpResult) -> str | None:
        outcome, trace, back, back_outcome, audited = res.detail
        check_game(self.params, trace, outcome)
        if (back.params, back.seed, back.moves, back_outcome) != (
                trace.params, trace.seed, trace.moves, outcome):
            raise CheckFailed("the trace read back differs from the trace written")
        if outcome.winner is Player.BREAKER:
            check_audit(self.params, back, audited)
        elif audited is not None:
            raise CheckFailed("audit_game audited a game Maker won")
        self.bytes += os.path.getsize(self.path)
        self.claims += len(trace.moves)
        return None

    def finish(self) -> None:
        pass

    def summary(self, durations: list[float]) -> list[str]:
        return [f"trace_bytes_per_claim {self.bytes / self.claims:.2f} B"]


class Ham3Stage:
    """One Hamiltonicity game: ham-3stage (degree target 2) against random.

    n = 14, a = 1, b = 2.  A round is the forty games with seeds
    trial_seed(21, 0, i), i < 40, in an order drawn from the run's seed.
    The game set does not depend on the seed because two of its games,
    i = 7 and i = 20, fail by late Hamiltonicity detection: a fixed set keeps
    the failed share the same in every run.
    """

    name = "ham-3stage-14"
    round_size = 40
    params = GameParams(n=14, a=1, b=2, goal="hamiltonicity")
    SEEDS = tuple(harness.trial_seed(21, 0, i) for i in range(40))

    def __init__(self, seed: int, out_dir: str) -> None:
        self._rng = random.Random(seed)
        self._order: list[int] = []

    def op(self, index: int) -> OpResult:
        while index >= len(self._order):
            self._order += self._rng.sample(self.SEEDS, len(self.SEEDS))
        params = self.params
        maker = maker_strategies.make_maker("ham-3stage", params, degree_target=2)
        breaker = breaker_strategies.make_breaker("random", params)
        outcome, trace = engine.play_game(params, maker, breaker,
                                          seed=self._order[index])
        return OpResult(1, (outcome, trace))

    def check(self, res: OpResult) -> str | None:
        outcome, trace = res.detail
        return check_game(self.params, trace, outcome)

    def finish(self) -> None:
        pass

    def summary(self, durations: list[float]) -> list[str]:
        count = len(durations)
        if count < 40:
            return [f"op_ms_tail n/a ({count} samples, fewer than 40)"]
        # The highest percentile with at least ten samples beyond it.
        rank = count - 11
        tail = sorted(durations)[rank] * 1e3
        return [f"op_ms_tail {tail:.2f} ms "
                f"(p{100 * (rank + 1) / count:.1f} of {count} samples)"]


WORKLOADS = {cls.name: cls for cls in (SweepCliqueBox, VerifyLoss, Ham3Stage)}
