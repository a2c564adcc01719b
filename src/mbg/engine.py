"""Game engine: alternating biased moves, early win detection, traces.

A round is one Breaker move (b edge claims) followed by one Maker move
(a edge claims); Breaker moves first.  Strategies hand the engine one edge
per step and the board is updated between steps, so a strategy always sees
the live position.  The engine stops a game the moment its outcome is
certain and records every claim in a replayable trace.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .board import Board, Edge, GameParams, Player
from .errors import (InvalidParams, MBGError, StageBlocked, StrategyViolation,
                     TraceIncompatible)
from .oracles import HAMILTONIAN_CAP, SimpleGraph, is_connected, is_hamiltonian

REASON_GOAL_ACHIEVED = "goal-achieved"
REASON_GOAL_IMPOSSIBLE = "goal-impossible"
REASON_BOARD_EXHAUSTED = "board-exhausted"


@dataclass(frozen=True)
class MoveRecord:
    round: int
    step: int
    player: Player
    edge: Edge
    target: int | None = None


@dataclass
class GameTrace:
    params: GameParams
    seed: int
    moves: list[MoveRecord] = field(default_factory=list)

    def maker_targets(self) -> dict[int, list[int | None]]:
        """Per round, the vertices Maker's strategy aimed at, in step order."""
        out: dict[int, list[int | None]] = {}
        for mv in self.moves:
            if mv.player is Player.MAKER:
                out.setdefault(mv.round, []).append(mv.target)
        return out

    def maker_claims(self) -> int:
        return sum(1 for mv in self.moves if mv.player is Player.MAKER)

    def rounds_played(self) -> int:
        return self.moves[-1].round if self.moves else 0


@dataclass(frozen=True)
class GameOutcome:
    winner: Player
    decisive_round: int
    reason: str
    flags: tuple[str, ...] = ()


def detect_maker_win(board: Board, goal: str, k: int = 1) -> bool:
    """Has Maker's graph already met the goal predicate?"""
    if goal == "min-degree":
        return min(board.dM) >= k
    g = SimpleGraph.from_board(board, Player.MAKER)
    if goal == "connectivity":
        return is_connected(g)
    if goal == "hamiltonicity":
        return is_hamiltonian(g)
    raise InvalidParams(f"unknown goal {goal!r}")


class _DSU:
    """Union-find over Maker's vertices for incremental connectivity."""

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.components = n

    def find(self, x: int) -> int:
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, x: int, y: int) -> None:
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[rx] = ry
            self.components -= 1


def play_game(params: GameParams, maker, breaker, seed: int,
              early_stop: bool = True) -> tuple[GameOutcome, GameTrace]:
    """Play one game to its decision.

    ``maker`` and ``breaker`` are fresh single-game strategy objects
    exposing ``begin_move(board, rng)`` and ``step(board, rng) -> (edge,
    target)``.  The outcome is deterministic in (params, strategies, seed).

    A Maker win is detected incrementally after each Maker claim; a Breaker
    win the moment some vertex can no longer reach the obstruction degree.
    Hamiltonicity, being expensive, is only tested once a Maker claim leaves
    Maker's graph connected with minimum degree at least 2, as every
    Hamiltonian graph is, so the win is still seen at the claim that makes
    it.  With ``early_stop=False`` the board is played out fully and only
    the final predicate decides, which exists so tests can confirm the
    shortcuts are sound.
    """
    import random

    if params.goal == "hamiltonicity" and params.n > HAMILTONIAN_CAP:
        raise InvalidParams(
            f"hamiltonicity games need n <= {HAMILTONIAN_CAP} for exact detection")
    rng = random.Random(seed)
    board = Board(params.n)
    trace = GameTrace(params=params, seed=seed)
    limit = params.foreclosure_limit()
    goal = params.goal

    deficient = params.n  # vertices with dM < k (min-degree goal)
    dsu = _DSU(params.n) if goal != "min-degree" else None

    max_rounds = math.ceil(board.m / (params.a + params.b)) + 1
    decided: GameOutcome | None = None
    round_no = 0

    def maker_won_now() -> bool:
        if goal == "min-degree":
            return deficient == 0
        if dsu.components > 1:
            return False
        if goal == "connectivity":
            return True
        return (min(board.dM) >= 2
                and is_hamiltonian(SimpleGraph.from_board(board, Player.MAKER)))

    while decided is None:
        round_no += 1
        if round_no > max_rounds:
            raise MBGError("round limit exceeded; engine or strategy bug")
        for player, bias, strategy in (
            (Player.BREAKER, params.b, breaker),
            (Player.MAKER, params.a, maker),
        ):
            if board.free_count == 0:
                break
            strategy.begin_move(board, rng)
            for step_no in range(1, bias + 1):
                if board.free_count == 0:
                    break
                try:
                    edge, target = strategy.step(board, rng)
                except StageBlocked:
                    if player is Player.MAKER:
                        # Maker's own plan proves the goal unreachable
                        # (e.g. all crossing edges between his components
                        # are gone), so the game is over.
                        decided = GameOutcome(Player.BREAKER, round_no,
                                              REASON_GOAL_IMPOSSIBLE)
                        break
                    raise
                if not board.is_free(edge):
                    raise StrategyViolation(
                        f"{player.value} returned non-free edge {edge!r}")
                board.claim(player, edge)
                trace.moves.append(MoveRecord(round_no, step_no, player, edge, target))
                u, v = edge
                if player is Player.MAKER:
                    if goal == "min-degree":
                        if board.dM[u] == params.k:
                            deficient -= 1
                        if board.dM[v] == params.k:
                            deficient -= 1
                    else:
                        dsu.union(u, v)
                    if early_stop and maker_won_now():
                        decided = GameOutcome(Player.MAKER, round_no,
                                              REASON_GOAL_ACHIEVED)
                        break
                else:
                    if early_stop and (board.dB[u] > limit
                                       or board.dB[v] > limit):
                        decided = GameOutcome(Player.BREAKER, round_no,
                                              REASON_GOAL_IMPOSSIBLE)
                        break
            if decided is not None:
                break
        if decided is None and board.free_count == 0:
            achieved = detect_maker_win(board, goal, params.k)
            decided = GameOutcome(
                Player.MAKER if achieved else Player.BREAKER,
                round_no, REASON_BOARD_EXHAUSTED)

    flags = []
    for strat in (maker, breaker):
        reason = getattr(strat, "infeasible_reason", None)
        if reason:
            flags.append("strategy-infeasible")
    decided = GameOutcome(decided.winner, decided.decisive_round,
                          decided.reason, tuple(flags))
    return decided, trace


def replay_trace(trace: GameTrace) -> Board:
    """Apply every recorded claim on a fresh board; validates legality."""
    board = Board(trace.params.n)
    for mv in trace.moves:
        board.claim(mv.player, mv.edge)
    return board


def trace_to_json(trace: GameTrace, outcome: GameOutcome | None = None) -> str:
    doc = {
        "params": trace.params.as_dict(),
        "seed": trace.seed,
        "moves": [
            {
                "round": mv.round,
                "step": mv.step,
                "player": mv.player.value,
                "u": mv.edge[0],
                "v": mv.edge[1],
                "target": mv.target,
            }
            for mv in trace.moves
        ],
    }
    if outcome is not None:
        doc["outcome"] = {
            "winner": outcome.winner.value,
            "decisiveRound": outcome.decisive_round,
            "reason": outcome.reason,
            "flags": list(outcome.flags),
        }
    return json.dumps(doc, indent=2) + "\n"


def trace_from_json(text: str) -> tuple[GameTrace, GameOutcome | None]:
    """Parse a trace written by ``trace_to_json``.

    Raises TraceIncompatible when the text is not JSON, a key is missing or
    holds a value of the wrong type, a vertex is not an int, or the moves
    leave engine order: round 1 opens with Breaker's step 1, and each later
    move continues its player's steps up to that player's bias, passes from
    Breaker to Maker's step 1, or opens the next round with Breaker's step 1.
    """
    try:
        doc = json.loads(text)
        params = GameParams.from_dict(doc["params"])
        trace = GameTrace(params=params, seed=doc["seed"])
        players = {p.value: p for p in Player}
        bias = {Player.BREAKER: params.b, Player.MAKER: params.a}
        rnd, player, step = 0, Player.MAKER, 0
        for m in doc["moves"]:
            at = (m["round"], players.get(m["player"]), m["step"])
            if not ((at == (rnd, player, step + 1) and step < bias[player])
                    or at == (rnd + 1, Player.BREAKER, 1)
                    or (at == (rnd, Player.MAKER, 1)
                        and player is Player.BREAKER)):
                raise TraceIncompatible(
                    f"move {len(trace.moves)} (round {at[0]!r}, player "
                    f"{m['player']!r}, step {at[2]!r}) is out of engine order")
            rnd, player, step = at
            u, v, target = m["u"], m["v"], m.get("target")
            if (type(u) is not int or type(v) is not int
                    or not (target is None or type(target) is int)):
                raise TraceIncompatible(
                    f"move {len(trace.moves)} has a non-integer vertex")
            trace.moves.append(MoveRecord(rnd, step, player, (u, v), target))
        outcome = None
        if "outcome" in doc:
            o = doc["outcome"]
            outcome = GameOutcome(
                winner=Player(o["winner"]),
                decisive_round=o["decisiveRound"],
                reason=o["reason"],
                flags=tuple(o.get("flags", ())),
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise TraceIncompatible(
            f"malformed trace: {type(exc).__name__}: {exc}") from exc
    return trace, outcome


def write_trace(path, trace: GameTrace, outcome: GameOutcome | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(trace_to_json(trace, outcome))


def read_trace(path) -> tuple[GameTrace, GameOutcome | None]:
    with open(path, encoding="utf-8") as fh:
        return trace_from_json(fh.read())
