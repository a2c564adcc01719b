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
from .errors import (EdgeAlreadyClaimed, InvalidParams, MBGError, StageBlocked,
                     StrategyViolation, TraceIncompatible)
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


# Maker's minimum degree that each goal needs before its graph test.
_DEGREE_GATE = {"connectivity": 1, "hamiltonicity": 2}


def detect_maker_win(board: Board, goal: str, k: int = 1) -> bool:
    """Has Maker's graph already met the goal predicate?

    Every goal first needs a minimum Maker degree: k for min-degree, 1 for
    connectivity, 2 for a Hamilton cycle.  Below it the answer is False at
    the cost of one pass over the degrees; past it, the graph test runs.
    """
    need = k if goal == "min-degree" else _DEGREE_GATE.get(goal)
    if need is None:
        raise InvalidParams(f"unknown goal {goal!r}")
    if min(board.dM) < need:
        return False
    if goal == "min-degree":
        return True
    g = SimpleGraph.from_board(board, Player.MAKER)
    return is_connected(g) if goal == "connectivity" else is_hamiltonian(g)


def play_game(params: GameParams, maker, breaker, seed: int,
              early_stop: bool = True) -> tuple[GameOutcome, GameTrace]:
    """Play one game to its decision.

    ``maker`` and ``breaker`` are fresh single-game strategy objects
    exposing ``begin_move(board, rng)`` and ``step(board, rng) -> (edge,
    target)``.  The outcome is deterministic in (params, strategies, seed).

    A Maker win is tested with ``detect_maker_win`` after each Maker claim,
    so it is seen at the claim that makes it; a Breaker win the moment some
    vertex can no longer reach the obstruction degree.  With
    ``early_stop=False`` the board is played out fully and only the final
    predicate decides, which exists so tests can confirm the shortcuts are
    sound.
    """
    import random

    if params.goal == "hamiltonicity" and params.n > HAMILTONIAN_CAP:
        raise InvalidParams(
            f"hamiltonicity games need n <= {HAMILTONIAN_CAP} for exact detection")
    rng = random.Random(seed)
    board = Board(params.n)
    trace = GameTrace(params=params, seed=seed)
    limit = params.foreclosure_limit()
    goal, k = params.goal, params.k

    max_rounds = math.ceil(board.m / (params.a + params.b)) + 1
    decided: GameOutcome | None = None
    round_no = 0
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
                try:
                    board.claim(player, edge)
                except EdgeAlreadyClaimed as exc:
                    raise StrategyViolation(
                        f"{player.value} returned non-free edge {edge!r}"
                    ) from exc
                trace.moves.append(MoveRecord(round_no, step_no, player, edge, target))
                if player is Player.MAKER:
                    if early_stop and detect_maker_win(board, goal, k):
                        decided = GameOutcome(Player.MAKER, round_no,
                                              REASON_GOAL_ACHIEVED)
                        break
                else:
                    u, v = edge
                    if early_stop and (board.dB[u] > limit
                                       or board.dB[v] > limit):
                        decided = GameOutcome(Player.BREAKER, round_no,
                                              REASON_GOAL_IMPOSSIBLE)
                        break
            if decided is not None:
                break
        if decided is None and board.free_count == 0:
            achieved = detect_maker_win(board, goal, k)
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
