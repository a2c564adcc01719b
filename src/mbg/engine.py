"""Game engine: alternating biased moves, early win detection, traces.

Moves follow ``move_order``: each round is one Breaker move (b edge claims)
followed by one Maker move (a edge claims).  Maker hands the engine one edge
per step and the board is updated between steps, so Maker always sees the
live position.  Breaker hands over its whole move as one list, which the
board claims in one call (``Board.claim_many``).  Either side may leave its
move to uniform random play instead; the board then draws and claims those
edges itself (``Board.claim_random``).  The engine stops a game the moment
its outcome is certain.  Its trace is the board's own claim log, the pool
slots of every claim in order (``Board.claimed_slots``), read once when play
ends, plus the targets Maker named.
"""

from __future__ import annotations

import gc
import itertools
import json
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import NamedTuple

from .board import (MAKER, Board, Edge, GameParams, Player, row_tables,
                    slot_edges)
from .errors import (EdgeAlreadyClaimed, InvalidParams, StageBlocked,
                     StrategyViolation, TraceIncompatible)
from .oracles import HAMILTONIAN_CAP, SimpleGraph, is_connected, is_hamiltonian

REASON_GOAL_ACHIEVED = "goal-achieved"
REASON_GOAL_IMPOSSIBLE = "goal-impossible"
REASON_BOARD_EXHAUSTED = "board-exhausted"

# Version of the trace text; ``trace_from_json`` reads only this one.
TRACE_FORMAT = 2


class MoveRecord(NamedTuple):
    """One claim of a trace, spelled out; a named tuple."""

    round: int
    step: int
    player: Player
    edge: Edge
    target: int | None = None


# ``GameTrace.moves`` builds a record as ``_new_tuple(MoveRecord, (round,
# step, player, edge, target))``: tuple.__new__ runs in C, while the named
# tuple's own __new__ is a Python function, a frame per record.
_new_tuple = tuple.__new__


@contextmanager
def _collector_paused():
    """Run the block, or the decorated function, with automatic cyclic
    garbage collection off.

    The sections that use it allocate a tracked object per claim (JSON
    rows, audit tuples, records) but create no reference cycles, so a
    collection inside them walks every object made so far and frees
    nothing.  The switch is process-global: a thread running meanwhile goes
    without automatic collection too.  On exit, by return or raise,
    collection is switched back on only if it was on at entry.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@dataclass
class GameTrace:
    """The claims of one game.

    ``slots`` holds the board's pool slot of each claim, in claim order,
    and ``targets`` the vertex Maker aimed each planned claim at, keyed by
    claim index.  A claim's round, step and player follow from its index
    through ``move_order``, since only a game's last move can be short, and
    its edge from its slot through ``slot_edges``.  The slots are trusted:
    play, ``trace_from_json`` and ``from_moves`` make only legal ones.
    """

    params: GameParams
    seed: int
    slots: list[int] = field(default_factory=list)
    targets: dict[int, int] = field(default_factory=dict)
    _moves: list[MoveRecord] | None = field(default=None, init=False,
                                            repr=False, compare=False)

    def __post_init__(self) -> None:
        if type(self.seed) is not int:
            raise InvalidParams(f"seed must be an int, got {self.seed!r}")

    @classmethod
    def from_moves(cls, params: GameParams, seed: int,
                   records) -> "GameTrace":
        """The trace whose claims are ``records``, in ``move_order``.

        Claims them on a board, so an edge claimed twice raises
        EdgeAlreadyClaimed and a pair that is not 0 <= u < v < n raises
        InvalidParams; so does a record whose round, step and player are
        not those of the next claim in ``move_order``.
        """
        board, targets = Board(params.n), {}
        order = ((rnd, step, player)
                 for rnd, player, bias in move_order(params.a, params.b)
                 for step in range(1, bias + 1))
        for index, (record, expected) in enumerate(zip(records, order)):
            rnd, step, player, edge, target = record
            if (rnd, step, player) != expected:
                raise InvalidParams(
                    f"record {index} is claim {step} of {player.value} in "
                    f"round {rnd}; move_order has claim {expected[1]} of "
                    f"{expected[2].value} in round {expected[0]}")
            board.claim(player, edge)
            if target is not None:
                targets[index] = target
        return cls(params, seed, board.claimed_slots(), targets)

    @property
    def moves(self) -> list[MoveRecord]:
        """Every claim as a ``MoveRecord``, in claim order; built on the
        first read and the same list on every later one."""
        if self._moves is None:
            targets = self.targets
            with _collector_paused():
                edges = slot_edges(self.params.n, self.slots)
                self._moves = [
                    _new_tuple(MoveRecord, (rnd, index - first + 1, player,
                                            edges[index], targets.get(index)))
                    for rnd, player, first, end in self.move_spans()
                    for index in range(first, end)]
        return self._moves

    def move_spans(self) -> Iterator[tuple[int, Player, int, int]]:
        """(round, player, first, end) of every move, in ``move_order``:
        the move's claims are those with index first..end-1."""
        claims, first = len(self.slots), 0
        for rnd, player, bias in move_order(self.params.a, self.params.b):
            if first >= claims:
                return
            end = min(first + bias, claims)
            yield rnd, player, first, end
            first = end

    def maker_claims(self) -> int:
        a, b = self.params.a, self.params.b
        rounds, rest = divmod(len(self.slots), a + b)
        return rounds * a + max(0, rest - b)

    def rounds_played(self) -> int:
        return -(-len(self.slots) // (self.params.a + self.params.b))


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


def move_order(a: int, b: int) -> Iterator[tuple[int, Player, int]]:
    """The (a:b) move order: (round, player, bias) of every move, without end.

    Breaker moves first, and round r is Breaker's move of b claims followed
    by Maker's move of a claims.  The engine plays in this order and a trace
    is read back in it.
    """
    for round_no in itertools.count(1):
        yield round_no, Player.BREAKER, b
        yield round_no, Player.MAKER, a


def play_game(params: GameParams, maker, breaker, seed: int,
              early_stop: bool = True) -> tuple[GameOutcome, GameTrace]:
    """Play one game to its decision.

    ``maker`` and ``breaker`` are fresh single-game strategy objects
    exposing ``step(board, rng)``.  Maker's step is called once per claim
    and returns ``(edge, target)``, or None for one uniformly random claim
    drawn from the game's ``rng``.  Breaker's step is called once per move
    and returns the whole move, a list of exactly min(b, free edges) free
    edges that one ``Board.claim_many`` call claims in order; or None for a
    uniformly random move, made by one ``Board.claim_random`` call.  Both
    calls stop after a foreclosing claim.  Each claimed edge is one step of
    the trace, and only Maker's planned claims carry a target.  A taken
    edge, a Breaker tuple, a Breaker list of another length or a Maker list
    raises StrategyViolation; a seed that is not an int raises
    InvalidParams.  The outcome is deterministic in (params, strategies,
    seed).

    A Maker win is tested with ``detect_maker_win`` after each Maker claim,
    so it is seen at the claim that makes it; a Breaker win the moment some
    vertex can no longer reach the obstruction degree.  With
    ``early_stop=False`` the board is played out fully and only the final
    predicate decides, which exists so tests can confirm the shortcuts are
    sound.
    """
    import random

    if type(seed) is not int:
        raise InvalidParams(f"seed must be an int, got {seed!r}")
    if params.goal == "hamiltonicity" and params.n > HAMILTONIAN_CAP:
        raise InvalidParams(
            f"hamiltonicity games need n <= {HAMILTONIAN_CAP} for exact detection")
    board, targets = Board(params.n), {}
    winner, decisive_round, reason = _play(params, board, targets, maker,
                                           breaker, random.Random(seed),
                                           early_stop)
    flags = tuple("strategy-infeasible" for strat in (maker, breaker)
                  if getattr(strat, "infeasible_reason", None))
    trace = GameTrace(params, seed, board.claimed_slots(), targets)
    return GameOutcome(winner, decisive_round, reason, flags), trace


def _play(params: GameParams, board: Board, targets: dict[int, int], maker,
          breaker, rng, early_stop: bool) -> tuple[Player, int, str]:
    """(winner, decisive round, reason) of the game played on ``board``.

    Every move claims at least one free edge or raises, so the board is
    exhausted within m claims.  The board logs the claims; ``targets``
    gets the target of each planned Maker claim, by claim index.
    """
    limit = params.foreclosure_limit()
    # Runs of random or planned claims stop at a foreclosure only when the
    # engine would act on it.
    run_limit = limit if early_stop else params.n
    goal, k = params.goal, params.k
    dB, last_slot = board.dB, board.m - 1
    try:
        for round_no, player, bias in move_order(params.a, params.b):
            if board.free_count == 0:
                achieved = detect_maker_win(board, goal, k)
                # Breaker opens each round, so this round was played only
                # if the board ran out at Maker's move.
                played = round_no if player is MAKER else round_no - 1
                return (Player.MAKER if achieved else Player.BREAKER,
                        played, REASON_BOARD_EXHAUSTED)
            if player is MAKER:
                # One claim per step, each tested for a win.
                for _ in range(min(bias, board.free_count)):
                    try:
                        move = maker.step(board, rng)
                    except StageBlocked:
                        # Maker's own plan proves the goal unreachable (e.g.
                        # every edge between two of its components is gone).
                        return Player.BREAKER, round_no, REASON_GOAL_IMPOSSIBLE
                    if move is None:
                        board.claim_random(MAKER, rng, 1, run_limit)
                    elif type(move) is list:
                        raise StrategyViolation(
                            "a Maker step returns (edge, target) or None, "
                            "not a list")
                    else:
                        edge, target = move
                        board.claim(MAKER, edge)
                        if target is not None:
                            targets[last_slot - board.free_count] = target
                    if early_stop and detect_maker_win(board, goal, k):
                        return Player.MAKER, round_no, REASON_GOAL_ACHIEVED
                continue
            # Breaker's whole move is one board call, which stops after a
            # foreclosing claim.
            move = breaker.step(board, rng)
            if move is None:
                edges = board.claim_random(player, rng, bias, run_limit)
            else:
                size = min(bias, board.free_count)
                if type(move) is not list or len(move) != size:
                    shape = (f"{len(move)} edges" if type(move) is list
                             else type(move).__name__)
                    raise StrategyViolation(
                        f"a Breaker step returns {size} free edges in a list "
                        f"or None, got {shape}")
                edges = board.claim_many(player, move, run_limit)
            u, v = edges[-1]
            if early_stop and (dB[u] > limit or dB[v] > limit):
                return Player.BREAKER, round_no, REASON_GOAL_IMPOSSIBLE
    except EdgeAlreadyClaimed as exc:
        raise StrategyViolation(
            f"{player.value} returned a non-free edge: {exc}") from exc


def replay_trace(trace: GameTrace) -> Board:
    """Apply every recorded claim on a fresh board; validates legality."""
    n = trace.params.n
    board = Board(n)
    edges = slot_edges(n, trace.slots)
    for _, player, first, end in trace.move_spans():
        board.claim_many(player, edges[first:end], n)
    return board


@_collector_paused()
def trace_to_json(trace: GameTrace, outcome: GameOutcome | None = None) -> str:
    """Format-2 text of a trace: one ``[u, v]`` or ``[u, v, target]`` row per
    claim, in ``move_order``; round, step and player follow from (a, b)."""
    rows = slot_edges(trace.params.n, trace.slots)
    for index, target in trace.targets.items():
        rows[index] += (target,)
    doc = {
        "format": TRACE_FORMAT,
        "params": trace.params.as_dict(),
        "seed": trace.seed,
        "moves": rows,
    }
    if outcome is not None:
        doc["outcome"] = {
            "winner": outcome.winner.value,
            "decisiveRound": outcome.decisive_round,
            "reason": outcome.reason,
            "flags": list(outcome.flags),
        }
    return json.dumps(doc, separators=(",", ":")) + "\n"


def _typed(doc: dict, path: str, kind: type):
    """The value at ``path`` (keys joined by dots) in ``doc``.

    Raises TraceIncompatible naming the path unless the value's type is
    exactly ``kind``: a bool is not an int, nor a float.
    """
    value = doc
    for key in path.split("."):
        value = value[key]
    if type(value) is not kind:
        raise TraceIncompatible(
            f"{path} is {type(value).__name__}, not {kind.__name__}")
    return value


@_collector_paused()
def trace_from_json(text: str) -> tuple[GameTrace, GameOutcome | None]:
    """Parse a trace written by ``trace_to_json``.

    Each row is matched with the next claim of ``move_order(a, b)``.
    Raises TraceIncompatible when the text is not a JSON object of the
    current format, a key is missing or holds a value of the wrong type
    (the seed, n, a, b, k and the decisive round are ints, the goal and
    reason strings, the flags a list of strings), a row is not a list of two
    vertices and an optional target, all ints (a bool or a float is not
    one), a row's vertices are not ``0 <= u < v < n`` (the order the board
    stores), a target is not one of its row's two vertices, or a row
    repeats the edge of an earlier row; a row failing several of these is
    reported by the first.
    """
    try:
        doc = json.loads(text)
        if not isinstance(doc, dict) or doc.get("format") != TRACE_FORMAT:
            raise TraceIncompatible(
                f"not a format-{TRACE_FORMAT} trace; play the game again "
                "to write one")
        for key in ("n", "a", "b", "k"):
            _typed(doc, f"params.{key}", int)
        _typed(doc, "params.goal", str)
        params = GameParams.from_dict(doc["params"])
        trace = GameTrace(params, _typed(doc, "seed", int))
        n, slots, targets = params.n, trace.slots, trace.targets
        shifts = row_tables(n)[1]
        # One flag per pool slot: set once its edge is read.
        claimed = bytearray(params.edge_total)
        for index, row in enumerate(_typed(doc, "moves", list)):
            if type(row) is list and len(row) == 2:
                u, v = row
                target = None
            elif type(row) is list and len(row) == 3 and type(row[2]) is int:
                u, v, target = row
            else:
                u = v = None
            if type(u) is not int or type(v) is not int:
                raise TraceIncompatible(
                    f"move {index} is not a row of 2 or 3 ints")
            if not 0 <= u < v < n:
                raise TraceIncompatible(
                    f"move {index} is ({u}, {v}), not 0 <= u < v < {n}")
            if target is not None:
                if target != u and target != v:
                    raise TraceIncompatible(
                        f"move {index} targets {target}, not an endpoint")
                targets[index] = target
            slot = shifts[u] + v
            if claimed[slot]:
                raise TraceIncompatible(
                    f"move {index} repeats the edge ({u}, {v}) of "
                    f"move {slots.index(slot)}")
            claimed[slot] = 1
            slots.append(slot)
        outcome = None
        if "outcome" in doc:
            o = _typed(doc, "outcome", dict)
            flags = _typed(doc, "outcome.flags", list) if "flags" in o else []
            if not all(type(flag) is str for flag in flags):
                raise TraceIncompatible("outcome.flags holds a non-string")
            outcome = GameOutcome(
                winner=Player(o["winner"]),
                decisive_round=_typed(doc, "outcome.decisiveRound", int),
                reason=_typed(doc, "outcome.reason", str),
                flags=tuple(flags),
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
