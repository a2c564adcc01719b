"""Breaker-side strategies.

``IsolateBreaker`` is the trivial high-bias play: bury one untouched vertex
under n - k Breaker edges on the opening move.  ``CliqueBoxBreaker`` is the
two-phase plan that works at much lower bias: grow a Breaker clique of
untouched vertices, then treat the free edges at each clique vertex as boxes
and win the resulting box game.  ``RandomBreaker`` is the noise baseline.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import combinations, islice

from .board import Board, Edge, GameParams
from .boxgame import BoxPlayState, boxmaker_balancing_move
from .errors import BoxesExhausted, InvalidParams, StrategyInfeasible
from .maker_strategies import GameStrategy


def _filled(board: Board, plan: list[Edge], size: int) -> list[Edge]:
    """``plan`` extended in place, up to ``size`` edges, with the lowest
    free edges not in it; it stays shorter only once no free edge is left.

    A Breaker move is min(b, free edges) free edges, so every plan that can
    come up short is finished here.
    """
    if len(plan) < size:
        used = set(plan)
        plan.extend(islice((e for e in board.free_edges() if e not in used),
                           size - len(plan)))
    return plan


class IsolateBreaker(GameStrategy):
    """Bury one vertex on the opening move.

    The first move locks onto the lowest Maker-untouched vertex and claims
    its lowest foreclosure_limit() + 1 free edges, which leave it unable to
    ever reach the threshold degree; the rest of that move, and every later
    move, is the lowest free edges.
    """

    def __init__(self, params: GameParams):
        needed = params.foreclosure_limit() + 1
        if params.b < needed:
            raise StrategyInfeasible(
                f"isolation needs bias >= {needed}, got {params.b}")
        self.params = params
        self.target: int | None = None

    def step(self, board: Board, rng) -> list[Edge]:
        plan: list[Edge] = []
        if self.target is None:
            self.target = next(
                (v for v in range(board.n) if board.dM[v] == 0), 0)
            quota = self.params.foreclosure_limit() + 1
            plan = board.free_incident_edges(self.target)[:quota]
        return _filled(board, plan, self.params.b)


def clique_size_target(n: int, a: int) -> int:
    """Size at which the Breaker clique switches to box play."""
    return math.ceil(n / (2 * (a + math.log(n))))


@dataclass
class CliquePlanState:
    """Plan state of the clique-then-boxes Breaker.

    ``clique`` holds the current candidate vertices (Maker-untouched, pairwise
    joined by Breaker edges).  Once it reaches ``h`` vertices the plan freezes
    ``v_star`` (the h - a lowest candidates) and a box of free edges per
    chosen vertex; emptying any box forecloses that vertex.  The box at v is
    a row mask: bit w stands for the edge vw.
    """

    h: int
    stage: str = "clique"
    clique: list[int] = field(default_factory=list)
    v_star: list[int] | None = None
    boxes: dict[int, int] | None = None
    finished_vertex: int | None = None


def clique_building_move(board: Board, params: GameParams,
                         state: CliquePlanState) -> list[Edge]:
    """Plan one clique-growing move (at most b edges, fewer only when few
    free edges avoid the clique).

    Candidates Maker has touched since the last move are pruned first; Maker
    can touch at most one candidate per claimed edge (candidate pairs are all
    Breaker edges), so adding a + 1 fresh vertices grows the clique by at
    least one per move.  When the clique reaches h vertices the move is
    handed to box play instead.
    """
    a, b = params.a, params.b
    state.clique = [v for v in state.clique if board.dM[v] == 0]
    if len(state.clique) >= state.h:
        _freeze_boxes(board, params, state)
        state.stage = "box"
        return box_playing_move(board, params, state)
    members = set(state.clique)
    fresh: list[int] = []
    for v in range(board.n):
        if board.dM[v] == 0 and v not in members:
            fresh.append(v)
            if len(fresh) == a + 1:
                break
    if len(fresh) < a + 1:
        raise StrategyInfeasible(
            f"only {len(fresh)} untouched vertices left, need {a + 1}")
    wanted = list(combinations(fresh, 2))
    wanted += [(u, v) if u < v else (v, u)
               for v in fresh for u in state.clique]
    plan = [e for e in sorted(wanted) if board.is_free(e)]
    if len(plan) > b:
        raise StrategyInfeasible(
            f"joining {a + 1} vertices needs {len(plan)} edges, bias is {b}")
    state.clique.extend(fresh)
    # Pad with free edges away from the clique.  Every planned edge touches
    # a member, so the spares are new.
    away = _free_edges_avoiding(board, sum(1 << v for v in state.clique))
    plan.extend(islice(away, b - len(plan)))
    return plan


def _free_edges_avoiding(board: Board, avoid: int) -> Iterator[Edge]:
    """Free edges with neither endpoint in the vertex mask ``avoid``, in
    lexicographic order, generated lazily."""
    for u in range(board.n - 1):
        if avoid >> u & 1:
            continue
        row = (board.free_row(u) & ~avoid) >> (u + 1)
        while row:
            low = row & -row
            row ^= low
            yield u, u + low.bit_length()


def _freeze_boxes(board: Board, params: GameParams,
                  state: CliquePlanState) -> None:
    """Keep the h - a lowest clique vertices and give each one a box.

    The box at v holds its lowest foreclosure_limit() + 1 - dB(v) free
    edges: claiming all of them forecloses v.  A kept vertex is Maker-
    untouched and its clique edges are Breaker's, so it has at least that
    many free edges (the threshold degree is at least one), all leaving the
    clique, and no free edge lies in two boxes.
    """
    keep = state.h - params.a
    if keep < 1 or len(state.clique) < keep:
        raise StrategyInfeasible(
            f"cannot keep {keep} of {len(state.clique)} clique vertices")
    state.v_star = sorted(state.clique)[:keep]
    limit = params.foreclosure_limit()
    state.boxes = {v: _lowest_bits(board.free_row(v), limit + 1 - board.dB[v])
                   for v in state.v_star}


def _lowest_bits(mask: int, count: int) -> int:
    """The ``count`` lowest set bits of ``mask``."""
    out = 0
    for _ in range(count):
        low = mask & -mask
        out |= low
        mask ^= low
    return out


def box_playing_move(board: Board, params: GameParams,
                     state: CliquePlanState) -> list[Edge]:
    """Plan one box-game move with the balancing rule, bias b as the budget.

    A box is destroyed the moment Maker owns any edge in it.  Emptying a box
    pushes its vertex one edge past the foreclosure limit, so Maker can no
    longer reach the threshold degree there; the engine's detection ends the
    game on that claim.
    """
    boxes = state.boxes
    assert boxes is not None
    order = []
    for v in sorted(boxes):
        if board.maker[v] & boxes[v]:
            del boxes[v]
        else:
            order.append(v)
    if not boxes:
        raise BoxesExhausted("Maker holds an edge in every remaining box")
    play = BoxPlayState(remaining=[boxes[v].bit_count() for v in order])
    plan: list[Edge] = []
    for idx, count in boxmaker_balancing_move(play, params.b):
        v = order[idx]
        box = boxes[v]
        for _ in range(count):
            low = box & -box
            box ^= low
            w = low.bit_length() - 1
            plan.append((w, v) if w < v else (v, w))
        boxes[v] = box
    if play.won is not None:
        state.finished_vertex = order[play.won]
        state.stage = "done"
    return plan


class CliqueBoxBreaker(GameStrategy):
    """Clique growth followed by box play.

    Each ``step`` plans the whole move and returns it as one list, which
    the board claims in one call; a plan shorter than the bias, such as the
    move that empties a box, is filled with the lowest free edges.  If the
    plan ever becomes impossible (untouched vertices run out, a move exceeds
    the bias, every box is destroyed) the strategy records why, flags the
    game, and leaves the rest of the game to uniform random play (``step``
    returns None).
    """

    def __init__(self, params: GameParams):
        a, b, n = params.a, params.b, params.n
        h = clique_size_target(n, a)
        join_cost = a * (a + 1) // 2
        if h <= a:
            raise StrategyInfeasible(
                f"clique target {h} must exceed a={a} to leave box vertices")
        if b < join_cost:
            raise StrategyInfeasible(
                f"bias {b} cannot pay the {join_cost}-edge opening join")
        # A kept vertex carries at least h - 1 Breaker clique edges.
        if params.foreclosure_limit() + 1 < h:
            raise StrategyInfeasible(
                f"boxes would be empty at n={n}, h={h}, k={params.k}")
        self.params = params
        self.state = CliquePlanState(h=h)
        self.infeasible_reason: str | None = None

    def step(self, board: Board, rng) -> list[Edge] | None:
        state = self.state
        plan: list[Edge] = []
        try:
            if state.stage == "clique":
                plan = clique_building_move(board, self.params, state)
            elif state.stage == "box":
                plan = box_playing_move(board, self.params, state)
        except (StrategyInfeasible, BoxesExhausted) as exc:
            state.stage = "fallback"
            self.infeasible_reason = str(exc)
        if state.stage == "fallback":
            return None
        return _filled(board, plan, self.params.b)


class RandomBreaker(GameStrategy):
    def __init__(self, params: GameParams):
        self.params = params

    def step(self, board: Board, rng) -> None:
        return None


_BREAKERS = {"isolate": IsolateBreaker, "clique-box": CliqueBoxBreaker,
             "random": RandomBreaker}
BREAKER_STRATEGIES = tuple(_BREAKERS)


def make_breaker(name: str, params: GameParams) -> GameStrategy:
    cls = _BREAKERS.get(name)
    if cls is None:
        raise InvalidParams(
            f"unknown breaker strategy {name!r}; expected one of {BREAKER_STRATEGIES}")
    return cls(params)
