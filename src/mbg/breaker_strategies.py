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


@dataclass
class IsolateState:
    target: int | None = None
    quota: int = 0


def isolate_move(board: Board, params: GameParams, state: IsolateState) -> Edge:
    """One claim of the isolation plan.

    The first call locks onto the lowest Maker-untouched vertex and budgets
    one edge more than the foreclosure limit for it; those claims leave the
    target unable to ever reach the threshold degree.  Calls beyond the quota
    claim the lowest free edge.
    """
    if state.target is None:
        untouched = [v for v in range(board.n) if board.dM[v] == 0]
        state.target = untouched[0] if untouched else 0
        state.quota = params.foreclosure_limit() + 1
    if state.quota > 0:
        edge = board.lowest_free_incident_edge(state.target)
        if edge is not None:
            state.quota -= 1
            return edge
        state.quota = 0
    return board.lowest_free_edge()


class IsolateBreaker(GameStrategy):
    def __init__(self, params: GameParams):
        needed = params.foreclosure_limit() + 1
        if params.b < needed:
            raise StrategyInfeasible(
                f"isolation needs bias >= {needed}, got {params.b}")
        self.params = params
        self.state = IsolateState()

    def step(self, board: Board, rng) -> tuple[Edge, int | None]:
        return isolate_move(board, self.params, self.state), None


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
    """Plan one clique-growing move (up to b edges).

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
    if len(plan) < b:
        # Pad with free edges away from the clique, then with any free edge.
        # Every planned edge touches a member, so the spares are new.
        away = _free_edges_avoiding(board, sum(1 << v for v in state.clique))
        plan.extend(islice(away, b - len(plan)))
        if len(plan) < b:
            used = set(plan)
            plan.extend(islice((e for e in board.free_edges() if e not in used),
                               b - len(plan)))
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

    Moves are planned as a whole in ``begin_move``, and the first ``step``
    of a move hands the engine the still-free rest of the plan as one list,
    which the board claims in one call.  Steps after that (a plan shorter
    than the bias) claim the lowest free edge.  If the plan ever becomes
    impossible (untouched vertices run out, a move exceeds the bias, every
    box is destroyed) the strategy records why, flags the game, and leaves
    the rest of the game to uniform random play (``step`` returns None).
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
        self._plan: list[Edge] = []

    def begin_move(self, board: Board, rng) -> None:
        self._plan = []
        state = self.state
        if state.stage not in ("clique", "box"):
            return
        try:
            if state.stage == "clique":
                plan = clique_building_move(board, self.params, state)
            else:
                plan = box_playing_move(board, self.params, state)
        except (StrategyInfeasible, BoxesExhausted) as exc:
            state.stage = "fallback"
            self.infeasible_reason = str(exc)
            return
        self._plan = plan

    def step(self, board: Board, rng) -> list[Edge] | tuple[Edge, None] | None:
        maker, breaker = board.maker, board.breaker
        plan = [(u, v) for u, v in self._plan
                if not (maker[u] | breaker[u]) >> v & 1]
        self._plan = []
        if plan:
            return plan
        if self.state.stage == "fallback":
            return None
        return board.lowest_free_edge(), None


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
