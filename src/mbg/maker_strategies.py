"""Maker-side strategies.

The shared primitive is the danger of a vertex, D(v) = dB(v) - (2b/a) dM(v),
compared through its integer scaling a*D(v) = a*dB(v) - 2b*dM(v).

``MinDegMaker`` eases the most endangered vertex that still needs degree and
wins min-degree games; ``Ham3StageMaker`` builds a Hamilton cycle in three
stages (raise all degrees, connect the components, then claim boosters).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .board import Board, Edge, GameParams, Player
from .errors import InvalidParams, StageBlocked
from .oracles import (SimpleGraph, boosters, connected_components,
                      is_hamiltonian)

# Default Maker degree that stage I of the Hamiltonicity strategy raises
# every vertex to; a lower ``degree_target`` lets small boards reach stages
# II and III.
DEGREE_TARGET = 16


class GameStrategy:
    """Base contract: one instance per game, one ``step`` per claim or move.

    A Maker's ``step`` is called once per claim and returns ``(edge,
    target)``, or None for one uniformly random claim.  A Breaker's is
    called once per move and returns the whole move, a list of exactly
    min(b, free edges) free edges, or None for a uniformly random move.
    The engine claims and draws the edges on the board itself.
    """

    infeasible_reason: str | None = None

    def begin_move(self, board: Board, rng) -> None:  # pragma: no cover
        """No-op kept for callers that wrap it; the engine never calls it."""

    def step(self, board: Board,
             rng) -> tuple[Edge, int | None] | list[Edge] | None:
        raise NotImplementedError


def most_endangered(board: Board, params: GameParams, below: int) -> int | None:
    """Lowest vertex of maximal danger among those that still need degree.

    Candidates have Maker degree under ``below`` and a free incident edge;
    danger is compared as a*D(v) = a*dB(v) - 2b*dM(v).  None when no
    vertex qualifies.
    """
    a, b = params.a, params.b
    dM, dB = board.dM, board.dB
    full = board.n - 1
    target: int | None = None
    best_key = 0
    for v in range(board.n):
        m = dM[v]
        if m < below and m + dB[v] < full:
            key = a * dB[v] - 2 * b * m
            if target is None or key > best_key:
                best_key = key
                target = v
    return target


def min_deg_step(board: Board, params: GameParams) -> tuple[Edge, int | None]:
    """One claim of the min-degree strategy.

    A vertex is dangerous while its Maker degree is under the goal's
    threshold degree.  Ease the most endangered dangerous vertex with a free
    edge (lowest index on ties) by claiming its lowest free edge.  If none is
    left the goal is already decided; claim the lowest free edge so the game
    can run on.
    """
    target = most_endangered(board, params, params.threshold_degree())
    if target is None:
        return board.lowest_free_edge(), None
    return board.lowest_free_incident_edge(target), target


class MinDegMaker(GameStrategy):
    def __init__(self, params: GameParams):
        self.params = params

    def step(self, board: Board, rng) -> tuple[Edge, int | None]:
        return min_deg_step(board, self.params)


_STAGES = ("I", "II", "III", "done")


@dataclass
class HamMakerState:
    """Where the Hamiltonicity strategy stands: its stage and claim counts."""

    degree_target: int = DEGREE_TARGET
    stage: str = "I"
    claims_in_stage: dict[str, int] = field(
        default_factory=lambda: {s: 0 for s in _STAGES})
    stage_log: list[str] = field(default_factory=lambda: ["I"])


def ham_stage1_step(board: Board, params: GameParams, degree_target: int,
                    rng) -> tuple[Edge, int] | None:
    """Stage I: raise every Maker degree to the target.

    Pick the most endangered vertex under the degree target that still has a
    free edge (lowest index on ties) and claim a uniformly random free edge
    at it.  None once no such vertex is left.
    """
    target = most_endangered(board, params, degree_target)
    if target is None:
        return None
    free = board.free_incident_edges(target)
    return free[rng.randrange(len(free))], target


def ham_stage2_move(board: Board) -> tuple[Edge, None] | None:
    """Stage II: merge Maker's components, smallest pair first.

    Claims the lowest-index free edge between the two smallest components,
    falling back to any component pair that still has a free crossing edge.
    None once Maker's graph is connected.  Raises StageBlocked when every
    crossing edge of every pair is Breaker's, which proves Maker's graph can
    never become connected.
    """
    comps = connected_components(SimpleGraph.from_board(board, Player.MAKER))
    if len(comps) == 1:
        return None
    comps.sort(key=lambda c: (len(c), c[0]))
    for comp1, comp2 in combinations(comps, 2):
        edge = _lowest_crossing_free_edge(board, comp1, comp2)
        if edge is not None:
            return edge, None
    raise StageBlocked("no free edge crosses any pair of Maker components")


def _lowest_crossing_free_edge(board: Board, comp1, comp2) -> Edge | None:
    """The lexicographically lowest free edge with one end in each set."""
    mask1 = sum(1 << v for v in comp1)
    mask2 = sum(1 << v for v in comp2)
    for u in sorted(comp1 + comp2):
        other = mask2 if mask1 >> u & 1 else mask1
        ahead = board.free_row(u) & other >> (u + 1) << (u + 1)
        if ahead:
            return u, (ahead & -ahead).bit_length() - 1
    return None


def ham_stage3_move(board: Board) -> tuple[Edge, None] | None:
    """Stage III: claim boosters until the graph is Hamiltonian.

    Boosters are recomputed from the current Maker graph on every call, so
    each claim is made against the live position.  None once the graph is
    Hamiltonian.  Raises StageBlocked when boosters exist but Breaker owns
    them all.
    """
    g = SimpleGraph.from_board(board, Player.MAKER)
    if is_hamiltonian(g):
        return None
    for e in sorted(boosters(g).edges):
        if board.is_free(e):
            return e, None
    raise StageBlocked("every booster of Maker's graph is Breaker-claimed")


class Ham3StageMaker(GameStrategy):
    """Driver for the three-stage Hamiltonicity plan.

    The only code that advances the stage: past each finished stage, so
    stages only move forward.  A blocked stage II proves that connection is
    impossible and propagates.  A blocked stage III does not give up: new
    boosters appear as the graph grows, so the driver claims a filler edge,
    counted in no stage, and retries stage III on the next step.
    """

    def __init__(self, params: GameParams, degree_target: int = DEGREE_TARGET):
        if degree_target < 1:
            raise InvalidParams(f"degree target must be >= 1, got {degree_target}")
        self.params = params
        self.state = HamMakerState(degree_target=degree_target)

    def step(self, board: Board, rng) -> tuple[Edge, int | None]:
        state = self.state
        try:
            while state.stage != "done":
                if state.stage == "I":
                    move = ham_stage1_step(board, self.params,
                                           state.degree_target, rng)
                elif state.stage == "II":
                    move = ham_stage2_move(board)
                else:
                    move = ham_stage3_move(board)
                if move is not None:
                    state.claims_in_stage[state.stage] += 1
                    return move
                state.stage = _STAGES[_STAGES.index(state.stage) + 1]
                state.stage_log.append(state.stage)
        except StageBlocked:
            if state.stage != "III":
                raise
        return board.lowest_free_edge(), None


class RandomMaker(GameStrategy):
    def __init__(self, params: GameParams):
        self.params = params

    def step(self, board: Board, rng) -> None:
        return None


_MAKERS = {"min-deg": MinDegMaker, "ham-3stage": Ham3StageMaker,
           "random": RandomMaker}
MAKER_STRATEGIES = tuple(_MAKERS)


def make_maker(name: str, params: GameParams, **options) -> GameStrategy:
    cls = _MAKERS.get(name)
    if cls is None:
        raise InvalidParams(
            f"unknown maker strategy {name!r}; expected one of {MAKER_STRATEGIES}")
    return cls(params, **options)
