"""Maker-side strategies.

The shared primitive is the danger of a vertex, D(v) = dB(v) - (2b/a) dM(v),
kept exact as a rational.  Comparisons use the integer scaling a*D(v) so the
hot paths never touch Fraction arithmetic.

``MinDegMaker`` eases the most endangered vertex that still needs degree and
wins min-degree games; ``Ham3StageMaker`` builds a Hamilton cycle in three
stages (raise all degrees, connect the components, then claim boosters).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .board import Board, Edge, GameParams, Player
from .errors import InvalidParams, NoFreeEdge, StageBlocked, StrategyInfeasible
from .oracles import (SimpleGraph, boosters, connected_components,
                      is_hamiltonian)

# Default per-stage degree goal of the Hamiltonicity strategy; a knob so
# small boards can exercise the later stages.
DEGREE_TARGET = 16


def danger(board: Board, v: int, a: int, b: int) -> Fraction:
    """D(v) = dB(v) - (2b/a) * dM(v), exact."""
    if not (0 <= v < board.n):
        raise InvalidParams(f"vertex {v} out of range")
    return Fraction(a * board.dB[v] - 2 * b * board.dM[v], a)


class GameStrategy:
    """Base contract: one instance per game, one edge per ``step``."""

    infeasible_reason: str | None = None

    def begin_move(self, board: Board, rng) -> None:  # pragma: no cover
        pass

    def step(self, board: Board, rng) -> tuple[Edge, int | None]:
        raise NotImplementedError


@dataclass
class MinDegState:
    """Selection modes of the min-degree strategy.

    ``tiebreak`` picks among equally dangerous vertices, ``edgepick`` among
    the target's free edges; each is "lowest" (deterministic) or "random".
    """

    k: int
    tiebreak: str = "lowest"
    edgepick: str = "lowest"

    def __post_init__(self) -> None:
        for name in ("tiebreak", "edgepick"):
            if getattr(self, name) not in ("lowest", "random"):
                raise InvalidParams(f"{name} must be 'lowest' or 'random'")


def min_deg_step(board: Board, params: GameParams, state: MinDegState,
                 rng) -> tuple[Edge, int | None]:
    """One claim of the min-degree strategy.

    A vertex is dangerous while dM(v) <= k-1.  Among dangerous vertices with
    a free incident edge, ease one of maximal danger by claiming a free edge
    at it.  If no dangerous vertex has a free edge left the goal is already
    decided; claim any free edge so the game can run on.
    """
    if board.free_count == 0:
        raise NoFreeEdge("min_deg_step called on an exhausted board")
    a, b, k = params.a, params.b, state.k
    dM, dB = board.dM, board.dB
    best_key: int | None = None
    ties: list[int] = []
    for v in range(board.n):
        if dM[v] <= k - 1 and board.free_degree(v) > 0:
            key = a * dB[v] - 2 * b * dM[v]
            if best_key is None or key > best_key:
                best_key = key
                ties = [v]
            elif key == best_key:
                ties.append(v)
    if not ties:
        return board.lowest_free_edge(), None
    if state.tiebreak == "lowest" or len(ties) == 1:
        target = ties[0]
    else:
        target = ties[rng.randrange(len(ties))]
    if state.edgepick == "lowest":
        edge = board.lowest_free_incident_edge(target)
    else:
        free = board.free_incident_edges(target)
        edge = free[rng.randrange(len(free))]
    return edge, target


class MinDegMaker(GameStrategy):
    def __init__(self, params: GameParams, tiebreak: str = "lowest",
                 edgepick: str = "lowest"):
        self.params = params
        self.state = MinDegState(k=params.threshold_degree(),
                                 tiebreak=tiebreak, edgepick=edgepick)

    def step(self, board: Board, rng) -> tuple[Edge, int | None]:
        return min_deg_step(board, self.params, self.state, rng)


_STAGES = ("I", "II", "III", "done")


@dataclass
class HamMakerState:
    """Stage machine of the Hamiltonicity strategy."""

    n: int
    degree_target: int = DEGREE_TARGET
    stage: str = "I"
    claims_in_stage: dict[str, int] = field(
        default_factory=lambda: {s: 0 for s in _STAGES})
    stage_log: list[str] = field(default_factory=lambda: ["I"])

    def transition(self, stage: str) -> None:
        if _STAGES.index(stage) < _STAGES.index(self.stage):
            raise InvalidParams(
                f"stage may only advance, got {self.stage} -> {stage}")
        self.stage = stage
        self.stage_log.append(stage)

    def record_claim(self) -> None:
        self.claims_in_stage[self.stage] += 1


def ham_stage1_step(board: Board, params: GameParams, state: HamMakerState,
                    rng) -> tuple[Edge, int | None]:
    """Stage I: raise every Maker degree to the target.

    Pick the most endangered vertex still under the degree target (lowest
    index on ties) and claim a uniformly random free edge at it.  Once no
    vertex is under target, move to stage II.
    """
    a, b = params.a, params.b
    dM, dB = board.dM, board.dB
    under = [v for v in range(board.n) if dM[v] < state.degree_target]
    if not under:
        state.transition("II")
        return ham_stage2_move(board, state)
    candidates = [v for v in under if board.free_degree(v) > 0]
    if not candidates:
        raise StrategyInfeasible(
            "every vertex under the degree target is saturated")
    best_key = None
    target = None
    for v in candidates:
        key = a * dB[v] - 2 * b * dM[v]
        if best_key is None or key > best_key:
            best_key = key
            target = v
    free = board.free_incident_edges(target)
    edge = free[rng.randrange(len(free))]
    state.record_claim()
    return edge, target


def ham_stage2_move(board: Board, state: HamMakerState) -> tuple[Edge, int | None]:
    """Stage II: merge Maker's components, smallest pair first.

    Claims the lowest-index free edge between the two smallest components,
    falling back to any component pair that still has a free crossing edge.
    Raises StageBlocked when every crossing edge of every pair is Breaker's,
    which proves Maker's graph can never become connected.
    """
    g = SimpleGraph.from_board(board, Player.MAKER)
    comps = connected_components(g)
    if len(comps) == 1:
        state.transition("III")
        return ham_stage3_move(board, state)
    comps.sort(key=lambda c: (len(c), c[0]))
    order = [(0, 1)]
    order += [(i, j) for i in range(len(comps)) for j in range(i + 1, len(comps))
              if (i, j) != (0, 1)]
    for i, j in order:
        edge = _lowest_crossing_free_edge(board, comps[i], comps[j])
        if edge is not None:
            state.record_claim()
            return edge, None
    raise StageBlocked("no free edge crosses any pair of Maker components")


def _lowest_crossing_free_edge(board: Board, comp1, comp2) -> Edge | None:
    best: Edge | None = None
    for u in comp1:
        for v in comp2:
            e = (u, v) if u < v else (v, u)
            if board.is_free(e) and (best is None or e < best):
                best = e
    return best


def ham_stage3_move(board: Board, state: HamMakerState) -> tuple[Edge, int | None]:
    """Stage III: claim boosters until the graph is Hamiltonian.

    Boosters are recomputed from the current Maker graph on every call, so
    each claim is made against the live position.  Raises StageBlocked when
    boosters exist but Breaker owns them all.
    """
    g = SimpleGraph.from_board(board, Player.MAKER)
    if is_hamiltonian(g):
        state.transition("done")
        edge = board.lowest_free_edge()
        if edge is None:
            raise NoFreeEdge("board exhausted")
        return edge, None
    bset = boosters(g)
    for e in sorted(bset.edges):
        if board.is_free(e):
            state.record_claim()
            return e, None
    raise StageBlocked("every booster of Maker's graph is Breaker-claimed")


class Ham3StageMaker(GameStrategy):
    """Driver for the three-stage Hamiltonicity plan.

    When stage III finds all of its boosters Breaker-claimed it does not give
    up the game: new boosters appear as the graph grows, so the driver claims
    a filler edge and retries on the next step.  A blocked stage II, by
    contrast, is a proof that connection is impossible and propagates.
    """

    def __init__(self, params: GameParams, degree_target: int = DEGREE_TARGET):
        if degree_target < 1:
            raise InvalidParams(f"degree target must be >= 1, got {degree_target}")
        self.params = params
        self.state = HamMakerState(n=params.n, degree_target=degree_target)

    def step(self, board: Board, rng) -> tuple[Edge, int | None]:
        state = self.state
        if state.stage == "I":
            return ham_stage1_step(board, self.params, state, rng)
        if state.stage == "II":
            return ham_stage2_move(board, state)
        if state.stage == "III":
            try:
                return ham_stage3_move(board, state)
            except StageBlocked:
                edge = board.lowest_free_edge()
                if edge is None:
                    raise NoFreeEdge("board exhausted")
                return edge, None
        edge = board.lowest_free_edge()
        if edge is None:
            raise NoFreeEdge("board exhausted")
        return edge, None


class RandomMaker(GameStrategy):
    def __init__(self, params: GameParams):
        self.params = params

    def step(self, board: Board, rng) -> tuple[Edge, int | None]:
        return board.random_free_edge(rng), None


MAKER_STRATEGIES = ("min-deg", "ham-3stage", "random")


def make_maker(name: str, params: GameParams, **options) -> GameStrategy:
    if name == "min-deg":
        return MinDegMaker(params, **options)
    if name == "ham-3stage":
        return Ham3StageMaker(params, **options)
    if name == "random":
        return RandomMaker(params, **options)
    raise InvalidParams(
        f"unknown maker strategy {name!r}; expected one of {MAKER_STRATEGIES}")
