"""Edge board of the complete graph K_n.

Every edge is in one of three states (free, Maker's, Breaker's).  The board
keeps per-vertex degree counters for both players and a free-edge pool so the
hot paths of the simulator stay O(1) per claim.

Edges are plain ``(u, v)`` tuples with ``u < v``.  Internally an edge maps to
a slot in a flat triangular array: ``index(u, v) = u*n - u*(u+1)/2 + (v-u-1)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import EdgeAlreadyClaimed, InvalidParams, NoFreeEdge

Edge = tuple[int, int]

FREE = 0
_MAKER = 1
_BREAKER = 2


class Player(Enum):
    MAKER = "Maker"
    BREAKER = "Breaker"

    @property
    def opponent(self) -> "Player":
        return Player.BREAKER if self is Player.MAKER else Player.MAKER


GOALS = ("min-degree", "connectivity", "hamiltonicity")

# The CLI and older call sites may spell the degree goal with its parameter.
_GOAL_ALIASES = {
    "min-degree-k": "min-degree",
    "mindeg": "min-degree",
}


def normalize_goal(goal: str) -> str:
    goal = _GOAL_ALIASES.get(goal, goal)
    if goal not in GOALS:
        raise InvalidParams(f"unknown goal {goal!r}; expected one of {GOALS}")
    return goal


@dataclass(frozen=True)
class GameParams:
    """Static parameters of one biased game on K_n.

    ``a`` is Maker's bias, ``b`` Breaker's; Breaker moves first.  ``k`` is the
    degree target and is only read by the min-degree goal (other goals treat
    the obstruction degree as 1).  ``epsilon`` and ``delta`` are optional
    analysis knobs carried along for auditing; they do not affect play.
    """

    n: int
    a: int = 1
    b: int = 1
    k: int = 1
    goal: str = "min-degree"
    epsilon: float | None = None
    delta: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "goal", normalize_goal(self.goal))
        m = self.n * (self.n - 1) // 2
        if self.n < 3:
            raise InvalidParams(f"n must be >= 3, got {self.n}")
        if not (1 <= self.a <= m):
            raise InvalidParams(f"a must be in [1, {m}], got {self.a}")
        if not (1 <= self.b <= m):
            raise InvalidParams(f"b must be in [1, {m}], got {self.b}")
        if not (1 <= self.k <= self.n - 1):
            raise InvalidParams(f"k must be in [1, {self.n - 1}], got {self.k}")
        for name in ("epsilon", "delta"):
            val = getattr(self, name)
            if val is not None and not (0.0 < val < 1.0):
                raise InvalidParams(f"{name} must lie in (0, 1), got {val}")
        if self.epsilon is not None and self.delta is not None:
            if not (self.delta < self.epsilon):
                raise InvalidParams("delta must be smaller than epsilon")

    @property
    def edge_total(self) -> int:
        return self.n * (self.n - 1) // 2

    def threshold_degree(self) -> int:
        """Degree below which a vertex still matters for the goal."""
        return self.k if self.goal == "min-degree" else 1

    def foreclosure_limit(self) -> int:
        """Largest Breaker degree a vertex can carry and still reach the
        threshold degree; one more Breaker edge at it decides the game."""
        return self.n - 1 - self.threshold_degree()

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "a": self.a,
            "b": self.b,
            "k": self.k,
            "goal": self.goal,
            "epsilon": self.epsilon,
            "delta": self.delta,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "GameParams":
        return cls(
            n=d["n"],
            a=d.get("a", 1),
            b=d.get("b", 1),
            k=d.get("k", 1),
            goal=d.get("goal", "min-degree"),
            epsilon=d.get("epsilon"),
            delta=d.get("delta"),
        )


def edge_index(n: int, u: int, v: int) -> int:
    """Triangular-array slot of edge (u, v), u < v."""
    return u * n - u * (u + 1) // 2 + (v - u - 1)


class Board:
    """Mutable claim state of K_n's edge set."""

    __slots__ = ("n", "m", "_state", "_edges", "dM", "dB",
                 "_free", "_free_pos", "free_count")

    def __init__(self, n: int):
        if n < 3:
            raise InvalidParams(f"board needs n >= 3, got {n}")
        self.n = n
        self.m = n * (n - 1) // 2
        self._state = bytearray(self.m)
        self._edges: list[Edge] = [
            (u, v) for u in range(n) for v in range(u + 1, n)
        ]
        self.dM = [0] * n
        self.dB = [0] * n
        # Free pool with positional index, so claims are O(1) and uniform
        # sampling needs no scan.  Pool order is arbitrary after removals.
        self._free = list(range(self.m))
        self._free_pos = list(range(self.m))
        self.free_count = self.m

    def _index(self, edge: Edge) -> int:
        u, v = edge
        if not (0 <= u < v < self.n):
            raise InvalidParams(f"edge {edge!r} is not a valid pair on {self.n} vertices")
        return u * self.n - u * (u + 1) // 2 + (v - u - 1)

    def state_of(self, edge: Edge) -> Player | None:
        code = self._state[self._index(edge)]
        if code == FREE:
            return None
        return Player.MAKER if code == _MAKER else Player.BREAKER

    def is_free(self, edge: Edge) -> bool:
        return self._state[self._index(edge)] == FREE

    def claim(self, player: Player, edge: Edge) -> None:
        """Give ``edge`` to ``player``.

        Raises EdgeAlreadyClaimed (board untouched) if the edge is taken.
        """
        idx = self._index(edge)
        if self._state[idx] != FREE:
            raise EdgeAlreadyClaimed(
                f"edge {edge!r} already belongs to {self.state_of(edge).value}"
            )
        self._state[idx] = _MAKER if player is Player.MAKER else _BREAKER
        deg = self.dM if player is Player.MAKER else self.dB
        u, v = edge
        deg[u] += 1
        deg[v] += 1
        pos = self._free_pos[idx]
        last = self._free[self.free_count - 1]
        self._free[pos] = last
        self._free_pos[last] = pos
        self.free_count -= 1

    def free_degree(self, v: int) -> int:
        return self.n - 1 - self.dM[v] - self.dB[v]

    def free_incident_edges(self, v: int) -> list[Edge]:
        """Free edges at ``v`` in ascending other-endpoint order."""
        if not (0 <= v < self.n):
            raise InvalidParams(f"vertex {v} out of range")
        out = []
        state = self._state
        n = self.n
        for w in range(n):
            if w == v:
                continue
            e = (v, w) if v < w else (w, v)
            if state[self._index(e)] == FREE:
                out.append(e)
        return out

    def lowest_free_incident_edge(self, v: int) -> Edge | None:
        for w in range(self.n):
            if w == v:
                continue
            e = (v, w) if v < w else (w, v)
            if self._state[self._index(e)] == FREE:
                return e
        return None

    def lowest_free_edge(self) -> Edge:
        """The lexicographically first free edge; NoFreeEdge when none is."""
        state = self._state
        for idx in range(self.m):
            if state[idx] == FREE:
                return self._edges[idx]
        raise NoFreeEdge("board exhausted")

    def random_free_edge(self, rng) -> Edge:
        if self.free_count == 0:
            raise InvalidParams("no free edge left")
        return self._edges[self._free[rng.randrange(self.free_count)]]

    def free_edges(self) -> list[Edge]:
        """All free edges in lexicographic order."""
        state = self._state
        return [self._edges[i] for i in range(self.m) if state[i] == FREE]

    def edges_of(self, player: Player) -> list[Edge]:
        """Edges owned by ``player`` in lexicographic order."""
        code = _MAKER if player is Player.MAKER else _BREAKER
        state = self._state
        return [self._edges[i] for i in range(self.m) if state[i] == code]

    def snapshot(self) -> bytes:
        """Opaque fingerprint of the claim state (for equality checks)."""
        return bytes(self._state)


def new_board(n: int) -> Board:
    return Board(n)


def edge_list_text(edges) -> str:
    """Serialize edges as one ``u v`` pair per line, ascending."""
    return "".join(f"{u} {v}\n" for u, v in sorted(edges))


def parse_edge_list(text: str) -> list[Edge]:
    edges: list[Edge] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise InvalidParams(f"line {lineno}: expected 'u v', got {line!r}")
        u, v = int(parts[0]), int(parts[1])
        if u == v:
            raise InvalidParams(f"line {lineno}: loop edge {u}")
        edges.append((min(u, v), max(u, v)))
    return edges
