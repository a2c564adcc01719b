"""Edge board of the complete graph K_n.

Every edge is free, Maker's or Breaker's.  Ownership is kept as one bitmask
row per vertex and player: bit w of ``maker[v]`` (``breaker[v]``) is set
when that player owns vw, exactly the adjacency rows of ``SimpleGraph``.
An edge is free when neither row has its bit.  A free-edge pool serves
uniform sampling, and per-vertex degree counters for both players keep the
hot paths of the simulator O(1) per claim.

Edges are plain ``(u, v)`` tuples with ``u < v``.  The pool keys an edge by
its slot in the triangular order: ``u*n - u*(u+1)/2 + (v-u-1)``.  That
formula lives in ``row_tables``, as one shift per row (the slot of (u, v) is
``shifts[u] + v``) and the row of every slot, two bytes each, which inverts
it.  So the board's memory is the pool, two lists of m = n(n-1)/2 slots,
plus 2m bytes.  Every claim swaps its slot to the end of the free prefix,
so the pool's tail is the log of the game's claims (``claimed_slots``).
"""

from __future__ import annotations

from array import array
from collections.abc import Iterator, Sequence
from dataclasses import asdict, dataclass
from enum import Enum
from operator import sub

from .errors import EdgeAlreadyClaimed, InvalidParams, NoFreeEdge

Edge = tuple[int, int]

# Largest board: the free pool grows as n^2 (about 25 MB per board at
# n = 1000 and 100 MB at n = 2000, in tracemalloc).
MAX_N = 2000


class Player(Enum):
    MAKER = "Maker"
    BREAKER = "Breaker"


# Looking up an enum member is slow on Python 3.11 (EnumType defines
# __getattr__), so the per-claim paths compare with this alias.
MAKER = Player.MAKER


GOALS = ("min-degree", "connectivity", "hamiltonicity")


@dataclass(frozen=True)
class GameParams:
    """Static parameters of one biased game on K_n.

    ``a`` is Maker's bias, ``b`` Breaker's; Breaker moves first.  ``k`` is the
    degree target and is only read by the min-degree goal (other goals treat
    the obstruction degree as 1).
    """

    n: int
    a: int = 1
    b: int = 1
    k: int = 1
    goal: str = "min-degree"

    def __post_init__(self) -> None:
        for name in ("n", "a", "b", "k"):
            value = getattr(self, name)
            if type(value) is not int:
                raise InvalidParams(f"{name} must be an int, got {value!r}")
        if type(self.goal) is not str:
            raise InvalidParams(f"goal must be a str, got {self.goal!r}")
        if self.goal not in GOALS:
            raise InvalidParams(f"unknown goal {self.goal!r}; expected one of {GOALS}")
        m = self.n * (self.n - 1) // 2
        if not (3 <= self.n <= MAX_N):
            raise InvalidParams(f"n must be in [3, {MAX_N}], got {self.n}")
        if not (1 <= self.a <= m):
            raise InvalidParams(f"a must be in [1, {m}], got {self.a}")
        if not (1 <= self.b <= m):
            raise InvalidParams(f"b must be in [1, {m}], got {self.b}")
        if not (1 <= self.k <= self.n - 1):
            raise InvalidParams(f"k must be in [1, {self.n - 1}], got {self.k}")

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
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "GameParams":
        return cls(n=d["n"], a=d["a"], b=d["b"], k=d["k"], goal=d["goal"])


def bits(mask: int) -> list[int]:
    """Positions of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def row_tables(n: int) -> tuple[array, list[int]]:
    """The slot formula of K_n and its inverse, as two tables.

    Row u of the triangular order holds the n-1-u slots from
    u*n - u(u+1)/2 on, so the slot of (u, v) is ``shifts[u] + v``.  Back
    from a slot, ``rows[slot]`` is its row u and ``slot - shifts[u]`` its
    other endpoint v.
    """
    rows = array("H")
    for u in range(n - 1):
        rows.extend(array("H", (u,)) * (n - 1 - u))
    shifts = [u * n - u * (u + 3) // 2 - 1 for u in range(n - 1)]
    return rows, shifts


def slot_edges(n: int, slots: Sequence[int]) -> list[Edge]:
    """The edges at ``slots`` of K_n's triangular order, in order."""
    rows, shifts = row_tables(n)
    us = list(map(rows.__getitem__, slots))
    return list(zip(us, map(sub, slots, map(shifts.__getitem__, us))))


class Board:
    """Mutable claim state of K_n's edge set."""

    __slots__ = ("n", "m", "maker", "breaker", "dM", "dB", "_full", "_free",
                 "_free_pos", "free_count", "_rows", "_shifts")

    def __init__(self, n: int):
        if not (3 <= n <= MAX_N):
            raise InvalidParams(f"board needs n in [3, {MAX_N}], got {n}")
        self.n = n
        self.m = n * (n - 1) // 2
        self.maker = [0] * n
        self.breaker = [0] * n
        self._full = (1 << n) - 1
        self.dM = [0] * n
        self.dB = [0] * n
        # Free pool with positional index, so claims are O(1) and uniform
        # sampling needs no scan.  The first free_count slots of _free are the
        # free edges, in arbitrary order after removals; a claimed slot moves
        # just past them, so an edge is free iff its position is below
        # free_count.  Both start as the identity and share its int objects.
        self._free = list(range(self.m))
        self._free_pos = self._free.copy()
        self.free_count = self.m
        self._rows, self._shifts = row_tables(n)

    def state_of(self, edge: Edge) -> Player | None:
        if self.is_free(edge):
            return None
        u, v = edge
        return Player.MAKER if self.maker[u] >> v & 1 else Player.BREAKER

    def is_free(self, edge: Edge) -> bool:
        u, v = edge
        if not (0 <= u < v < self.n):
            raise InvalidParams(f"edge {edge!r} is not a valid pair on {self.n} vertices")
        return not (self.maker[u] | self.breaker[u]) >> v & 1

    def claim(self, player: Player, edge: Edge) -> None:
        """Give ``edge`` to ``player``.

        Raises EdgeAlreadyClaimed (board untouched) if the edge is taken.
        """
        self.claim_many(player, (edge,), self.n)

    def claim_many(self, player: Player, edges: Sequence[Edge],
                   limit: int) -> Sequence[Edge]:
        """Give ``player`` the planned ``edges``, in order.

        Stops after the first claim that lifts an endpoint's degree for
        ``player`` above ``limit``, like ``claim_random``, and returns the
        prefix of ``edges`` claimed.  Raises InvalidParams for a pair that
        is not ``0 <= u < v < n`` and EdgeAlreadyClaimed for a taken edge;
        the edges before it stay claimed.
        """
        n = self.n
        if player is MAKER:
            rows, degree = self.maker, self.dM
        else:
            rows, degree = self.breaker, self.dB
        free, free_pos, shifts = self._free, self._free_pos, self._shifts
        start = count = self.free_count
        for u, v in edges:
            if not (0 <= u < v < n):
                raise InvalidParams(
                    f"edge {(u, v)!r} is not a valid pair on {n} vertices")
            idx = shifts[u] + v
            pos = free_pos[idx]
            if pos >= count:
                raise EdgeAlreadyClaimed(
                    f"edge {(u, v)!r} already belongs to "
                    f"{self.state_of((u, v)).value}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
            degree[u] += 1
            degree[v] += 1
            # Swap the slot with the last free one, and their positions: the
            # pool keeps the int objects it has, so a move allocates nothing.
            count -= 1
            last = free[count]
            free[pos], free[count] = last, free[pos]
            free_pos[last], free_pos[idx] = free_pos[idx], free_pos[last]
            self.free_count = count
            if degree[u] > limit or degree[v] > limit:
                return edges[:start - count]
        return edges

    def free_row(self, v: int) -> int:
        """Bit w is set when the edge vw is free."""
        return self._full ^ (1 << v | self.maker[v] | self.breaker[v])

    def free_incident_edges(self, v: int) -> list[Edge]:
        """Free edges at ``v`` in ascending other-endpoint order."""
        if not (0 <= v < self.n):
            raise InvalidParams(f"vertex {v} out of range")
        return [(w, v) if w < v else (v, w) for w in bits(self.free_row(v))]

    def lowest_free_incident_edge(self, v: int) -> Edge | None:
        row = self.free_row(v)
        if not row:
            return None
        w = (row & -row).bit_length() - 1
        return (w, v) if w < v else (v, w)

    def lowest_free_edge(self) -> Edge:
        """The lexicographically first free edge; NoFreeEdge when none is."""
        for u in range(self.n - 1):
            ahead = self.free_row(u) >> (u + 1)
            if ahead:
                return u, u + (ahead & -ahead).bit_length()
        raise NoFreeEdge("board exhausted")

    def claim_random(self, player: Player, rng, count: int,
                     limit: int) -> list[Edge]:
        """Give ``player`` up to ``count`` uniformly random free edges.

        Each draw takes a position below ``free_count`` with CPython's own
        ``randrange`` algorithm on ``rng.getrandbits`` (so the random stream
        is that of ``rng.randrange(free_count)``), decodes the pool slot
        there with the board's ``row_tables`` and swaps it past the free
        prefix, a partial Fisher-Yates shuffle of the pool.  Stops after the
        first claim that lifts an endpoint's degree for ``player`` above
        ``limit``, or once no edge is free.  Returns the claimed edges
        in draw order; NoFreeEdge when no edge is free at the call.
        """
        free_count = self.free_count
        if free_count == 0:
            raise NoFreeEdge("board exhausted")
        if player is MAKER:
            rows, degree = self.maker, self.dM
        else:
            rows, degree = self.breaker, self.dB
        free, free_pos = self._free, self._free_pos
        getrandbits = rng.getrandbits
        rows_of, shifts = self._rows, self._shifts
        claimed = []
        for _ in range(min(count, free_count)):
            bits_needed = free_count.bit_length()
            pos = getrandbits(bits_needed)
            while pos >= free_count:
                pos = getrandbits(bits_needed)
            free_count -= 1
            idx = free[pos]
            last = free[free_count]
            free[pos], free[free_count] = last, idx
            free_pos[last], free_pos[idx] = free_pos[idx], free_pos[last]
            u = rows_of[idx]
            v = idx - shifts[u]
            rows[u] |= 1 << v
            rows[v] |= 1 << u
            degree[u] += 1
            degree[v] += 1
            claimed.append((u, v))
            if degree[u] > limit or degree[v] > limit:
                break
        self.free_count = free_count
        return claimed

    def claimed_slots(self) -> list[int]:
        """The pool slots of every claim so far, in claim order.

        Each claim swaps its slot to position ``free_count - 1`` and then
        lowers ``free_count``, and no later claim moves a slot at or past
        ``free_count``: the pool's tail, read backwards, is the claim log.
        """
        tail = self._free[self.free_count:]
        tail.reverse()
        return tail

    def free_edges(self) -> Iterator[Edge]:
        """All free edges in lexicographic order, generated lazily."""
        for u in range(self.n - 1):
            for w in bits(self.free_row(u) >> (u + 1) << (u + 1)):
                yield u, w

    def snapshot(self) -> bytes:
        """Opaque fingerprint of the claim state (for equality checks)."""
        size = (self.n + 7) // 8
        return b"".join(row.to_bytes(size, "little")
                        for row in self.maker + self.breaker)


def new_board(n: int) -> Board:
    return Board(n)


def parse_edge_list(text: str) -> list[Edge]:
    edges: list[Edge] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            u, v = map(int, line.split())
        except ValueError:
            raise InvalidParams(
                f"line {lineno}: expected 'u v', got {line!r}") from None
        if u == v:
            raise InvalidParams(f"line {lineno}: loop edge {u}")
        edges.append((min(u, v), max(u, v)))
    return edges
