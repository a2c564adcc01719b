"""Exact graph-property oracles used for win detection and verification.

All heavy oracles are exponential-time exact algorithms with explicit size
caps; they are meant for desk-scale verification, not production graph work.
Graphs are simple and undirected, stored as per-vertex adjacency bitmasks.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import combinations

from .board import Player, bits
from .errors import InvalidParams, NotConnected, TooLarge

HAMILTONIAN_CAP = 24
LONGEST_PATH_CAP = 20
EXPANDER_SUBSET_CAP = 10**7
EXPANDER_SAMPLES = 20_000


class SimpleGraph:
    """Undirected simple graph on vertices 0..n-1."""

    __slots__ = ("n", "adj")

    def __init__(self, n: int, edges=()):
        if n < 1:
            raise InvalidParams(f"graph needs n >= 1, got {n}")
        self.n = n
        self.adj: list[int] = [0] * n
        for u, v in edges:
            self.add_edge(u, v)

    def add_edge(self, u: int, v: int) -> None:
        if u == v:
            raise InvalidParams(f"loop edge at vertex {u}")
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise InvalidParams(f"edge ({u}, {v}) out of range for n={self.n}")
        self.adj[u] |= 1 << v
        self.adj[v] |= 1 << u

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n)
                for v in bits(self.adj[u]) if u < v]

    def non_edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in range(u + 1, self.n)
                if not self.adj[u] >> v & 1]

    def edge_count(self) -> int:
        return sum(self.degree(v) for v in range(self.n)) // 2

    def with_edge(self, u: int, v: int) -> "SimpleGraph":
        g = SimpleGraph(self.n)
        g.adj = list(self.adj)
        g.add_edge(u, v)
        return g

    @classmethod
    def from_board(cls, board, player: Player) -> "SimpleGraph":
        g = cls(board.n)
        g.adj = list(board.maker if player is Player.MAKER else board.breaker)
        return g


def min_degree(g: SimpleGraph) -> int:
    return min(g.degree(v) for v in range(g.n))


def _reach(adj: list[int], seen: int) -> int:
    """Mask of every vertex reachable from the vertices of ``seen``."""
    frontier = seen
    while frontier:
        nxt = 0
        for v in bits(frontier):
            nxt |= adj[v]
        frontier = nxt & ~seen
        seen |= frontier
    return seen


def is_connected(g: SimpleGraph) -> bool:
    """Spanning connectivity: every vertex reachable from vertex 0."""
    return _reach(g.adj, 1) == (1 << g.n) - 1


def connected_components(g: SimpleGraph) -> list[list[int]]:
    comps = []
    unseen = (1 << g.n) - 1
    while unseen:
        seen = _reach(g.adj, unseen & -unseen)
        comps.append(bits(seen))
        unseen &= ~seen
    return comps


def _path_table(adj: list[int], seeds: int, stop: int = 0) -> tuple[list[int], int]:
    """Subset DP over simple paths that start at a vertex of ``seeds``.

    Returns ``(ends, best)``: ``ends[mask]`` is the bitmask of vertices v
    such that some such path covers exactly ``mask`` and ends at v, and
    ``best`` is the most vertices on any of them.  With ``stop`` the DP
    returns as soon as a path of ``stop`` vertices exists, and ``ends`` is
    then partial.
    """
    n = len(adj)
    ends = [0] * (1 << n)
    for v in bits(seeds):
        ends[1 << v] = 1 << v
    best = 1
    # A path only reaches larger masks, so each mask is complete when read;
    # paths from vertex 0 alone only cover odd masks.
    for mask in range(1, 1 << n, 2 if seeds == 1 else 1):
        tips = ends[mask]
        if not tips:
            continue
        order = mask.bit_count() + 1
        rest = ~mask
        while tips:
            low = tips & -tips
            tips ^= low
            ext = adj[low.bit_length() - 1] & rest
            if order > best and ext:
                best = order
                if best == stop:
                    return ends, best
            while ext:
                wlow = ext & -ext
                ext ^= wlow
                ends[mask | wlow] |= wlow
    return ends, best


def _joined_pairs(ends: list[int], shared: int, deficit: int) -> list[int]:
    """``pairs[u]``: the v such that a path over S ends at u, a path over T
    ends at v, S and T meet exactly in ``shared``, and S | T misses exactly
    ``deficit`` vertices.

    For each S, every T that drops ``deficit`` vertices of V - S is tried.
    The relation is symmetric and one of S and T holds at least half of
    the |S| + |T| vertices, so only that side is enumerated and ``pairs``
    is made symmetric at the end.
    """
    full = len(ends) - 1
    n = full.bit_length()
    need = n - deficit + shared.bit_count()
    half = (need + 1) // 2
    pairs = [0] * n
    # The vertex-0 table (shared == 1) is 0 on every mask without vertex 0.
    step = 2 if shared == 1 else 1
    for mask in range(step - 1, full + 1, step):
        tips = ends[mask]
        if tips and half <= mask.bit_count() < need:
            rest = full ^ mask
            drops = (map(sum, combinations([1 << v for v in bits(rest)], deficit))
                     if deficit else (0,))
            other = 0
            for drop in drops:
                other |= ends[(rest ^ drop) | shared]
            if other:
                for u in bits(tips):
                    pairs[u] |= other
    for u in range(n):
        for v in bits(pairs[u]):
            pairs[v] |= 1 << u
    return pairs


# The vertex-0 table of the last adjacency asked for, as one (key, ends)
# tuple so that no reader pairs one graph's key with another's table.
_vertex0_memo: tuple[tuple[int, ...], list[int]] | None = None


def _vertex0_table(adj: list[int]) -> list[int]:
    """``_path_table(adj, 1)[0]``, built once per distinct adjacency.

    ``is_hamiltonian`` and ``boosters`` share it: a stage-III step asks both
    about one Maker graph.  At most one 2^n table is alive at a time: the old
    entry is dropped before a new table is built, ``boosters`` drops it
    before its all-start table, and nothing is kept above
    ``LONGEST_PATH_CAP``, where ``boosters`` cannot reuse it.  Callers must
    not change the returned list.
    """
    global _vertex0_memo
    key = tuple(adj)
    memo = _vertex0_memo
    if memo is not None and memo[0] == key:
        return memo[1]
    memo = _vertex0_memo = None
    ends, _ = _path_table(adj, 1)
    if len(adj) <= LONGEST_PATH_CAP:
        _vertex0_memo = (key, ends)
    return ends


def is_hamiltonian(g: SimpleGraph) -> bool:
    """Exact Hamiltonian-cycle test via subset DP over (visited set, endpoint).

    Cycles need at least 3 vertices, so n <= 2 is never Hamiltonian.
    """
    n = g.n
    if n > HAMILTONIAN_CAP:
        raise TooLarge(f"is_hamiltonian capped at n <= {HAMILTONIAN_CAP}, got {n}")
    if n <= 2:
        return False
    if not is_connected(g) or min_degree(g) < 2:
        return False
    return _vertex0_table(g.adj)[(1 << n) - 1] & g.adj[0] != 0


def longest_path_order(g: SimpleGraph) -> int:
    """Number of vertices on a longest simple path (exact subset DP)."""
    n = g.n
    if n > LONGEST_PATH_CAP:
        raise TooLarge(f"longest_path_order capped at n <= {LONGEST_PATH_CAP}, got {n}")
    return _path_table(g.adj, (1 << n) - 1, stop=n)[1]


@dataclass(frozen=True)
class ExpanderCheck:
    holds: bool
    witness: frozenset[int] | None
    exhaustive: bool


def is_k_expander(g: SimpleGraph, k: int) -> ExpanderCheck:
    """Check |N(U) \\ U| >= 2|U| for every vertex set U with 1 <= |U| <= k.

    Exhaustive enumeration when there are at most EXPANDER_SUBSET_CAP such
    sets; otherwise a one-sided check of EXPANDER_SAMPLES random sets drawn
    with ``random.Random(0)`` ("no violation found").
    """
    if k < 1:
        raise InvalidParams(f"k must be >= 1, got {k}")
    n, top = g.n, min(k, g.n)
    exhaustive = (sum(math.comb(n, size) for size in range(1, top + 1))
                  <= EXPANDER_SUBSET_CAP)
    if exhaustive:
        subsets = (combo for size in range(1, top + 1)
                   for combo in combinations(range(n), size))
    else:
        rng = random.Random(0)
        subsets = (rng.sample(range(n), rng.randint(1, top))
                   for _ in range(EXPANDER_SAMPLES))
    for combo in subsets:
        umask = nb = 0
        for v in combo:
            umask |= 1 << v
            nb |= g.adj[v]
        if (nb & ~umask).bit_count() < 2 * len(combo):
            return ExpanderCheck(False, frozenset(combo), exhaustive)
    return ExpanderCheck(True, None, exhaustive)


@dataclass(frozen=True)
class BoosterSet:
    """Non-edges whose addition lengthens a longest path or closes a cycle."""

    edges: frozenset[tuple[int, int]]
    already_hamiltonian: bool


def boosters(g: SimpleGraph) -> BoosterSet:
    """All boosters of a connected graph.

    A non-edge e is a booster when G+e is Hamiltonian or has a strictly
    longer longest path than G.  A Hamiltonian input has no boosters by
    convention; the flag says why the set is empty.

    Two cases, each exact:

    1. G has a Hamilton path but no Hamilton cycle.  Then uv is a booster
       exactly when a Hamilton path joins u and v.  Every Hamilton path
       passes through vertex 0, so it splits into two paths from 0, one
       over S and one over (V - S) + 0; the vertex-0 table of
       ``is_hamiltonian`` lists both.
    2. The longest path has ``base`` < n vertices.  A path of G+uv with
       base + 1 vertices must use uv, so it is a path over some S ending
       at u, the edge uv, and a path over a disjoint T starting at v, with
       |S| + |T| = base + 1; a Hamilton cycle of G+uv contains such a path.
       Paths can be shortened, so one all-start table, joined with T
       dropping n - 1 - base vertices of V - S, lists every booster.
    """
    global _vertex0_memo
    if not is_connected(g):
        raise NotConnected("boosters are defined for connected graphs only")
    n = g.n
    if n > LONGEST_PATH_CAP:
        raise TooLarge(f"boosters capped at n <= {LONGEST_PATH_CAP}, got {n}")
    adj = g.adj
    full = (1 << n) - 1
    ends = _vertex0_table(adj)
    if n > 2 and ends[full] & adj[0]:
        return BoosterSet(frozenset(), True)
    pairs = _joined_pairs(ends, 1, 0)
    if not any(pairs):
        del ends  # keep one 2^n table alive at a time
        _vertex0_memo = None
        ends, base = _path_table(adj, full)
        pairs = _joined_pairs(ends, 0, n - 1 - base)
    return BoosterSet(frozenset((u, v) for u, v in g.non_edges()
                                if pairs[u] >> v & 1), False)
