"""Slow reference implementations used to cross-check the fast oracles.

Everything here favors obvious correctness over speed: plain backtracking,
exhaustive subset enumeration, dict-of-sets adjacency.  Keep inputs tiny.
The small fixture graphs the oracle tests share live here too.
"""

from fractions import Fraction
from itertools import combinations

from mbg.audit import DegreeSnapshot, PotentialAudit, default_split_point
from mbg.board import Board, Player
from mbg.engine import GameTrace, replay_trace
from mbg.errors import (BoxesExhausted, InvalidParams, NoFreeEdge,
                        NotConnected, TraceIncompatible)
from mbg.oracles import (BoosterSet, SimpleGraph, is_connected,
                         is_hamiltonian, longest_path_order)


def petersen_graph():
    """The Petersen graph: outer 5-cycle, inner 5-star, spokes."""
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return SimpleGraph(10, outer + inner + spokes)


def adjacency(n, edges):
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def hamiltonian_cycle_exists(n, edges):
    """Backtracking search for a cycle visiting every vertex exactly once."""
    if n < 3:
        return False
    adj = adjacency(n, edges)

    def extend(path, seen):
        if len(path) == n:
            return path[0] in adj[path[-1]]
        for w in sorted(adj[path[-1]]):
            if w not in seen:
                seen.add(w)
                path.append(w)
                if extend(path, seen):
                    return True
                path.pop()
                seen.remove(w)
        return False

    return extend([0], {0})


def longest_path_vertex_count(n, edges):
    """Longest simple path, counted in vertices, by DFS from every start."""
    adj = adjacency(n, edges)
    best = 1 if n else 0

    def walk(v, seen):
        nonlocal best
        if len(seen) > best:
            best = len(seen)
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                walk(w, seen)
                seen.remove(w)

    for v in range(n):
        walk(v, {v})
    return best


def booster_edges(n, edges):
    """Non-edges improving the longest path or completing a spanning cycle.

    Mirrors the library convention that a graph which is already
    Hamiltonian has no boosters.
    """
    if hamiltonian_cycle_exists(n, edges):
        return set()
    present = {tuple(sorted(e)) for e in edges}
    base = longest_path_vertex_count(n, edges)
    out = set()
    for u, v in combinations(range(n), 2):
        if (u, v) in present:
            continue
        added = list(edges) + [(u, v)]
        if (hamiltonian_cycle_exists(n, added)
                or longest_path_vertex_count(n, added) > base):
            out.add((u, v))
    return out


def boosters_by_edge(g):
    """``oracles.boosters`` by two fresh exact DPs per non-edge of ``g``."""
    if not is_connected(g):
        raise NotConnected("boosters are defined for connected graphs only")
    if is_hamiltonian(g):
        return BoosterSet(frozenset(), True)
    base = longest_path_order(g)
    found = []
    for u, v in g.non_edges():
        g2 = g.with_edge(u, v)
        if is_hamiltonian(g2) or longest_path_order(g2) > base:
            found.append((u, v))
    return BoosterSet(frozenset(found), False)


def connected(n, edges):
    adj = adjacency(n, edges)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def expands_by_two(n, edges, k):
    """|N(U)| >= 2|U| for every U with 1 <= |U| <= k, by enumeration."""
    adj = adjacency(n, edges)
    for size in range(1, min(k, n) + 1):
        for combo in combinations(range(n), size):
            inside = set(combo)
            nb = set()
            for v in combo:
                nb |= adj[v]
            if len(nb - inside) < 2 * size:
                return False
    return True


def claim_random(board, player, rng, count, limit):
    """``Board.claim_random`` the long way: per claim, draw the pool position
    with ``randrange``, look its slot up in ``combinations`` order and hand
    the edge to ``Board.claim``; stop as the board method does."""
    edges = list(combinations(range(board.n), 2))
    degree = board.dM if player is Player.MAKER else board.dB
    if board.free_count == 0:
        raise NoFreeEdge("board exhausted")
    claimed = []
    while len(claimed) < count and board.free_count:
        u, v = edges[board._free[rng.randrange(board.free_count)]]
        board.claim(player, (u, v))
        claimed.append((u, v))
        if degree[u] > limit or degree[v] > limit:
            break
    return claimed


def balancing_move(state, p):
    """``boxmaker_balancing_move`` the long way: when the largest surviving
    box holds more than p balls, each of the p claims scans every surviving
    box for a largest one, lowest index on ties."""
    if p < 1:
        raise InvalidParams(f"p must be >= 1, got {p}")
    alive = state.surviving()
    if not alive:
        raise BoxesExhausted("no surviving box to claim from")
    rem = state.remaining
    largest = max(alive, key=lambda i: (rem[i], -i))
    if rem[largest] <= p:
        count = rem[largest]
        rem[largest] = 0
        state.won = largest
        return [(largest, count)]
    claims = []
    for _ in range(p):
        target = max(alive, key=lambda i: (rem[i], -i))
        rem[target] -= 1
        if claims and claims[-1][0] == target:
            claims[-1] = (target, claims[-1][1] + 1)
        else:
            claims.append((target, 1))
    return claims


def random_graph_edges(rng, n, p):
    """Erdos-Renyi style edge list on n vertices with edge probability p."""
    return [(u, v) for u in range(n) for v in range(u + 1, n)
            if rng.random() < p]


def compute_g(audit, round_label):
    """g for one round label by rescanning the trace: Breaker edges claimed
    before that round with both endpoints in the label's pool."""
    support = set(audit.multisets[round_label])
    count = 0
    for mv in audit.trace.moves:
        if mv.round >= round_label:
            break
        if mv.player is Player.BREAKER:
            u, v = mv.edge
            if u in support and v in support:
                count += 1
    return count


def foreclosure_point(trace):
    """First (round, vertex) at which a Breaker claim lifts dB(v) past the
    foreclosure limit, claim by claim on a board; u before v on a tie."""
    limit = trace.params.foreclosure_limit()
    board = Board(trace.params.n)
    for mv in trace.moves:
        board.claim(mv.player, mv.edge)
        if mv.player is Player.BREAKER:
            for v in mv.edge:
                if board.dB[v] > limit:
                    return mv.round, v
    return None


def audit(trace, s, vS, r=None):
    """The ``PotentialAudit`` of vS in round s, from first principles.

    Each snapshot replays its own prefix of the trace on a fresh board,
    each pool is filtered from the targets of its rounds, g is counted per
    label by ``compute_g`` and the averages are summed as Fractions.
    """
    params = trace.params
    a, b, k = params.a, params.b, params.threshold_degree()
    r = default_split_point(params.n, a) if r is None else r

    def position(stop):
        """Degrees after the moves before index ``stop``."""
        board = replay_trace(GameTrace.from_moves(params, trace.seed,
                                                  trace.moves[:stop]))
        return DegreeSnapshot(tuple(board.dM), tuple(board.dB))

    moves = trace.moves
    snap_b, snap_m = {}, {}
    for j in range(1, s + 1):
        snap_b[j] = position(next(i for i, mv in enumerate(moves)
                                  if mv.round == j))
        makers = [i for i, mv in enumerate(moves)
                  if mv.round == j and mv.player is Player.MAKER]
        if makers:
            snap_m[j] = position(makers[0])
    if s not in snap_m:
        snap_m[s] = position(sum(1 for mv in moves if mv.round <= s))
    if snap_b[s].dM[vS] >= k:
        raise InvalidParams(f"vertex {vS} is not below degree {k}")
    result = PotentialAudit(trace=trace, s=s, vS=vS, r=r, k=k,
                            snap_b=snap_b, snap_m=snap_m)
    result.multisets[s] = (vS,)
    for j in range(s - 1, 0, -1):
        targets = {}
        for rnd in range(j, s):
            aimed = [mv.target for mv in moves
                     if mv.round == rnd and mv.player is Player.MAKER]
            if len(aimed) < a or None in aimed:
                raise TraceIncompatible(f"round {rnd} lacks targets")
            targets.update(dict.fromkeys(aimed))
        targets[vS] = None
        result.multisets[j] = tuple(sorted(
            v for v in targets if snap_m[j].dM[v] < k))
    result.g_values = {j: compute_g(result, j) for j in range(1, s + 1)}
    for i in range(s):
        for side, snaps, averages in (("B", snap_b, result.avg_b),
                                      ("M", snap_m, result.avg_m)):
            snap = snaps[s - i]
            danger = sum(snap.dB[v] - Fraction(2 * b, a) * snap.dM[v]
                         for v in result.multisets[s - i])
            averages[i] = Fraction(danger) / (a * i + 1)
    return result
