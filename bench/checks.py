"""Independent checks on the games, audits and sweeps the benchmark runs.

Nothing here imports ``mbg.oracles`` or ``mbg.audit``.  Every verdict is
recomputed from the trace with the checker's own degree counts, its own
foreclosure rule and its own Hamilton-cycle search, so a fault in those
modules cannot vouch for itself.  Graphs are lists of adjacency bitmasks.
"""

from __future__ import annotations

import math

from mbg.board import Player

# The one known fault a check may attribute a failed operation to: the
# engine tests Hamiltonicity only while the Maker reports stage III or done,
# so a graph that turns Hamiltonian earlier is reported a round late.
LATE_HAMILTONICITY = "late-hamiltonicity"


class CheckFailed(Exception):
    """An output of the program is wrong."""


def _connected(n: int, adj: list[int]) -> bool:
    seen = frontier = 1
    while frontier:
        reached = 0
        while frontier:
            low = frontier & -frontier
            reached |= adj[low.bit_length() - 1]
            frontier ^= low
        frontier = reached & ~seen
        seen |= reached
    return seen == (1 << n) - 1


def hamiltonian(n: int, adj: list[int]) -> bool:
    """Backtracking search for a Hamilton cycle through vertex 0."""
    if n < 3 or any(mask.bit_count() < 2 for mask in adj):
        return False
    if not _connected(n, adj):
        return False
    full = (1 << n) - 1

    def extend(v: int, visited: int) -> bool:
        if visited == full:
            return bool(adj[v] & 1)
        options = adj[v] & ~visited
        while options:
            low = options & -options
            options ^= low
            if extend(low.bit_length() - 1, visited | low):
                return True
        return False

    return extend(0, 1)


def _without(adj: list[int], edge: tuple[int, int]) -> list[int]:
    u, v = edge
    out = list(adj)
    out[u] &= ~(1 << v)
    out[v] &= ~(1 << u)
    return out


def check_game(params, trace, outcome) -> str | None:
    """Replay one game and confirm its moves and its verdict.

    Returns None for a correct game and LATE_HAMILTONICITY when the only
    fault is that Maker's graph was Hamiltonian before its last claim.
    Raises CheckFailed for anything else.
    """
    n, a, b, goal = params.n, params.a, params.b, params.goal
    if goal not in ("min-degree", "hamiltonicity"):
        raise CheckFailed(f"the checker does not cover goal {goal!r}")
    k = params.k if goal == "min-degree" else 1
    limit = n - 1 - k
    moves = trace.moves
    if not moves:
        raise CheckFailed("the trace holds no claims")
    dM, dB = [0] * n, [0] * n
    maker_adj, breaker_adj = [0] * n, [0] * n
    claimed: set[tuple[int, int]] = set()
    deficient = n
    settled: int | None = None      # index of the first settling claim
    last_maker_edge = None
    group = None                    # (round, player) of the current move
    size = 0
    for index, mv in enumerate(moves):
        u, v = mv.edge
        if not (0 <= u < v < n):
            raise CheckFailed(f"claim {index}: {mv.edge!r} is not an edge of K_{n}")
        if mv.edge in claimed:
            raise CheckFailed(f"claim {index}: edge {mv.edge!r} claimed twice")
        claimed.add(mv.edge)
        if (mv.round, mv.player) != group:
            if group is not None:
                bias = b if group[1] is Player.BREAKER else a
                if size != bias:
                    raise CheckFailed(
                        f"round {group[0]}: {group[1].value} claimed {size} "
                        f"edges before the decisive move, bias is {bias}")
                expected = ((group[0], Player.MAKER) if group[1] is Player.BREAKER
                            else (group[0] + 1, Player.BREAKER))
            else:
                expected = (1, Player.BREAKER)
            if (mv.round, mv.player) != expected:
                raise CheckFailed(
                    f"claim {index}: {mv.player.value} in round {mv.round}, "
                    f"expected {expected[1].value} in round {expected[0]}")
            group, size = (mv.round, mv.player), 0
        size += 1
        if mv.step != size:
            raise CheckFailed(f"claim {index}: step {mv.step}, expected {size}")
        if mv.player is Player.MAKER:
            for x, y in ((u, v), (v, u)):
                dM[x] += 1
                maker_adj[x] |= 1 << y
                if dM[x] == k:
                    deficient -= 1
            last_maker_edge = mv.edge
            if goal == "min-degree" and deficient == 0 and settled is None:
                settled = index
        else:
            for x, y in ((u, v), (v, u)):
                dB[x] += 1
                breaker_adj[x] |= 1 << y
            if (dB[u] > limit or dB[v] > limit) and settled is None:
                settled = index
    if size > (b if group[1] is Player.BREAKER else a):
        raise CheckFailed(f"round {group[0]}: {group[1].value} exceeded its bias")
    last = len(moves) - 1
    if outcome.decisive_round != moves[last].round:
        raise CheckFailed(
            f"decisive round {outcome.decisive_round}, but the last claim is "
            f"in round {moves[last].round}")
    if settled is not None and settled != last:
        raise CheckFailed(
            f"the game was settled at claim {settled} of round "
            f"{moves[settled].round} but played on to round {moves[last].round}")
    foreclosed = settled == last and moves[last].player is Player.BREAKER

    fault = None
    if goal == "min-degree":
        maker_has_goal = deficient == 0
    else:
        maker_has_goal = hamiltonian(n, maker_adj)
        if maker_has_goal and hamiltonian(n, _without(maker_adj, last_maker_edge)):
            fault = LATE_HAMILTONICITY

    if outcome.reason == "goal-achieved":
        if outcome.winner is not Player.MAKER or moves[last].player is not Player.MAKER:
            raise CheckFailed("goal-achieved, but the last claim is not a Maker win")
        if not maker_has_goal:
            raise CheckFailed("goal-achieved, but Maker's graph lacks the goal")
    elif outcome.reason == "goal-impossible":
        if outcome.winner is not Player.BREAKER or maker_has_goal:
            raise CheckFailed("goal-impossible, but Maker's graph has the goal")
        if not foreclosed:
            # Maker's own plan proved the goal out of reach; only a Hamilton
            # cycle has such a proof here: Maker's graph plus the free edges
            # is disconnected.
            full = (1 << n) - 1
            open_adj = [full & ~breaker_adj[v] & ~(1 << v) for v in range(n)]
            if goal != "hamiltonicity" or _connected(n, open_adj):
                raise CheckFailed("goal-impossible without a foreclosed vertex "
                                  "or a disconnected Maker-plus-free graph")
    elif outcome.reason == "board-exhausted":
        if len(claimed) != n * (n - 1) // 2:
            raise CheckFailed("board-exhausted with free edges left")
        if settled is not None:
            raise CheckFailed("board-exhausted after the game was settled")
        if (outcome.winner is Player.MAKER) != maker_has_goal:
            raise CheckFailed("the winner does not match Maker's final graph")
    else:
        raise CheckFailed(f"unknown reason {outcome.reason!r}")
    return fault


def first_foreclosure(params, trace) -> tuple[int, int] | None:
    """(round, vertex) of the first claim that leaves a vertex short of k."""
    n = params.n
    limit = n - 1 - params.k
    dB = [0] * n
    for mv in trace.moves:
        if mv.player is Player.BREAKER:
            for x in mv.edge:
                dB[x] += 1
                if dB[x] > limit:
                    return mv.round, x
    return None


def breaker_edges_inside(n: int, trace, pools: dict[int, tuple[int, ...]]
                         ) -> dict[int, int]:
    """Per round label j: Breaker edges claimed before round j inside pool j."""
    adj = [0] * n
    moves = trace.moves
    pos = 0
    counts: dict[int, int] = {}
    for label in sorted(pools):
        while pos < len(moves) and moves[pos].round < label:
            mv = moves[pos]
            if mv.player is Player.BREAKER:
                u, v = mv.edge
                adj[u] |= 1 << v
                adj[v] |= 1 << u
            pos += 1
        mask = 0
        for v in pools[label]:
            mask |= 1 << v
        counts[label] = sum((adj[v] & mask).bit_count() for v in pools[label]) // 2
    return counts


def check_audit(params, trace, audited) -> None:
    """Confirm an audit of a lost min-degree game against the trace."""
    point = first_foreclosure(params, trace)
    if point is None:
        raise CheckFailed("a Breaker win without a foreclosed vertex")
    if audited is None:
        raise CheckFailed("audit_game found nothing to audit in a lost game")
    audit, report = audited
    if (audit.s, audit.vS) != point:
        raise CheckFailed(f"audited (s, vS) = {(audit.s, audit.vS)}, "
                          f"first foreclosure is {point}")
    if audit.g_values != breaker_edges_inside(params.n, trace, audit.multisets):
        raise CheckFailed("g_values differ from the Breaker edges inside the pools")
    expected = 4 * (audit.s - 1) + (2 if audit.s >= 2 else 0)
    if len(report.checks) != expected:
        raise CheckFailed(f"{len(report.checks)} lemma checks, expected {expected}")
    failures = [c for c in report.checks if not c.passed]
    if failures:
        raise CheckFailed(f"potential lemma failed: {failures[0].line()}")


def check_sweep(spec, result) -> None:
    """Cell invariants every sweep must satisfy, in exact integers."""
    a = spec.a
    for cell in result.cells:
        decided = cell.trials - cell.infeasible
        if not 0 <= cell.maker_wins <= decided:
            raise CheckFailed(f"b={cell.b}: {cell.maker_wins} wins out of "
                              f"{decided} decided games")
        if decided == 0:
            continue
        rounds, claims = cell.total_rounds, cell.total_maker_claims
        if not a * (rounds - decided) <= claims <= a * rounds:
            raise CheckFailed(f"b={cell.b}: {claims} Maker claims in {rounds} rounds")
        cap = math.ceil(spec.n * (spec.n - 1) // 2 / (a + cell.b))
        if rounds > decided * cap:
            raise CheckFailed(f"b={cell.b}: mean rounds above {cap}")


def csv_body(path) -> str:
    """A sweep CSV without its leading timestamp comment."""
    with open(path, encoding="utf-8") as handle:
        first = handle.readline()
        if not first.startswith("# generated"):
            raise CheckFailed(f"{path}: no timestamp line")
        return handle.read()
