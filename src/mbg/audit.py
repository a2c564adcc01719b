"""Trace auditing for the min-degree strategy's potential analysis.

The analysis behind the min-degree Maker works with the danger potential
D(v) = dB(v) - (2b/a) dM(v) averaged over rolling multisets of the targeted
vertices.  Given a finished game this module replays the trace, rebuilds
those multisets and the degree snapshots at their defining instants, and
re-checks every inequality the analysis proves about them.  A failure is an
implementation bug, never expected behaviour, which is exactly what makes
the checks useful.

Danger sums are exact rationals throughout.  Only the logarithmic ceilings
are evaluated in floating point, compared with a one-sided slack.

Also here: the log-sandwich bounds on harmonic numbers that the ceilings
rely on, checked against ``boxgame.harmonic``'s exact values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from operator import itemgetter

from .board import MAKER, row_tables
from .board import new_board  # noqa: F401  unused; bench/tracing.py patches it
from .boxgame import harmonic
from .engine import GameTrace, _collector_paused
from .errors import InvalidParams, TraceIncompatible

# One-sided slack for comparisons against float logarithms.
LOG_TOLERANCE = 1e-9

# Guard for the harmonic-number bound checks.
HARMONIC_GUARD = 1e-12


# ---------------------------------------------------------------------------
# Harmonic numbers


def harmonic_bounds_ok(m: int) -> bool:
    """ln(m+1) <= H_m <= ln(m) + 1, exact H against guarded float logs."""
    value = float(harmonic(m))
    return (math.log(m + 1) <= value + HARMONIC_GUARD
            and value <= math.log(m) + 1.0 + HARMONIC_GUARD)


def harmonic_bounds_sweep(limit: int) -> list[str]:
    """Check the harmonic log-sandwich up to ``limit``; returns violations.

    Exact harmonic numbers are impractical at 10^5 (the reduced numerator has
    tens of thousands of digits), so the sweep leans on telescoping: both
    endpoint bounds and every difference bound H_j - H_i <= ln j - ln i
    (i <= j) are sums of the per-step facts

        1/(m+1) <= ln(m+1) - ln(m) <= 1/m.

    Checking those two for every m < limit, plus the m=1 base cases, covers
    the whole family.  The true per-step slack is about 1/(2 m^2), far above
    float noise at this range, so a guarded float comparison is conclusive.
    The running H_m is also tracked in compensated floating point and the
    endpoint bounds re-checked directly as a belt-and-braces measure.
    """
    if limit < 1:
        raise InvalidParams(f"sweep limit must be >= 1, got {limit}")
    problems: list[str] = []
    if not harmonic_bounds_ok(1):
        problems.append("endpoint bounds fail at m=1")
    total = 1.0
    comp = 0.0
    for m in range(1, limit):
        step = math.log1p(1.0 / m)
        if step > 1.0 / m + HARMONIC_GUARD:
            problems.append(f"ln(1+1/m) <= 1/m fails at m={m}")
        if 1.0 / (m + 1) > step + HARMONIC_GUARD:
            problems.append(f"1/(m+1) <= ln(1+1/m) fails at m={m}")
        term = 1.0 / (m + 1)
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if math.log(m + 2) > total + 1e-9:
            problems.append(f"ln(m+1) <= H_m fails at m={m + 1}")
        if total > math.log(m + 1) + 1.0 + 1e-9:
            problems.append(f"H_m <= ln(m)+1 fails at m={m + 1}")
    return problems


# ---------------------------------------------------------------------------
# Reconstruction


@dataclass(frozen=True)
class DegreeSnapshot:
    """Per-vertex Maker/Breaker degrees at one instant of the game."""

    dM: tuple[int, ...]
    dB: tuple[int, ...]


def default_split_point(n: int, a: int) -> int:
    """Analysis split parameter: floor(n / (a^2 ln n)), at least 1."""
    return max(1, math.floor(n / (a * a * math.log(n))))


@dataclass
class PotentialAudit:
    """Everything reconstructed from a trace for one audited round.

    ``s`` is the audited round and ``vS`` the vertex whose foreclosure is
    analysed.  ``multisets[j]`` (round labels j = s-i) holds the distinct
    vertices among the targets of rounds j..s-1 plus vS whose Maker degree
    was still below the goal just before Maker's move of round j.  A vertex
    targeted in several rounds appears once: the within-round rise bound
    (at most 2b across the pool, two endpoints per Breaker edge) is only a
    theorem when each vertex carries unit weight.  ``snap_b[j]`` is taken
    immediately before round j (before Breaker's move), ``snap_m[j]`` just
    before Maker's first claim of round j.  ``avg_m``/``avg_b`` are keyed by
    the offset i of A_{s-i}; ``g_values`` by round label.
    """

    trace: GameTrace
    s: int
    vS: int
    r: int
    k: int
    multisets: dict[int, tuple[int, ...]] = field(default_factory=dict)
    snap_b: dict[int, DegreeSnapshot] = field(default_factory=dict)
    snap_m: dict[int, DegreeSnapshot] = field(default_factory=dict)
    g_values: dict[int, int] = field(default_factory=dict)
    avg_m: dict[int, Fraction] = field(default_factory=dict)
    avg_b: dict[int, Fraction] = field(default_factory=dict)


def _replay(trace: GameTrace, s: int | None = None):
    """Replay ``trace`` once on degree counters, move by move.

    Returns (point, s, snap_b, snap_m, targets, breaker_edges, reach).
    ``point`` is the first foreclosure: the round and vertex of the first
    Breaker claim that lifts dB(v) past ``params.foreclosure_limit()``, or
    None.  Through round s, the foreclosure round when s is None, the replay
    also collects the snapshots before each round and before each Maker
    move, the Maker targets of each round, the round of every Breaker edge
    and ``reach[v]``, the round in which dM(v) reached k, then stops.  With
    s None it also stops after the Maker move in which every dM(v) reaches
    k: from then on dB(v) <= n-1-dM(v) keeps every vertex within the limit.
    """
    params = trace.params
    n, k, limit = params.n, params.threshold_degree(), params.foreclosure_limit()
    point = None
    snap_b, snap_m, targets, breaker_edges = {}, {}, {}, []
    below_k = n
    dM, dB = [0] * n, [0] * n
    reach = [math.inf] * n  # never reached k
    aimed = trace.targets

    def shot():
        return DegreeSnapshot(tuple(dM), tuple(dB))

    stop = math.inf if s is None else s
    rows, shifts = row_tables(n)
    slots = trace.slots
    for rnd, player, first, end in trace.move_spans():
        if player is MAKER:
            snap_m[rnd] = shot()
            targets[rnd] = [aimed.get(index) for index in range(first, end)]
            for slot in slots[first:end]:
                u = rows[slot]
                v = slot - shifts[u]
                du = dM[u] = dM[u] + 1
                dv = dM[v] = dM[v] + 1
                if du == k:
                    reach[u] = rnd
                    below_k -= 1
                if dv == k:
                    reach[v] = rnd
                    below_k -= 1
            if below_k == 0 and s is None:
                break
            continue
        if rnd > stop:
            break
        snap_b[rnd] = shot()
        for slot in slots[first:end]:
            u = rows[slot]
            v = slot - shifts[u]
            breaker_edges.append((rnd, u, v))
            du = dB[u] = dB[u] + 1
            dv = dB[v] = dB[v] + 1
            if (du > limit or dv > limit) and point is None:
                # One edge can lift both endpoints past the limit; u is
                # checked first, so the lower endpoint is the one audited.
                point = rnd, (u if du > limit else v)
                if s is None:
                    s = stop = rnd
    if s is not None and s not in snap_m:
        # Round s ended during Breaker's claims; the final position doubles
        # as the "before Maker" instant since Maker never got to move.
        snap_m[s] = shot()
    return point, s, snap_b, snap_m, targets, breaker_edges, reach


def reconstruct_multisets(trace: GameTrace, s: int, vS: int,
                          r: int | None = None) -> PotentialAudit:
    """Rebuild the audit state for round ``s`` and vertex ``vS``.

    For each round label j the pool is the distinct vertices targeted in
    rounds j..s-1, plus vS, restricted to those still under the degree goal
    just before Maker's move of round j.  Requires a trace with recorded
    per-claim targets for every Maker move of rounds 1..s-1 (the min-degree
    strategy records them; a fallback claim or a different strategy leaves
    them as None and the trace cannot be audited).
    """
    params = trace.params
    if not (1 <= s <= trace.rounds_played()):
        raise InvalidParams(
            f"audited round {s} outside trace range 1..{trace.rounds_played()}")
    if not (0 <= vS < params.n):
        raise InvalidParams(f"vertex {vS} out of range for n={params.n}")
    _, *replayed = _replay(trace, s)
    return _rebuild(trace, vS, r, *replayed)


def _rebuild(trace: GameTrace, vS: int, r: int | None, s: int, snap_b,
             snap_m, targets, breaker_edges, reach) -> PotentialAudit:
    """The audit of vS in round s from what ``_replay`` collected.

    dM only grows, so a vertex v other than vS is in the pool of label j
    exactly when j <= join(v) = min(last round before s targeting v, the
    round dM(v) reached k), and vS joins at s.  The pools are built once,
    from label s down, by merging in the vertices that join at each label.
    """
    params = trace.params
    k = params.threshold_degree()
    if r is None:
        r = default_split_point(params.n, params.a)
    if r < 1:
        raise InvalidParams(f"split parameter must be >= 1, got {r}")
    if snap_b[s].dM[vS] > k - 1:
        raise InvalidParams(
            f"vertex {vS} already has Maker degree {snap_b[s].dM[vS]} in "
            f"round {s}; nothing to audit")

    audit = PotentialAudit(trace=trace, s=s, vS=vS, r=r, k=k,
                           snap_b=snap_b, snap_m=snap_m)
    pool = audit.multisets[s] = (vS,)
    # joiners[j] lists targets joining at label j.  Labels fall, so a target
    # is first seen in its last round before s and joins there, or earlier
    # when dM reached k earlier.
    joiners: dict[int, list[int]] = {}
    seen = [False] * params.n
    seen[vS] = True
    for j in range(s - 1, 0, -1):
        round_targets = targets.get(j, [])
        if len(round_targets) < params.a or None in round_targets:
            raise TraceIncompatible(
                f"round {j} lacks recorded targets; audit needs the "
                f"min-degree strategy's target log")
        for t in round_targets:
            if not seen[t]:
                seen[t] = True
                joiners.setdefault(min(j, reach[t]), []).append(t)
        if j in joiners:
            pool = tuple(sorted([*pool, *joiners.pop(j)]))
        audit.multisets[j] = pool
    audit.g_values = compute_g(audit, breaker_edges)
    for i in range(0, s):
        audit.avg_b[i] = avg_danger(audit, i, "B")
        audit.avg_m[i] = avg_danger(audit, i, "M")
    return audit


def compute_g(audit: PotentialAudit,
              breaker_edges: list[tuple[int, int, int]]) -> dict[int, int]:
    """g for every round label: the Breaker edges claimed strictly before
    Breaker's move of round j with both endpoints in the support of the
    multiset with label j.  ``breaker_edges`` holds (round, u, w).

    Supports only gain vertices as the label falls, so v lies in the support
    of label j exactly when j <= join(v), the largest label holding v, and
    an edge of round rnd counts for labels rnd+1 .. min(join(u), join(w)):
    one difference array and its prefix sums give every count.
    """
    s = audit.s
    join = [0] * audit.trace.params.n
    later: tuple[int, ...] = ()
    for j in range(s, 0, -1):
        support = audit.multisets[j]
        if support is later:
            continue
        joined = set(support).difference(later)
        if len(joined) != len(support) - len(later):
            raise InvalidParams(
                f"multiset {j} does not contain multiset {j + 1}; "
                f"g cannot be counted")
        for v in joined:
            join[v] = j
        later = support
    diff = [0] * (s + 2)
    for rnd, u, w in breaker_edges:
        last = join[u]
        if join[w] < last:
            last = join[w]
        if rnd < last:
            diff[rnd + 1] += 1
            diff[last + 1] -= 1
    return dict(zip(range(1, s + 1), accumulate(diff[1:s + 1])))


def avg_danger(audit: PotentialAudit, i: int, side: str) -> Fraction:
    """Average danger of A_{s-i}, exact.

    ``side`` "B" evaluates immediately before round s-i, "M" just before
    Maker's move of that round.  Each qualifying vertex contributes once,
    and the divisor is the nominal size a*i + 1 regardless of how many
    vertices survived the dangerousness filter.
    """
    if side not in ("M", "B"):
        raise InvalidParams(f"side must be 'M' or 'B', got {side!r}")
    j = audit.s - i
    if j not in audit.multisets:
        raise InvalidParams(f"offset {i} has no reconstructed multiset")
    snap = audit.snap_m[j] if side == "M" else audit.snap_b[j]
    a, b = audit.trace.params.a, audit.trace.params.b
    pool = audit.multisets[j]
    if len(pool) > 1:
        pick = itemgetter(*pool)
        total = a * sum(pick(snap.dB)) - 2 * b * sum(pick(snap.dM))
    else:  # itemgetter of a single index returns the bare value
        total = sum(a * snap.dB[v] - 2 * b * snap.dM[v] for v in pool)
    return Fraction(total, a * (a * i + 1))


# ---------------------------------------------------------------------------
# Inequality checks


@dataclass(frozen=True)
class CheckResult:
    name: str
    index: int
    lhs: Fraction
    rhs: Fraction | float
    passed: bool

    def line(self) -> str:
        verdict = "pass" if self.passed else "FAIL"
        return (f"{self.name} i={self.index} lhs={self.lhs} "
                f"rhs={self.rhs} {verdict}")


@dataclass
class AuditReport:
    s: int
    vS: int
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]

    def as_text(self) -> str:
        lines = [f"audit round={self.s} vertex={self.vS} "
                 f"checks={len(self.checks)}"]
        lines += [c.line() for c in self.checks]
        lines.append("result=" + ("PASS" if self.passed else "FAIL"))
        return "\n".join(lines)


def check_potential_lemmas(audit: PotentialAudit) -> AuditReport:
    """Check every proved inequality about the reconstructed averages.

    Per offset 1 <= i <= s-1, with exact rationals:
      * Breaker's claims cannot lower a danger average
        (avg_danger_maker_ge_breaker), and Maker's own claims cannot raise
        the next one (avg_danger_maker_ge_next_breaker).
      * The within-round rise of the average is at most 2b/(ai+1)
        (gap_le_bias_share) and at most
        (b - a^2 + a + C(a,2) + g(s-i+1) - g(s-i)) / (ai) + a
        (gap_le_adjacency_share).
    For s >= 2, the final average D(vS) before round s is compared against
    the harmonic ceiling (2b/a)(ln(s-1) + 1) (final_danger_log_bound) and
    the split ceiling parameterised by r (final_danger_split_bound), both in
    floats with LOG_TOLERANCE of slack.
    """
    params = audit.trace.params
    a, b, s, r = params.a, params.b, audit.s, audit.r
    report = AuditReport(s=s, vS=audit.vS)
    pair_bonus = a - a * a + a * (a - 1) // 2
    for i in range(1, s):
        avg_m = audit.avg_m[i]
        avg_b = audit.avg_b[i]
        avg_b_next = audit.avg_b[i - 1]
        report.checks.append(CheckResult(
            "avg_danger_maker_ge_breaker", i, avg_m, avg_b, avg_m >= avg_b))
        report.checks.append(CheckResult(
            "avg_danger_maker_ge_next_breaker", i, avg_m, avg_b_next,
            avg_m >= avg_b_next))
        gap = avg_m - avg_b
        bias_share = Fraction(2 * b, a * i + 1)
        report.checks.append(CheckResult(
            "gap_le_bias_share", i, gap, bias_share, gap <= bias_share))
        g_next = audit.g_values[s - i + 1]
        g_here = audit.g_values[s - i]
        adjacency = Fraction(b + pair_bonus + g_next - g_here, a * i) + a
        report.checks.append(CheckResult(
            "gap_le_adjacency_share", i, gap, adjacency, gap <= adjacency))
    if s >= 2:
        final = audit.avg_b[0]
        log_bound = (2 * b / a) * (math.log(s - 1) + 1.0)
        report.checks.append(CheckResult(
            "final_danger_log_bound", 0, final, log_bound,
            float(final) <= log_bound + LOG_TOLERANCE))
        if s > r:
            split = ((b / a) * (2 * math.log(s - 1) - math.log(r) + 1.0)
                     - (a - 1) / 2 * math.log(r) + r * a)
        else:
            split = ((b / a) * (1.0 + math.log(r))
                     - (a - 1) / 2 * math.log(r) + r * a)
        report.checks.append(CheckResult(
            "final_danger_split_bound", 0, final, split,
            float(final) <= split + LOG_TOLERANCE))
    return report


# ---------------------------------------------------------------------------
# Trace-level helpers


def canonical_audit_point(trace: GameTrace) -> tuple[int, int] | None:
    """First (round, vertex) where Breaker forecloses the degree goal.

    A vertex is foreclosed once dB(v) exceeds ``params.foreclosure_limit()``:
    even claiming every remaining edge at v would leave Maker under degree
    k.  Returns None if the trace never forecloses anything (Maker won or
    the game was cut short).
    """
    return _replay(trace)[0]


@_collector_paused()
def audit_game(trace: GameTrace, r: int | None = None
               ) -> tuple[PotentialAudit, AuditReport] | None:
    """Audit a finished game at its canonical foreclosure point, from one
    replay that finds the point and collects what the audit needs."""
    point, *replayed = _replay(trace)
    if point is None:
        return None
    audit = _rebuild(trace, point[1], r, *replayed)
    return audit, check_potential_lemmas(audit)


def losing_round_bound_ok(trace: GameTrace, s: int) -> bool:
    """Round-count cap on audited losses: a * (s - 1) < k * n."""
    params = trace.params
    return params.a * (s - 1) < params.threshold_degree() * params.n


def foreclosed_degree_floor_ok(audit: PotentialAudit) -> bool:
    """Entering round s the audited vertex already carries most of the load:
    dB(vS) >= n - k - b just before Breaker's final move."""
    params = audit.trace.params
    d_before = audit.snap_b[audit.s].dB[audit.vS]
    return d_before >= params.n - audit.k - params.b
