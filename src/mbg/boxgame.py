"""The box game: BoxMaker pulls balls out of boxes, BoxBreaker destroys boxes.

An instance B(k, t, p, q) has k disjoint boxes holding t balls in total.
BoxMaker claims p balls per move and wins by emptying some box; BoxBreaker
destroys up to q boxes per move and wins by destroying every box first.

The module provides the classical threshold function ``f_box`` with a matching
lower bound (through exact harmonic numbers), a balancing move rule for
BoxMaker, and an exhaustive minimax solver for small instances.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from itertools import combinations

from .errors import BoxesExhausted, InvalidParams, PreconditionFailed, TooLarge

SOLVER_MAX_BALLS = 12
SOLVER_MAX_BOXES = 5
# f_box's (k-q-1)//q steps: 10^6 take 0.23 s on a 2-vCPU host, Python 3.11.
F_BOX_MAX_STEPS = 10**6
# f_lower_bound's ceil(k/q)-1 exact harmonic terms: their denominators grow
# like lcm(1..j), and 10^4 terms take 0.02 s and 0.1 MB cold on the same host.
F_LOWER_BOUND_MAX_TERMS = 10**4


class BoxPlayer(Enum):
    BOXMAKER = "BoxMaker"
    BOXBREAKER = "BoxBreaker"


def f_box(k: int, p: int, q: int) -> int:
    """Threshold value f(k; p, q) of the box game, exact integer.

    f(k) = (k-1)(p+1)                       for 1 <= k <= q,
    f(k) = k*p                              for q < k <= 2q,
    f(k) = floor(k * (f(k-q) + p - q) / (k-q))  otherwise.

    Raises TooLarge when the recurrence needs more than F_BOX_MAX_STEPS steps.
    """
    if k < 1 or p < 1 or q < 1:
        raise InvalidParams(f"f_box needs k, p, q >= 1, got ({k}, {p}, {q})")
    if k <= q:
        return (k - 1) * (p + 1)
    steps, rest = divmod(k - q - 1, q)
    if steps > F_BOX_MAX_STEPS:
        raise TooLarge(f"f_box capped at (k-q-1)//q <= {F_BOX_MAX_STEPS} steps, "
                       f"got k={k}, q={q}")
    j = q + 1 + rest  # the base case k reduces to, in (q, 2q]
    value = j * p
    for _ in range(steps):
        j += q
        value = j * (value + p - q) // (j - q)
    return value


def harmonic(m: int) -> Fraction:
    """Exact H_m = 1 + 1/2 + ... + 1/m.

    Summed by halving so the single reduction happens at the end; a naive
    Fraction loop reduces after every addition and crawls for large m.
    """
    if m < 1:
        raise InvalidParams(f"harmonic number needs m >= 1, got {m}")

    def merge(lo: int, hi: int) -> tuple[int, int]:
        if lo == hi:
            return 1, lo
        mid = (lo + hi) // 2
        n1, d1 = merge(lo, mid)
        n2, d2 = merge(mid + 1, hi)
        return n1 * d2 + n2 * d1, d1 * d2

    return Fraction(*merge(1, m))


def f_lower_bound(k: int, p: int, q: int) -> Fraction:
    """Closed-form lower bound on f(k; p, q), exact rational.

    Valid for k > q and p - q - 1 >= 0:
        k*p - 1 + (k*(p-q-1)/q) * sum_{j=2}^{ceil(k/q)-1} 1/j

    Raises TooLarge when the sum has more than F_LOWER_BOUND_MAX_TERMS terms.
    """
    if k < 1 or p < 1 or q < 1:
        raise InvalidParams(f"f_lower_bound needs k, p, q >= 1, got ({k}, {p}, {q})")
    if k <= q:
        raise PreconditionFailed(f"f_lower_bound needs k > q, got k={k}, q={q}")
    if p - q - 1 < 0:
        raise PreconditionFailed(f"f_lower_bound needs p - q - 1 >= 0, got p={p}, q={q}")
    limit = (k - 1) // q  # ceil(k/q) - 1
    if limit > F_LOWER_BOUND_MAX_TERMS:
        raise TooLarge(f"f_lower_bound capped at ceil(k/q)-1 <= "
                       f"{F_LOWER_BOUND_MAX_TERMS} terms, got k={k}, q={q}")
    return k * p - 1 + Fraction(k * (p - q - 1), q) * (harmonic(limit) - 1)


def boxmaker_sufficient(k: int, t: int, p: int, q: int) -> bool:
    """True when t <= f(k; p, q) + p, a sufficient ball budget for BoxMaker."""
    if t < 0:
        raise InvalidParams(f"t must be >= 0, got {t}")
    return t <= f_box(k, p, q) + p


@dataclass(frozen=True)
class BoxInstance:
    """A concrete box game position (box sizes plus play parameters)."""

    sizes: tuple[int, ...]
    p: int = 1
    q: int = 1
    first_mover: BoxPlayer = BoxPlayer.BOXMAKER

    def __post_init__(self) -> None:
        if not self.sizes:
            raise InvalidParams("an instance needs at least one box")
        if any(s < 1 for s in self.sizes):
            raise InvalidParams(f"box sizes must be >= 1, got {self.sizes}")
        if self.p < 1 or self.q < 1:
            raise InvalidParams(f"biases must be >= 1, got p={self.p}, q={self.q}")

    @property
    def k(self) -> int:
        return len(self.sizes)

    @property
    def t(self) -> int:
        return sum(self.sizes)

    @property
    def canonical(self) -> bool:
        return max(self.sizes) - min(self.sizes) <= 1


def canonical_instance(k: int, t: int, p: int = 1, q: int = 1,
                       first_mover: BoxPlayer = BoxPlayer.BOXMAKER) -> BoxInstance:
    """The balanced instance: t mod k boxes of ceil(t/k), the rest floor(t/k)."""
    if k < 1:
        raise InvalidParams(f"k must be >= 1, got {k}")
    if t < k:
        raise InvalidParams(f"need t >= k so every box is nonempty, got t={t}, k={k}")
    big, rem = divmod(t, k)
    sizes = tuple([big + 1] * rem + [big] * (k - rem))
    return BoxInstance(sizes, p=p, q=q, first_mover=first_mover)


@dataclass
class BoxPlayState:
    """Mutable play state: remaining ball counts, destroyed and won boxes."""

    remaining: list[int]
    destroyed: set[int] = field(default_factory=set)
    won: int | None = None

    def surviving(self) -> list[int]:
        return [i for i in range(len(self.remaining))
                if i not in self.destroyed and self.remaining[i] > 0]

    def destroy(self, box: int) -> None:
        if not (0 <= box < len(self.remaining)):
            raise InvalidParams(f"box {box} out of range")
        self.destroyed.add(box)


def boxmaker_balancing_move(state: BoxPlayState, p: int) -> list[tuple[int, int]]:
    """BoxMaker's balancing move: claim up to p balls, largest boxes first.

    When even the largest surviving box holds at most p balls, BoxMaker takes
    that whole box and wins (play stops there, possibly under budget).
    Otherwise the p claims are made one at a time, each from a currently
    largest surviving box, lowest index on ties; a balanced ("canonical")
    profile stays balanced.  Returns per-box claim counts in claim order,
    consecutive claims from one box merged.

    The claims are found by water-filling in O(boxes log boxes + p): the
    boxes tied at the top level take one ball each, in index order, and
    every box whose count that level reaches joins them.
    """
    if p < 1:
        raise InvalidParams(f"p must be >= 1, got {p}")
    rem = state.remaining
    alive = sorted(state.surviving(), key=lambda i: (-rem[i], i))
    if not alive:
        raise BoxesExhausted("no surviving box to claim from")
    largest = alive[0]
    level = rem[largest]
    if level <= p:
        rem[largest] = 0
        state.won = largest
        return [(largest, level)]
    claims: list[tuple[int, int]] = []
    tied: list[int] = []  # the boxes at ``level``, in index order
    joined, budget = 0, p
    while budget:
        start = joined
        while joined < len(alive) and rem[alive[joined]] == level:
            joined += 1
        if joined > start:
            tied = sorted(tied + alive[start:joined])
        for box in tied[:budget]:
            if claims and claims[-1][0] == box:
                claims[-1] = (box, claims[-1][1] + 1)
            else:
                claims.append((box, 1))
        budget -= min(budget, len(tied))
        level -= 1
    for box, count in claims:
        rem[box] -= count
    return claims


def solve_exhaustive(inst: BoxInstance) -> BoxPlayer:
    """Exact minimax winner of a small instance under optimal play.

    BoxMaker distributes exactly p claims over surviving boxes (all of the
    remainder when fewer balls are left) and wins the moment a box he drained
    hits zero.  BoxBreaker destroys up to q surviving boxes, fewer allowed,
    and wins once no box survives.  Capped to keep the state space tiny.
    """
    if inst.t > SOLVER_MAX_BALLS:
        raise TooLarge(f"solver capped at t <= {SOLVER_MAX_BALLS}, got t={inst.t}")
    if inst.k > SOLVER_MAX_BOXES:
        raise TooLarge(f"solver capped at k <= {SOLVER_MAX_BOXES}, got k={inst.k}")
    p, q = inst.p, inst.q

    memo: dict[tuple[tuple[int, ...], BoxPlayer], bool] = {}

    def maker_wins(sizes: tuple[int, ...], mover: BoxPlayer) -> bool:
        # `sizes` holds the surviving boxes only, sorted ascending.
        if not sizes:
            return False
        key = (sizes, mover)
        hit = memo.get(key)
        if hit is not None:
            return hit
        if mover is BoxPlayer.BOXMAKER:
            if sizes[0] <= p:
                memo[key] = True
                return True
            result = any(
                maker_wins(after, BoxPlayer.BOXBREAKER)
                for after in _distributions(sizes, p)
            )
        else:
            result = True
            for after in _destruction_outcomes(sizes, q):
                if not maker_wins(after, BoxPlayer.BOXMAKER):
                    result = False
                    break
        memo[key] = result
        return result

    start = tuple(sorted(inst.sizes))
    return BoxPlayer.BOXMAKER if maker_wins(start, inst.first_mover) else BoxPlayer.BOXBREAKER


def _distributions(sizes: tuple[int, ...], p: int):
    """Distinct surviving profiles after BoxMaker claims p balls.

    Every box keeps at least one ball here: profiles that empty a box are
    handled by the immediate-win shortcut before this is called.
    """
    out = set()

    def rec(idx: int, budget: int, acc: list[int]):
        if idx == len(sizes):
            if budget == 0:
                out.add(tuple(sorted(acc)))
            return
        max_take = min(budget, sizes[idx] - 1)
        for take in range(max_take + 1):
            rec(idx + 1, budget - take, acc + [sizes[idx] - take])

    rec(0, p, [])
    return out


def _destruction_outcomes(sizes: tuple[int, ...], q: int):
    """Distinct surviving profiles after BoxBreaker destroys up to q boxes."""
    out = set()
    k = len(sizes)
    for count in range(0, min(q, k) + 1):
        for gone in combinations(range(k), count):
            out.add(tuple(s for i, s in enumerate(sizes) if i not in gone))
    return out
