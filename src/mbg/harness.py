"""Experiment harness and command line interface.

Subcommands: ``simulate`` (one game, optional trace file), ``sweep`` (bias
sweep with empirical threshold estimate and CSV output), ``boxgame`` (bound
evaluation, exhaustive solving, grids), ``oracle`` (graph checks on an edge
list), and ``verify`` (replay-audit of traces or freshly generated games).

Per-trial randomness comes from counter-based streams: each trial seed is a
hash of (master seed, bias index, trial index), so results do not depend on
scheduling and any cell can be reproduced in isolation.  MBG_THREADS > 1
runs sweep trials in a process pool.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from datetime import datetime, timezone

from .audit import audit_game, check_potential_lemmas, reconstruct_multisets
from .board import GOALS, GameParams, Player, parse_edge_list
from .boxgame import (SOLVER_MAX_BALLS, SOLVER_MAX_BOXES, BoxInstance,
                      BoxPlayer, f_box, f_lower_bound, boxmaker_sufficient,
                      canonical_instance, solve_exhaustive)
from .breaker_strategies import BREAKER_STRATEGIES, make_breaker
from .engine import play_game, read_trace, write_trace
from .errors import InvalidParams, MBGError, StrategyInfeasible
from .maker_strategies import MAKER_STRATEGIES, make_maker
from .oracles import (SimpleGraph, boosters, is_hamiltonian, is_k_expander,
                      longest_path_order)


def trial_seed(master_seed: int, b_index: int, trial: int) -> int:
    """Derived per-trial seed, stable across runs and schedulers."""
    text = f"{master_seed}:{b_index}:{trial}"
    digest = hashlib.sha256(text.encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big")


def worker_count() -> int:
    """Sweep worker processes: MBG_THREADS, at most cpu_count().

    Raises InvalidParams unless MBG_THREADS is a positive integer.
    """
    raw = os.environ.get("MBG_THREADS", "1")
    try:
        count = int(raw)
    except ValueError:
        count = 0
    if count < 1:
        raise InvalidParams(f"MBG_THREADS must be a positive integer, got {raw!r}")
    return min(count, os.cpu_count() or 1)


def reference_threshold(n: int, a: int) -> float:
    """Asymptotic threshold-bias formula a*n / (a + ln n), context only."""
    return a * n / (a + math.log(n))


# ---------------------------------------------------------------------------
# Sweeps


@dataclass(frozen=True)
class SweepSpec:
    n: int
    a: int
    k: int
    goal: str
    b_values: tuple[int, ...]
    trials: int
    maker: str = "min-deg"
    breaker: str = "random"
    master_seed: int = 0
    out_path: str | None = None

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise MBGError(f"trials must be >= 1, got {self.trials}")
        if not self.b_values:
            raise MBGError("at least one bias value is required")
        if list(self.b_values) != sorted(self.b_values):
            raise MBGError("bias values must be sorted ascending")


@dataclass
class CellResult:
    b: int
    trials: int
    maker_wins: int = 0
    infeasible: int = 0
    fallback: int = 0
    total_rounds: int = 0
    total_maker_claims: int = 0

    @property
    def decided(self) -> int:
        return self.trials - self.infeasible

    @property
    def win_rate(self) -> float:
        return self.maker_wins / self.decided if self.decided else 0.0

    @property
    def mean_rounds(self) -> float:
        return self.total_rounds / self.decided if self.decided else 0.0

    @property
    def mean_maker_claims(self) -> float:
        return self.total_maker_claims / self.decided if self.decided else 0.0


@dataclass
class SweepResult:
    spec: SweepSpec
    cells: list[CellResult] = field(default_factory=list)
    estimated_threshold: int | None = None
    interpolated_threshold: float | None = None
    reference_curve: float = 0.0


def _run_trial(task: tuple) -> tuple[bool, int, int, bool, bool]:
    """(Maker won, rounds, Maker claims, infeasible, fell back) of one game."""
    n, a, b, k, goal, maker_name, breaker_name, seed = task
    params = GameParams(n=n, a=a, b=b, k=k, goal=goal)
    try:
        maker = make_maker(maker_name, params)
        breaker = make_breaker(breaker_name, params)
        outcome, trace = play_game(params, maker, breaker, seed=seed)
    except StrategyInfeasible:
        return False, 0, 0, True, False
    won = outcome.winner is Player.MAKER
    return (won, trace.rounds_played(), trace.maker_claims(), False,
            bool(outcome.flags))


def run_sweep(spec: SweepSpec) -> SweepResult:
    tasks = []
    for b_index, b in enumerate(spec.b_values):
        for trial in range(spec.trials):
            tasks.append((spec.n, spec.a, b, spec.k, spec.goal, spec.maker,
                          spec.breaker, trial_seed(spec.master_seed, b_index,
                                                   trial)))
    workers = worker_count()
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_trial, tasks, chunksize=max(
                1, len(tasks) // (4 * workers))))
    else:
        results = [_run_trial(t) for t in tasks]

    cells = [CellResult(b=b, trials=spec.trials) for b in spec.b_values]
    for index, (won, rounds, claims, infeasible, fallback) in enumerate(results):
        cell = cells[index // spec.trials]
        if infeasible:
            cell.infeasible += 1
        else:
            cell.maker_wins += int(won)
            cell.fallback += int(fallback)
            cell.total_rounds += rounds
            cell.total_maker_claims += claims
    result = SweepResult(spec=spec, cells=cells,
                         reference_curve=reference_threshold(spec.n, spec.a))
    result.estimated_threshold, result.interpolated_threshold = \
        _estimate_threshold(cells)
    if spec.out_path:
        write_sweep_csv(result, spec.out_path)
    return result


def _estimate_threshold(cells: list[CellResult]
                        ) -> tuple[int | None, float | None]:
    """Bias of the last cell Maker wins at least half of, and the linear
    crossing of 0.5 between it and the next cell.

    (None, None) when the crossing is not bracketed: no cell reaches 0.5, or
    the top cell still does.
    """
    last = None
    for index, cell in enumerate(cells):
        if cell.win_rate >= 0.5:
            last = index
    if last is None or last + 1 == len(cells):
        return None, None
    lo, hi = cells[last], cells[last + 1]
    frac = (lo.win_rate - 0.5) / (lo.win_rate - hi.win_rate)
    return lo.b, lo.b + frac * (hi.b - lo.b)


def write_sweep_csv(result: SweepResult, path: str) -> None:
    """CSV with one row per bias; a timestamp comment precedes the header.

    ``fallback`` counts decided games in which a strategy abandoned its plan
    (the game's outcome carries a flag).
    """
    spec = result.spec
    lines = [f"# generated {datetime.now(timezone.utc).isoformat()}"]
    lines.append("n,a,b,k,goal,maker,breaker,trials,maker_wins,win_rate,"
                 "mean_rounds,mean_maker_claims,infeasible,fallback")
    for cell in result.cells:
        lines.append(
            f"{spec.n},{spec.a},{cell.b},{spec.k},{spec.goal},{spec.maker},"
            f"{spec.breaker},{cell.trials},{cell.maker_wins},"
            f"{cell.win_rate:.6f},{cell.mean_rounds:.4f},"
            f"{cell.mean_maker_claims:.4f},{cell.infeasible},{cell.fallback}")
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Option parsing: one parser, config lines read as flags, one-line errors


class _Parser(argparse.ArgumentParser):
    """Raises every usage error as an MBGError, so main prints one line."""

    def error(self, message: str):
        raise MBGError(f"{self.prog}: {message}")


def _config_parser() -> argparse.ArgumentParser:
    """The ``--config`` option every subcommand shares."""
    parser = _Parser(prog="mbg", add_help=False)
    parser.add_argument("--config", metavar="FILE",
                        help="key=value lines, read as --key=value flags")
    return parser


def _load_config(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as handle:
        for raw in handle:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise MBGError(f"bad config line (want key=value): {line!r}")
            key, _, value = line.partition("=")
            values[key.strip().replace("-", "_")] = value.strip()
    return values


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None


# ---------------------------------------------------------------------------
# Subcommands


def cmd_simulate(args: argparse.Namespace) -> int:
    params = GameParams(n=args.n, a=args.a, b=args.b, k=args.k, goal=args.goal)
    maker = make_maker(args.maker, params)
    breaker = make_breaker(args.breaker, params)
    outcome, trace = play_game(params, maker, breaker, seed=args.seed,
                               early_stop=not args.no_early_stop)
    if args.trace_out:
        write_trace(args.trace_out, trace, outcome=outcome)
    print(f"winner={outcome.winner.value} rounds={trace.rounds_played()} "
          f"reason={outcome.reason}")
    if outcome.flags:
        print("flags=" + ",".join(outcome.flags))
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    b_values = args.b_values or tuple(range(args.b_min, args.b_max + 1))
    spec = SweepSpec(n=args.n, a=args.a, k=args.k,
                     goal=args.goal, b_values=b_values,
                     trials=args.trials, maker=args.maker,
                     breaker=args.breaker, master_seed=args.seed,
                     out_path=args.out)
    result = run_sweep(spec)
    for cell in result.cells:
        print(f"b={cell.b} win_rate={cell.win_rate:.6f} "
              f"infeasible={cell.infeasible} fallback={cell.fallback}")
    est = result.estimated_threshold
    interp = result.interpolated_threshold
    crossing = (f"estimated_threshold={est} interpolated={interp:.4f}"
                if est is not None else
                "estimated_threshold=not-bracketed interpolated=not-bracketed")
    print(f"{crossing} reference_curve={result.reference_curve:.4f}")
    return 0


def cmd_boxgame(args: argparse.Namespace) -> int:
    if args.mode == "f":
        value = f_box(args.k, args.p, args.q)
        bound = f_lower_bound(args.k, args.p, args.q) if args.lower else None
        print(value)
        if bound is not None:
            print(f"lower_bound={float(bound):.4f}")
        return 0
    if args.mode == "solve":
        sizes = args.sizes
        if not sizes:
            raise MBGError("mode solve needs --sizes, e.g. --sizes 2,2,3")
        first = (BoxPlayer.BOXMAKER if args.first == "boxmaker"
                 else BoxPlayer.BOXBREAKER)
        if args.canonical:
            inst = canonical_instance(len(sizes), sum(sizes), p=args.p,
                                      q=args.q, first_mover=first)
        else:
            inst = BoxInstance(sizes=tuple(sorted(sizes, reverse=True)),
                               p=args.p, q=args.q, first_mover=first)
        winner = solve_exhaustive(inst)
        print(winner.value)
        return 0
    # grid
    max_k = min(args.max_k, SOLVER_MAX_BOXES)
    max_t = min(args.max_t, SOLVER_MAX_BALLS)
    print("k,t,p,q,f_value,sufficient,winner")
    for k in range(1, max_k + 1):
        for t in range(k, max_t + 1):
            inst = canonical_instance(k, t, p=args.p, q=args.q)
            value = f_box(k, args.p, args.q)
            sufficient = boxmaker_sufficient(k, t, args.p, args.q)
            winner = solve_exhaustive(inst)
            print(f"{k},{t},{args.p},{args.q},{value},"
                  f"{str(sufficient).lower()},{winner.value}")
    return 0


def _load_graph(args: argparse.Namespace) -> SimpleGraph:
    if args.edges == "-":
        text = sys.stdin.read()
    else:
        with open(args.edges, encoding="utf-8") as handle:
            text = handle.read()
    graph = SimpleGraph(args.n)
    for edge in parse_edge_list(text):
        graph.add_edge(*edge)
    return graph


def cmd_oracle(args: argparse.Namespace) -> int:
    graph = _load_graph(args)
    if args.check == "hamiltonian":
        print(f"hamiltonian={str(is_hamiltonian(graph)).lower()}")
    elif args.check == "longest-path":
        print(f"longest_path_order={longest_path_order(graph)}")
    elif args.check == "boosters":
        found = boosters(graph)
        print(f"already_hamiltonian={str(found.already_hamiltonian).lower()} "
              f"boosters={len(found.edges)}")
        for u, v in sorted(found.edges):
            print(f"{u} {v}")
    else:
        check = is_k_expander(graph, args.k)
        witness = ("none" if check.witness is None
                   else ",".join(map(str, sorted(check.witness))))
        print(f"expander={str(check.holds).lower()} "
              f"exhaustive={str(check.exhaustive).lower()} witness={witness}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    if args.trace:
        if (args.round is None) != (args.vertex is None):
            raise MBGError("--round and --vertex must be given together")
        trace, _ = read_trace(args.trace)
        if args.round is not None:
            audit = reconstruct_multisets(trace, args.round, args.vertex,
                                          r=args.r)
            report = check_potential_lemmas(audit)
        else:
            audited = audit_game(trace, r=args.r)
            if audited is None:
                print("no foreclosure point in trace; nothing to audit")
                return 0
            _, report = audited
        print(report.as_text())
        return 0 if report.passed else 1

    failures = 0
    audited = 0
    breaker_wins = 0
    for index in range(args.random_games):
        seed = trial_seed(args.seed, 0, index)
        params = GameParams(n=args.n, a=args.a, b=args.b, k=args.k)
        maker = make_maker("min-deg", params)
        breaker = make_breaker("random", params)
        outcome, trace = play_game(params, maker, breaker, seed=seed)
        if outcome.winner is Player.BREAKER:
            breaker_wins += 1
            audited_pair = audit_game(trace, r=args.r)
            if audited_pair is None:
                continue
            audited += 1
            _, report = audited_pair
            failures += len(report.failures())
            for failure in report.failures():
                print(failure.line(), file=sys.stderr)
    print(f"games={args.random_games} breaker_wins={breaker_wins} "
          f"audited={audited} failures={failures}")
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mbg",
        description="Biased Maker-Breaker games on complete graphs: "
                    "simulation, sweeps, box games, graph oracles, audits.")
    sub = parser.add_subparsers(dest="command", required=True)
    common = [_config_parser()]

    def command(name: str, func, text: str) -> argparse.ArgumentParser:
        parsed = sub.add_parser(name, parents=common, help=text)
        parsed.set_defaults(func=func)
        return parsed

    sim = command("simulate", cmd_simulate, "play one game")
    sweep = command("sweep", cmd_sweep, "bias sweep with CSV output")
    for parsed, n in ((sim, 20), (sweep, 40)):
        for flag, default in (("n", n), ("a", 1), ("k", 1), ("seed", 0)):
            parsed.add_argument(f"--{flag}", type=int, default=default)
        parsed.add_argument("--goal", default="min-degree", choices=GOALS)
        parsed.add_argument("--maker", choices=MAKER_STRATEGIES,
                            default="min-deg")
        parsed.add_argument("--breaker", choices=BREAKER_STRATEGIES,
                            default="random")

    sim.add_argument("--b", type=int, default=1)
    sim.add_argument("--trace-out", help="write the game trace to this file")
    sim.add_argument("--no-early-stop", action="store_true",
                     help="play to exhaustion even after the game is decided")

    sweep.add_argument("--trials", type=int, default=100)
    sweep.add_argument("--b-min", type=int, default=1)
    sweep.add_argument("--b-max", type=int, default=20)
    sweep.add_argument("--b-values", type=_int_list,
                       help="comma-separated biases; overrides --b-min/max")
    sweep.add_argument("--out", help="CSV output path")

    box = command("boxgame", cmd_boxgame, "box game bounds and solving")
    box.add_argument("mode", choices=("f", "solve", "grid"))
    box.add_argument("--k", type=int, default=1)
    box.add_argument("--p", type=int, default=1)
    box.add_argument("--q", type=int, default=1)
    box.add_argument("--lower", action="store_true",
                     help="with mode f, also print the lower bound")
    box.add_argument("--sizes", type=_int_list, default=(),
                     help="with mode solve, comma-separated box sizes")
    box.add_argument("--canonical", action="store_true",
                     help="with mode solve, rebalance sizes canonically")
    box.add_argument("--first", choices=("boxmaker", "boxbreaker"),
                     default="boxmaker")
    box.add_argument("--max-k", type=int, default=SOLVER_MAX_BOXES)
    box.add_argument("--max-t", type=int, default=SOLVER_MAX_BALLS)

    oracle = command("oracle", cmd_oracle, "graph checks on an edge list")
    oracle.add_argument("--n", type=int, required=True)
    oracle.add_argument("--edges", required=True,
                        help="edge list file, '-' for stdin")
    oracle.add_argument("--check", required=True,
                        choices=("hamiltonian", "longest-path", "boosters",
                                 "expander"))
    oracle.add_argument("--k", type=int, default=1,
                        help="expansion parameter for --check expander")

    verify = command("verify", cmd_verify, "audit traces or fresh games")
    verify.add_argument("--trace", help="trace file to audit")
    verify.add_argument("--round", type=int)
    verify.add_argument("--vertex", type=int)
    verify.add_argument("--r", type=int, help="override the split parameter")
    for flag, default in (("random-games", 0), ("n", 20), ("a", 1), ("b", 3),
                          ("k", 1), ("seed", 0)):
        verify.add_argument(f"--{flag}", type=int, default=default)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; bad input ends in one ``error:`` line, exit 2.

    A ``--config`` file's ``key=value`` lines go in as ``--key=value`` flags
    right after the subcommand, so the command line's own flags win.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        path = _config_parser().parse_known_args(argv)[0].config
        if path:
            argv[1:1] = [f"--{key.replace('_', '-')}={value}"
                         for key, value in _load_config(path).items()]
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (MBGError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
