"""Biased Maker-Breaker games on complete graphs.

Maker and Breaker alternately claim edges of K_n (Breaker first, b edges per
round against Maker's a).  The package provides the game engine, the
degree-based Maker strategies and clique/box Breaker strategies, exact
oracles for the graph properties involved, the auxiliary box game, and an
auditing layer that re-checks the potential-function analysis on finished
games.
"""

from .board import Board, Edge, GameParams, Player, new_board
from .boxgame import (BoxInstance, BoxPlayer, canonical_instance, f_box,
                      f_lower_bound, boxmaker_sufficient, harmonic,
                      solve_exhaustive)
from .audit import (AuditReport, PotentialAudit, audit_game,
                    canonical_audit_point, check_potential_lemmas,
                    harmonic_bounds_ok, reconstruct_multisets)
from .breaker_strategies import (BREAKER_STRATEGIES, CliqueBoxBreaker,
                                 IsolateBreaker, RandomBreaker, make_breaker)
from .engine import (GameOutcome, GameTrace, MoveRecord, play_game,
                     read_trace, replay_trace, write_trace)
from .errors import (BoxesExhausted, EdgeAlreadyClaimed, InvalidParams,
                     MBGError, NoFreeEdge, NotConnected, PreconditionFailed,
                     StageBlocked, StrategyInfeasible, StrategyViolation,
                     TooLarge, TraceIncompatible)
from .maker_strategies import (MAKER_STRATEGIES, Ham3StageMaker, MinDegMaker,
                               RandomMaker, make_maker)
from .oracles import (SimpleGraph, boosters, is_connected, is_hamiltonian,
                      is_k_expander, longest_path_order, min_degree)

__version__ = "0.1.0"

# The command line module loads on first use (PEP 562), so that runpy can
# run ``python -m mbg.harness`` without finding it imported already.
_HARNESS_NAMES = ("SweepSpec", "main", "run_sweep", "trial_seed")


def __getattr__(name: str):
    if name in _HARNESS_NAMES:
        from . import harness
        return getattr(harness, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "AuditReport", "Board", "BoxInstance", "BoxPlayer", "BoxesExhausted",
    "BREAKER_STRATEGIES", "CliqueBoxBreaker", "Edge", "EdgeAlreadyClaimed",
    "GameOutcome", "GameParams", "GameTrace", "Ham3StageMaker",
    "InvalidParams", "IsolateBreaker", "MAKER_STRATEGIES", "MBGError",
    "MinDegMaker", "MoveRecord", "NoFreeEdge", "NotConnected", "Player",
    "PotentialAudit", "PreconditionFailed", "RandomBreaker", "RandomMaker",
    "SimpleGraph", "StageBlocked", "StrategyInfeasible", "StrategyViolation",
    "SweepSpec", "TooLarge", "TraceIncompatible", "audit_game", "boosters",
    "boxmaker_sufficient", "canonical_audit_point", "canonical_instance",
    "check_potential_lemmas", "f_box", "f_lower_bound", "harmonic",
    "harmonic_bounds_ok", "is_connected", "is_hamiltonian", "is_k_expander",
    "longest_path_order", "main", "make_breaker", "make_maker", "min_degree",
    "new_board", "play_game", "read_trace", "replay_trace",
    "reconstruct_multisets", "run_sweep", "trial_seed", "write_trace",
]
