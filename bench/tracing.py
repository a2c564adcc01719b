"""Per-layer tracing installed from outside the program.

Only the traced run imports this module.  ``Hooks`` swaps, for the length of
a ``with`` block, the names that callers look up for a timing subclass of
``Board``, forwarding proxies around strategy objects, and timing wrappers
around oracle, box-game, audit, trace I/O, play and sweep functions.  Each
call becomes a span: name, start, end, parent and operation id, kept in flat
arrays and written out once at the end.  Nothing inside ``src/mbg`` changes.
"""

from __future__ import annotations

import json
import os
from array import array
from time import perf_counter

from mbg import audit, board, breaker_strategies, engine, harness, maker_strategies


def _hook_group(metric: str) -> str:
    """The hook group a per-layer metric depends on: its layer, except that
    trace I/O is hooked apart from the play loop."""
    return "trace_io" if metric.startswith("engine.trace_") else metric.split(".")[0]


class Tracer:
    """Spans in parallel arrays; the open spans form a stack."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("l")
        self.op = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.op_id = 0

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        index = len(self.start)
        stack = self._stack
        self.name.append(name_id)
        self.parent.append(stack[-1] if stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        stack.append(index)
        self.start.append(perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, after=None):
        """``fn`` timed as span ``name``; ``after(args, result)`` may count."""
        name_id = self.name_id(name)

        def timed(*args, **kwargs):
            index = self.open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if after is not None:
                after(args, result)
            return result

        return timed

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (count, busy ms, self ms).

        Busy time counts a span only when its parent has another name, so a
        recursive or nested call of the same name is not counted twice.
        """
        count = len(self.start)
        durations = array("d", (self.end[i] - self.start[i] for i in range(count)))
        children = array("d", bytes(8 * count))
        for i in range(count):
            p = self.parent[i]
            if p >= 0:
                children[p] += durations[i]
        out = {name: [0, 0.0, 0.0] for name in self.names}
        names, parent = self.names, self.parent
        for i in range(count):
            row = out[names[self.name[i]]]
            row[0] += 1
            p = parent[i]
            if p < 0 or self.name[p] != self.name[i]:
                row[1] += durations[i] * 1e3
            row[2] += (durations[i] - children[i]) * 1e3
        return {name: tuple(row) for name, row in out.items()}

    def write(self, path: str) -> None:
        """One JSON header line, then the raw column arrays in header order."""
        columns = ["name", "parent", "op", "start", "end"]
        header = {"names": self.names, "spans": len(self.start),
                  "columns": [[c, getattr(self, c).typecode] for c in columns]}
        with open(path, "wb") as handle:
            handle.write((json.dumps(header) + "\n").encode())
            for column in columns:
                getattr(self, column).tofile(handle)


class _StrategyProxy:
    """Forwards to a strategy, timing ``begin_move`` and ``step``.

    Other attributes, such as ``stage`` or ``infeasible_reason``, are read
    through, so the engine sees the strategy it was given.
    """

    def __init__(self, inner, tracer: Tracer, side: str, stages: set) -> None:
        self._inner = inner
        self._stages = stages
        self._begin = tracer.wrap(f"{side}.begin_move", inner.begin_move)
        self._step = tracer.wrap(f"{side}.step", inner.step)

    def begin_move(self, board_, rng) -> None:
        self._begin(board_, rng)
        self._note_stage()

    def step(self, board_, rng):
        result = self._step(board_, rng)
        self._note_stage()
        return result

    def _note_stage(self) -> None:
        state = getattr(self._inner, "state", None)
        stage = getattr(state, "stage", None)
        if stage is not None:
            self._stages.add(stage)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def _timing_board(tracer: Tracer, base):
    claim = tracer.name_id("board.claim")
    is_free = tracer.name_id("board.is_free")
    free_edges = tracer.name_id("board.free_edges")

    class TimingBoard(base):
        __slots__ = ()

        def claim(self, player, edge):
            index = tracer.open(claim)
            try:
                return base.claim(self, player, edge)
            finally:
                tracer.close(index)

        def is_free(self, edge):
            index = tracer.open(is_free)
            try:
                return base.is_free(self, edge)
            finally:
                tracer.close(index)

        def free_edges(self):
            index = tracer.open(free_edges)
            try:
                return base.free_edges(self)
            finally:
                tracer.close(index)

    return TimingBoard


class Hooks:
    """Installs every hook on entry and restores the original names on exit.

    ``counts`` holds what spans cannot: claims, rounds, games on plan or in
    fallback, Hamiltonicity hits, lemma checks and trace bytes.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.counts = {"claims": 0, "rounds": 0, "plan": 0, "fallback": 0,
                       "ham_hits": 0, "checks": 0, "trace_bytes": 0,
                       "audits": 0}
        self.maker_stages: set = set()
        self.breaker_stages: set = set()
        self.missing: set[str] = set()
        self._saved: list[tuple[object, str, object]] = []

    def _patch(self, group: str, module, attr: str, make) -> None:
        original = getattr(module, attr, None)
        if original is None:
            self.missing.add(group)
            return
        self._saved.append((module, attr, original))
        setattr(module, attr, make(original))

    def __enter__(self) -> "Hooks":
        t = self.tracer
        counts = self.counts

        def played(args, result):
            outcome, trace = result
            counts["claims"] += len(trace.moves)
            counts["rounds"] += trace.rounds_played()
            breaker = args[2] if len(args) > 2 else None
            flagged = getattr(breaker, "infeasible_reason", None)
            counts["fallback" if flagged else "plan"] += 1

        def hits(args, result):
            counts["ham_hits"] += bool(result)

        def lemmas(args, result):
            counts["checks"] += len(result.checks)

        def audited(args, result):
            counts["audits"] += result is not None

        def written(args, result):
            counts["trace_bytes"] += os.path.getsize(args[0])

        def proxy_factory(side, stages):
            def make(original):
                def built(*args, **kwargs):
                    return _StrategyProxy(original(*args, **kwargs), t, side, stages)
                return built
            return make

        make_maker = proxy_factory("maker", self.maker_stages)
        make_breaker = proxy_factory("breaker", self.breaker_stages)
        self._patch("board", engine, "Board", lambda cls: _timing_board(t, cls))
        self._patch("board", audit, "new_board",
                    lambda fn: _timing_board(t, board.Board))
        for module in (engine, harness):
            self._patch("engine", module, "play_game",
                        lambda fn: t.wrap("engine.play", fn, played))
        self._patch("trace_io", engine, "write_trace",
                    lambda fn: t.wrap("engine.trace_write", fn, written))
        self._patch("trace_io", engine, "read_trace",
                    lambda fn: t.wrap("engine.trace_read", fn))
        for module in (maker_strategies, harness):
            self._patch("maker", module, "make_maker", make_maker)
        for module in (breaker_strategies, harness):
            self._patch("breaker", module, "make_breaker", make_breaker)
        self._patch("boxgame", breaker_strategies, "boxmaker_balancing_move",
                    lambda fn: t.wrap("boxgame.balancing", fn))
        for module in (engine, maker_strategies):
            self._patch("oracles", module, "is_hamiltonian",
                        lambda fn: t.wrap("oracles.is_hamiltonian", fn, hits))
        self._patch("oracles", maker_strategies, "boosters",
                    lambda fn: t.wrap("oracles.boosters", fn))
        for attr, name, after in (
                ("audit_game", "audit.audit_game", audited),
                ("canonical_audit_point", "audit.foreclosure", None),
                ("reconstruct_multisets", "audit.reconstruct", None),
                ("compute_g", "audit.compute_g", None),
                ("check_potential_lemmas", "audit.check", lemmas)):
            self._patch("audit", audit, attr,
                        lambda fn, name=name, after=after: t.wrap(name, fn, after))
        self._patch("harness", harness, "run_sweep",
                    lambda fn: t.wrap("harness.sweep", fn))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def unhooked(self, totals) -> set[str]:
        """Hook groups that cannot be trusted in this run.

        A group is unhooked when its target name is gone, or when its layer
        evidently did work that its hook never saw: claims without board or
        strategy spans, a plan in box play without a balancing call, a Maker
        in stage III without a Hamiltonicity test, an audit without its
        inner steps.
        """
        def calls(name):
            return totals.get(name, (0, 0.0, 0.0))[0]

        claims = self.counts["claims"]
        silent = set()
        if calls("engine.play") == 0:
            silent.add("engine")
        if claims and calls("board.claim") == 0:
            silent.add("board")
        if claims and calls("maker.step") == 0:
            silent.add("maker")
        if claims and calls("breaker.step") == 0:
            silent.add("breaker")
        if self.breaker_stages & {"box", "done"} and calls("boxgame.balancing") == 0:
            silent.add("boxgame")
        if self.maker_stages & {"III", "done"} and calls("oracles.is_hamiltonian") == 0:
            silent.add("oracles")
        if self.counts["audits"] and calls("audit.compute_g") == 0:
            silent.add("audit")
        return self.missing | silent


def layer_values(hooks: Hooks, pool: tuple[float, float, int] | None,
                 overhead_pct: float) -> dict[str, float | None]:
    """Every per-layer metric by name; None where it cannot be read.

    ``pool`` is the untraced pool run's ms, the untraced serial run's ms and
    the worker count, for a workload that runs on the pool.
    """
    totals = hooks.tracer.totals()
    counts = hooks.counts

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def busy(name):
        return totals.get(name, (0, 0.0, 0.0))[1]

    def own(*names):
        return sum(totals.get(n, (0, 0.0, 0.0))[2] for n in names)

    play_ms = busy("engine.play")
    values = {
        "board.claim_calls": calls("board.claim"),
        "board.claim_ms": busy("board.claim"),
        "board.is_free_calls": calls("board.is_free"),
        "board.free_edges_calls": calls("board.free_edges"),
        "board.free_edges_ms": busy("board.free_edges"),
        "engine.play_ms": play_ms,
        "engine.self_ms": own("engine.play"),
        "engine.claims": counts["claims"],
        "engine.rounds": counts["rounds"],
        "engine.claims_per_s": counts["claims"] / (play_ms / 1e3) if play_ms else 0.0,
        "engine.trace_write_ms": busy("engine.trace_write"),
        "engine.trace_read_ms": busy("engine.trace_read"),
        "engine.trace_bytes": counts["trace_bytes"],
        "maker.step_calls": calls("maker.step"),
        "maker.step_ms": busy("maker.step"),
        "maker.self_ms": own("maker.step", "maker.begin_move"),
        "breaker.begin_move_ms": busy("breaker.begin_move"),
        "breaker.step_ms": busy("breaker.step"),
        "breaker.plan_games": counts["plan"],
        "breaker.fallback_games": counts["fallback"],
        "boxgame.balancing_calls": calls("boxgame.balancing"),
        "boxgame.balancing_ms": busy("boxgame.balancing"),
        "oracles.is_hamiltonian_calls": calls("oracles.is_hamiltonian"),
        "oracles.is_hamiltonian_ms": busy("oracles.is_hamiltonian"),
        "oracles.is_hamiltonian_hits": counts["ham_hits"],
        "oracles.boosters_calls": calls("oracles.boosters"),
        "oracles.boosters_ms": busy("oracles.boosters"),
        "audit.audit_game_ms": busy("audit.audit_game"),
        "audit.foreclosure_ms": busy("audit.foreclosure"),
        "audit.reconstruct_ms": busy("audit.reconstruct"),
        "audit.compute_g_calls": calls("audit.compute_g"),
        "audit.compute_g_ms": busy("audit.compute_g"),
        "audit.check_ms": busy("audit.check"),
        "audit.checks": counts["checks"],
        "harness.sweep_ms": pool[0] if pool else 0.0,
        "harness.serial_sweep_ms": pool[1] if pool else 0.0,
        "harness.parallel_efficiency": pool[1] / (pool[2] * pool[0]) if pool else 0.0,
        "tracing.overhead_pct": overhead_pct,
    }
    broken = hooks.unhooked(totals)
    return {name: None if _hook_group(name) in broken else value
            for name, value in values.items()}


def layer_table(tracer: Tracer) -> list[str]:
    """Human-readable count, busy and self time per layer."""
    totals = tracer.totals()
    layers: dict[str, list] = {}
    for name, (count, busy_ms, self_ms) in totals.items():
        row = layers.setdefault(name.split(".")[0], [0, 0.0, 0.0])
        row[0] += count
        row[2] += self_ms
    # A layer is busy while any of its spans is open and not nested in another
    # span of the same layer.
    layer_of = [name.split(".")[0] for name in tracer.names]
    for i in range(len(tracer.start)):
        layer = layer_of[tracer.name[i]]
        p = tracer.parent[i]
        if p < 0 or layer_of[tracer.name[p]] != layer:
            layers[layer][1] += (tracer.end[i] - tracer.start[i]) * 1e3
    lines = [f"{'layer':<10} {'spans':>9} {'busy_ms':>11} {'self_ms':>11}"]
    for layer, (count, busy_ms, self_ms) in sorted(layers.items()):
        lines.append(f"{layer:<10} {count:>9} {busy_ms:>11.1f} {self_ms:>11.1f}")
    return lines

