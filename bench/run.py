"""Benchmark for mbg: three workloads, end-to-end metrics, a traced run.

    python3 bench/run.py --workload ham-3stage-14 --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --seed 1          # every workload, each in its own process

Run from the repository root.  The program is imported from ``src/`` of the
same checkout; nothing is installed.  With ``--trace 0`` the run repeats
whole rounds of operations until ``--seconds`` of operation time have passed
and prints the end-to-end metrics; with ``--trace 1`` it runs each operation
of one round untraced and traced, and prints the per-layer metrics.  Every
output is checked.  With ``--workload`` the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
without it, one object with that object for each workload, keyed by name.
See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 15
# Nominal time of one calibration loop on the reference machine.  Timings
# are reported at that interpreter speed; see README.md.
CALIBRATION_REF_S = 0.0012
CALIBRATION_ENDS = 3
CALIBRATION_PERIOD_S = 0.05


def _calibration_loop() -> float:
    """Time of a fixed pure-Python loop that uses no code of the program."""
    start = time.perf_counter()
    table = {}
    total = 0
    values = list(range(200))
    for i in range(7000):
        total += values[i % 200] * 3
        table[i & 255] = total
    return time.perf_counter() - start


def _timed(run, calibrate: bool) -> tuple[object, float, float]:
    """``run()``, its wall seconds, and its seconds at the reference speed.

    The host's speed drifts by up to 1.4x within seconds, so the wall time
    is scaled by the calibration loop's nominal time over the median of its
    times: three before the operation, three after, and one every 50 ms
    during it, from a thread.  Loops timed only at the ends of a one-second
    operation miss the changes inside it.
    """
    if not calibrate:
        start = time.perf_counter()
        result = run()
        elapsed = time.perf_counter() - start
        return result, elapsed, elapsed
    samples = [_calibration_loop() for _ in range(CALIBRATION_ENDS)]
    stop = threading.Event()

    def sample() -> None:
        while not stop.wait(CALIBRATION_PERIOD_S):
            samples.append(_calibration_loop())

    sampler = threading.Thread(target=sample)
    sampler.start()
    start = time.perf_counter()
    try:
        result = run()
    finally:
        elapsed = time.perf_counter() - start
        stop.set()
        sampler.join()
    samples += [_calibration_loop() for _ in range(CALIBRATION_ENDS)]
    speed = statistics.median(samples)
    return result, elapsed, elapsed * CALIBRATION_REF_S / speed


def _import_program() -> None:
    """Put this checkout's ``src`` first on the path and import mbg from it."""
    if not os.path.isfile(os.path.join(SRC, "mbg", "__init__.py")):
        sys.exit(f"bench: no program at {SRC}/mbg; run from a full checkout")
    sys.path.insert(0, SRC)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    import mbg
    if not os.path.abspath(mbg.__file__).startswith(SRC + os.sep):
        sys.exit(f"bench: mbg was imported from {mbg.__file__}, not {SRC}")


def _setup_seconds(workload: str, seed: int) -> float:
    """Median time, at the reference speed, of fresh processes that import
    the program and build the workload's inputs."""
    command = [sys.executable, os.path.abspath(__file__), "--workload",
               workload, "--seed", str(seed), "--probe-setup"]
    return statistics.median(
        _timed(lambda: subprocess.run(command, check=True), True)[2]
        for _ in range(SETUP_PROBES))


def _peak_rss_mb() -> float:
    """Peak RSS of this process."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Tally:
    """Operations attempted, failed by the known fault, and their times.

    ``durations`` are wall times; with ``calibrate`` set, ``calibrated``
    holds the same times at the reference interpreter speed.
    """

    def __init__(self, calibrate: bool = False) -> None:
        self.attempted = 0
        self.failed = 0
        self.games = 0
        self.durations: list[float] = []
        self.calibrated: list[float] = []
        self.faults: set[str] = set()
        self._calibrate = calibrate

    def run(self, wl, index: int) -> float:
        res, elapsed, calibrated = _timed(lambda: wl.op(index), self._calibrate)
        self.calibrated.append(calibrated)
        fault = wl.check(res)
        self.attempted += 1
        self.games += res.games
        self.durations.append(elapsed)
        if fault:
            self.failed += 1
            self.faults.add(fault)
        return elapsed

    def round(self, wl, first: int) -> float:
        return sum(self.run(wl, first + i) for i in range(wl.round_size))


def _spec_metrics(kind: str) -> dict[str, str]:
    """Name to unit of the ``kind`` metrics that BENCHMARK.json lists."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


def _metrics(kind: str, values: dict) -> dict:
    """``values`` as the ``kind`` metrics of BENCHMARK.json, with their units.

    A name measured here and not listed there, or the other way round, is an
    error, so the two cannot drift apart.  A value of None is an unhooked
    per-layer metric.
    """
    units = _spec_metrics(kind)
    if set(values) != set(units):
        raise SystemExit(f"bench: {kind} metrics measured "
                         f"{sorted(values)} differ from BENCHMARK.json {sorted(units)}")
    return {name: {"value": value, "unit": units[name]} if value is not None
            else {"value": None, "unit": units[name], "status": "unhooked"}
            for name, value in values.items()}


def run_timed(wl, seed: int, seconds: float) -> tuple[Tally, dict, list[str]]:
    setup_s = _setup_seconds(wl.name, seed)
    tally = Tally(calibrate=True)
    busy = 0.0
    while busy < seconds:
        busy += tally.round(wl, tally.attempted)
    peak = _peak_rss_mb()
    wl.finish()
    metrics = _metrics("end_to_end", {
        "setup_s": setup_s,
        "games_per_s": tally.games / sum(tally.calibrated),
        "op_ms_p50": statistics.median(tally.calibrated) * 1e3,
        "peak_rss_mb": peak,
    })
    lines = [f"{name} {m['value']:.4f} {m['unit']}" for name, m in metrics.items()]
    lines[0] += f" (median of {SETUP_PROBES} fresh processes)"
    lines.append(f"wall: {busy:.3f} s of operations, {tally.games / busy:.4f} "
                 f"games/s, op p50 {statistics.median(tally.durations) * 1e3:.4f} ms")
    return tally, metrics, lines + wl.summary(tally.calibrated)


def run_traced(wl, seed: int) -> tuple[Tally, dict, list[str]]:
    import tracing

    tally = Tally()
    workers = getattr(wl, "workers", 0)
    if workers:
        # One pool run, untraced, for harness.parallel_efficiency; the
        # reference and the traced runs are serial and in-process, as in the
        # timed run, so the hooks see every game.
        wl.threads = workers
        pool_ms = tally.round(wl, 0) * 1e3
        wl.threads = 1
    tracer = tracing.Tracer()
    hooks = tracing.Hooks(tracer)
    # Each operation runs untraced and traced back to back, the order
    # alternating, so drift over the run does not read as overhead.  A
    # one-operation round runs untraced, traced, untraced.
    if wl.round_size == 1:
        plan = [(0, False), (0, True), (0, False)]
    else:
        plan = [(i, traced != bool(i % 2))
                for i in range(wl.round_size) for traced in (False, True)]
    spent = {False: 0.0, True: 0.0}
    for index, traced in plan:
        if traced:
            tracer.op_id = index
            with hooks:
                spent[True] += tally.run(wl, index)
        else:
            spent[False] += tally.run(wl, index)
    reference = spent[False] / (2 if wl.round_size == 1 else 1)
    wl.finish()
    pool = (pool_ms, reference * 1e3, workers) if workers else None
    overhead = (spent[True] / reference - 1) * 100
    metrics = _metrics("per_layer", tracing.layer_values(hooks, pool, overhead))
    os.makedirs(OUT, exist_ok=True)
    spans = os.path.join(OUT, f"spans-{wl.name}-seed{seed}.bin")
    tracer.write(spans)
    lines = tracing.layer_table(tracer)
    lines.append(f"tracing overhead {overhead:.1f}% ({spent[True]:.3f} s traced "
                 f"against {reference:.3f} s untraced, same operations)")
    for name, m in metrics.items():
        value = m["value"]
        shown = ("unhooked" if value is None
                 else f"{value:.4f}" if isinstance(value, float) else str(value))
        lines.append(f"{name} {shown} {m['unit']}")
    lines.append(f"spans written to {os.path.relpath(spans, ROOT)}")
    return tally, metrics, lines


def run_one(args) -> int:
    from mbg.errors import MBGError

    from checks import CheckFailed
    from workloads import WORKLOADS

    if args.probe_setup:
        WORKLOADS[args.workload](args.seed, OUT)
        return 0
    out_dir = os.path.join(OUT, f"run-{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    correct = True
    try:
        wl = WORKLOADS[args.workload](args.seed, out_dir)
        try:
            if args.trace:
                tally, metrics, lines = run_traced(wl, args.seed)
            else:
                tally, metrics, lines = run_timed(wl, args.seed, args.seconds)
        except (CheckFailed, MBGError) as exc:
            print(f"bench: wrong output: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            correct = False
            tally, metrics, lines = Tally(), {}, []
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    faults = ",".join(sorted(tally.faults)) or "none"
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"ops={tally.attempted} games={tally.games} failed={tally.failed} "
          f"faults={faults}")
    for line in lines:
        print(line)
    print(json.dumps({"correct": correct, "attempted": max(tally.attempted, 1),
                      "failed": tally.failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in a fresh process, one after the other."""
    from workloads import WORKLOADS

    status = 0
    results = {}
    for name in WORKLOADS:
        command = [sys.executable, os.path.abspath(__file__), "--workload",
                   name, "--seed", str(args.seed), "--seconds",
                   str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout + "\n")
        if proc.returncode != 0:
            status = proc.returncode
            continue
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
        status |= 0 if results[name]["correct"] else 1
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="one workload; default: all of them")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="operation time to accumulate, in whole rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _import_program()
    from workloads import WORKLOADS
    if args.workload is None:
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"expected one of {', '.join(WORKLOADS)}")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
