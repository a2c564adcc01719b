"""Steadiness of the end-to-end metrics over two separate sets of runs.

    python3 bench/steady.py --runs 10

Set A runs seeds 1..runs and set B seeds 1001..1000+runs, each run a fresh
``bench/run.py --workload W --seed S --seconds T --trace 0`` process for
every workload W in BENCHMARK.json, with T its ``run_seconds``, all of set A
before set B.  For every workload and end-to-end metric it prints each set's
median and quartiles, the spread (q3 - q1) / median, and how far set B's
median moved from set A's, both against the metric's bound in
BENCHMARK.json.  A metric passes when its spread in each set is within the
bound and set B's median differs from set A's, in either direction, by no
more than the bound; every workload must fail the same share of operations
in both sets.  Raw values go to bench/out/steady.json.  Exits 1 on a miss.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def one_run(workload: str, seed: int, seconds: int) -> dict:
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", "0"]
    proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"steady: {workload} seed {seed} gave wrong output")
    return result


def summarize(values: list[float]) -> tuple[float, float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    sets = {"A": range(1, args.runs + 1), "B": range(1001, 1001 + args.runs)}
    raw: dict = {w: {s: [] for s in sets} for w in workloads}
    for set_name, seeds in sets.items():
        for seed in seeds:
            for workload in workloads:
                result = one_run(workload, seed, seconds)
                raw[workload][set_name].append(result)
                shown = " ".join(f"{k}={m['value']:.4g}"
                                 for k, m in result["metrics"].items())
                print(f"set {set_name} {workload} seed={seed} "
                      f"ops={result['attempted']} failed={result['failed']} "
                      f"{shown}", flush=True)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "steady.json"), "w",
              encoding="utf-8") as handle:
        json.dump(raw, handle, indent=1)

    ok = True
    print(f"\n{'workload':<20} {'metric':<12} {'set':<3} {'median':>11} "
          f"{'q1':>11} {'q3':>11} {'spread':>7} {'change':>7} {'bound':>6}  verdict")
    for workload in workloads:
        shares = {s: [(r["failed"], r["attempted"]) for r in raw[workload][s]]
                  for s in sets}
        fractions = {s: {f / a for f, a in pairs} for s, pairs in shares.items()}
        same = len(fractions["A"] | fractions["B"]) == 1
        ok &= same
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = {s: summarize([r["metrics"][name]["value"]
                                   for r in raw[workload][s]]) for s in sets}
            change = stats["B"][0] / stats["A"][0] - 1
            for s in sets:
                median, q1, q3, spread = stats[s]
                verdict = "ok" if spread <= bound else "SPREAD"
                if verdict == "ok" and spread > bound / 3:
                    verdict = "ok (spread above a third of the bound)"
                shown_change = f"{change:>+7.1%}" if s == "B" else " " * 7
                if s == "B" and abs(change) > bound:
                    verdict = "MOVED"
                ok &= verdict.startswith("ok")
                print(f"{workload:<20} {name:<12} {s:<3} {median:>11.4f} "
                      f"{q1:>11.4f} {q3:>11.4f} {spread:>7.1%} {shown_change} "
                      f"{bound:>6.0%}  {verdict}")
        print(f"{workload:<20} failed share A={sorted(fractions['A'])} "
              f"B={sorted(fractions['B'])} {'same' if same else 'DIFFERENT'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
