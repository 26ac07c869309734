#!/usr/bin/env python3
"""Steadiness check: do two sets of runs of the same code agree?

Usage, from the root of a source checkout:

    python3 bench/steady.py

Runs bench/run.py --trace 0 ten times per set, in two sets, on every
workload in BENCHMARK.json for its run_seconds, each run with its own seed
(set s, run i uses seed 1000*s + i + 1), interleaving the workloads. For each
end-to-end metric it prints, per set, the median, the quartiles and the
quartile spread as a share of the median, and then whether the sets agree:
both spreads within the metric's bound in BENCHMARK.json, the two medians
within the bound of each other in either direction, every output correct,
and the same share of failed operations. Raw results go to
bench/out/steady.json.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
SETS = 2
RUNS = 10


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    results = {w: [[] for _ in range(SETS)] for w in names}
    for s in range(SETS):
        for i in range(RUNS):
            for w in names:
                r = run_once(w, 1000 * s + i + 1, seconds)
                results[w][s].append(r)
                print(f"set {s} run {i} {w}: correct={r['correct']} "
                      f"failed={r['failed']}/{r['attempted']} "
                      + " ".join(f"{k}={v['value']:.4g}" for k, v in r["metrics"].items()),
                      file=sys.stderr, flush=True)
    (ROOT / "bench" / "out").mkdir(parents=True, exist_ok=True)
    (ROOT / "bench" / "out" / "steady.json").write_text(json.dumps(results, indent=1))

    agree = True
    for w in names:
        first, second = results[w]
        print(f"\n{w}  ({RUNS} runs per set, {seconds} s each)")
        print(f"{'metric':12s} {'bound':>5s} " + " ".join(
            f"{'set ' + str(s) + ' median [q1, q3] spread':>38s}" for s in range(SETS))
            + "  change  agree")
        for name, bound in bounds.items():
            a, b = (spread([r["metrics"][name]["value"] for r in runs])
                    for runs in (first, second))
            change = b[0] / a[0] - 1
            ok = abs(change) <= bound and a[3] <= bound and b[3] <= bound
            agree &= ok
            print(f"{name:12s} {bound:5.2f} " + " ".join(
                f"{st[0]:9.4g} [{st[1]:9.4g}, {st[2]:9.4g}] {st[3]:6.1%}" for st in (a, b))
                + f"  {change:+6.1%}  {'yes' if ok else 'NO'}")
        shares = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
                  for runs in (first, second)]
        correct = all(r["correct"] for r in first + second)
        agree &= correct and shares[0] == shares[1]
        print(f"failed share per set: {shares}; all outputs correct: {correct}")
    print(f"\nsets agree within bounds: {'yes' if agree else 'NO'}")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
