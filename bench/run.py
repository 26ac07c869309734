#!/usr/bin/env python3
"""Benchmark of hmm-ensemble training and scoring.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload desk --seed 1 --seconds 30 --trace 0

Generates the workload's inputs from --seed, then runs whole rounds of the
workload, each in fresh processes, until --seconds have passed (at least one
round; two with --trace 1). Every round's outputs are checked against
reference computations. The last line of stdout is one JSON object:
end-to-end metrics (medians over rounds) with --trace 0, per-layer metrics
with --trace 1, where untraced and traced rounds alternate and
trace.overhead_s is the traced minus the untraced median wall time.
The program runs from ./src; nothing is installed or built.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import time
from pathlib import Path

import workloads as wl

RUN_LIMIT_S = 170.0  # a run must finish within 180 s


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    began = time.monotonic()
    if not (Path.cwd() / "src" / "hmm_ensemble" / "__init__.py").is_file():
        print("error: run from the root of an hmm-ensemble checkout (no src/hmm_ensemble)",
              file=sys.stderr)
        return 2
    workload = wl.WORKLOADS[args.workload]
    out = Path.cwd() / "bench" / "out" / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    inputs = wl.make_inputs(workload, args.seed, out / "inputs")
    print(f"inputs sha256={inputs.digest}", flush=True)
    deadline = began + RUN_LIMIT_S
    # Compile the package's bytecode once, so no round pays for it.
    warm = wl.run_child([sys.executable, "-c", "import hmm_ensemble.cli"], out / "warm.log",
                        deadline)
    if warm.code != 0:
        print("error: cannot import hmm_ensemble from ./src", file=sys.stderr)
        return 2

    run_round = wl.library_round if workload.api == "library" else wl.cli_round
    plain, traced = [], []
    start = time.monotonic()
    k = 0
    while k < 1 + args.trace or time.monotonic() - start < args.seconds:
        trace_this = bool(args.trace) and k % 2 == 1
        rdir = out / f"round{k}"
        rdir.mkdir()
        rnd = run_round(inputs, rdir, trace_this, deadline)
        (traced if trace_this else plain).append(rnd)
        k += 1
        if not (rnd.failed or rnd.problems):
            shutil.rmtree(rdir)  # keep the outputs of a round only when they failed
        if rnd.failed or time.monotonic() > deadline - 30:
            break

    rounds = plain + traced
    problems = [p for r in rounds for p in r.problems]
    ok_plain = [r for r in plain if not r.failed]
    ok_traced = [r for r in traced if not r.failed]
    if args.trace:
        metrics = wl.median_of(ok_traced, "layers")
        if ok_plain and ok_traced:
            metrics["trace.overhead_s"] = (
                statistics.median(r.times["wall_s"] for r in ok_traced)
                - statistics.median(r.times["wall_s"] for r in ok_plain))
        units = wl.LAYER_UNITS
    else:
        metrics = wl.median_of(ok_plain, "times")
        units = wl.END_TO_END
    result = {
        # A failed round adds a problem too; neither leaves its outputs unchecked.
        "correct": not problems and not any(r.failed for r in rounds),
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }
    (out / "run.json").write_text(json.dumps(
        {"workload": workload.name, "seed": args.seed, "inputs_sha256": inputs.digest,
         "rounds": [{**r.times, "auc": r.auc} for r in rounds], "problems": problems,
         **result}, indent=1))
    for p in problems[:10]:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
