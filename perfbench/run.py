"""The repository benchmark: one command, three workloads, one JSON line.

Run from the repository root::

    python3 perfbench/run.py --workload offline-table1 --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation
installed.  ``--trace 1`` is a separate run that wraps each layer's
public calls in spans and reports the per-layer metrics instead.  The
last line of standard output is the result::

    {"correct": true, "attempted": 5, "failed": 0, "metrics": {...}}

An environment record (commit, cores, Python/numpy/BLAS, BLAS threads,
start method, ``*_NUM_THREADS``) is printed on the line before it and
kept, with the spans of a traced run, under ``.perfbench_out/``.
See ``perfbench/README.md`` for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("offline-table1", "cohort-sharded", "gateway-live")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny: minute inputs, for the benchmark's own tests",
    )
    return parser.parse_args(argv)


def _workload(name: str):
    if name == "offline-table1":
        from perfbench import offline as module
    elif name == "cohort-sharded":
        from perfbench import cohort as module
    else:
        from perfbench import gateway as module
    return module.run


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no library source under {ROOT}/src/repro; run "
              f"from a full checkout of the repository", file=sys.stderr)
        return 2
    for path in (os.path.join(ROOT, "src"), ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)

    from perfbench.common import (
        COHORT_LAYERS, END_TO_END, OUT, PER_LAYER, Context,
    )
    from perfbench.host import environment
    from perfbench.spans import Tracer

    tracer = Tracer() if args.trace else None
    ctx = Context(seed=args.seed, seconds=args.seconds, tracer=tracer,
                  tiny=args.size == "tiny")
    started = time.time()
    try:
        outcome = _workload(args.workload)(ctx)
    except Exception:
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1

    if args.trace:
        units = dict(PER_LAYER)
        if args.workload == "cohort-sharded":
            units.update(COHORT_LAYERS)
        values = {name: outcome.per_layer.get(name, 0.0) for name in units}
    else:
        values = {
            name: outcome.end_to_end[name] for name in END_TO_END
            if name in outcome.end_to_end
        }
        units = END_TO_END
    metrics = {
        name: {"value": float(value), "unit": units[name]}
        for name, value in values.items()
    }
    for problem in outcome.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    result = {
        "correct": bool(outcome.correct and len(metrics) == len(units)),
        "attempted": int(max(1, outcome.attempted)),
        "failed": int(outcome.failed),
        "metrics": metrics,
    }
    env = environment(ROOT)
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(
        OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}"
    )
    with open(f"{stem}.json", "w") as handle:
        json.dump({
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "size": args.size,
            "started": started, "environment": env, "result": result,
            "problems": outcome.problems, "samples": outcome.samples,
        }, handle)
    if tracer is not None:
        tracer.dump(f"{stem}.spans.jsonl")
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
