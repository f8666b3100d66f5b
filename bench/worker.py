"""One benchmark worker: set up, run a workload's CLI operations, check them.

A fresh interpreter per worker, so every sample pays interpreter start,
`import decstar` and input generation the way a user's run does.  The
operations run in-process through `decstar.cli.main(argv)`, one after the
other.  Peak RSS is read right after the timed region, before the output
checks run.  The worker prints one JSON object on stdout.

    python3 bench/worker.py --workload NAME --seed N --work DIR --mode MODE

MODE is `setup` (stop before the first CLI call), `plain` or `traced`.
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import decstar.cli

import workloads
from spans import Tracer, layer_metrics


def run_op(argv: list) -> workloads.OpResult:
    """One CLI operation in-process, with its exit status and output."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = decstar.cli.main(argv)
        except SystemExit as exc:  # argparse rejects its arguments
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a traceback is a failed operation, not a crash
            traceback.print_exc()
            code = -1
    return workloads.OpResult(code, out.getvalue(), err.getvalue())


def execute(name: str, seed: int, work: Path, mode: str = "plain",
            sizes: dict = workloads.FULL) -> dict:
    ops, facts = workloads.prepare(name, seed, work, sizes)
    first_call = time.monotonic()
    if mode == "setup":
        return {"first_call": first_call}
    tracer = Tracer() if mode == "traced" else None
    if tracer is not None:
        tracer.install()
    results = []
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    try:
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.request = i
            results.append(run_op(op.argv))
    finally:
        run_s = time.perf_counter() - t0
        cpu_s = time.process_time() - cpu0
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems = workloads.check(name, ops, results, facts)
    report = {
        "first_call": first_call,
        "run_s": run_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(ops),
        "failed": sum(1 for p in problems if p),
        "failures": [f"{op.label}: {reason}"
                     for op, p in zip(ops, problems) for reason in p],
    }
    if tracer is not None:
        tracer.write(work / "spans.jsonl")
        layers = layer_metrics(tracer.spans, run_s)
        layers.update(workloads.health(
            [r for r, p in zip(results, problems) if not p]))
        report["layers"] = layers
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--mode", choices=["setup", "plain", "traced"],
                        required=True)
    args = parser.parse_args()
    args.work.mkdir(parents=True, exist_ok=True)
    report = execute(args.workload, args.seed, args.work, args.mode)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
