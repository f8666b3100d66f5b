"""decstar benchmark: seeded workloads through the CLI, one worker per sample.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; decstar is imported from `src/`.
Each sample is a fresh worker process (bench/worker.py) that imports
decstar, writes the seeded inputs and runs the workload's CLI operations
in-process, one workload at a time.  Samples run in a closed loop, one
after another, until the next one would end past S seconds, and at least
MIN_ROUNDS times.

Between samples, and before the first, the run times a host-speed probe:
a fresh interpreter that imports the libraries decstar builds on, but not
decstar, so no change to decstar moves it.  On a shared 2-core host the
same sample ran up to 1.7 times slower in some minutes than in others, for
minutes at a time, and the probe slowed with it: over five seeds of
mixed_2d, the quartile spread of the run medians was 0.27 of their median
in wall time and 0.13 after dividing by the probe.

End-to-end metrics (--trace 0), medians over the samples of the run:
  run_rel      wall time from the first CLI call to the end of the last,
               over the mean of the probes just before and after the sample
  setup_s      interpreter start, `import decstar` and input generation,
               up to the first CLI call; every worker and SETUP_PROBES extra
               set-up-only workers contribute a sample
  peak_rss_mb  the worker's own peak RSS after its last CLI call
With --trace 1 the run alternates untraced and traced samples and reports
the per-layer metrics of bench/spans.py instead.  Metric names and units are
those of BENCHMARK.json.

The line before the result gives every sample (wall `run_s` as well), the
probe times, the sample counts, the maxima, `failed_ops` (failed CLI
operations over attempted ones), the failure reasons and the environment.  The last line is the result object.
Exit status 2 means the checkout holds no decstar sources; 1 means a worker
crashed or ran out of time, and then no result line is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS  # noqa: E402

MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 2
SETUP_PROBES = 2
# A run ends this long after --seconds at the latest: the last sample may
# start just before --seconds, and a slow one takes up to this long.
DEADLINE_SLACK_S = 140.0
# BLAS threads are pinned to 1: on mixed_2d two OpenBLAS threads doubled the
# CPU time and gained no wall time on a 2-core machine.  glibc's malloc gets
# fixed thresholds: its default sliding mmap threshold made the same worker
# take either about 300k or about 800k page faults (1 s or 2 s of system
# time on an 8 s dual_inverse sample), depending on the order of frees.
RUN_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1",
           "MALLOC_MMAP_THRESHOLD_": str(32 << 20),
           "MALLOC_TRIM_THRESHOLD_": str(128 << 20)}
PROBE = ("import time, numpy, scipy.io, scipy.linalg, scipy.sparse, "
         "scipy.spatial; print(time.monotonic())")


class BenchError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ, **RUN_ENV)
    path = [str(ROOT / "src"), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in path if p)
    return env


class Runner:
    """Spawns workers for one benchmark run and keeps their reports."""

    def __init__(self, workload: str, seed: int, work: Path, deadline: float):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.deadline = deadline
        self.env = worker_env()
        self.count = 0

    def spawn(self, mode: str) -> dict:
        self.count += 1
        rep = self.work / f"{self.count:03d}-{mode}"
        cmd = [sys.executable, str(BENCH / "worker.py"),
               "--workload", self.workload, "--seed", str(self.seed),
               "--work", str(rep), "--mode", mode]
        spawned = time.monotonic()
        proc = self._run(cmd, f"{mode} worker")
        try:
            report = json.loads(proc.stdout.splitlines()[-1])
        except (IndexError, json.JSONDecodeError) as exc:
            raise BenchError(f"{mode} worker printed no report: {exc}") from exc
        report["setup_s"] = report.pop("first_call") - spawned
        report["spans"] = rep / "spans.jsonl"
        return report

    def probe(self) -> float:
        """Seconds from spawning a host-speed probe to the end of its
        imports, timed as `setup_s` is."""
        spawned = time.monotonic()
        proc = self._run([sys.executable, "-c", PROBE], "probe")
        return float(proc.stdout) - spawned

    def _run(self, cmd: list, what: str) -> subprocess.CompletedProcess:
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=self.env, text=True, capture_output=True,
                timeout=max(self.deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{what} ran past the run's deadline") from exc
        if proc.returncode != 0:
            raise BenchError(f"{what} exited {proc.returncode}:\n"
                             f"{proc.stderr[-3000:]}")
        return proc


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((ROOT / "src" / "decstar").glob("*.py")))
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "run_env": RUN_ENV,
        "commit": commit,
        "src_lines": src_lines,
    }


def summary(values: list) -> dict:
    return {"median": statistics.median(values), "max": max(values),
            "n": len(values), "values": values}


def measure(args) -> tuple:
    started = time.monotonic()
    work = ROOT / ".bench_runs" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    runner = Runner(args.workload, args.seed, work,
                    started + args.seconds + DEADLINE_SLACK_S)
    try:
        runner.spawn("setup")  # warms the file cache and bytecode; not kept
        setups = [runner.spawn("setup")["setup_s"] for _ in range(SETUP_PROBES)]
        modes = ["plain", "traced"] if args.trace else ["plain"]
        min_rounds = MIN_TRACED_ROUNDS if args.trace else MIN_ROUNDS
        reports = {m: [] for m in modes}
        t0 = time.monotonic()
        probes = [runner.probe()]
        rounds = 0
        while True:
            for mode in modes:
                report = runner.spawn(mode)
                probes.append(runner.probe())
                report["probe_s"] = (probes[-2] + probes[-1]) / 2
                reports[mode].append(report)
            rounds += 1
            elapsed = time.monotonic() - t0
            if rounds >= min_rounds and elapsed * (rounds + 1) / rounds > args.seconds:
                break
        if args.trace:
            spans = ROOT / ".bench_runs" / f"{args.workload}-seed{args.seed}.spans.jsonl"
            shutil.copyfile(reports["traced"][-1]["spans"], spans)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return setups, probes, reports


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "decstar" / "cli.py").is_file():
        print(f"error: no decstar sources under {ROOT / 'src'}; run from the "
              f"root of a decstar checkout", file=sys.stderr)
        return 2
    try:
        setups, probes, reports = measure(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    plain = reports["plain"]
    everyone = [r for rs in reports.values() for r in rs]
    attempted = sum(r["attempted"] for r in everyone)
    failed = sum(r["failed"] for r in everyone)
    run_s = [r["run_s"] for r in plain]
    run_rel = [r["run_s"] / r["probe_s"] for r in plain]
    setup_s = setups + [r["setup_s"] for r in everyone]
    rss = [r["peak_rss_mb"] for r in plain]
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "run_rel": summary(run_rel), "run_s": summary(run_s),
        "probe_s": summary(probes), "setup_s": summary(setup_s),
        "peak_rss_mb": summary(rss),
        "cpu_s": summary([r["cpu_s"] for r in plain]),
        "failed_ops": failed / attempted,
        "failures": sorted({f for r in everyone for f in r["failures"]}),
        "env": environment(),
    }
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        traced = reports["traced"]
        layers = {k: statistics.median(r["layers"][k] for r in traced)
                  for k in traced[0]["layers"]}
        layers["run.wall_s"] = statistics.median(run_s)
        layers["run.cpu_s"] = statistics.median(r["cpu_s"] for r in plain)
        layers["trace.overhead"] = (
            statistics.median(r["run_s"] / r["probe_s"] for r in traced)
            / statistics.median(run_rel) - 1.0)
        detail["traced_run_s"] = summary([r["run_s"] for r in traced])
        values, listed = layers, spec["per_layer"]
    else:
        values = {"run_rel": statistics.median(run_rel),
                  "setup_s": statistics.median(setup_s),
                  "peak_rss_mb": statistics.median(rss)}
        listed = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in listed}
    print(json.dumps(detail))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
