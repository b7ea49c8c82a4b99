"""soboheat benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload cover --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from its
`src/`.  Every process is started fresh (`worker.py`), one at a time, with
BLAS/OpenMP threads capped at the number of usable CPUs.

--trace 0 starts fresh processes, each of which sets the workload up and
runs every job once, while another one of the last one's length still
fits in --seconds (at least three), and prints the end-to-end metrics,
each the median over the processes: setup_s, wall_s (time of the pass),
job_p50_s (median over jobs of each job's median time) and peak_rss_mb.
--trace 1 runs one process with every public call into the layers
recorded as a span, writes the spans to bench/out/, and prints the
per-layer metrics.

The last line of standard output is
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
MIN_PROCESSES = 3
TIME_LIMIT_S = 170.0  # the whole run, all processes together
END_TO_END = {"setup_s": "s", "wall_s": "s", "job_p50_s": "s", "peak_rss_mb": "MB"}


def worker(workload, seed, deadline, extra=()):
    """Run worker.py in a fresh process and return its last output line."""
    cpus = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ, PYTHONHASHSEED="0")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = cpus
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload, seed, seconds, deadline):
    """Fresh processes while another fits in `seconds`: their results."""
    runs = []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        runs.append(worker(workload, seed, deadline))
        now = time.monotonic()
        if now + (now - t0) > deadline:
            break
        if len(runs) >= MIN_PROCESSES and now - start + (now - t0) > seconds:
            break
    return runs


def end_to_end(runs):
    """Each metric's median over the processes."""
    jobs = {name for r in runs for name in r["job_s"]}
    job_s = [statistics.median(r["job_s"][name] for r in runs if name in r["job_s"])
             for name in jobs]
    return {
        "setup_s": statistics.median(r["setup_s"] for r in runs),
        "wall_s": statistics.median(sum(r["job_s"].values()) for r in runs),
        "job_p50_s": statistics.median(job_s),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "soboheat" / "__init__.py").is_file():
        print(f"error: no soboheat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        if args.trace:
            OUT.mkdir(exist_ok=True)
            path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            runs = [worker(args.workload, args.seed, deadline, ["--trace", "--out", str(path)])]
            import spans

            metrics = {name: {"value": runs[0]["layers"][name], "unit": unit}
                       for name, unit in spans.UNITS.items()}
            print(f"traced pass: {sum(runs[0]['job_s'].values()):.3f} s, "
                  f"{runs[0]['spans']} spans -> {path}", file=sys.stderr)
        else:
            runs = measure(args.workload, args.seed, args.seconds, deadline)
            metrics = {name: {"value": value, "unit": END_TO_END[name]}
                       for name, value in end_to_end(runs).items()}
            setups = ", ".join(f"{r['setup_s']:.3f}" for r in runs)
            passes = ", ".join(f"{sum(r['job_s'].values()):.3f}" for r in runs)
            print(f"{len(runs)} processes, set-ups {setups} s, passes {passes} s",
                  file=sys.stderr)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    failed = sum(r["failed"] for r in runs)
    print(json.dumps({"correct": failed == 0, "attempted": sum(r["attempted"] for r in runs),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
