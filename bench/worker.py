"""One benchmark process: set up a workload, then run each of its jobs once.

    python3 bench/worker.py --workload cover --seed 1
    python3 bench/worker.py --workload cover --seed 1 --trace --out trace.json

The clock starts on the first line, before numpy, scipy, sympy or soboheat
is imported, so `setup_s` covers the imports a workload needs and the
construction of its charts and inputs.  Then one pass runs every job
once, as a fresh `soboheat` process would, first-call costs included;
`--trace` records every call into the layers as a span while it runs.
The last line of standard output is one JSON object.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def run_pass(jobs, log):
    """Run every job once: ({job: seconds} for the jobs that returned, failed).

    A job fails when it raises or when its check rejects the output."""
    times, failed = {}, 0
    for name, run, check in jobs:
        start = time.perf_counter()
        try:
            out = run()
        except Exception:
            failed += 1
            log(f"{name}: raised\n{traceback.format_exc()}")
            continue
        times[name] = time.perf_counter() - start
        problems = check(out)
        del out
        if problems:
            failed += 1
            log(f"{name}: " + "; ".join(problems))
    return times, failed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", help="trace file (with --trace)")
    args = parser.parse_args()

    import workloads

    cls = workloads.WORKLOADS[args.workload]
    mods = workloads.import_layers(cls.LAYERS)
    if not Path(mods["geometry"].__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: soboheat imported from {mods['geometry'].__file__}", file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    workload = cls(mods, args.seed)
    setup_s = time.perf_counter() - T_START

    def log(msg):
        print(f"[{args.workload} seed {args.seed}] {msg}", file=sys.stderr)

    times, failed = run_pass(workload.jobs, log)
    result = {
        "setup_s": setup_s,
        "job_s": times,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,  # kB on Linux
        "attempted": len(workload.jobs),
        "failed": failed,
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.layer_metrics()
        result["spans"] = len(tracer.labels)
        if args.out:
            tracer.dump(args.out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
