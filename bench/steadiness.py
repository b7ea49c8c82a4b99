"""Run the benchmark on several seeds and report how steady each metric is.

    python3 bench/steadiness.py --seeds 1-10 --label first
    python3 bench/steadiness.py --seeds 1 --trace --label traced
    python3 bench/steadiness.py --seeds 1-3 --overhead --label overhead

The workloads and the run length are those of BENCHMARK.json.
Untraced: for every workload and seed one `run.py` run (workloads
interleaved, seed by seed); per end-to-end metric the median, the
quartiles (statistics.quantiles, n=4) and their distance as a share of
the median.  --trace: two traced runs per workload and seed, whether
their counts agree exactly, and the traced pass time.  --overhead: one
untraced and one traced pass per workload and seed, each in a fresh
process, and the median ratio of their times.
Results go to bench/out/steadiness-<label>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONFIG["workloads"]]
SECONDS = CONFIG["run_seconds"]


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def bench(workload, seed, trace):
    start = time.monotonic()
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(SECONDS),
                           "--trace", str(int(trace))],
                          cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    res["elapsed_s"] = time.monotonic() - start
    res["stderr"] = proc.stderr.strip().splitlines()
    return res


def overhead(seeds):
    """Median time of one traced pass over one untraced pass, per workload."""
    import run

    out = {}
    for w in WORKLOADS:
        ratios = []
        for seed in seeds:
            plain, traced = (sum(run.worker(w, seed, time.monotonic() + 170.0, extra)["job_s"]
                                 .values()) for extra in ((), ("--trace",)))
            ratios.append(traced / plain)
            print(f"{w} seed {seed}: untraced {plain:.3f} s, traced {traced:.3f} s", flush=True)
        out[w] = {"ratios": ratios, "median_overhead": statistics.median(ratios) - 1.0}
    return out


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / med}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--overhead", action="store_true")
    parser.add_argument("--label", required=True)
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)
    OUT.mkdir(exist_ok=True)
    if args.overhead:
        res = overhead(seeds)
        path = OUT / f"steadiness-{args.label}.json"
        path.write_text(json.dumps(res, indent=1) + "\n")
        for w, r in res.items():
            print(f"{w}: tracing overhead {r['median_overhead']:+.1%}")
        return 0
    runs = {w: [] for w in WORKLOADS}
    for seed in seeds:
        for w in WORKLOADS:
            for _ in range(2 if args.trace else 1):
                res = bench(w, seed, args.trace)
                res["seed"] = seed
                runs[w].append(res)
                vals = {k: round(v["value"], 4) for k, v in res["metrics"].items()
                        if not args.trace}
                print(f"{w} seed {seed}: {res['elapsed_s']:.1f} s, attempted {res['attempted']}, "
                      f"failed {res['failed']} {vals}", flush=True)
    summary = {}
    for w, rs in runs.items():
        if args.trace:
            counts = [{k: v["value"] for k, v in r["metrics"].items() if v["unit"] != "s"}
                      for r in rs]
            summary[w] = {"counts_repeat": all(a == b for a, b in zip(counts[::2], counts[1::2])),
                          "traced_pass_s": [r["stderr"][-1] for r in rs]}
        else:
            summary[w] = {name: spread([r["metrics"][name]["value"] for r in rs])
                          for name in rs[0]["metrics"]}
            summary[w]["failed_share"] = sorted({r["failed"] / r["attempted"] for r in rs})
            summary[w]["elapsed_s_max"] = max(r["elapsed_s"] for r in rs)
    path = OUT / f"steadiness-{args.label}.json"
    path.write_text(json.dumps({"seeds": seeds, "seconds": SECONDS, "summary": summary,
                                "runs": runs}, indent=1) + "\n")
    for w, s in summary.items():
        print(w)
        for name, v in s.items():
            if isinstance(v, dict):
                print(f"  {name}: median {v['median']:.4g}  q1 {v['q1']:.4g}  q3 {v['q3']:.4g}  "
                      f"iqr/median {v['iqr_share']:.3f}")
            else:
                print(f"  {name}: {v}")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
