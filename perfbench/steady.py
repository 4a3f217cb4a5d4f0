"""Steadiness check: run workloads over several seeds and report, per
end-to-end metric, the median, the quartiles and the spread (interquartile
range over median) against the metric's bound in BENCHMARK.json.

    python3 perfbench/steady.py [--workloads A,B] [--seeds 1-10] [--seconds S]

Runs are made one after another, each through run.py; the figures are
printed and written to perfbench/out/steady-<time>.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description="Run workloads over seeds and report spreads.")
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = p.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report, ok = {}, True
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            start = time.monotonic()
            proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                                   "--seed", str(seed), "--seconds", str(args.seconds),
                                   "--trace", "0"], cwd=ROOT, stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit code {proc.returncode}", file=sys.stderr)
                return 1
            run = json.loads(proc.stdout.strip().splitlines()[-1])
            run["wall_s"] = time.monotonic() - start
            runs.append(run)
            ok &= run["correct"] and run["failed"] == 0
        print(f"{workload}: {len(runs)} runs, wall {min(r['wall_s'] for r in runs):.1f}-"
              f"{max(r['wall_s'] for r in runs):.1f} s, units {min(r['attempted'] for r in runs)}-"
              f"{max(r['attempted'] for r in runs)}, all correct: {all(r['correct'] for r in runs)}")
        report[workload] = {"runs": runs, "metrics": {}}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            report[workload]["metrics"][name] = {"median": med, "q1": q1, "q3": q3,
                                                 "spread": spread, "bound": bound}
            flag = "" if name == "setup_s" or spread < bound / 3 else "  <-- above bound/3"
            print(f"  {name:16s} median {med:12.4f}  q1 {q1:12.4f}  q3 {q3:12.4f}  "
                  f"spread {spread:7.4f}  bound {bound}{flag}")
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json").write_text(json.dumps(report, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
