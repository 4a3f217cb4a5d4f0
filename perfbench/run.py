"""Benchmark command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Each measurement runs in a fresh
child process (perfbench/bench.py) that imports the program from ./src,
with BLAS and OpenMP threads pinned to 1. With --trace 0 the last line of
stdout holds the end-to-end metrics; with --trace 1 it holds the per-layer
metrics of a traced run, and the tracing overhead measured against an
untraced run of the same seed. Missing benchmark weights are written first.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("infer_default", "infer_toy_long", "train_toy")
TIME_LIMIT_S = 170
PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
          "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")


def child_env():
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    env.update({name: "1" for name in PINNED})
    return env


def child(script, args, deadline):
    """Run a perfbench script in a fresh interpreter; return its last stdout line."""
    proc = subprocess.run([sys.executable, str(HERE / script), *args], cwd=ROOT, env=child_env(),
                          stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"{script} exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    return lines[-1] if lines else ""


def measure(args, trace, deadline):
    return json.loads(child("bench.py", ["--workload", args.workload, "--seed", str(args.seed),
                                         "--seconds", str(args.seconds), "--trace", str(trace)],
                            deadline))


def main():
    p = argparse.ArgumentParser(description="Run one benchmark workload.")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if not (SRC / "refvos" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC / 'refvos'}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(HERE))
    import weights
    if not all(path.is_file() for model in weights.MODELS for path in weights.paths(model)):
        child("weights.py", [], time.monotonic() + 600)
    deadline = time.monotonic() + TIME_LIMIT_S

    try:
        if not args.trace:
            run = measure(args, 0, deadline)
            metrics = run["metrics"]
            correct = run["correct"]
        else:
            plain = measure(args, 0, deadline)
            run = measure(args, 1, deadline)
            metrics = run["layers"]
            fps, traced_fps = plain["metrics"]["frames_per_s"]["value"], run["metrics"]["frames_per_s"]["value"]
            metrics["trace.overhead_pct"] = {"value": 100.0 * (fps - traced_fps) / fps, "unit": "%"}
            correct = plain["correct"] and run["correct"]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": correct, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
