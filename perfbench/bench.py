"""One benchmark run of one workload, in the process run.py starts for it.

Set-up is timed repeatedly and the median kept; then a warm-up; then a
timed window that runs whole units (a clip for inference, a step for
training) until --seconds have passed and at least MIN_UNITS units are
done; then the output checks. The window leaves the program as it is: the
collector, gradient recording and the track token are untouched. The last
line of stdout is a JSON object with the run's figures.
"""

import argparse
import dataclasses
import itertools
import json
import resource
import shutil
import statistics
import sys
import time

import numpy as np

import checks
import reference
import weights
from tracer import Tracer, retained_mib_per_frame
from refvos import data as rdata, io as rio, metrics as rmetrics, tracking as rtracking
from refvos.model import SEED_SAMPLER, Model
from refvos.optim import AdamW

# Set-up is repeated until both are reached; its median is reported.
SETUP_REPEATS = 5
SETUP_SECONDS = 1.0
WARMUP_UNITS = 3
# 40 units give a median, 100 leave 10 samples beyond the 90th percentile.
MIN_UNITS = 100
OUT = weights.HERE / "out"


def clip_spec(cfg, seed, k=0):
    """The data section's clip spec; clip k of --seed `seed`."""
    d = cfg.data
    return rdata.SyntheticSpec(height=d.height, width=d.width, frames=d.frames,
                               min_objects=d.min_objects, max_objects=d.max_objects,
                               seed=1000 * seed + k)


def on_8bit_grid(clip):
    """The frames as a PPM file stores them."""
    return rdata.VideoClip(frames=[np.clip(np.round(f * 255.0), 0, 255) / 255.0
                                   for f in clip.frames])


class Workload:
    def prepare(self):
        """Make the inputs; not part of set-up."""

    def after_setup(self):
        """Record what the checks compare against, outside the set-up timer."""


class Inference(Workload):
    """Segment clips online with a model loaded from the benchmark weights."""
    model_name = None
    causal_prefix = None

    def __init__(self, seed):
        self.seed = seed
        self.cfg = weights.run_config(self.model_name)
        self.outputs = {}            # clip index -> masks of its first run
        self.repeats_differ = 0

    def setup(self):
        arrays = rio.load_checkpoint(str(weights.paths(self.model_name)[0]))
        self.model = Model(self.cfg.model_config(), seed=self.cfg.train.seed)
        self.model.load_state(arrays)

    def record(self, k, masks):
        first = self.outputs.setdefault(k, masks)
        if first is not masks and not all(np.array_equal(a, b) for a, b in zip(first, masks)):
            self.repeats_differ += 1

    def check(self, scores):
        """scores(k, masks) -> the program's (J, F) for clip k."""
        failures = [f"{self.repeats_differ} repeated clips gave other masks"] if self.repeats_differ else []
        arch = weights.reference_arch(self.model_name)
        if tuple(self.model.vcfg.tap_indices) != arch["taps"]:
            failures.append(f"encoder taps {self.model.vcfg.tap_indices} are not {arch['taps']}")
        arrays = dict(np.load(weights.paths(self.model_name)[1]))
        for k, masks in sorted(self.outputs.items()):
            clip, expr, gts = self.truth[k]
            ref = reference.segment(arrays, arch, clip.frames, expr.words)
            bad, resolved = checks.compare_with_reference(masks, ref)
            failures += [f"clip {k}: {msg}" for msg in bad]
            if k == 0:
                failures += checks.check_jf(*scores(k, masks), resolved, gts)
                failures += checks.check_causality(self.model, clip, expr, masks,
                                                   self.causal_prefix)
        return failures


class InferDefault(Inference):
    """What `refvos eval --checkpoint` does, at the ModelConfig defaults."""
    model_name = "default"
    clips = 8
    causal_prefix = 3

    def prepare(self):
        root = weights.WORK / "data" / f"infer_default-{self.seed}"
        shutil.rmtree(root, ignore_errors=True)
        spec = clip_spec(self.cfg, self.seed)
        rdata.write_dataset(str(root), spec, self.clips)
        self.dirs = rdata.list_clips(str(root))
        self.tolerance = self.cfg.eval.tolerance_px if self.cfg.eval.tolerance_px >= 0 else None
        self.scores = {}
        # write_dataset gives clip k the seed spec.seed + k
        self.truth = []
        for k in range(self.clips):
            clip, expr, gts = rdata.generate_clip(dataclasses.replace(spec, seed=spec.seed + k))
            self.truth.append((on_8bit_grid(clip), expr, gts))

    def unit(self, i):
        k = i % self.clips
        clip, expr, gts = rdata.read_clip(self.dirs[k])
        masks = rtracking.segment_clip(self.model, clip, expr)
        m = rmetrics.evaluate_sequence(masks, gts, self.tolerance)
        self.scores.setdefault(k, (m.J, m.F))
        self.record(k, masks)
        return len(masks)

    def check(self):
        return super().check(lambda k, masks: self.scores[k])


class InferToyLong(Inference):
    """Toy config; each long clip is segmented online in one segment_clip call."""
    model_name = "toy"
    clips = 4
    frames = 24
    causal_prefix = 10

    def prepare(self):
        self.truth = [self.long_clip(clip_spec(self.cfg, self.seed, 100 * k))
                      for k in range(self.clips)]

    def long_clip(self, spec):
        """Generated 5-frame clips cannot be made long (moving objects leave
        their cell), so a short clip is played forward and back. Reversal
        would turn 'moving left' into 'moving right', so sub-seeds are tried
        in order until the referred object is static."""
        for s in itertools.count(spec.seed):
            clip, expr, gts = rdata.generate_clip(dataclasses.replace(spec, seed=s))
            if "static" in expr.words:
                break
        n = len(clip.frames)
        order = list(itertools.islice(itertools.cycle(list(range(n)) + list(range(n - 2, 0, -1))),
                                      self.frames))
        return rdata.VideoClip(frames=[clip.frames[t] for t in order]), expr, [gts[t] for t in order]

    def unit(self, i):
        k = i % self.clips
        clip, expr, _ = self.truth[k]
        masks = rtracking.segment_clip(self.model, clip, expr)
        self.record(k, masks)
        return len(masks)

    def check(self):
        def scores(k, masks):
            m = rmetrics.evaluate_sequence(masks, self.truth[k][2])
            return m.J, m.F
        return super().check(scores)


class TrainToy(Workload):
    """Toy-config train steps as `refvos train` runs them."""
    model_name = "toy"

    def __init__(self, seed):
        self.seed = seed
        self.cfg = weights.run_config(self.model_name)
        self.bad_reports = 0
        self.saved = weights.WORK / f"train_toy-{seed}.ckpt"

    def setup(self):
        cfg = self.cfg
        self.model = Model(cfg.model_config(), seed=cfg.train.seed)
        self.model.load_state(rio.load_checkpoint(str(weights.paths(self.model_name)[0])))
        self.clips = [rdata.generate_clip(clip_spec(cfg, self.seed, k)) for k in range(cfg.data.clips)]
        self.optimizer = AdamW(self.model.trainable_params(), cfg.learning_rates(),
                               weight_decay=cfg.train.weight_decay)
        self.loss_cfg = cfg.loss_config()
        self.rng = np.random.default_rng(self.seed + SEED_SAMPLER)

    def after_setup(self):
        self.frozen = checks.snapshot(self.model, self.model.partition()[0])

    def unit(self, i):
        clip, expr, masks = self.clips[int(self.rng.integers(0, len(self.clips)))]
        frames, gts = rtracking.sample_training_frames(clip.frames, masks, self.cfg.train.n_frames,
                                                       self.rng)
        report = rtracking.train_step([(frames, expr, gts)], self.model, self.optimizer, self.loss_cfg)
        if not all(np.isfinite(v) for v in report.values()):
            self.bad_reports += 1
        if (i + 1) % self.cfg.train.checkpoint_interval == 0:
            rio.save_checkpoint(str(self.saved), self.model.state_arrays())
        return len(frames)

    def check(self):
        failures = [f"{self.bad_reports} steps reported a non-finite loss"] if self.bad_reports else []
        failures += checks.check_frozen(self.model, self.frozen)
        clip, expr, gts = self.clips[0]
        sample = (clip.frames[0::2], expr, gts[0::2])
        for found in checks.check_train_step(self.model, sample, self.cfg).values():
            failures += found
        return failures


WORKLOADS = {"infer_default": InferDefault, "infer_toy_long": InferToyLong, "train_toy": TrainToy}


def run(workload, seed, seconds, trace):
    wl = WORKLOADS[workload](seed)
    wl.prepare()
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    setup_s = []
    while len(setup_s) < SETUP_REPEATS or sum(setup_s) < SETUP_SECONDS:
        start = time.perf_counter()
        wl.setup()
        setup_s.append(time.perf_counter() - start)
    wl.after_setup()
    layers = {}
    if tracer and "io.checkpoint_load" not in tracer.absent:
        layers["io.checkpoint_load_ms"] = {
            "value": 1000.0 * tracer.self_s["io.checkpoint_load"] / len(setup_s), "unit": "ms"}
    for i in range(WARMUP_UNITS):
        wl.unit(i)
    if tracer:
        tracer.reset()

    latencies, frames = [], 0
    start = time.perf_counter()
    deadline = start + seconds
    for i in itertools.count():
        t0 = time.perf_counter()
        frames += wl.unit(i)
        t1 = time.perf_counter()
        latencies.append(t1 - t0)
        if t1 >= deadline and len(latencies) >= MIN_UNITS:
            break
    elapsed = t1 - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    units = len(latencies)
    p50, p90 = np.percentile(latencies, [50, 90])
    result = {
        "frames_per_s": {"value": frames / elapsed, "unit": "1/s"},
        "latency_p50_ms": {"value": 1000.0 * p50, "unit": "ms"},
        "latency_p90_ms": {"value": 1000.0 * p90, "unit": "ms"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
        "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
    }
    if tracer:
        steps = units if isinstance(wl, TrainToy) else 0
        layers.update(tracer.layer_metrics(frames, steps, units))
        retained = retained_mib_per_frame(wl.unit)
        if retained is not None:
            layers["tracking.retained_mib_per_frame"] = {"value": retained, "unit": "MiB"}
        OUT.mkdir(parents=True, exist_ok=True)
        with open(OUT / f"trace-{workload}-{seed}.json", "w") as fh:
            json.dump({"frames": frames, "steps": steps, "units": units,
                       "self_ms": {k: 1000.0 * v for k, v in sorted(tracer.self_s.items())},
                       "calls": dict(sorted(tracer.calls.items())),
                       "counts": dict(tracer.counts), "absent": sorted(tracer.absent)},
                      fh, indent=1)
        tracer.uninstall()
        for name in sorted(tracer.absent):
            print(f"traced entry point {name} not found; its metrics are absent", file=sys.stderr)

    checks_start = time.perf_counter()
    failures = wl.check()
    for msg in failures:
        print(f"check failed: {msg}", file=sys.stderr)
    print(f"{workload} seed {seed}: {units} units, {frames} frames in {elapsed:.2f} s; "
          f"checks {time.perf_counter() - checks_start:.2f} s", file=sys.stderr)
    return {"correct": not failures, "attempted": units, "failed": 0,
            "metrics": result, "layers": layers}


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    print(json.dumps(run(args.workload, args.seed, args.seconds, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
