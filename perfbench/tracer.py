"""Per-layer tracing for the traced run.

The tracer wraps the program's own entry points in place (class methods and
module globals, looked up by name), so the spans follow the program's loop.
Each span's self time excludes its child spans; finiteness scans and
collector pauses are children of whatever span they interrupt. Only totals
are kept, in memory, and written out when the run ends.
"""

import functools
import gc
import time
import tracemalloc
from collections import defaultdict

from refvos import autodiff, data, io, metrics, optim, tracking
from refvos.model import Model

MIB = 2.0 ** 20

# span name -> the (owner, attribute) pairs it is measured around
SPANS = {
    "encoder": [(Model, "encode_frame")],
    "fusion.hda": [(Model, "dense_embeddings")],
    "fusion.text": [(Model, "encode_text"), (Model, "sparse_embeddings")],
    "decoder": [(Model, "decode")],
    "tracking.resize": [(tracking, "bilinear_resize")],
    "tracking.update": [(tracking, "track_update")],
    "tracking.forward": [(tracking, "clip_loss")],
    "losses": [(tracking, "dice_loss"), (tracking, "focal_loss")],
    "autodiff.backward": [(autodiff.Tensor, "backward")],
    "autodiff.finite_check": [(autodiff, "_check_finite")],
    "optim.step": [(optim.AdamW, "step")],
    "io.read": [(data, "read_clip")],
    "io.checkpoint_load": [(io, "load_checkpoint"), (Model, "__init__"), (Model, "load_state")],
    "io.checkpoint_save": [(io, "save_checkpoint")],
    "metrics": [(metrics, "evaluate_sequence")],
}

# per-layer metric -> (span or counter, divisor, unit); divisors are the
# window's frames or steps, the clips (units) of the window, the calls of the
# span itself, or the set-ups of the run.
LAYER_METRICS = {
    "encoder.ms_per_frame": ("encoder", "frames", "ms"),
    "fusion.hda_ms_per_frame": ("fusion.hda", "frames", "ms"),
    "fusion.text_ms_per_clip": ("fusion.text", "units", "ms"),
    "decoder.ms_per_frame": ("decoder", "frames", "ms"),
    "tracking.resize_ms_per_frame": ("tracking.resize", "frames", "ms"),
    "tracking.update_ms_per_frame": ("tracking.update", "frames", "ms"),
    "tracking.forward_ms_per_step": ("tracking.forward", "steps", "ms"),
    "losses.ms_per_step": ("losses", "steps", "ms"),
    "autodiff.backward_ms_per_step": ("autodiff.backward", "steps", "ms"),
    "autodiff.finite_check_ms_per_frame": ("autodiff.finite_check", "frames", "ms"),
    "autodiff.gc_ms_per_frame": ("autodiff.gc", "frames", "ms"),
    "autodiff.gc_ms_per_step": ("autodiff.gc", "steps", "ms"),
    "autodiff.gc_freed_per_frame": ("gc_freed", "frames", "count"),
    "autodiff.ops_per_frame": ("ops", "frames", "count"),
    "autodiff.ops_per_step": ("ops", "steps", "count"),
    "autodiff.out_mib_per_frame": ("op_bytes", "frames", "MiB"),
    "optim.step_ms": ("optim.step", "steps", "ms"),
    "io.read_ms_per_frame": ("io.read", "frames", "ms"),
    "metrics.ms_per_frame": ("metrics", "frames", "ms"),
    "io.checkpoint_save_ms": ("io.checkpoint_save", "calls", "ms"),
}


class Tracer:
    def __init__(self):
        self._stack = []          # child time accumulated by each open span
        self._undo = []
        self._gc_start = None
        self.absent = set()
        self.reset()

    def reset(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)

    def _close(self, name, start):
        dur = time.perf_counter() - start
        self.self_s[name] += dur - self._stack.pop()
        self.calls[name] += 1
        if self._stack:
            self._stack[-1] += dur

    def _span(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._stack.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(name, start)
        return wrapper

    def _count_ops(self, make):
        @functools.wraps(make)
        def wrapper(data, parents, op):
            out = make(data, parents, op)
            self.counts["ops"] += 1
            self.counts["op_bytes"] += out.data.nbytes
            return out
        return wrapper

    def _patch(self, owner, attr, wrap):
        original = owner.__dict__.get(attr)
        if original is None:
            return False
        setattr(owner, attr, wrap(original))
        self._undo.append((owner, attr, original))
        return True

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = time.perf_counter()
            return
        dur = time.perf_counter() - self._gc_start
        self.self_s["autodiff.gc"] += dur
        self.counts["gc_freed"] += info["collected"]
        if self._stack:
            self._stack[-1] += dur

    def install(self):
        for name, targets in SPANS.items():
            for owner, attr in targets:
                if not self._patch(owner, attr, functools.partial(self._span, name)):
                    self.absent.add(name)
        if not self._patch(autodiff, "_make", self._count_ops):
            self.absent.update(("ops", "op_bytes"))
        gc.callbacks.append(self._on_gc)

    def uninstall(self):
        gc.callbacks.remove(self._on_gc)
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def layer_metrics(self, frames, steps, units):
        """Per-layer figures of the window. A layer the workload never runs
        reads 0; one whose entry point no longer exists is left out."""
        out = {}
        for metric, (source, per, unit) in LAYER_METRICS.items():
            if source in self.absent:
                continue
            total = self.counts[source] if unit != "ms" else 1000.0 * self.self_s[source]
            if unit == "MiB":
                total /= MIB
            n = {"frames": frames, "steps": steps, "units": units,
                 "calls": self.calls[source]}[per]
            out[metric] = {"value": total / n if n else 0.0, "unit": unit}
        return out


def retained_mib_per_frame(run_unit, units=2):
    """Median growth of live traced memory from one frame to the next within
    a clip (or a training step), sampled at each Model.encode_frame call;
    None if that entry point no longer exists."""
    marks = []
    original = Model.__dict__.get("encode_frame")
    if original is None:
        return None

    def encode_frame(model, frame):
        marks[-1].append(tracemalloc.get_traced_memory()[0])
        return original(model, frame)

    Model.encode_frame = encode_frame
    tracemalloc.start()
    try:
        for i in range(units):
            marks.append([])
            run_unit(i)
    finally:
        tracemalloc.stop()
        Model.encode_frame = original
    deltas = sorted(b - a for seq in marks for a, b in zip(seq, seq[1:]))
    return deltas[len(deltas) // 2] / MIB if deltas else 0.0
