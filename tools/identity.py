"""Digests of the bytes that same-seed runs produce: one `name sha256` line
per artifact, to show which bytes a change moved.

    python tools/identity.py CHECKOUT > digests.txt

Imports the refvos package from CHECKOUT/src and runs this protocol there:
- `generate` output; same-seed toy `train` runs (30 steps) with default
  flags, `train.detach_track = true`, `model.itm = false` and
  `model.hda = false`; a 2-step `train` at the ModelConfig defaults;
  the names, dtypes, shapes and bytes that `load_checkpoint` reads from
  the default toy run's checkpoint, and the `eval` output and `infer`
  masks of that checkpoint;
  `overlay` frames over the `infer` masks; `eval --predictions` output
  over `infer` masks of every generated clip;
- the loss and every parameter gradient of a 3-frame `clip_loss`, and the
  masks of a 12-frame `segment_clip`, at toy, detached track (`clip_loss`
  only), no ITM, dense attention over the final rows alone
  (`model.hda = false`), no dense attention (`model.da = false`), a single
  projection in place of the cross-modal MLP (`clip_loss` only), float32
  and the defaults. Each parameter is moved by noise seeded by its name, so
  a parameter that a change adds or drops moves no other parameter's value:
  a change that only drops unread parameters moves only the digests that
  list parameters by name: the `train` checkpoints, `load` and the
  `clip_loss` grads.

Run it once per checkout, from either one, and compare the outputs with
`diff`: a change that moves no byte shows an empty diff. Trained bytes
depend on the BLAS kernels and the CPU, so compare digests taken on one
machine only. Takes about 7 s on one core.
"""

import contextlib
import functools
import hashlib
import io
import os
import sys
import tempfile
import zlib

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

TOY = dict(blocks=2, token_width=32, channels=32, adapter_width=4, hidden=32, text_width=32)
TOY_LINES = [f"model.{k} = {v}" for k, v in TOY.items()] + ["train.steps = 30"]
# dense attention over the final rows alone
NO_HDA = dict(TOY, hda=False)
# no dense attention: the decoder runs without dense rows
NO_DA = dict(TOY, da=False, hda=False)


def _digest(chunks):
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(len(chunk).to_bytes(8, "little"))
        h.update(chunk)
    return h.hexdigest()


def _tree(root):
    """(relative path, bytes) chunks of every file under root, sorted."""
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            yield os.path.relpath(path, root).encode()
            with open(path, "rb") as f:
                yield f.read()


def _cli(work, *argv):
    """stdout of the refvos CLI run in-process, with `work` written as WORK;
    raises on a nonzero exit."""
    from refvos.cli import main
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    if code:
        raise RuntimeError(f"refvos {' '.join(argv)} exited with {code}")
    return out.getvalue().replace(work, "WORK").encode()


def _config(work, name, lines):
    path = os.path.join(work, name + ".cfg")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
    return path


def _generate(work):
    cfg = _config(work, "generate", TOY_LINES)
    stdout = _cli(work, "generate", "--config", cfg, "--out", os.path.join(work, "data"))
    return {"stdout": [stdout], "data": _tree(os.path.join(work, "data"))}


def _train(work, name, lines):
    ckpt = os.path.join(work, name + ".ckpt")
    stdout = _cli(work, "train", "--config", _config(work, name, lines), "--out-checkpoint", ckpt)
    with open(ckpt, "rb") as f:
        return {"stdout": [stdout], "checkpoint": [f.read()]}


def _load(work):
    """Reads the checkpoint of `train.toy`."""
    from refvos.io import load_checkpoint
    chunks = []
    for name, arr in sorted(load_checkpoint(os.path.join(work, "train.toy.ckpt")).items()):
        chunks += [name.encode(), arr.dtype.str.encode(), repr(arr.shape).encode(), arr.tobytes()]
    return {"arrays": chunks}


def _eval(work):
    """Reads the data of `generate` and the checkpoint of `train.toy`."""
    return {"stdout": [_cli(work, "eval", "--config", os.path.join(work, "generate.cfg"),
                            "--checkpoint", os.path.join(work, "train.toy.ckpt"),
                            "--data", os.path.join(work, "data"))]}


def _infer(work):
    """Reads the data of `generate` and the checkpoint of `train.toy`."""
    out = os.path.join(work, "preds")
    stdout = _cli(work, "infer", "--checkpoint", os.path.join(work, "train.toy.ckpt"),
                  "--clip", os.path.join(work, "data", "clip0000"), "--out", out)
    return {"stdout": [stdout], "masks": _tree(out)}


def _overlay(work):
    """Reads the data of `generate` and the masks of `infer`."""
    out = os.path.join(work, "vis")
    stdout = _cli(work, "overlay", "--clip", os.path.join(work, "data", "clip0000"),
                  "--masks", os.path.join(work, "preds"), "--out", out)
    return {"stdout": [stdout], "frames": _tree(out)}


def _eval_predictions(work):
    """Runs `infer` on every clip `generate` wrote, with the checkpoint of
    `train.toy`, and scores the masks."""
    data, preds = os.path.join(work, "data"), os.path.join(work, "predictions")
    for clip in sorted(os.listdir(data)):
        _cli(work, "infer", "--checkpoint", os.path.join(work, "train.toy.ckpt"),
             "--clip", os.path.join(data, clip), "--out", os.path.join(preds, clip))
    return {"stdout": [_cli(work, "eval", "--config", os.path.join(work, "generate.cfg"),
                            "--data", data, "--predictions", preds)]}


def _model(flags, dtype):
    """A seed-1 model whose every parameter is moved by noise seeded by its
    name, so the adapters and the track update are not at their zero init."""
    from refvos.model import Model, ModelConfig
    model = Model(ModelConfig(**flags), seed=1, dtype=dtype)
    for name, p in model.params.items():
        rng = np.random.default_rng([6, zlib.crc32(name.encode())])
        p.data = p.data + rng.normal(0.0, 0.05, p.data.shape).astype(dtype)
    return model


def _clip(frames):
    from refvos.data import SyntheticSpec, VideoClip, generate_clip
    clip, expr, gts = generate_clip(SyntheticSpec(seed=3, frames=5, max_objects=2))
    scaled = [clip.frames[t % 5] * (1.0 - 0.01 * t) for t in range(frames)]
    return VideoClip(frames=scaled), expr, [gts[t % 5] for t in range(frames)]


def _clip_loss(work, flags, dtype=np.float64, detach_track=False):
    from refvos.losses import LossConfig
    from refvos.tracking import clip_loss
    model = _model(flags, dtype)
    clip, expr, gts = _clip(3)
    loss, _ = clip_loss(model, clip.frames, expr, gts, LossConfig(), detach_track)
    loss.backward()
    grads = []
    for name, p in sorted(model.params.items()):
        grads += [name.encode(), b"none" if p.grad is None else p.grad.tobytes()]
    return {"loss": [loss.data.tobytes()], "grads": grads}


def _segment_clip(work, flags, dtype=np.float64):
    from refvos.tracking import segment_clip
    clip, expr, _ = _clip(12)
    return {"masks": [m.tobytes() for m in segment_clip(_model(flags, dtype), clip, expr)]}


def _runs(name, run, variants):
    return [(f"{name}.{variant}", functools.partial(run, **kw)) for variant, kw in variants]


# (name, run): run(work) returns {part: byte chunks}, digested as `name.part`.
# Runs go in this order: load reads what train.toy wrote, eval and infer read
# what generate and train.toy wrote, and overlay reads what infer wrote.
ARTIFACTS = [
    ("generate", _generate),
    *[(f"train.{name}", functools.partial(_train, name=f"train.{name}", lines=lines))
      for name, lines in [("toy", TOY_LINES),
                          ("toy.detach_track", TOY_LINES + ["train.detach_track = true"]),
                          ("toy.no_itm", TOY_LINES + ["model.itm = false"]),
                          ("toy.no_hda", TOY_LINES + ["model.hda = false"]),
                          ("defaults", ["train.steps = 2"])]],
    ("load", _load),
    ("eval", _eval),
    ("infer", _infer),
    ("overlay", _overlay),
    ("eval.predictions", _eval_predictions),
    *_runs("clip_loss", _clip_loss, [
        ("toy", dict(flags=TOY)), ("detach_track", dict(flags=TOY, detach_track=True)),
        ("no_itm", dict(flags=dict(TOY, itm=False))), ("no_hda", dict(flags=NO_HDA)),
        ("no_da", dict(flags=NO_DA)), ("no_cmm", dict(flags=dict(TOY, cross_modal_mlp=False))),
        ("float32", dict(flags=TOY, dtype=np.float32)), ("defaults", dict(flags={}))]),
    *_runs("segment_clip", _segment_clip, [
        ("toy", dict(flags=TOY)), ("no_itm", dict(flags=dict(TOY, itm=False))),
        ("no_hda", dict(flags=NO_HDA)), ("no_da", dict(flags=NO_DA)),
        ("float32", dict(flags=TOY, dtype=np.float32)), ("defaults", dict(flags={}))]),
]


def digests(artifacts, work):
    """(name, sha256 hex) of every part of each artifact, run in `work`."""
    for name, run in artifacts:
        for part, chunks in run(work).items():
            yield f"{name}.{part}", _digest(chunks)


def main(argv):
    if len(argv) != 1:
        print("usage: python tools/identity.py CHECKOUT", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(os.path.abspath(argv[0]), "src"))
    import refvos
    print(f"refvos from {os.path.dirname(refvos.__file__)}", file=sys.stderr)
    with tempfile.TemporaryDirectory() as work:
        for name, digest in digests(ARTIFACTS, work):
            print(name, digest, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
