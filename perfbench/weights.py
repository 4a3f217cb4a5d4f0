"""Benchmark configurations and the command that writes their weights.

    python3 perfbench/weights.py

writes perfbench/work/weights/<config>.ckpt with the program's own
save_checkpoint, and beside it <config>.npz with the same float32 values
for the plain-numpy reference. Each model is seeded and then every
parameter gets seeded noise: without it the adapters, the tracking residual
and the IoU head are zero-initialised, so their gradients vanish and the
mask choice is a tie. run.py calls this when the files are missing; they
are never committed.
"""

import os
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
WORK = HERE / "work"
WEIGHTS = WORK / "weights"

WEIGHT_SEED = 7
NOISE_STD = 0.02

# model.* keys of the run configuration; "default" is ModelConfig as shipped.
MODELS = {
    "default": {},
    "toy": dict(blocks=2, token_width=32, channels=32, adapter_width=4, hidden=32, text_width=32),
}

# Which encoder blocks feed the three mid-level maps. The reference forward
# takes these as given instead of asking the program.
REFERENCE_TAPS = {"default": (1, 2, 3), "toy": (0, 0, 1)}


def run_config(model):
    """A RunConfig with the CLI's defaults and the named model section."""
    from refvos.config import RunConfig
    cfg = RunConfig()
    for key, value in MODELS[model].items():
        setattr(cfg.model, key, value)
    return cfg.validate()


def reference_arch(model):
    m = run_config(model).model
    return dict(patch_size=m.patch_size, blocks=m.blocks, taps=REFERENCE_TAPS[model])


def paths(model):
    return WEIGHTS / f"{model}.ckpt", WEIGHTS / f"{model}.npz"


def write_weights(model):
    from refvos import io as rio
    from refvos.model import Model
    net = Model(run_config(model).model_config(), seed=WEIGHT_SEED)
    rng = np.random.default_rng(WEIGHT_SEED)
    arrays = {name: (arr + NOISE_STD * rng.standard_normal(arr.shape)).astype(np.float32)
              for name, arr in net.state_arrays().items()}
    ckpt, npz = paths(model)
    WEIGHTS.mkdir(parents=True, exist_ok=True)
    tmp = ckpt.with_suffix(".tmp")
    rio.save_checkpoint(str(tmp), arrays)
    os.replace(tmp, ckpt)
    tmp = npz.with_name(npz.stem + ".tmp.npz")
    np.savez(tmp, **arrays)
    os.replace(tmp, npz)


def main():
    for model in MODELS:
        write_weights(model)
        print(f"wrote {paths(model)[0]}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
