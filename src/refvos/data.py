"""Synthetic moving-shapes clips with referring expressions, plus the
on-disk dataset layout."""

import os
import shutil
from dataclasses import dataclass, replace

import numpy as np

from .autodiff import DimensionError
from .encoder import ReferringExpression
from .io import read_pgm, read_ppm, write_pgm, write_ppm

SHAPES = ("square", "circle", "triangle")
COLORS = {"red": (1.0, 0.1, 0.1), "green": (0.1, 0.9, 0.1),
          "blue": (0.1, 0.2, 1.0), "yellow": (1.0, 0.9, 0.1)}
MOTIONS = {"left": (0, -1), "right": (0, 1), "up": (-1, 0),
           "down": (1, 0), "static": (0, 0)}
BACKGROUND = 0.05


class GenerationError(RuntimeError):
    pass


@dataclass
class VideoClip:
    frames: list   # T x (3, H, W) float arrays in [0, 1]


@dataclass
class SyntheticSpec:
    height: int = 64
    width: int = 64
    frames: int = 5
    min_objects: int = 1
    max_objects: int = 4
    seed: int = 0

    def __post_init__(self):
        # each message begins with the field it names
        if self.frames < 1:
            raise ValueError("frames must be >= 1")
        if self.min_objects < 1:
            raise ValueError("min_objects must be >= 1")
        if not self.min_objects <= self.max_objects <= 4:
            raise ValueError("max_objects must lie in min_objects..4")
        for name in ("height", "width"):
            if getattr(self, name) < 32:
                raise ValueError(f"{name} must be >= 32")


def _raster(shape, size, cy, cx, h, w):
    ys, xs = np.mgrid[0:h, 0:w]
    if shape == "square":
        half = size // 2
        return ((ys >= cy - half) & (ys < cy - half + size) &
                (xs >= cx - half) & (xs < cx - half + size))
    if shape == "circle":
        r = size // 2
        return (ys - cy) ** 2 + (xs - cx) ** 2 <= r * r
    # up-pointing isoceles triangle inside a size x size box
    half = size // 2
    row = ys - (cy - half)
    inside = (row >= 0) & (row < size)
    spread = (row + 1) / (2.0 * size) * size
    return inside & (np.abs(xs - cx) <= spread)


def generate_clip(spec):
    """Deterministically build (VideoClip, ReferringExpression, gt masks).

    Objects take distinct (shape, color) pairs, so exactly one matches the
    expression, and disjoint quadrants, so none overlap or leave the canvas.
    """
    rng = np.random.default_rng(spec.seed)
    n_obj = int(rng.integers(spec.min_objects, spec.max_objects + 1))

    combos = [(s, c) for s in SHAPES for c in COLORS]
    picks = [combos[i] for i in rng.choice(len(combos), size=n_obj, replace=False)]
    motions = [list(MOTIONS)[i] for i in rng.integers(0, len(MOTIONS), size=n_obj)]

    qh, qw = spec.height // 2, spec.width // 2
    cells = [(0, 0), (0, 1), (1, 0), (1, 1)]
    cell_ids = rng.choice(4, size=n_obj, replace=False)

    objects = []
    for (shape, color), motion, ci in zip(picks, motions, cell_ids):
        cy0, cx0 = cells[ci][0] * qh, cells[ci][1] * qw
        size = int(rng.integers(8, min(qh, qw) // 2 + 1))
        dy, dx = MOTIONS[motion]
        speed = 0 if motion == "static" else int(rng.integers(1, 3))
        travel = speed * (spec.frames - 1)
        margin = size // 2 + 2
        lo_y = cy0 + margin + (travel if dy < 0 else 0)
        hi_y = cy0 + qh - margin - (travel if dy > 0 else 0)
        lo_x = cx0 + margin + (travel if dx < 0 else 0)
        hi_x = cx0 + qw - margin - (travel if dx > 0 else 0)
        if lo_y > hi_y or lo_x > hi_x:
            raise GenerationError("object cannot stay inside its cell")
        cy = int(rng.integers(lo_y, hi_y + 1))
        cx = int(rng.integers(lo_x, hi_x + 1))
        objects.append(dict(shape=shape, color=color, motion=motion, size=size,
                            cy=cy, cx=cx, vy=dy * speed, vx=dx * speed))

    referred = int(rng.integers(0, n_obj))
    ref = objects[referred]
    if ref["motion"] == "static":
        words = ["the", "static", ref["color"], ref["shape"]]
    else:
        words = ["the", ref["color"], ref["shape"], "moving", ref["motion"]]

    frames, masks = [], []
    for t in range(spec.frames):
        img = np.full((3, spec.height, spec.width), BACKGROUND)
        gt = None
        for j, o in enumerate(objects):
            m = _raster(o["shape"], o["size"], o["cy"] + t * o["vy"],
                        o["cx"] + t * o["vx"], spec.height, spec.width)
            img[:, m] = np.array(COLORS[o["color"]])[:, None]
            if j == referred:
                gt = m
        frames.append(img)
        masks.append(gt.astype(np.uint8))
    return VideoClip(frames=frames), ReferringExpression(words=words), masks


# ---- on-disk layout -------------------------------------------------------
# A clip folder holds frames/%05d.ppm, masks/%05d.pgm (one mask per frame, of
# the frame's size) and expression.txt; files are read in name order.

def parse_expression(text):
    """The ReferringExpression of a text: its words, lowercased."""
    return ReferringExpression(words=text.lower().split())


def write_frames(folder, frames):
    os.makedirs(folder, exist_ok=True)
    for t, frame in enumerate(frames):
        write_ppm(os.path.join(folder, f"{t:05d}.ppm"), frame)


def write_masks(folder, masks):
    os.makedirs(folder, exist_ok=True)
    for t, mask in enumerate(masks):
        write_pgm(os.path.join(folder, f"{t:05d}.pgm"), mask)


def write_clip(clip_dir, clip, expr, masks):
    write_frames(os.path.join(clip_dir, "frames"), clip.frames)
    write_masks(os.path.join(clip_dir, "masks"), masks)
    with open(os.path.join(clip_dir, "expression.txt"), "w", encoding="utf-8") as fh:
        fh.write(" ".join(expr.words) + "\n")


def read_frames(clip_dir):
    """The frames of a clip directory; DimensionError unless there is at
    least one and all have one size."""
    frames_dir = os.path.join(clip_dir, "frames")
    names = sorted(os.listdir(frames_dir))
    frames = [read_ppm(os.path.join(frames_dir, n)) for n in names]
    if not frames:
        raise DimensionError(f"clip {clip_dir} has no frames")
    size = frames[0].shape[1:]
    if any(f.shape[1:] != size for f in frames):
        raise DimensionError(f"frames of clip {clip_dir} differ in size")
    return frames


def read_expression(clip_dir):
    with open(os.path.join(clip_dir, "expression.txt"), encoding="utf-8") as fh:
        return parse_expression(fh.readline())


def read_masks(masks_dir, frames):
    """The masks of a folder; DimensionError unless they match `frames`
    one-to-one in size."""
    masks = [read_pgm(os.path.join(masks_dir, n)) for n in sorted(os.listdir(masks_dir))]
    if len(masks) != len(frames):
        raise DimensionError(f"{masks_dir} has {len(masks)} masks for {len(frames)} frames")
    if any(m.shape != frames[0].shape[1:] for m in masks):
        raise DimensionError(f"{masks_dir} has masks that differ in size from its frames")
    return masks


def read_clip(clip_dir):
    """(VideoClip, ReferringExpression, masks) of a clip directory."""
    frames = read_frames(clip_dir)
    expr = read_expression(clip_dir)
    masks = read_masks(os.path.join(clip_dir, "masks"), frames)
    return VideoClip(frames=frames), expr, masks


def clip_spec(spec, k):
    """The spec of clip k of a dataset: spec with sub-seed spec.seed + k."""
    return replace(spec, seed=spec.seed + k)


def write_dataset(root, spec, num_clips):
    """Write num_clips clips into root, a new or empty folder; clip k is
    generated from clip_spec(spec, k). A root that holds files is refused
    before any clip is generated. The clips are written into a temporary
    folder beside root, renamed into place once all are written, so root
    holds either nothing or the whole dataset."""
    if os.path.exists(root) and os.listdir(root):
        raise GenerationError(f"{root} already holds files; "
                              "generate writes only into a new or empty folder")
    tmp = f"{os.path.abspath(root)}.{os.getpid()}.tmp"
    os.makedirs(os.path.dirname(tmp), exist_ok=True)
    os.mkdir(tmp)
    try:
        for k in range(num_clips):
            clip, expr, masks = generate_clip(clip_spec(spec, k))
            write_clip(os.path.join(tmp, f"clip{k:04d}"), clip, expr, masks)
        os.replace(tmp, root)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    return num_clips


def list_clips(root):
    """The clip folders under root, sorted; DimensionError if there are none."""
    dirs = sorted(os.path.join(root, d) for d in os.listdir(root)
                  if os.path.isdir(os.path.join(root, d)))
    if not dirs:
        raise DimensionError(f"data directory {root} has no clip folders")
    return dirs
