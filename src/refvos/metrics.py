"""Region similarity (J), boundary F-measure (F), and sequence evaluation.

F follows the DAVIS boundary F-measure: a boundary pixel counts as matched
when some boundary pixel of the other mask lies at an integer offset
(dy, dx) with `np.sqrt(float(dy*dy + dx*dx)) <= tolerance_px`, the float64
comparison that `edt <= tolerance_px` over an exact Euclidean distance
transform makes."""

from dataclasses import dataclass

import numpy as np

from .autodiff import DimensionError


@dataclass
class Metrics:
    J: float
    F: float

    @property
    def JF(self):
        return (self.J + self.F) / 2.0


def _as_bool(mask):
    return np.asarray(mask).astype(bool)


def region_similarity_J(pred, gt):
    """Intersection over union; two empty masks score 1."""
    pred, gt = _as_bool(pred), _as_bool(gt)
    if pred.shape != gt.shape:
        raise DimensionError("region_similarity_J: shape mismatch")
    union = np.logical_or(pred, gt).sum()
    if union == 0:
        return 1.0
    return float(np.logical_and(pred, gt).sum() / union)


def boundary_pixels(mask):
    """4-connected foreground pixels adjacent to background or the border."""
    mask = _as_bool(mask)
    inner = np.zeros_like(mask)
    inner[1:-1, 1:-1] = (mask[1:-1, 1:-1] & mask[:-2, 1:-1] & mask[2:, 1:-1]
                         & mask[1:-1, :-2] & mask[1:-1, 2:])
    return mask & ~inner


def default_tolerance(shape):
    # DAVIS convention: 0.8% of the image diagonal, rounded up
    return float(np.ceil(0.008 * np.sqrt(shape[0] ** 2 + shape[1] ** 2)))


def within_tolerance(mask, tolerance_px):
    """Pixels within Euclidean distance `tolerance_px` of a True pixel of
    the boolean (H, W) `mask`: those with a True pixel at an offset (dy, dx)
    where `np.sqrt(float(dy*dy + dx*dx)) <= tolerance_px`. A NaN or negative
    tolerance matches nothing. Row offsets are clamped to the mask's height,
    so however large the tolerance, the work is at most 2H - 1 passes over
    the mask."""
    h, w = mask.shape
    out = np.zeros_like(mask)
    if mask.size == 0 or not tolerance_px >= 0:
        return out
    radius = h - 1 if tolerance_px >= h - 1 else int(tolerance_px)
    dy = np.arange(radius + 1)[:, None]
    dx = np.arange(w)[None, :]
    # half[d]: the largest |dx| matched at row offset +-d; it shrinks as d grows
    half = (np.sqrt((dy * dy + dx * dx).astype(np.float64)) <= tolerance_px).sum(axis=1) - 1
    # per-row prefix sums P[-reach..w+reach], flat beyond [0, w], so every
    # window [x - k, x + k] with k <= reach is a difference of two slices
    reach = int(half[0])
    counts = np.zeros((h, w + 1 + 2 * reach), dtype=np.min_scalar_type(w))
    np.cumsum(mask, axis=1, dtype=counts.dtype, out=counts[:, reach + 1:reach + 1 + w])
    counts[:, reach + 1 + w:] = counts[:, reach + w:reach + 1 + w]
    width = -1
    for d in range(radius, -1, -1):
        if half[d] != width:   # one horizontal window test per distinct half-width
            width = int(half[d])
            rows = (counts[:, reach + width + 1:reach + width + 1 + w]
                    > counts[:, reach - width:reach - width + w])
        out[:h - d] |= rows[d:]
        if d:
            out[d:] |= rows[:h - d]
    return out


def contour_accuracy_F(pred, gt, tolerance_px=None):
    """Boundary F-measure: the harmonic mean of the share of `pred`'s
    boundary pixels within `tolerance_px` of `gt`'s boundary (precision)
    and the converse (recall), by the rule of `within_tolerance`.

    A tolerance of None or below 0 takes `default_tolerance`. Two empty
    boundaries score 1 and one empty boundary 0; otherwise an infinite
    tolerance scores 1 and a NaN tolerance 0."""
    pred, gt = _as_bool(pred), _as_bool(gt)
    if pred.shape != gt.shape:
        raise DimensionError("contour_accuracy_F: shape mismatch")
    if tolerance_px is None or tolerance_px < 0:
        tolerance_px = default_tolerance(pred.shape)
    pb = boundary_pixels(pred)
    gb = boundary_pixels(gt)
    if not pb.any() and not gb.any():
        return 1.0
    if not pb.any() or not gb.any():
        return 0.0
    precision = float(within_tolerance(gb, tolerance_px)[pb].mean())
    recall = float(within_tolerance(pb, tolerance_px)[gb].mean())
    if precision + recall == 0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def evaluate_sequence(preds, gts, tolerance_px=None):
    """Frame-averaged J and F for one sequence of at least one frame."""
    if len(preds) != len(gts):
        raise DimensionError("evaluate_sequence: length mismatch")
    if len(preds) == 0:
        raise DimensionError("evaluate_sequence: no frames")
    js = [region_similarity_J(p, g) for p, g in zip(preds, gts)]
    fs = [contour_accuracy_F(p, g, tolerance_px) for p, g in zip(preds, gts)]
    j, f = float(np.mean(js)), float(np.mean(fs))
    return Metrics(J=j, F=f)


def aggregate(metrics_list):
    """Dataset-level numbers: mean of per-sequence metrics, of which there
    must be at least one."""
    if len(metrics_list) == 0:
        raise DimensionError("aggregate: no sequences")
    j = float(np.mean([m.J for m in metrics_list]))
    f = float(np.mean([m.F for m in metrics_list]))
    return Metrics(J=j, F=f)
