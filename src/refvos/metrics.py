"""Region similarity (J), boundary F-measure (F), and sequence evaluation."""

from dataclasses import dataclass

import numpy as np
from scipy.ndimage import distance_transform_edt

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


def contour_accuracy_F(pred, gt, tolerance_px=None):
    """Boundary F-measure: precision/recall of boundary pixels matched
    within a Euclidean pixel tolerance."""
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
    dist_to_g = distance_transform_edt(~gb)
    dist_to_p = distance_transform_edt(~pb)
    precision = float((dist_to_g[pb] <= tolerance_px).mean())
    recall = float((dist_to_p[gb] <= tolerance_px).mean())
    if precision + recall == 0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def evaluate_sequence(preds, gts, tolerance_px=None):
    """Frame-averaged J and F for one sequence."""
    if len(preds) != len(gts):
        raise DimensionError("evaluate_sequence: length mismatch")
    js = [region_similarity_J(p, g) for p, g in zip(preds, gts)]
    fs = [contour_accuracy_F(p, g, tolerance_px) for p, g in zip(preds, gts)]
    j, f = float(np.mean(js)), float(np.mean(fs))
    return Metrics(J=j, F=f)


def aggregate(metrics_list):
    """Dataset-level numbers: mean of per-sequence metrics."""
    j = float(np.mean([m.J for m in metrics_list]))
    f = float(np.mean([m.F for m in metrics_list]))
    return Metrics(J=j, F=f)
