"""Segmentation losses: soft Dice and sigmoid focal loss."""

from dataclasses import dataclass

import numpy as np

from .autodiff import DimensionError, Tensor


@dataclass
class LossConfig:
    focal_alpha: float = 0.25
    focal_gamma: float = 2.0
    dice_smooth: float = 1.0
    w_dice: float = 5.0
    w_focal: float = 2.0

    def __post_init__(self):
        # each message begins with the field it names
        if not (0.0 < self.focal_alpha < 1.0):
            raise ValueError("focal_alpha must lie in (0, 1)")
        if self.focal_gamma < 0.0:
            raise ValueError("focal_gamma must be >= 0")
        if self.dice_smooth <= 0.0:
            raise ValueError("dice_smooth must be > 0")
        for name in ("w_dice", "w_focal"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0")
        if self.w_dice + self.w_focal <= 0.0:
            raise ValueError("w_dice + w_focal must be > 0")


def _check_pair(pred, target):
    if pred.shape != target.shape:
        raise DimensionError(f"loss: shape mismatch {pred.shape} vs {target.shape}")


def dice_loss(pred_prob, target, cfg):
    """1 - 2|P∩T| / (|P| + |T|), smoothed."""
    _check_pair(pred_prob, target)
    t = target.data if isinstance(target, Tensor) else np.asarray(target, dtype=float)
    if np.min(pred_prob.data) < 0.0 or np.max(pred_prob.data) > 1.0:
        raise ValueError("dice_loss: predictions must lie in [0, 1]")
    if not np.all((t == 0) | (t == 1)):
        raise ValueError("dice_loss: target must be binary")
    tt = Tensor(t.astype(pred_prob.dtype))
    s = cfg.dice_smooth
    inter = (pred_prob * tt).sum()
    return 1.0 - (2.0 * inter + s) / (pred_prob.sum() + tt.sum() + s)


def focal_loss(pred_logit, target, cfg):
    """Pixel mean of -alpha_t (1 - p_t)^gamma log p_t on sigmoid logits."""
    _check_pair(pred_logit, target)
    t = target.data if isinstance(target, Tensor) else np.asarray(target, dtype=float)
    if not np.all((t == 0) | (t == 1)):
        raise ValueError("focal_loss: target must be binary")
    t = t.astype(pred_logit.dtype)
    sign = Tensor(2.0 * t - 1.0)
    x_t = pred_logit * sign                      # logit of the true class
    log_pt = -(-x_t).softplus()
    one_minus_pt = (-x_t).sigmoid()
    alpha_t = Tensor(cfg.focal_alpha * t + (1.0 - cfg.focal_alpha) * (1.0 - t))
    return (alpha_t * one_minus_pt ** cfg.focal_gamma * (-log_pt)).mean()
