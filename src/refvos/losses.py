"""Segmentation losses: soft Dice and sigmoid focal loss."""

from dataclasses import dataclass

import numpy as np

from . import autodiff
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
    """1 - 2|P∩T| / (|P| + |T|), smoothed, as one op: the chain
    `1 - (2 * (p * t).sum() + s) / (p.sum() + t.sum() + s)`, whose values
    and gradient it reproduces bit for bit."""
    _check_pair(pred_prob, target)
    t = target.data if isinstance(target, Tensor) else np.asarray(target, dtype=float)
    if np.min(pred_prob.data) < 0.0 or np.max(pred_prob.data) > 1.0:
        raise ValueError("dice_loss: predictions must lie in [0, 1]")
    if not np.all((t == 0) | (t == 1)):
        raise ValueError("dice_loss: target must be binary")
    # p in [0, 1] and a binary t keep every intermediate finite
    p = pred_prob.data
    t = t.astype(p.dtype)
    two, smooth = np.asarray(2.0, p.dtype), np.asarray(cfg.dice_smooth, p.dtype)
    num = (p * t).sum() * two + smooth
    den = p.sum() + t.sum() + smooth
    rden = den ** -1.0

    def bwd(g):
        # the chain's reverse order: the quotient, the numerator's
        # p * t term, then the denominator's sum(p) term
        gr = -g
        pred_prob._accum(np.broadcast_to(gr * rden * two, p.shape) * t)
        pred_prob._accum(np.broadcast_to(gr * num * -1.0 * den ** -2.0, p.shape))

    return autodiff._record(np.asarray(1.0, p.dtype) + (-(num * rden)), (pred_prob,),
                            "dice_loss", bwd)


def focal_loss(pred_logit, target, cfg):
    """Pixel mean of -alpha_t (1 - p_t)^gamma log p_t on sigmoid logits, as
    one op: the chain over x_t = x * (2t - 1), with log p_t =
    -softplus(-x_t) and 1 - p_t = sigmoid(-x_t), whose values and gradient
    it reproduces bit for bit."""
    _check_pair(pred_logit, target)
    t = target.data if isinstance(target, Tensor) else np.asarray(target, dtype=float)
    if not np.all((t == 0) | (t == 1)):
        raise ValueError("focal_loss: target must be binary")
    # finite logits keep every intermediate finite up to the pixel sum
    x = pred_logit.data
    t = t.astype(x.dtype)
    sign = 2.0 * t - 1.0
    alpha = cfg.focal_alpha * t + (1.0 - cfg.focal_alpha) * (1.0 - t)
    gamma = float(cfg.focal_gamma)
    xt = x * sign                                # logit of the true class
    neg_log_pt = np.logaddexp(0.0, -xt)
    one_minus_pt = autodiff._sigmoid(-xt)
    weight = alpha * one_minus_pt ** gamma
    inv_n = np.asarray(1.0 / x.size, x.dtype)

    def bwd(g):
        # the chain's reverse order: the mean, the product, then x_t's
        # sigmoid branch, its softplus branch, and the sign once
        gw = np.broadcast_to(g * inv_n, x.shape)
        gs = gw * neg_log_pt * alpha * gamma * one_minus_pt ** (gamma - 1.0)
        g_sigmoid = gs * one_minus_pt * (1.0 - one_minus_pt)
        g_softplus = gw * weight * one_minus_pt
        pred_logit._accum((-g_sigmoid - g_softplus) * sign)

    return autodiff._record((weight * neg_log_pt).sum() * inv_n, (pred_logit,), "focal_loss", bwd)
