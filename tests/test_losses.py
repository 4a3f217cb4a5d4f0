import numpy as np
import pytest

from refvos.autodiff import DimensionError, NonFiniteError, Tensor, grad_check
from refvos.losses import LossConfig, dice_loss, focal_loss


def cfg(**kw):
    return LossConfig(**kw)


def test_dice_perfect_overlap():
    t = np.zeros((4, 4))
    t[:2] = 1
    loss = dice_loss(Tensor(t.copy()), t, cfg(dice_smooth=1e-12))
    assert abs(float(loss.data)) < 1e-9


def test_dice_disjoint():
    pred = np.zeros((4, 4))
    pred[0, 0] = 1.0
    target = np.zeros((4, 4))
    target[3, 3] = 1
    loss = dice_loss(Tensor(pred), target, cfg(dice_smooth=1e-12))
    assert abs(float(loss.data) - 1.0) < 1e-9


def test_dice_half_overlap_oracle():
    # target everywhere 1 (A=16); pred = target on half the pixels, 0 elsewhere
    target = np.ones((4, 4))
    pred = np.zeros((4, 4))
    pred[:2] = 1.0
    loss = dice_loss(Tensor(pred), target, cfg(dice_smooth=1e-12))
    assert abs(float(loss.data) - 1.0 / 3.0) < 1e-9


def test_dice_rejects_bad_inputs():
    with pytest.raises(DimensionError):
        dice_loss(Tensor(np.zeros((2, 2))), np.zeros((3, 3)), cfg())
    with pytest.raises(ValueError):
        dice_loss(Tensor(np.full((2, 2), 1.5)), np.zeros((2, 2)), cfg())
    with pytest.raises(ValueError):
        dice_loss(Tensor(np.zeros((2, 2))), np.full((2, 2), 0.5), cfg())


def test_focal_rejects_a_non_binary_target():
    with pytest.raises(ValueError, match="focal_loss: target must be binary"):
        focal_loss(Tensor(np.zeros((2, 2))), np.full((2, 2), 0.5), cfg())


def test_focal_reduces_to_half_bce():
    rng = np.random.default_rng(0)
    logits = rng.normal(size=(4, 4))
    target = (rng.random((4, 4)) > 0.5).astype(float)
    loss = focal_loss(Tensor(logits), target, cfg(focal_alpha=0.5, focal_gamma=0.0))
    p = 1.0 / (1.0 + np.exp(-logits))
    bce = -(target * np.log(p) + (1 - target) * np.log(1 - p)).mean()
    assert abs(float(loss.data) - 0.5 * bce) < 1e-9


def test_focal_saturated_correct():
    target = np.ones((3, 3))
    loss = focal_loss(Tensor(np.full((3, 3), 20.0)), target, cfg())
    assert float(loss.data) < 1e-6


def test_focal_scalar_hand_case():
    # single pixel, logit 0, target 1: 0.25 * 0.5^2 * ln 2
    loss = focal_loss(Tensor(np.zeros((1, 1))), np.ones((1, 1)),
                      cfg(focal_alpha=0.25, focal_gamma=2.0))
    assert abs(float(loss.data) - 0.25 * 0.25 * np.log(2.0)) < 1e-9


def test_losses_nonnegative():
    rng = np.random.default_rng(1)
    for _ in range(25):
        logits = rng.normal(size=(5, 5)) * 4
        target = (rng.random((5, 5)) > 0.5).astype(float)
        probs = 1.0 / (1.0 + np.exp(-logits))
        assert float(dice_loss(Tensor(probs), target, cfg()).data) >= 0
        assert float(focal_loss(Tensor(logits), target, cfg()).data) >= 0


def test_dice_grad_check_random_inputs():
    rng = np.random.default_rng(2)
    target = (rng.random((4, 4)) > 0.5).astype(float)
    c = cfg()
    for _ in range(10):
        x0 = rng.normal(size=16)

        def f(x):
            return dice_loss(x.reshape(4, 4).sigmoid(), target, c)

        assert grad_check(f, Tensor(x0)) < 1e-4


def test_focal_grad_check_random_inputs():
    rng = np.random.default_rng(3)
    target = (rng.random((4, 4)) > 0.5).astype(float)
    c = cfg()
    for _ in range(10):
        x0 = rng.normal(size=16)
        assert grad_check(lambda x: focal_loss(x.reshape(4, 4), target, c), Tensor(x0)) < 1e-4


def test_loss_config_validation():
    with pytest.raises(ValueError):
        LossConfig(focal_alpha=1.5)
    with pytest.raises(ValueError):
        LossConfig(dice_smooth=0.0)
    with pytest.raises(ValueError):
        LossConfig(w_dice=0.0, w_focal=0.0)
    with pytest.raises(ValueError, match="focal_gamma must be >= 0"):
        LossConfig(focal_gamma=-1)


# ---- the fused losses against the chains they replace --------------------------

def _dice_composite(pred_prob, target, c):
    tt = Tensor(np.asarray(target, dtype=float).astype(pred_prob.dtype))
    inter = (pred_prob * tt).sum()
    return 1.0 - (2.0 * inter + c.dice_smooth) / (pred_prob.sum() + tt.sum() + c.dice_smooth)


def _focal_composite(pred_logit, target, c):
    t = np.asarray(target, dtype=float).astype(pred_logit.dtype)
    x_t = pred_logit * Tensor(2.0 * t - 1.0)
    log_pt = -(-x_t).softplus()
    one_minus_pt = (-x_t).sigmoid()
    alpha_t = Tensor(c.focal_alpha * t + (1.0 - c.focal_alpha) * (1.0 - t))
    return (alpha_t * one_minus_pt ** c.focal_gamma * (-log_pt)).mean()


def _run_losses(dice, focal, terms, dtype, c, seed):
    """Two frames' weighted losses on logits that are also read elsewhere,
    as clip_loss reads them; returns the total and the logits' gradient."""
    rng = np.random.default_rng(seed)
    x = Tensor((rng.normal(size=(6, 7)) * 3.0).astype(dtype), requires_grad=True)
    total = (x * Tensor(rng.normal(size=x.shape).astype(dtype))).sum()
    for scale in (1.0, -0.5):
        logits = x * scale
        target = (rng.random(x.shape) > 0.4).astype(float)
        if "dice" in terms:
            total = total + c.w_dice * dice(logits.sigmoid(), target, c)
        if "focal" in terms:
            total = total + c.w_focal * focal(logits, target, c)
    total.backward()
    return [total.data, x.grad]


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("terms", ["dice", "focal", "dice+focal"])
@pytest.mark.parametrize("options", [{}, {"focal_alpha": 0.6, "focal_gamma": 0.5, "dice_smooth": 0.5},
                                     {"focal_gamma": 0.0}])
def test_fused_losses_are_bitwise_the_composites(dtype, terms, options):
    c = cfg(**options)
    got = _run_losses(dice_loss, focal_loss, terms, dtype, c, seed=4)
    want = _run_losses(_dice_composite, _focal_composite, terms, dtype, c, seed=4)
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.dtype == w.dtype == dtype
        assert g.tobytes() == w.tobytes()


def test_each_loss_is_one_op_over_its_prediction():
    x = Tensor(np.random.default_rng(5).normal(size=(3, 3)), requires_grad=True)
    target = np.eye(3)
    p = x.sigmoid()
    for loss, pred in ((dice_loss(p, target, cfg()), p), (focal_loss(x, target, cfg()), x)):
        assert loss._parents == (pred,)


def test_focal_raises_when_its_pixel_sum_overflows():
    # every pixel is confidently wrong, so each term is about 1e308
    x = Tensor(np.full((2, 2), -1e308), requires_grad=True)
    with np.errstate(over="ignore"):
        with pytest.raises(NonFiniteError, match="sum"):
            _focal_composite(x, np.ones((2, 2)), cfg(focal_alpha=0.5))
        with pytest.raises(NonFiniteError, match="focal_loss"):
            focal_loss(x, np.ones((2, 2)), cfg(focal_alpha=0.5))
