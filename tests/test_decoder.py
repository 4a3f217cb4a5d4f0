from types import SimpleNamespace

import numpy as np
import pytest

from refvos.autodiff import DimensionError, Tensor, bilinear_resize, grad_check
from refvos.decoder import decode
from refvos.encoder import TextEmbeddings
from refvos.losses import LossConfig, dice_loss
from refvos.model import Model, ModelConfig
from refvos.tracking import select_mask


C_V = 32


def decoder_params(seed, c_v=C_V):
    """The parameters of a fresh model of width c_v; its decoder draws from
    the stream seeded with seed + 4."""
    return Model(ModelConfig(channels=c_v, blocks=2, token_width=8, adapter_width=4,
                             text_width=8, vocab_size=8, hidden=8), seed=seed).params


def make_inputs(rng, c_v=C_V, h0=4, w0=4, length=2):
    """(H0*W0, C_v) visual and dense rows of the grid (h0, w0), and the
    sparse prompts. The rows are drawn channel by channel, the order the
    golden value below was frozen with."""
    visual = Tensor(rng.normal(size=(c_v, h0 * w0)).T)
    sparse = TextEmbeddings(words=Tensor(rng.normal(size=(length, c_v))),
                            sentence=Tensor(rng.normal(size=c_v)))
    dense = Tensor(rng.normal(size=(c_v, h0 * w0)).T)
    return visual, (h0, w0), sparse, dense


def test_decode_shapes():
    rng = np.random.default_rng(0)
    params = decoder_params(seed=0)
    visual, grid, sparse, dense = make_inputs(rng, h0=8, w0=8)
    out = decode(visual, grid, sparse, dense, None, params)
    assert all(out.mask(i).shape == (32, 32) for i in range(4))
    assert out.iou_scores.shape == (1, 4)
    assert np.all((out.iou_scores.data >= 0) & (out.iou_scores.data <= 1))
    assert out.main_token_out.shape == (1, C_V)


def test_decode_deterministic():
    params = decoder_params(seed=1)
    visual, grid, sparse, dense = make_inputs(np.random.default_rng(2))
    a = decode(visual, grid, sparse, dense, None, params)
    b = decode(visual, grid, sparse, dense, None, params)
    for i in range(4):
        assert np.array_equal(a.mask(i).data, b.mask(i).data)
    assert np.array_equal(a.iou_scores.data, b.iou_scores.data)


def test_decode_track_width_checked():
    rng = np.random.default_rng(3)
    params = decoder_params(seed=3)
    visual, grid, sparse, dense = make_inputs(rng)
    for wrong in ((1, C_V + 1), (C_V,)):
        with pytest.raises(DimensionError, match=r"track must be a \(1, 32\) row"):
            decode(visual, grid, sparse, dense, Tensor(np.zeros(wrong)), params)


def test_decode_checks_rows_against_the_grid():
    params = decoder_params(seed=3)
    visual, grid, sparse, dense = make_inputs(np.random.default_rng(3))
    for wrong in ((4, 5), (2, 4)):
        with pytest.raises(DimensionError, match="rows of the"):
            decode(visual, wrong, sparse, dense, None, params)
    with pytest.raises(DimensionError, match="rows of the"):
        decode(visual.reshape(4, 4, C_V), grid, sparse, None, None, params)
    with pytest.raises(DimensionError, match="dense rows"):
        decode(visual, grid, sparse, dense[:8], None, params)


def test_zero_dense_equals_no_dense():
    rng = np.random.default_rng(4)
    params = decoder_params(seed=4)
    visual, grid, sparse, _ = make_inputs(rng)
    zero = Tensor(np.zeros((16, C_V)))
    a = decode(visual, grid, sparse, zero, None, params)
    b = decode(visual, grid, sparse, None, None, params)
    for i in range(4):
        assert np.array_equal(a.mask(i).data, b.mask(i).data)
    assert np.array_equal(a.iou_scores.data, b.iou_scores.data)


def test_zero_track_with_zero_value_projections_is_transparent():
    # ablate by construction: zero every attention value projection so a
    # token's presence cannot influence any other token or the image path
    rng = np.random.default_rng(5)
    params = decoder_params(seed=5)
    for name, p in params.items():
        if ".wv." in name:
            p.data = np.zeros_like(p.data)
    visual, grid, sparse, dense = make_inputs(rng)
    absent = decode(visual, grid, sparse, dense, None, params)
    present = decode(visual, grid, sparse, dense, Tensor(np.zeros((1, C_V))), params)
    for i in range(4):
        assert np.array_equal(absent.mask(i).data, present.mask(i).data)
    assert np.array_equal(absent.iou_scores.data, present.iou_scores.data)


def test_decode_golden_regression():
    params = decoder_params(seed=2)
    visual, grid, sparse, dense = make_inputs(np.random.default_rng(7))
    out = decode(visual, grid, sparse, dense, None, params)
    # frozen from the first verified run of this configuration
    assert abs(float(np.abs(out.mask(0).data).sum()) - GOLDEN_MAIN_ABS) < 1e-8


GOLDEN_MAIN_ABS = 381.85760045982795


def test_grad_check_decode_to_dice():
    rng = np.random.default_rng(8)
    c_v = 8
    params = decoder_params(seed=8, c_v=c_v)
    visual, grid, sparse, dense = make_inputs(rng, c_v=c_v, h0=2, w0=2)
    target = (rng.random((8, 8)) > 0.5).astype(float)
    cfg = LossConfig()
    probe = params["decoder.hyper0.fc3.weight"]

    def f(x):
        params["decoder.hyper0.fc3.weight"] = x
        out = decode(visual, grid, sparse, dense, None, params)
        return dice_loss(out.mask(0).sigmoid(), target, cfg)

    try:
        assert grad_check(f, Tensor(probe.data.copy())) < 1e-4
    finally:
        params["decoder.hyper0.fc3.weight"] = probe


def resized(mask, h, w):
    return (bilinear_resize(mask, h, w).data > 0).astype(np.uint8)


def fake_output(masks, iou_scores):
    """A stand-in for a decoder output with the given mask maps and scores."""
    return SimpleNamespace(mask=masks.__getitem__, iou_scores=iou_scores)


def test_select_mask_argmax_and_tie():
    rng = np.random.default_rng(9)
    masks = [Tensor(rng.normal(size=(4, 4))) for _ in range(4)]
    out = fake_output(masks, iou_scores=Tensor([[0.9, 0.1, 0.1, 0.1]]))
    assert np.array_equal(select_mask(out, 8, 8), resized(masks[0], 8, 8))
    out.iou_scores = Tensor([[0.4, 0.4, 0.4, 0.4]])
    assert np.array_equal(select_mask(out, 8, 8), resized(masks[0], 8, 8))
    out.iou_scores = Tensor([[0.2, 0.3, 0.9, 0.1]])
    assert np.array_equal(select_mask(out, 8, 8), resized(masks[2], 8, 8))
    assert np.array_equal(select_mask(out, 4, 4), (masks[2].data > 0).astype(np.uint8))


def test_select_mask_monotone_invariance():
    rng = np.random.default_rng(10)
    masks = [Tensor(rng.normal(size=(4, 4))) for _ in range(4)]
    scores = np.array([[0.2, 0.7, 0.5, 0.1]])
    out = fake_output(masks, iou_scores=Tensor(scores))
    base = select_mask(out, 8, 8)
    for transform in (lambda s: s ** 3, lambda s: 5 * s + 1, np.exp):
        out.iou_scores = Tensor(transform(scores))
        assert np.array_equal(select_mask(out, 8, 8), base)


def eager_masks(out, params):
    """The four hypernetwork heads computed at once, as decode did before
    it computed each mask on demand."""
    from refvos.autodiff import linear
    tokens, up = out.tokens, out.up
    c_up, h, w = up.shape
    masks = []
    for i in range(4):
        pre = f"decoder.hyper{i}."
        k = linear(tokens[1 + i:2 + i], params[pre + "fc1.weight"],
                   params[pre + "fc1.bias"]).relu()
        k = linear(k, params[pre + "fc2.weight"], params[pre + "fc2.bias"]).relu()
        k = linear(k, params[pre + "fc3.weight"], params[pre + "fc3.bias"])
        masks.append((k @ up.reshape(c_up, h * w)).reshape(h, w))
    return masks


def test_reading_mask_0_runs_no_other_hypernetwork(monkeypatch):
    from refvos import autodiff
    params = decoder_params(seed=6)
    visual, grid, sparse, dense = make_inputs(np.random.default_rng(6))
    out = decode(visual, grid, sparse, dense, None, params)
    make, parents = autodiff._make, []

    def recording_make(data, ps, op):
        parents.extend(ps)
        return make(data, ps, op)

    monkeypatch.setattr(autodiff, "_make", recording_make)
    out.mask(0)
    used = {id(p) for p in parents}
    for name, p in params.items():
        if name.startswith("decoder.hyper"):
            assert (id(p) in used) == name.startswith("decoder.hyper0."), name


def test_masks_read_on_demand_equal_eager_computation():
    params = decoder_params(seed=7)
    visual, grid, sparse, dense = make_inputs(np.random.default_rng(7))
    out = decode(visual, grid, sparse, dense, Tensor(np.ones((1, C_V))), params)
    for i, want in enumerate(eager_masks(out, params)):
        assert out.mask(i).data.tobytes() == want.data.tobytes()


def test_masks_record_a_graph_only_if_decode_did():
    from refvos.autodiff import no_grad
    params = decoder_params(seed=8)
    visual, grid, sparse, dense = make_inputs(np.random.default_rng(8))
    with no_grad():
        quiet = decode(visual, grid, sparse, dense, None, params).mask(2)
    recorded = decode(visual, grid, sparse, dense, None, params).mask(2)
    assert recorded.requires_grad and recorded._backward is not None
    assert not quiet.requires_grad and quiet._parents == () and quiet._backward is None
    assert recorded.data.tobytes() == quiet.data.tobytes()
