import numpy as np
import pytest

from refvos.autodiff import (DimensionError, NonFiniteError, Tensor,
                             bilinear_resize, concat, conv1x1, grad_check,
                             layer_norm, linear, no_grad, softmax,
                             transposed_conv_upscale)


def test_linear_identity():
    y = linear(Tensor([1.0, 2.0]), Tensor(np.eye(2)), Tensor([0.0, 0.0]))
    assert np.allclose(y.data, [1.0, 2.0])


def test_linear_zero_weights():
    y = linear(Tensor([1.0, 2.0]), Tensor(np.zeros((2, 2))), Tensor([3.0, 4.0]))
    assert np.allclose(y.data, [3.0, 4.0])


def test_linear_hand_computed():
    y = linear(Tensor([1.0, 2.0]), Tensor([[1.0, 0.0], [1.0, 1.0]]), Tensor([0.0, 1.0]))
    assert np.allclose(y.data, [3.0, 3.0])


def test_linear_shape_mismatch():
    with pytest.raises(DimensionError):
        linear(Tensor([1.0, 2.0, 3.0]), Tensor(np.eye(2)), Tensor([0.0, 0.0]))


def test_relu():
    assert np.allclose(Tensor([-1.0, 0.0, 2.0]).relu().data, [0.0, 0.0, 2.0])


def test_softmax_uniform():
    assert np.allclose(softmax(Tensor([0.0, 0.0, 0.0])).data, [1 / 3] * 3)


def test_softmax_rows_normalized():
    rng = np.random.default_rng(0)
    for _ in range(50):
        x = Tensor(rng.normal(size=(5, 7)) * 10)
        s = softmax(x, axis=-1)
        assert np.all(s.data >= 0)
        assert np.allclose(s.data.sum(axis=-1), 1.0, atol=1e-6)


def test_softmax_bad_axis():
    with pytest.raises(DimensionError):
        softmax(Tensor([1.0, 2.0]), axis=3)


def test_layer_norm_definition():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(4, 6))
    g, b = rng.normal(size=6), rng.normal(size=6)
    y = layer_norm(Tensor(x), Tensor(g), Tensor(b), eps=1e-6)
    mu = x.mean(-1, keepdims=True)
    var = x.var(-1, keepdims=True)
    expect = (x - mu) / np.sqrt(var + 1e-6) * g + b
    assert np.allclose(y.data, expect)


def test_conv1x1_matches_linear_on_single_pixel():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(5, 1, 1))
    w, b = rng.normal(size=(5, 3)), rng.normal(size=3)
    y = conv1x1(Tensor(x), Tensor(w), Tensor(b))
    z = linear(Tensor(x[:, 0, 0]), Tensor(w), Tensor(b))
    assert np.allclose(y.data[:, 0, 0], z.data)


def test_conv1x1_matches_loop_oracle():
    rng = np.random.default_rng(3)
    for _ in range(20):
        cin, cout = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        h, w = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        x = rng.normal(size=(cin, h, w))
        W, b = rng.normal(size=(cin, cout)), rng.normal(size=cout)
        y = conv1x1(Tensor(x), Tensor(W), Tensor(b)).data
        expect = np.zeros((cout, h, w))
        for co in range(cout):
            for i in range(h):
                for j in range(w):
                    expect[co, i, j] = b[co] + sum(
                        x[ci, i, j] * W[ci, co] for ci in range(cin))
        assert np.allclose(y, expect, atol=0, rtol=0) or np.allclose(y, expect, atol=1e-12)


def test_conv1x1_stack_equals_per_frame_calls():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(2, 3, 5, 4, 6))
    W, b = Tensor(rng.normal(size=(5, 7))), Tensor(rng.normal(size=7))
    y = conv1x1(Tensor(x), W, b)
    assert y.shape == (2, 3, 7, 4, 6)
    for i in range(2):
        for t in range(3):
            assert np.array_equal(y.data[i, t], conv1x1(Tensor(x[i, t]), W, b).data)
    assert grad_check(lambda v: (conv1x1(v.reshape(2, 5, 2, 2), W, b) ** 2.0).sum(),
                      Tensor(rng.normal(size=40))) < 1e-6


def bilinear_oracle(x, out_h, out_w):
    """Per-pixel half-pixel bilinear interpolation, clamped at the borders."""
    c, h, w = x.shape

    def source(i, n_out, n_in):
        s = min(max((i + 0.5) * n_in / n_out - 0.5, 0.0), n_in - 1.0)
        lo = int(np.floor(s))
        return lo, min(lo + 1, n_in - 1), s - lo

    out = np.zeros((c, out_h, out_w))
    for i in range(out_h):
        y0, y1, fy = source(i, out_h, h)
        for j in range(out_w):
            x0, x1, fx = source(j, out_w, w)
            out[:, i, j] = ((1 - fy) * ((1 - fx) * x[:, y0, x0] + fx * x[:, y0, x1])
                            + fy * ((1 - fx) * x[:, y1, x0] + fx * x[:, y1, x1]))
    return out


def test_cached_tables_are_read_only_and_resize_unchanged():
    from refvos.autodiff import _interp_matrix
    from refvos.encoder import sinusoidal_grid
    for table in (_interp_matrix(7, 3, np.dtype(np.float64)), sinusoidal_grid(8, 2, 3)):
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 1.0
    assert _interp_matrix(7, 3, np.dtype(np.float64)) is _interp_matrix(7, 3, np.dtype(np.float64))
    x = np.random.default_rng(6).normal(size=(2, 3, 5))
    for out_h, out_w in ((7, 9), (1, 5), (3, 5), (2, 2)):
        first = bilinear_resize(Tensor(x), out_h, out_w).data
        assert np.array_equal(bilinear_resize(Tensor(x), out_h, out_w).data, first)
        assert np.allclose(first, bilinear_oracle(x, out_h, out_w), rtol=0, atol=1e-12)
    one = np.random.default_rng(7).normal(size=(1, 1, 1))
    assert np.array_equal(bilinear_resize(Tensor(one), 3, 2).data, np.broadcast_to(one, (1, 3, 2)))


def test_bilinear_resize_identity_and_constant():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(2, 5, 5))
    assert np.allclose(bilinear_resize(Tensor(x), 5, 5).data, x)
    c = np.full((1, 3, 3), 2.5)
    assert np.allclose(bilinear_resize(Tensor(c), 7, 9).data, 2.5)


def test_transposed_conv_upscale_doubles():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(3, 4, 4))
    W, b = rng.normal(size=(3, 2, 2, 2)), rng.normal(size=2)
    y = transposed_conv_upscale(Tensor(x), Tensor(W), Tensor(b))
    assert y.shape == (2, 8, 8)
    # non-overlapping kernel: each output pixel is a direct linear map
    expect = b[0] + sum(x[ci, 1, 2] * W[ci, 0, 1, 0] for ci in range(3))
    assert np.allclose(y.data[0, 3, 4], expect)


def test_nonfinite_raises_with_op_name():
    with pytest.raises(NonFiniteError, match="pow"), np.errstate(divide="ignore"):
        Tensor([0.0]) ** -1.0


def test_grad_check_quadratic():
    err = grad_check(lambda x: (x * x).sum(), Tensor([1.0, 2.0]))
    assert err < 1e-8


@pytest.mark.parametrize("seed", range(5))
def test_grad_check_composite_ops(seed):
    rng = np.random.default_rng(seed)
    W = Tensor(rng.normal(size=(6, 6)))
    g = Tensor(rng.normal(size=6))
    b = Tensor(rng.normal(size=6))

    def f(x):
        y = linear(x.reshape(2, 6), W, b)
        y = layer_norm(y, g, b)
        return (softmax(y, axis=-1) * y.sigmoid()).sum()

    assert grad_check(f, Tensor(rng.normal(size=12))) < 1e-6


def test_grad_check_random_points_all_ops():
    rng = np.random.default_rng(7)
    W = Tensor(rng.normal(size=(4, 4)))
    for _ in range(100):
        x0 = rng.normal(size=8)
        err = grad_check(lambda x: ((x.reshape(2, 4) @ W).relu().sum()
                                    + x.exp().mean() + x.softplus().sum()), Tensor(x0))
        assert err < 1e-4


def test_grad_check_through_spatial_ops():
    rng = np.random.default_rng(8)
    W = Tensor(rng.normal(size=(2, 2)))
    Wt = Tensor(rng.normal(size=(2, 2, 2, 2)))
    bt = Tensor(rng.normal(size=2))

    def f(x):
        y = conv1x1(x.reshape(2, 3, 3), W)
        y = transposed_conv_upscale(y, Wt, bt)
        return bilinear_resize(y, 4, 5).sum()

    assert grad_check(f, Tensor(rng.normal(size=18))) < 1e-6


def test_grad_check_eps_range():
    with pytest.raises(ValueError):
        grad_check(lambda x: x.sum(), Tensor([1.0]), eps=1e-2)


def test_concat_and_getitem_gradients():
    def f(x):
        top = concat([x.reshape(1, 3), x.reshape(1, 3) * 2.0], axis=0)
        return (top[1] * top[0]).sum()

    assert grad_check(f, Tensor([1.0, -2.0, 3.0])) < 1e-8


def test_backward_requires_scalar():
    with pytest.raises(DimensionError):
        Tensor([1.0, 2.0], requires_grad=True).backward()


def _every_op(x):
    """One output of each primitive op, with x a (2, 2) positive tensor."""
    return [x + x, -x, x * x, x ** 2.0, x @ x, x.exp(), x.relu(),
            x.sigmoid(), x.softplus(), x.reshape(4), x.transpose(1, 0), x[0],
            x.sum(axis=0), concat([x, x], axis=0)]


def _records(t):
    return bool(t._parents) and t._backward is not None


def test_no_grad_records_no_graph():
    x = Tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
    assert all(_records(t) for t in _every_op(x))
    with no_grad():
        outs = _every_op(x)
    for t in outs:
        assert t._parents == () and t._backward is None and not t.requires_grad, t._op
    assert np.array_equal(outs[2].data, x.data * x.data)


def test_no_grad_restores_recording_after_nesting_and_errors():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with no_grad():
        with no_grad():
            pass
        assert not _records(x * x)
    assert _records(x * x)
    with pytest.raises(RuntimeError):
        with no_grad():
            raise RuntimeError("inside the block")
    y = (x * x).sum()
    assert _records(y)
    y.backward()
    assert np.array_equal(x.grad, [2.0, 4.0])


def test_no_grad_still_raises_nonfinite_with_op_name():
    with no_grad():
        with pytest.raises(NonFiniteError, match="pow"), np.errstate(divide="ignore"):
            Tensor([0.0]) ** -1.0
        with pytest.raises(NonFiniteError, match="mul"), np.errstate(over="ignore"):
            Tensor([np.finfo(np.float64).max]) * Tensor([2.0])


# ---- fused ops against the composites they replace ---------------------------

def _linear_composite(x, W, b=None):
    squeeze = x.data.ndim == 1
    if squeeze:
        x = x.reshape(1, -1)
    y = x @ W
    if b is not None:
        y = y + b
    return y.reshape(y.shape[1:]) if squeeze else y


def _softmax_composite(x, axis=-1):
    shift = Tensor(x.data.max(axis=axis, keepdims=True))
    e = (x - shift).exp()
    return e / e.sum(axis=axis, keepdims=True)


def _layer_norm_composite(x, gamma, beta, eps=1e-6):
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    return xc * (var + eps) ** -0.5 * gamma + beta


def _run_bitwise(op, arrays, residual_first, seed):
    """Forward and backward of op over fresh leaves built from `arrays`; the
    loss also reads the op's (scaled) first input, so that input has a
    second consumer, placed before or after the op's output."""
    leaves = [Tensor(a, requires_grad=True) for a in arrays]
    h = leaves[0] * 1.5
    y = op(h, *leaves[1:])
    c = Tensor(np.random.default_rng(seed).normal(size=y.shape))
    total = (h + y) if residual_first else (y + h)
    (total * c).sum().backward()
    return [y.data] + [t.grad for t in leaves]


def _assert_bitwise(fused, composite, arrays, seed=0):
    for residual_first in (False, True):
        got = _run_bitwise(fused, arrays, residual_first, seed)
        want = _run_bitwise(composite, arrays, residual_first, seed)
        for g, w in zip(got, want):
            assert g.shape == w.shape and g.dtype == w.dtype
            assert g.tobytes() == w.tobytes()


@pytest.mark.parametrize("x_shape", [(6,), (5, 6), (3, 4, 6)])
@pytest.mark.parametrize("with_bias", [False, True])
def test_fused_linear_is_bitwise_the_composite(x_shape, with_bias):
    rng = np.random.default_rng(len(x_shape))
    arrays = [rng.normal(size=x_shape), rng.normal(size=(6, 6))]
    if with_bias:
        arrays.append(rng.normal(size=6))
    _assert_bitwise(linear, _linear_composite, arrays)


@pytest.mark.parametrize("axis", [-1, 0, 1, 2])
def test_fused_softmax_is_bitwise_the_composite(axis):
    x = np.random.default_rng(11).normal(size=(3, 4, 5)) * 3.0
    _assert_bitwise(lambda t: softmax(t, axis=axis),
                    lambda t: _softmax_composite(t, axis=axis), [x], seed=axis + 1)


@pytest.mark.parametrize("x_shape", [(7, 8), (2, 3, 8), (1, 8)])
def test_fused_layer_norm_is_bitwise_the_composite(x_shape):
    rng = np.random.default_rng(12)
    arrays = [rng.normal(size=x_shape) * 2.0 + 0.5, rng.normal(size=8), rng.normal(size=8)]
    _assert_bitwise(layer_norm, _layer_norm_composite, arrays)


def test_fused_ops_pass_grad_check():
    rng = np.random.default_rng(13)
    W, b = Tensor(rng.normal(size=(4, 3))), Tensor(rng.normal(size=3))
    x2 = Tensor(rng.normal(size=(2, 5, 4)))
    g, beta = Tensor(rng.normal(size=4)), Tensor(rng.normal(size=4))
    c = Tensor(rng.normal(size=(2, 5, 4)))
    checks = [
        (lambda x: (linear(x.reshape(2, 5, 4), W, b) ** 2.0).sum(), 40),
        (lambda x: (linear(x, W) ** 2.0).sum(), 4),
        (lambda w: (linear(x2, w.reshape(4, 3), b) ** 2.0).sum(), 12),
        (lambda v: (linear(x2, W, v) ** 2.0).sum(), 3),
        (lambda x: (softmax(x.reshape(2, 5, 4), axis=1) * c).sum(), 40),
        (lambda x: (softmax(x.reshape(2, 5, 4), axis=-1) * c).sum(), 40),
        (lambda x: (layer_norm(x.reshape(2, 5, 4), g, beta) * c).sum(), 40),
        (lambda v: (layer_norm(x2, v, beta) * c).sum(), 4),
        (lambda v: (layer_norm(x2, g, v) * c).sum(), 4),
    ]
    for f, size in checks:
        assert grad_check(f, Tensor(rng.normal(size=size))) < 1e-6


def test_ops_over_inputs_without_gradient_record_nothing():
    x = Tensor([[1.0, 2.0], [3.0, 4.0]])
    w = Tensor([[0.5, -1.0], [2.0, 1.0]])
    outs = _every_op(x) + [linear(x, w, x[0]), softmax(x), layer_norm(x, x[0], x[1])]
    for t in outs:
        assert t._parents == () and t._backward is None and not t.requires_grad, t._op
    # a parameter that needs no gradient gets none when another one does
    v = Tensor([1.0, -1.0], requires_grad=True)
    y = layer_norm(linear(v, w, x[0]), x[0], x[1])
    assert y.requires_grad and _records(y)
    y.sum().backward()
    assert v.grad is not None and w.grad is None and x.grad is None


def test_frozen_parameters_carry_no_gradient_after_a_train_step():
    from refvos.data import SyntheticSpec, generate_clip
    from refvos.losses import LossConfig
    from refvos.model import Model, ModelConfig
    from refvos.optim import AdamW
    from refvos.tracking import train_step

    model = Model(ModelConfig(patch_size=8, blocks=2, token_width=32, channels=32,
                              adapter_width=4, hidden=32, text_width=32), seed=0)
    clip, expr, gts = generate_clip(SyntheticSpec(height=32, width=32, frames=2, seed=4))
    train_step([(clip.frames, expr, gts)], model,
               AdamW(model.trainable_params(), dict.fromkeys(
                   ("cmm", "hda", "decoder", "adapter", "itm"), 1e-3)), LossConfig())
    frozen, trainable = model.partition()
    assert frozen and trainable
    for name in frozen:
        p = model.params[name]
        assert not p.requires_grad and p.grad is None, name
    assert all(model.params[n].requires_grad for n in trainable)
    assert any(model.params[n].grad is not None for n in trainable)


def test_fused_layer_norm_raises_when_its_variance_overflows():
    x = Tensor([[1e200, -1e200, 0.0]], requires_grad=True)
    gamma, beta = Tensor(np.ones(3)), Tensor(np.zeros(3))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteError, match="mul"):
            _layer_norm_composite(x, gamma, beta)
        with pytest.raises(NonFiniteError, match="layer_norm"):
            layer_norm(x, gamma, beta)
