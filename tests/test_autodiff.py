import numpy as np
import pytest

from refvos.autodiff import (DimensionError, NonFiniteError, Tensor, attention,
                             bilinear_resize, concat, grad_check, layer_norm,
                             linear, no_grad, softmax, transposed_conv_upscale)


def test_linear_identity():
    y = linear(Tensor([[1.0, 2.0]]), Tensor(np.eye(2)), Tensor([0.0, 0.0]))
    assert np.allclose(y.data, [[1.0, 2.0]])


def test_linear_zero_weights():
    y = linear(Tensor([[1.0, 2.0]]), Tensor(np.zeros((2, 2))), Tensor([3.0, 4.0]))
    assert np.allclose(y.data, [[3.0, 4.0]])


def test_linear_hand_computed():
    y = linear(Tensor([[1.0, 2.0]]), Tensor([[1.0, 0.0], [1.0, 1.0]]), Tensor([0.0, 1.0]))
    assert np.allclose(y.data, [[3.0, 3.0]])


def test_linear_shape_mismatch():
    with pytest.raises(DimensionError):
        linear(Tensor([[1.0, 2.0, 3.0]]), Tensor(np.eye(2)), Tensor([0.0, 0.0]))


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


def test_softmax_of_a_finite_row_whose_shift_overflows_raises():
    # the shifted row is [0, -inf]: its exp, and so the output, is finite, so
    # only softmax's scan of the shifted row reports the overflow
    with np.errstate(over="ignore"), pytest.raises(NonFiniteError, match="'softmax'"):
        softmax(Tensor([1e308, -1e308]))


def test_softmax_bad_axis():
    with pytest.raises(DimensionError):
        softmax(Tensor([1.0, 2.0]), axis=3)


def test_layer_norm_definition():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(4, 6))
    g, b = rng.normal(size=6), rng.normal(size=6)
    y = layer_norm(Tensor(x), Tensor(g), Tensor(b))
    mu = x.mean(-1, keepdims=True)
    var = x.var(-1, keepdims=True)
    expect = (x - mu) / np.sqrt(var + 1e-6) * g + b
    assert np.allclose(y.data, expect)


_ROW, _W, _B = Tensor(np.ones((2, 3))), Tensor(np.ones((3, 3))), Tensor(np.ones(3))


@pytest.mark.parametrize("op, message", [
    (lambda: Tensor([1.0, 2.0]) @ Tensor(np.eye(2)), "rank >= 2"),
    (lambda: attention(Tensor(np.ones(3)), _W, _B, _ROW, _ROW, _W, _B), "rank >= 2"),
    (lambda: attention(Tensor(np.ones((2, 4))), _W, _B, _ROW, _ROW, _W, _B),
     "query width 4 vs weight 3"),
    (lambda: attention(_ROW, _W, _B, _ROW, Tensor(np.ones((2, 4))), _W, _B),
     "value width 4 vs weight 3"),
    (lambda: transposed_conv_upscale(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 1, 2, 2)))),
     "bad ranks"),
    (lambda: transposed_conv_upscale(Tensor(np.ones((2, 3, 3))), Tensor(np.ones((2, 1, 3, 3)))),
     "weight shape mismatch"),
], ids=["matmul-rank-1", "attention-rank-1", "attention-query-width",
        "attention-value-width", "upscale-rank", "upscale-weight-shape"])
def test_ops_refuse_operands_of_the_wrong_shape(op, message):
    with pytest.raises(DimensionError, match=message):
        op()


def test_tensor_casts_non_float_input_to_float64():
    # refvos.Tensor is public API: integer and boolean input computes in float64
    assert Tensor([1, 2]).dtype == np.float64
    assert Tensor(np.array([True, False])).dtype == np.float64
    assert Tensor(np.float32([1.0])).dtype == np.float32


def test_detach_shares_the_data_and_records_nothing():
    x = Tensor([[1.0, 2.0]], requires_grad=True)
    y = x * 3.0
    d = y.detach()
    assert d.data is y.data
    assert not d.requires_grad and d._parents == () and d._backward is None
    assert d._op == "leaf" and d.grad is None
    (d * x).sum().backward()     # the walk stops at d: y's closure never runs
    assert np.array_equal(x.grad, y.data) and y._backward is not None


def test_linear_refuses_a_rank_1_input():
    # a single token is a (1, C) row: x, like W, must have rank >= 2
    rng = np.random.default_rng(2)
    x = rng.normal(size=(1, 5))
    w, b = rng.normal(size=(5, 3)), rng.normal(size=3)
    assert linear(Tensor(x), Tensor(w), Tensor(b)).shape == (1, 3)
    with pytest.raises(DimensionError, match="rank >= 2"):
        linear(Tensor(x[0]), Tensor(w), Tensor(b))
    with pytest.raises(DimensionError, match="rank >= 2"):
        linear(Tensor(x), Tensor(w[:, 0]))


def test_linear_over_patch_rows_matches_conv1x1_loop_oracle():
    # a 1x1 convolution of a (cin, h, w) map, computed pixel by pixel, is
    # linear over the map's (h*w, cin) patch rows
    rng = np.random.default_rng(3)
    for _ in range(20):
        cin, cout = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        h, w = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        x = rng.normal(size=(cin, h, w))
        W, b = rng.normal(size=(cin, cout)), rng.normal(size=cout)
        rows = np.ascontiguousarray(x.reshape(cin, h * w).T)
        y = linear(Tensor(rows), Tensor(W), Tensor(b)).data
        expect = np.zeros((cout, h, w))
        for co in range(cout):
            for i in range(h):
                for j in range(w):
                    expect[co, i, j] = b[co] + sum(
                        x[ci, i, j] * W[ci, co] for ci in range(cin))
        assert y.shape == (h * w, cout)
        assert np.allclose(y.T.reshape(cout, h, w), expect, atol=1e-12)


def test_linear_over_clip_rows_equals_per_frame_calls():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(2, 3, 20, 5))
    W, b = Tensor(rng.normal(size=(5, 7))), Tensor(rng.normal(size=7))
    y = linear(Tensor(x), W, b)
    assert y.shape == (2, 3, 20, 7)
    for i in range(2):
        for t in range(3):
            assert np.array_equal(y.data[i, t], linear(Tensor(x[i, t]), W, b).data)
    assert grad_check(lambda v: (linear(v.reshape(2, 4, 5), W, b) ** 2.0).sum(),
                      Tensor(rng.normal(size=40))) < 1e-6


def bilinear_oracle(x, out_h, out_w):
    """Per-pixel half-pixel bilinear interpolation of an (H, W) map, clamped
    at the borders."""
    h, w = x.shape

    def source(i, n_out, n_in):
        s = min(max((i + 0.5) * n_in / n_out - 0.5, 0.0), n_in - 1.0)
        lo = int(np.floor(s))
        return lo, min(lo + 1, n_in - 1), s - lo

    out = np.zeros((out_h, out_w))
    for i in range(out_h):
        y0, y1, fy = source(i, out_h, h)
        for j in range(out_w):
            x0, x1, fx = source(j, out_w, w)
            out[i, j] = ((1 - fy) * ((1 - fx) * x[y0, x0] + fx * x[y0, x1])
                         + fy * ((1 - fx) * x[y1, x0] + fx * x[y1, x1]))
    return out


def test_cached_tables_are_read_only_and_resize_unchanged():
    from refvos.autodiff import _interp_matrix
    from refvos.encoder import sinusoidal_grid
    for table in (_interp_matrix(7, 3, np.dtype(np.float64)), sinusoidal_grid(8, 2, 3)):
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 1.0
    assert _interp_matrix(7, 3, np.dtype(np.float64)) is _interp_matrix(7, 3, np.dtype(np.float64))
    for x in np.random.default_rng(6).normal(size=(2, 3, 5)):
        for out_h, out_w in ((7, 9), (1, 5), (3, 5), (2, 2)):
            first = bilinear_resize(Tensor(x), out_h, out_w).data
            assert np.array_equal(bilinear_resize(Tensor(x), out_h, out_w).data, first)
            assert np.allclose(first, bilinear_oracle(x, out_h, out_w), rtol=0, atol=1e-12)
    one = np.random.default_rng(7).normal(size=(1, 1))
    assert np.array_equal(bilinear_resize(Tensor(one), 3, 2).data, np.broadcast_to(one, (3, 2)))


def test_bilinear_resize_takes_one_map_and_records_no_transpose(monkeypatch):
    from refvos import autodiff
    x = np.random.default_rng(11).normal(size=(6, 4))
    with pytest.raises(DimensionError, match=r"\(H, W\) map"):
        bilinear_resize(Tensor(x[None]), 12, 8)
    ops, make = [], autodiff._make
    monkeypatch.setattr(autodiff, "_make", lambda d, ps, op: ops.append(op) or make(d, ps, op))
    y = bilinear_resize(Tensor(x, requires_grad=True), 12, 8)
    assert ops == ["matmul", "matmul"] and y.shape == (12, 8)
    assert np.allclose(y.data, bilinear_oracle(x, 12, 8), rtol=0, atol=1e-12)


def test_bilinear_resize_identity_and_constant():
    rng = np.random.default_rng(4)
    for x in rng.normal(size=(2, 5, 5)):
        assert np.allclose(bilinear_resize(Tensor(x), 5, 5).data, x)
    c = np.full((3, 3), 2.5)
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
        y = linear(x.reshape(9, 2), W).mT.reshape(2, 3, 3)
        y = transposed_conv_upscale(y, Wt, bt)
        return (bilinear_resize(y[0], 4, 5) + bilinear_resize(y[1], 4, 5)).sum()

    assert grad_check(f, Tensor(rng.normal(size=18))) < 1e-6


def test_grad_check_eps_range():
    with pytest.raises(ValueError):
        grad_check(lambda x: x.sum(), Tensor([1.0]), eps=1e-2)


def test_concat_and_getitem_gradients():
    def f(x):
        top = concat([x.reshape(1, 3), x.reshape(1, 3) * 2.0], axis=0)
        return (top[1] * top[0]).sum()

    assert grad_check(f, Tensor([1.0, -2.0, 3.0])) < 1e-8


@pytest.mark.parametrize("idx", [1, np.int64(-1), slice(1, None, 2), (1, slice(None, 2)),
                                 (Ellipsis, 0), (None, 0, slice(None), -1), ()],
                         ids=["int", "np_int", "slice", "tuple", "ellipsis", "none", "empty"])
def test_getitem_backward_bytes_equal_add_at(idx):
    # a basic index reads no element twice, so `full[idx] += g` gives add.at's
    # bytes, signed zeros included (0.0 + -0.0 is 0.0 in both)
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(size=(3, 4, 5)), requires_grad=True)
    out = x[idx]
    g = rng.normal(size=out.shape)
    g.reshape(-1)[::3] = -0.0
    (out * Tensor(g)).sum().backward()
    want = np.zeros_like(x.data)
    np.add.at(want, idx, g)
    assert x.grad.tobytes() == want.tobytes()


@pytest.mark.parametrize("idx", [[0, 1], np.array([0, 0]), np.array([True, False, True]),
                                 True, (0, [1, 2]), 1.0],
                         ids=["list", "int_array", "bool_array", "bool", "tuple_with_list",
                              "float"])
def test_getitem_rejects_advanced_indices(idx):
    x = Tensor(np.ones((3, 4)), requires_grad=True)
    with pytest.raises(DimensionError, match="basic indices only"):
        x[idx]


def test_backward_requires_scalar():
    with pytest.raises(DimensionError):
        Tensor([1.0, 2.0], requires_grad=True).backward()


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_subtracting_a_constant_records_one_op(monkeypatch, dtype):
    # the constant is negated as an array; a Tensor operand keeps its neg op
    from refvos import autodiff
    rng = np.random.default_rng(12)
    data, w = rng.normal(size=(2, 3, 4)).astype(dtype)
    c = np.full((3, 4), 0.3)
    runs = {"x - 0.5": lambda x: x - 0.5, "x + (-0.5)": lambda x: x + (-0.5),
            "x - c": lambda x: x - c, "x + (-c)": lambda x: x + (-c),
            "x - Tensor(c)": lambda x: x - Tensor(c.astype(dtype))}
    seen = {}
    for name, run in runs.items():
        x, ops, make = Tensor(data.copy(), requires_grad=True), [], autodiff._make
        with monkeypatch.context() as m:
            m.setattr(autodiff, "_make", lambda d, ps, op: ops.append(op) or make(d, ps, op))
            y = run(x)
        (y * Tensor(w)).sum().backward()
        seen[name] = (ops, y.dtype, y.data.tobytes(), x.grad.tobytes())
    assert seen["x - 0.5"] == seen["x + (-0.5)"] and seen["x - 0.5"][:2] == (["add"], dtype)
    assert seen["x - c"] == seen["x + (-c)"] and seen["x - c"][:2] == (["add"], dtype)
    assert seen["x - Tensor(c)"][0] == ["neg", "add"]
    assert seen["x - Tensor(c)"][2:] == seen["x - c"][2:]


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


def test_backward_consumes_a_graph_shared_by_two_outputs():
    # the first walk frees y's closure; a second walk reaching y fails
    # instead of handing x nothing
    x = Tensor([1.0, 2.0], requires_grad=True)
    y = x * x
    a, b = y.sum(), (y * 3.0).sum()
    a.backward()
    assert np.array_equal(x.grad, [2.0, 4.0])
    assert y._parents == () and y.grad is None and a.grad is None
    with pytest.raises(RuntimeError, match="backward already ran through this graph"):
        b.backward()
    assert np.array_equal(x.grad, [2.0, 4.0])


def test_no_grad_still_raises_nonfinite_with_op_name():
    with no_grad():
        with pytest.raises(NonFiniteError, match="pow"), np.errstate(divide="ignore"):
            Tensor([0.0]) ** -1.0
        with pytest.raises(NonFiniteError, match="mul"), np.errstate(over="ignore"):
            Tensor([np.finfo(np.float64).max]) * Tensor([2.0])


# ---- fused ops against the composites they replace ---------------------------

def _linear_composite(x, W, b=None):
    y = x @ W
    return y if b is None else y + b


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


@pytest.mark.parametrize("x_shape", [(1, 6), (5, 6), (3, 4, 6)])
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
        (lambda x: (linear(x.reshape(1, 4), W) ** 2.0).sum(), 4),
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


def _every_fused_op(x, w):
    """One output of each fused op, with x a (2, 2) positive tensor and w a
    (2, 2) weight."""
    from refvos.losses import LossConfig, dice_loss, focal_loss

    cube = x.reshape(2, 1, 2)
    prob = x * 0.2
    target = np.array([[1.0, 0.0], [0.0, 1.0]])
    return [linear(x, w, x[0]), softmax(x), layer_norm(x, x[0], x[1]),
            attention(x, w, x[0], x, x, w, x[1]),
            transposed_conv_upscale(cube, concat([cube, cube], axis=1).reshape(2, 1, 2, 2),
                                    x[0][:1]),
            concat([x, w], axis=1), dice_loss(prob, target, LossConfig()),
            focal_loss(x, target, LossConfig())]


def test_ops_over_inputs_without_gradient_record_nothing():
    x = Tensor([[1.0, 2.0], [3.0, 4.0]])
    w = Tensor([[0.5, -1.0], [2.0, 1.0]])
    outs = _every_op(x) + _every_fused_op(x, w)
    # and every op over inputs that need a gradient, inside no_grad
    xg, wg = Tensor(x.data, requires_grad=True), Tensor(w.data, requires_grad=True)
    assert all(_records(t) for t in _every_op(xg) + _every_fused_op(xg, wg))
    with no_grad():
        outs += _every_op(xg) + _every_fused_op(xg, wg)
    assert len(outs) == 2 * (14 + 8)
    for t in outs:
        assert t._parents == () and t._backward is None and not t.requires_grad, t._op
    # a parameter that needs no gradient gets none when another one does
    v = Tensor([[1.0, -1.0]], requires_grad=True)
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


def _upscale_composite(x, W, b=None):
    cin, h, w = x.shape
    cout = W.shape[1]
    y = linear(x.reshape(cin, h * w).transpose(1, 0), W.reshape(cin, cout * 4))
    y = y.reshape(h, w, cout, 2, 2).transpose(2, 0, 3, 1, 4).reshape(cout, 2 * h, 2 * w)
    return y if b is None else y + b.reshape(cout, 1, 1)


def _run_twice(op, arrays, dtypes, seed):
    """Forward and backward of op called twice on the same weights, as the
    decoder is across training frames. Each call's input is also read by the
    loss, before or after its output, which is read twice. The loss weights
    take the input's dtype, so a graph whose leaves share one dtype is
    wholly of that dtype."""
    leaves = [Tensor(np.asarray(a, dtype=dt), requires_grad=True) for a, dt in zip(arrays, dtypes)]
    rng = np.random.default_rng(seed)
    total = None
    for scale in (1.5, -0.5):
        h = leaves[0] * scale
        y = op(h, *leaves[1:])
        for t in ((h, y, y) if scale > 0 else (y, h, y)):
            term = (t * Tensor(rng.normal(size=t.shape).astype(dtypes[0]))).sum()
            total = term if total is None else total + term
    total.backward()
    return [y.data] + [t.grad for t in leaves]


def _assert_twice_bitwise(fused, composite, arrays, x_dtype, w_dtype, seed):
    dtypes = [x_dtype] + [w_dtype] * (len(arrays) - 1)
    got = _run_twice(fused, arrays, dtypes, seed)
    want = _run_twice(composite, arrays, dtypes, seed)
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.dtype == w.dtype
        assert g.tobytes() == w.tobytes()
        if x_dtype == w_dtype:
            assert g.dtype == x_dtype


# (input dtype, weight dtype): a float64 and a float32 graph, and a mixed one,
# in which the fused op and its composite must promote alike
DTYPES = [(np.float64, np.float64), (np.float32, np.float32), (np.float64, np.float32)]


@pytest.mark.parametrize("x_dtype, w_dtype", DTYPES)
@pytest.mark.parametrize("x_shape", [(12, 6), (2, 3, 12, 6)])
@pytest.mark.parametrize("with_bias", [False, True])
def test_fused_linear_over_clip_rows_is_bitwise_the_composite(x_dtype, w_dtype, x_shape,
                                                              with_bias):
    # the 1x1 convolutions of dense attention run as linear over one frame's
    # patch rows or a clip's stacked rows, with weights reused over frames
    rng = np.random.default_rng(14)
    arrays = [rng.normal(size=x_shape), rng.normal(size=(6, 6))]
    if with_bias:
        arrays.append(rng.normal(size=6))
    _assert_bitwise(linear, _linear_composite, arrays)
    arrays[1:] = [rng.normal(size=(6, 5))] + [rng.normal(size=5)] * with_bias
    _assert_twice_bitwise(linear, _linear_composite, arrays, x_dtype, w_dtype, seed=1)


@pytest.mark.parametrize("x_dtype, w_dtype", DTYPES)
@pytest.mark.parametrize("with_bias", [False, True])
def test_fused_transposed_conv_upscale_is_bitwise_the_composite(x_dtype, w_dtype, with_bias):
    rng = np.random.default_rng(15)
    arrays = [rng.normal(size=(4, 3, 5)), rng.normal(size=(4, 3, 2, 2))]
    if with_bias:
        arrays.append(rng.normal(size=3))
    _assert_twice_bitwise(transposed_conv_upscale, _upscale_composite, arrays,
                          x_dtype, w_dtype, seed=2)


def test_fused_layout_ops_pass_grad_check():
    rng = np.random.default_rng(16)
    Wt, bt = Tensor(rng.normal(size=(4, 3, 2, 2))), Tensor(rng.normal(size=3))
    x3, c2 = Tensor(rng.normal(size=(4, 2, 3))), Tensor(rng.normal(size=(3, 4, 6)))
    checks = [
        (lambda x: (transposed_conv_upscale(x.reshape(4, 2, 3), Wt, bt) * c2).sum(), 24),
        (lambda x: (transposed_conv_upscale(x.reshape(4, 2, 3), Wt) * c2).sum(), 24),
        (lambda w: (transposed_conv_upscale(x3, w.reshape(4, 3, 2, 2), bt) * c2).sum(), 48),
        (lambda v: (transposed_conv_upscale(x3, Wt, v) * c2).sum(), 3),
    ]
    for f, size in checks:
        assert grad_check(f, Tensor(rng.normal(size=size))) < 1e-6


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_sigmoid_equals_the_expression_it_replaced(dtype):
    from refvos.autodiff import _sigmoid
    info = np.finfo(dtype)
    edges = [0.0, info.smallest_subnormal, info.smallest_normal, 40.0, 745.0, info.max]
    d = np.concatenate([np.array(edges + [-e for e in edges], dtype=dtype),
                        np.linspace(-30.0, 30.0, 1001, dtype=dtype)])
    with np.errstate(over="ignore", under="ignore"):
        want = np.where(d >= 0, 1.0 / (1.0 + np.exp(-np.abs(d))),
                        np.exp(-np.abs(d)) / (1.0 + np.exp(-np.abs(d))))
        got = _sigmoid(d)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("axis", [0, 1, -1])
def test_concat_backward_hands_out_the_split_parts(axis):
    rng = np.random.default_rng(17)
    shapes = [(2, 3, 4), (2, 3, 4), (2, 3, 4)]
    for i, extent in enumerate((1, 2, 3)):
        shapes[i] = tuple(extent if a == axis % 3 else n for a, n in enumerate(shapes[i]))
    leaves = [Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]
    leaves[1].requires_grad = False
    out = concat(leaves, axis=axis)
    c = rng.normal(size=out.shape)
    (out * Tensor(c)).sum().backward()
    parts = np.split(c, np.cumsum([s[axis] for s in shapes])[:-1], axis=axis)
    assert leaves[1].grad is None
    for t, part in zip((leaves[0], leaves[2]), (parts[0], parts[2])):
        assert t.grad.tobytes() == part.tobytes()


# ---- fused attention against the chain it replaces ---------------------------

def _attention_composite(q_in, Wq, bq, k, v, Wo, bo):
    q = linear(q_in, Wq, bq)
    att = softmax(q @ k.mT * (1.0 / np.sqrt(q.shape[-1])), axis=-1)
    return linear(att @ v, Wo, bo)


def _run_attention(op, arrays, dtype, self_attention, trainable, seed):
    """Three attention calls over shared weights, as the decoder makes over
    frames; each call's keys and values are `linear` ops, and its query
    carries the earlier calls' outputs, so the weights gather gradients from
    calls whose histories nest. Returns the last output and every leaf's
    gradient."""
    x, ctx, *weights = [Tensor(np.asarray(a, dtype=dtype), requires_grad=i < 2 or trainable)
                        for i, a in enumerate(arrays)]
    Wq, bq, Wk, bk, Wv, bv, Wo, bo = weights
    rng = np.random.default_rng(seed)
    h, total = x * 1.5, None
    for _ in range(3):
        kv = h if self_attention else ctx
        y = op(h, Wq, bq, linear(kv, Wk, bk), linear(kv, Wv, bv), Wo, bo)
        term = (y * Tensor(rng.normal(size=y.shape).astype(dtype))).sum()
        total = term if total is None else total + term
        h = h + y
    total.backward()
    return [y.data, total.data] + [t.grad for t in (x, ctx, *weights)]


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("q_shape, kv_shape", [((5, 6), (4, 6)), ((2, 5, 6), (2, 4, 6)),
                                               ((2, 5, 6), (4, 6))])
@pytest.mark.parametrize("self_attention", [True, False], ids=["self", "cross"])
@pytest.mark.parametrize("trainable", [True, False], ids=["trainable", "frozen"])
def test_fused_attention_is_bitwise_the_composite(dtype, q_shape, kv_shape, self_attention,
                                                  trainable):
    rng = np.random.default_rng(18)
    # the projections narrow the width, so the scale reads the projected width
    arrays = [rng.normal(size=q_shape), rng.normal(size=kv_shape)]
    for n_in, n_out in ((6, 4), (6, 4), (6, 3), (3, 6)):
        arrays += [rng.normal(size=(n_in, n_out)), rng.normal(size=n_out)]
    got = _run_attention(attention, arrays, dtype, self_attention, trainable, seed=3)
    want = _run_attention(_attention_composite, arrays, dtype, self_attention, trainable, seed=3)
    for g, w in zip(got, want):
        if w is None:
            assert g is None
            continue
        assert g.shape == w.shape and g.dtype == w.dtype == dtype
        assert g.tobytes() == w.tobytes()
    assert (got[4] is None) != trainable


def test_attention_scales_scores_by_the_projected_width():
    # q_in is 6 wide and the query projection 4: the scale is 1/sqrt(4), as
    # in SAM, not 1/sqrt(6)
    rng = np.random.default_rng(20)
    x, kv = rng.normal(size=(5, 6)), rng.normal(size=(3, 4))
    Wq, bq, Wo, bo = (rng.normal(size=s) for s in ((6, 4), 4, (4, 6), 6))
    q = x @ Wq + bq
    s = q @ kv.T / np.sqrt(4)
    e = np.exp(s - s.max(-1, keepdims=True))
    want = (e / e.sum(-1, keepdims=True)) @ kv @ Wo + bo
    got = attention(*(Tensor(a) for a in (x, Wq, bq, kv, kv, Wo, bo)))
    assert np.allclose(got.data, want, rtol=1e-12, atol=1e-12)


def test_fused_attention_passes_grad_check():
    rng = np.random.default_rng(19)
    q_in, Wq, bq = (Tensor(rng.normal(size=s)) for s in ((2, 3, 4), (4, 3), 3))
    k, v = Tensor(rng.normal(size=(2, 6, 3))), Tensor(rng.normal(size=(6, 5)))
    Wo, bo, c = (Tensor(rng.normal(size=s)) for s in ((5, 4), 4, (2, 3, 4)))
    checks = [
        (lambda x: (attention(x.reshape(2, 3, 4), Wq, bq, k, v, Wo, bo) * c).sum(), 24),
        (lambda w: (attention(q_in, w.reshape(4, 3), bq, k, v, Wo, bo) * c).sum(), 12),
        (lambda w: (attention(q_in, Wq, w, k, v, Wo, bo) * c).sum(), 3),
        (lambda x: (attention(q_in, Wq, bq, x.reshape(2, 6, 3), v, Wo, bo) * c).sum(), 36),
        (lambda x: (attention(q_in, Wq, bq, k, x.reshape(6, 5), Wo, bo) * c).sum(), 30),
        (lambda w: (attention(q_in, Wq, bq, k, v, w.reshape(5, 4), bo) * c).sum(), 20),
        (lambda w: (attention(q_in, Wq, bq, k, v, Wo, w) * c).sum(), 4),
    ]
    for f, size in checks:
        assert grad_check(f, Tensor(rng.normal(size=size))) < 1e-6


def _injected(data):
    """A tensor holding `data` as it is, non-finite values included, as an
    op upstream that skipped its scan would hand it on."""
    t = Tensor(np.zeros_like(data))
    t.data = data
    return t


@pytest.mark.parametrize("case", ["infinite query", "nan key", "nan value",
                                  "score overflow at a non-maximal key"])
def test_fused_attention_raises_where_the_composite_does(case):
    eye = np.eye(2)
    q_in, Wq = np.array([[1.0, 0.0], [0.5, 1.0]]), eye.copy()
    k, v = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]), np.ones((3, 2))
    if case == "infinite query":
        q_in[0, 0], Wq[0, 0] = 1e308, 10.0
    elif case == "nan key":
        k[1, 0] = np.nan
    elif case == "nan value":
        v[2, 1] = np.nan
    else:
        # query row 0 scores 1e200 at key 0, the maximum, and -inf at key 1
        q_in[0, 0], k[1, 0] = 1e200, -1e200
    args = [Tensor(q_in, requires_grad=True), Tensor(Wq), Tensor(np.zeros(2)),
            _injected(k), _injected(v), Tensor(eye), Tensor(np.zeros(2))]
    with np.errstate(all="ignore"):
        with pytest.raises(NonFiniteError):
            _attention_composite(*args)
        with pytest.raises(NonFiniteError, match="attention"):
            attention(*args)
