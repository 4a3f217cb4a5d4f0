"""Reverse-mode automatic differentiation over numpy arrays.

Only the operations the segmentation model needs are provided. Tensors are
immutable once produced by an op, and finite: a value is scanned for NaN and
Inf only where a finite input can first turn it non-finite (NonFiniteError
names the op). `Tensor(...)` scans outside data, `_leaf` wraps arrays known
to be finite unscanned, and an op scans its output unless finite inputs and
its inner scans keep it finite (`_FINITE_PRESERVING`).

Every op returns through `_record(data, parents, op, backward)`: `_make`
wraps the output, and the closure `backward` is attached only when the
output records its parents, which it does when some parent requires a
gradient; the output then requires one too. Constants, and everything
computed from constants and frozen parameters alone (`requires_grad=False`),
record nothing, and `Tensor.backward` walks and fills only tensors that
require a gradient. A closure receives the output's gradient and holds only
the arrays it needs, never the output itself, so a graph is acyclic and
reference counting frees it. `Tensor.backward` consumes the graph it walks:
each node drops its closure, parents and gradient once its closure has run,
so the walk frees activations and intermediate gradients as it goes and
leaves only the output and the leaves' `.grad`. A graph is walked once; a
graph never walked is freed when its last output is dropped.

`linear` (matmul and bias), `softmax`, `layer_norm` and
`transposed_conv_upscale` are single fused ops. Each runs the numpy
expressions of its chain of primitive ops (`x @ W + b`; `exp(x - max) /
sum`; `(x - mean) * (var + eps) ** -0.5 * gamma + beta`; the reshapes and
transposes around a `linear`, and the bias add) in the same order and on the
same views, and its backward repeats that chain's gradient arithmetic in the
chain's order, including the two separate accumulations into a layer_norm
input. Floating-point sums depend on their order, so every value and
gradient stays bit-identical to the chain, and same-seed training runs stay
byte-identical; a textbook analytic backward would change their last bits.
Two pieces are written once: `_softmax` (the shifted exp, its sum and
reciprocal, and their backward) serves `softmax` and `attention`, and
`_affine_backward` (the bias gets g, W gets xᵀg, x's gradient is returned)
serves `linear` and both projections of `attention`. The model's features
are (..., H0*W0, C) patch rows, so a 1x1 convolution over them is `linear`.
`attention` fuses the query projection, the scaled scores, softmax, the
weighted sum and the output projection; the key and value projections stay
`linear` ops, so that a weight shared over frames gathers its gradients in
the chain's order (see its docstring).
`losses.dice_loss` and `losses.focal_loss` are fused ops of the same kind,
made through this module's `_record`.

An op computes in the dtype of its tensor inputs. Constants follow it: a
Python number or array operand (`x * 2.0`), layer_norm's 1/n and eps and
`bilinear_resize`'s interpolation matrices take the input's dtype. No op
casts a gradient, so each has the dtype of the arithmetic that made it, and
a graph whose leaves share one dtype computes every value and gradient in
that dtype: a float32 model is float32 throughout.

`Tensor.grad` arrays are not copied when stored: one array may be the
gradient of several tensors, or a read-only broadcast view. Callers read
them and never write to them in place; copy one before changing it.

Inside a `with no_grad():` block ops record no parents and no closure, so
inference keeps no graph alive; outputs are still checked for finiteness.
Blocks nest, and leaving one (also by an exception) restores the recording
state it found. The state is process-wide, not per thread.
"""

import contextlib
import functools

import numpy as np

_recording = True


class NonFiniteError(FloatingPointError):
    """Raised when an op produces NaN or Inf."""


class DimensionError(ValueError):
    """Raised on shape or axis violations."""


def _check_finite(data, op):
    if not np.isfinite(data).all():
        raise NonFiniteError(f"non-finite value produced by op '{op}'")


@contextlib.contextmanager
def no_grad():
    """Record no graph for the ops run inside the block."""
    global _recording
    previous, _recording = _recording, False
    try:
        yield
    finally:
        _recording = previous


def _sigmoid(d):
    """Numerically stable logistic function of an array."""
    e = np.exp(-np.abs(d))
    return np.where(d >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _sum_to(grad, shape):
    """A broadcast gradient summed back down to `shape`."""
    grad = np.asarray(grad)
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_op")

    def __init__(self, data, requires_grad=False):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        _check_finite(arr, "leaf")
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None
        self._op = "leaf"

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def detach(self):
        # shares the data: no op writes a tensor's data in place, and it is finite
        return _leaf(self.data, False)

    def _accum(self, g):
        if not self.requires_grad:
            return
        g = _sum_to(g, self.data.shape)
        self.grad = g if self.grad is None else self.grad + g

    def backward(self):
        """Accumulate d(self)/d(leaf) into the `.grad` of every leaf that
        requires a gradient, consuming the graph on the way.

        The closures run in reverse topological order. Once a node's closure
        has run, the node drops its closure, its parents and its gradient, so
        each activation and intermediate gradient is freed as soon as no
        later closure reads it, and memory peaks near the forward graph's
        size. A consumed node's backward raises RuntimeError: a second call
        through the same graph fails instead of adding nothing."""
        if self.data.size != 1:
            raise DimensionError("backward() requires a scalar output")
        topo, seen = [], set()
        stack = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if node in seen:
                continue
            seen.add(node)
            stack.append((node, True))
            for p in node._parents:
                if p._backward is not None:
                    stack.append((p, False))
        del seen
        self.grad = np.ones_like(self.data)
        while topo:
            node = topo.pop()
            backward = node._backward
            if backward is not None:
                backward(node.grad)
                node._backward, node._parents, node.grad = _consumed, (), None

    # ---- arithmetic -----------------------------------------------------

    def __add__(self, other):
        other = _as_tensor(other, self.dtype)

        def bwd(g):
            self._accum(g)
            other._accum(g)

        return _record(self.data + other.data, (self, other), "add", bwd)

    __radd__ = __add__

    def __neg__(self):
        return _record(-self.data, (self,), "neg", lambda g: self._accum(-g))

    def __sub__(self, other):
        # a constant is negated as an array: only a Tensor operand records a neg op
        return self + (-other if isinstance(other, Tensor) else -np.asarray(other, self.dtype))

    def __rsub__(self, other):
        return _as_tensor(other, self.dtype) + (-self)

    def __mul__(self, other):
        other = _as_tensor(other, self.dtype)

        def bwd(g):
            if self.requires_grad:
                self._accum(g * other.data)
            if other.requires_grad:
                other._accum(g * self.data)

        return _record(self.data * other.data, (self, other), "mul", bwd)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_tensor(other, self.dtype)
        return self * other ** -1.0

    def __pow__(self, p):
        p = float(p)
        return _record(self.data ** p, (self,), "pow",
                       lambda g: self._accum(g * p * self.data ** (p - 1.0)))

    def __matmul__(self, other):
        other = _as_tensor(other, self.dtype)
        if self.data.ndim < 2 or other.data.ndim < 2:
            raise DimensionError("matmul operands must have rank >= 2")

        def bwd(g):
            # not the affine backward: for x @ x both gradients go into x, self's first
            if self.requires_grad:
                self._accum(np.matmul(g, other.data.swapaxes(-1, -2)))
            if other.requires_grad:
                other._accum(np.matmul(self.data.swapaxes(-1, -2), g))

        return _record(np.matmul(self.data, other.data), (self, other), "matmul", bwd)

    # ---- elementwise ----------------------------------------------------

    def exp(self):
        e = np.exp(self.data)
        return _record(e, (self,), "exp", lambda g: self._accum(g * e))

    def relu(self):
        return _record(np.maximum(self.data, 0.0), (self,), "relu",
                       lambda g: self._accum(g * (self.data > 0)))

    def sigmoid(self):
        s = _sigmoid(self.data)
        return _record(s, (self,), "sigmoid", lambda g: self._accum(g * s * (1.0 - s)))

    def softplus(self):
        return _record(np.logaddexp(0.0, self.data), (self,), "softplus",
                       lambda g: self._accum(g * _sigmoid(self.data)))

    # ---- structural -----------------------------------------------------

    def reshape(self, *shape):
        return _record(self.data.reshape(shape), (self,), "reshape",
                       lambda g: self._accum(g.reshape(self.data.shape)))

    def transpose(self, *axes):
        return _record(self.data.transpose(axes), (self,), "transpose",
                       lambda g: self._accum(g.transpose(np.argsort(axes))))

    @property
    def mT(self):
        """The transpose of the last two axes, over any leading axes."""
        axes = list(range(self.data.ndim))
        axes[-2:] = axes[-1], axes[-2]
        return self.transpose(*axes)

    def __getitem__(self, idx):
        # basic indices only: no element is read twice, so backward is a plain +=
        for i in idx if isinstance(idx, tuple) else (idx,):
            basic = i is None or i is Ellipsis or isinstance(i, (slice, int, np.integer))
            if isinstance(i, bool) or not basic:
                raise DimensionError(f"getitem takes basic indices only, not {type(i).__name__}")

        def bwd(g):
            full = np.zeros_like(self.data)
            full[idx] += g
            self._accum(full)

        return _record(self.data[idx], (self,), "getitem", bwd)

    def sum(self, axis=None, keepdims=False):
        def bwd(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accum(np.broadcast_to(g, self.data.shape))

        return _record(self.data.sum(axis=axis, keepdims=keepdims), (self,), "sum", bwd)

    def mean(self, axis=None, keepdims=False):
        n = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)


def _consumed(g):
    raise RuntimeError("backward already ran through this graph")


def _leaf(data, requires_grad):
    """A leaf over a float array the caller knows to be finite, made without
    the constructor's scan."""
    out = Tensor.__new__(Tensor)
    out.data, out.grad, out.requires_grad = data, None, requires_grad
    out._parents, out._backward, out._op = (), None, "leaf"
    return out


def _as_tensor(x, dtype):
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype))


# ops whose output is finite when their inputs are and their inner scans pass
_FINITE_PRESERVING = frozenset("reshape transpose getitem concat neg relu sigmoid softmax".split())


def _make(data, parents, op):
    """Wrap an op's checked output; outside `no_grad`, when some parent
    requires a gradient, it records `parents` and requires one itself."""
    if op not in _FINITE_PRESERVING:
        _check_finite(data, op)
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.requires_grad = False
    out._parents = ()
    if _recording:
        for p in parents:
            if p.requires_grad:
                out.requires_grad = True
                out._parents = parents
                break
    out._backward = None
    out._op = op
    return out


def _record(data, parents, op, backward):
    """The output of every op: `_make`'s tensor, looked up at call time, with
    `backward` (the output's gradient -> the parents' `_accum` calls)
    attached when it recorded its parents."""
    out = _make(data, parents, op)
    if out._parents:
        out._backward = backward
    return out


def concat(tensors, axis=0):
    tensors = list(tensors)

    def bwd(g):
        index = [slice(None)] * g.ndim
        start = 0
        for t in tensors:
            stop = start + t.data.shape[axis]
            if t.requires_grad:
                index[axis] = slice(start, stop)
                t._accum(g[tuple(index)])
            start = stop

    return _record(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors),
                   "concat", bwd)


def _affine_backward(g, x, W, b, x_grad):
    """The backward of `x @ W + b` for an array x, in the chain's order: b
    gets g, x's gradient `g @ W.T` is formed when `x_grad`, then W gets
    `x.T @ g`. Returns x's gradient (None unless `x_grad`) for the caller to
    accumulate or carry on after W's; that order is the chain's unless x and
    W are one tensor, which no caller passes."""
    if b is not None:
        b._accum(g)
    gx = np.matmul(g, W.data.swapaxes(-1, -2)) if x_grad else None
    if W.requires_grad:
        W._accum(np.matmul(x.swapaxes(-1, -2), g))
    return gx


def _softmax(x, axis, op):
    """`exp(x - max) / sum` over `axis` of an array, and the function from
    the output's gradient to x's, in the chain's arithmetic."""
    z = x + (-x.max(axis=axis, keepdims=True))
    # a non-finite x makes z non-finite, as does an input range beyond the
    # float range; a finite z keeps every later value in [0, 1]
    _check_finite(z, op)
    e = np.exp(z)
    s = e.sum(axis=axis, keepdims=True)
    r = s ** -1.0

    def backward(g):
        # e * r, r = s ** -1, s = e.sum: e gets g * r, then the sum's share
        gs = _sum_to(g * e, r.shape) * -1.0 * s ** -2.0
        return (g * r + gs) * e

    return e * r, backward


# ---- neural-net building blocks -----------------------------------------

def linear(x, W, b=None):
    """y = x W + b over the last axis of x, as one op; x and W must have
    rank 2 or more."""
    if x.shape[-1] != W.shape[0]:
        raise DimensionError(f"linear: inner extents differ ({x.shape[-1]} vs {W.shape[0]})")
    if x.data.ndim < 2 or W.data.ndim < 2:
        raise DimensionError("matmul operands must have rank >= 2")
    xw = np.matmul(x.data, W.data)
    y = xw if b is None else xw + b.data

    def bwd(g):
        gx = _affine_backward(g, x.data, W, b, x.requires_grad)
        if gx is not None:
            x._accum(gx)

    return _record(y, (x, W) if b is None else (x, W, b), "linear", bwd)


def softmax(x, axis=-1):
    """exp(x - max) / sum, as one op over `axis`."""
    if axis >= x.data.ndim or axis < -x.data.ndim:
        raise DimensionError(f"softmax: axis {axis} out of range for rank {x.data.ndim}")
    y, back = _softmax(x.data, axis, "softmax")
    return _record(y, (x,), "softmax", lambda g: x._accum(back(g)))


def attention(q_in, Wq, bq, k, v, Wo, bo):
    """Single-head scaled dot-product attention of q_in over keys k and
    values v, with the query and output projections, as one op: the chain
    `linear(softmax(linear(q_in, Wq, bq) @ k.mT * (1 / sqrt(d)), -1) @ v,
    Wo, bo)`, d the projected query width Wq.shape[1], as in SAM. Ranks of 2
    and more broadcast as matmul does.

    The parents are recorded as (q_in, Wq, bq, k, v, Wo, bo), so a backward
    walk reaches v, then k, then q_in, as it does through the chain. k and v
    stay ops of their own: in the chain, q_in's history runs backward before
    the k and v projections do, and a leaf they share (the k/v weights of a
    decoder reused over frames) must gather its gradients in that order.

    It scans its shifted scores and its output, and raises NonFiniteError
    naming 'attention' wherever the chain's scans would: a non-finite query
    or score makes the shifted scores non-finite, finite ones keep the
    weights in [0, 1], and a non-finite weighted sum makes the output so.
    """
    xd, kd, vd = q_in.data, k.data, v.data
    if xd.ndim < 2 or kd.ndim < 2 or vd.ndim < 2:
        raise DimensionError("matmul operands must have rank >= 2")
    if xd.shape[-1] != Wq.shape[0]:
        raise DimensionError(f"attention: query width {xd.shape[-1]} vs weight {Wq.shape[0]}")
    if vd.shape[-1] != Wo.shape[0]:
        raise DimensionError(f"attention: value width {vd.shape[-1]} vs weight {Wo.shape[0]}")
    q = np.matmul(xd, Wq.data) + bq.data
    kt = kd.swapaxes(-1, -2)
    qk = np.matmul(q, kt)
    c = np.asarray(1.0 / np.sqrt(Wq.shape[1]), dtype=qk.dtype)
    att, softmax_back = _softmax(qk * c, -1, "attention")
    av = np.matmul(att, vd)

    def bwd(g):
        # the chain's reverse order: the output linear, the weighted sum,
        # softmax, the scale, the scores, the query linear, the key transpose
        q_grad = q_in.requires_grad or Wq.requires_grad or bq.requires_grad
        att_grad = q_grad or k.requires_grad
        gav = _affine_backward(g, av, Wo, bo, att_grad or v.requires_grad)
        if v.requires_grad:
            v._accum(np.matmul(att.swapaxes(-1, -2), gav))
        if not att_grad:
            return
        gqk = softmax_back(_sum_to(np.matmul(gav, vd.swapaxes(-1, -2)), att.shape)) * c
        if q_grad:
            gq = _sum_to(np.matmul(gqk, kd), q.shape)
            q_in._accum(_affine_backward(gq, xd, Wq, bq, q_in.requires_grad))
        if k.requires_grad:
            k._accum(_sum_to(np.matmul(q.swapaxes(-1, -2), gqk), kt.shape).swapaxes(-1, -2))

    return _record(np.matmul(av, Wo.data) + bo.data, (q_in, Wq, bq, k, v, Wo, bo),
                   "attention", bwd)


def layer_norm(x, gamma, beta):
    """Normalize over the last axis (eps 1e-6), then scale and shift, as one op."""
    xd = x.data
    inv_n = np.asarray(1.0 / xd.shape[-1], dtype=xd.dtype)
    xc = xd + (-(xd.sum(axis=-1, keepdims=True) * inv_n))
    var = (xc * xc).sum(axis=-1, keepdims=True) * inv_n
    # an overflow in xc * xc gives var = inf and a finite output of beta
    _check_finite(var, "layer_norm")
    ve = var + np.asarray(1e-6, dtype=var.dtype)
    rs = ve ** -0.5
    a = xc * rs
    scaled = a * gamma.data

    def bwd(g):
        # the composite ((xc * rs) * gamma) + beta, xc = x - mean(x),
        # rs = (mean(xc * xc) + eps) ** -0.5, in its reverse order
        beta._accum(g)
        if gamma.requires_grad:
            gamma._accum(g * a)
        if not x.requires_grad:
            return
        ga = g * gamma.data
        grs = _sum_to(ga * xc, rs.shape)
        gsq = grs * -0.5 * ve ** -1.5 * inv_n
        gxc = ga * rs + gsq * xc + gsq * xc
        x._accum(gxc)
        x._accum(np.broadcast_to(-_sum_to(gxc, rs.shape) * inv_n, xd.shape))

    return _record(scaled + beta.data, (x, gamma, beta), "layer_norm", bwd)


@functools.lru_cache(maxsize=32)
def _interp_matrix(n_out, n_in, dtype):
    """The (n_out, n_in) interpolation matrix; cached, so read-only."""
    # half-pixel sampling, clamped at the borders
    m = np.zeros((n_out, n_in), dtype=dtype)
    scale = n_in / n_out
    for i in range(n_out):
        src = min(max((i + 0.5) * scale - 0.5, 0.0), n_in - 1.0)
        lo = int(np.floor(src))
        hi = min(lo + 1, n_in - 1)
        w = src - lo
        m[i, lo] += 1.0 - w
        m[i, hi] += w
    m.setflags(write=False)
    return m


def bilinear_resize(x, out_h, out_w):
    """Resize an (H, W) map with bilinear interpolation."""
    if x.data.ndim != 2:
        raise DimensionError(f"bilinear_resize: input must be an (H, W) map, not {x.shape}")
    h, w = x.shape
    rows = _leaf(_interp_matrix(out_h, h, x.dtype), False)
    cols_t = _leaf(_interp_matrix(out_w, w, x.dtype).T, False)
    return (rows @ x) @ cols_t


def transposed_conv_upscale(x, W, b=None):
    """Stride-2 transposed conv with a 2x2 kernel, as one op; doubles the
    spatial size.

    x: (C_in, H, W); W: (C_in, C_out, 2, 2); b: (C_out,). The chain it fuses
    is `linear(x.reshape(C_in, H*W).T, W.reshape(C_in, 4*C_out))`, reshaped
    to (H, W, C_out, 2, 2), transposed to (C_out, H, 2, W, 2) and reshaped
    to (C_out, 2H, 2W), plus `b.reshape(C_out, 1, 1)`.
    """
    if x.data.ndim != 3 or W.data.ndim != 4:
        raise DimensionError("transposed_conv_upscale: bad ranks")
    cin, h, w = x.shape
    if cin != W.shape[0] or W.shape[2:] != (2, 2):
        raise DimensionError("transposed_conv_upscale: weight shape mismatch")
    cout = W.shape[1]
    x2 = x.data.reshape(cin, h * w).transpose(1, 0)
    w2 = W.data.reshape(cin, cout * 4)
    xw = np.matmul(x2, w2)
    y = xw.reshape(h, w, cout, 2, 2).transpose(2, 0, 3, 1, 4).reshape(cout, 2 * h, 2 * w)

    def bwd(g):
        # the chain's order: the layout ops back to linear's output, its
        # x and W, the reshapes back to x and W, then the bias
        gy = g.reshape(cout, h, 2, w, 2).transpose(1, 3, 0, 2, 4).reshape(h * w, cout * 4)
        if x.requires_grad:
            gx = np.matmul(gy, w2.swapaxes(-1, -2))
            x._accum(gx.transpose(1, 0).reshape(x.shape))
        if W.requires_grad:
            W._accum(np.matmul(x2.swapaxes(-1, -2), gy).reshape(W.shape))
        if b is not None and b.requires_grad:
            b._accum(_sum_to(g, (cout, 1, 1)).reshape(cout))

    return _record(y if b is None else y + b.data.reshape(cout, 1, 1),
                   (x, W) if b is None else (x, W, b), "transposed_conv_upscale", bwd)


def grad_check(f, x, eps=1e-5):
    """Max relative error, over every coordinate, between the analytic
    gradient of f at x and central differences."""
    if not (1e-6 <= eps <= 1e-3):
        raise ValueError("grad_check: eps must lie in [1e-6, 1e-3]")
    x = Tensor(np.asarray(x.data if isinstance(x, Tensor) else x, dtype=np.float64),
               requires_grad=True)
    f(x).backward()
    analytic = np.zeros(x.data.size) if x.grad is None else x.grad.reshape(-1)
    flat = x.data.reshape(-1)
    worst = 0.0
    for i in range(flat.size):
        orig = flat[i]
        with no_grad():
            flat[i] = orig + eps
            fp = float(f(Tensor(x.data.copy())).data)
            flat[i] = orig - eps
            fm = float(f(Tensor(x.data.copy())).data)
        flat[i] = orig
        fd = (fp - fm) / (2.0 * eps)
        err = abs(analytic[i] - fd) / max(1.0, abs(analytic[i]), abs(fd))
        worst = max(worst, err)
    return worst
