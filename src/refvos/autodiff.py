"""Reverse-mode automatic differentiation over numpy arrays.

Only the operations the segmentation model needs are provided. Tensors are
immutable once produced by an op; every op validates that its output is
finite and raises NonFiniteError naming the offending op otherwise. The ops
that cannot turn a finite input into a non-finite output (reshape,
transpose, getitem, concat, neg, relu) skip that scan.

An op output records its parents and a backward closure only when some
parent requires a gradient; the output then requires one too. Constants,
and everything computed from constants and frozen parameters alone
(`requires_grad=False`), record nothing, and `Tensor.backward` walks and
fills only tensors that require a gradient. A closure receives the
output's gradient and holds only the arrays it needs, never the output
itself. A graph is therefore acyclic and is freed by reference counting as
soon as its last output is dropped.

`linear` (matmul and bias), `softmax` and `layer_norm` are single fused
ops. Each runs the numpy expressions of its chain of primitive ops
(`x @ W + b`; `exp(x - max) / sum`; `(x - mean) * (var + eps) ** -0.5 *
gamma + beta`) in the same order, and its backward repeats that chain's
gradient arithmetic in the chain's order, including the two separate
accumulations into a layer_norm input. Floating-point sums depend on their
order, so every value and gradient stays bit-identical to the chain, and
same-seed training runs stay byte-identical; a textbook analytic backward
would change their last bits.

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
    return np.where(d >= 0, 1.0 / (1.0 + np.exp(-np.abs(d))),
                    np.exp(-np.abs(d)) / (1.0 + np.exp(-np.abs(d))))


def _unbroadcast(grad, shape):
    """Sum a broadcasted gradient back down to `shape`."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_op")

    def __init__(self, data, requires_grad=False, dtype=None):
        if isinstance(data, Tensor):
            data = data.data
        arr = np.asarray(data, dtype=dtype)
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

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, op={self._op})"

    def detach(self):
        return Tensor(self.data.copy())

    def _accum(self, g):
        if not self.requires_grad:
            return
        g = np.asarray(g)
        if g.shape != self.data.shape:
            g = _unbroadcast(g, self.data.shape).reshape(self.data.shape)
        if self.grad is None:
            self.grad = g.astype(self.data.dtype, copy=True)
        else:
            self.grad = self.grad + g

    def backward(self):
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
                if p.requires_grad:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node.grad)

    # ---- arithmetic -----------------------------------------------------

    def __add__(self, other):
        other = _as_tensor(other, self.dtype)
        out = _make(self.data + other.data, (self, other), "add")
        if out._parents:
            def bwd(g):
                self._accum(g)
                other._accum(g)

            out._backward = bwd
        return out

    __radd__ = __add__

    def __neg__(self):
        out = _make(-self.data, (self,), "neg")
        if out._parents:
            out._backward = lambda g: self._accum(-g)
        return out

    def __sub__(self, other):
        return self + (-_as_tensor(other, self.dtype))

    def __rsub__(self, other):
        return _as_tensor(other, self.dtype) + (-self)

    def __mul__(self, other):
        other = _as_tensor(other, self.dtype)
        out = _make(self.data * other.data, (self, other), "mul")
        if out._parents:
            def bwd(g):
                if self.requires_grad:
                    self._accum(g * other.data)
                if other.requires_grad:
                    other._accum(g * self.data)

            out._backward = bwd
        return out

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_tensor(other, self.dtype)
        return self * other ** -1.0

    def __rtruediv__(self, other):
        return _as_tensor(other, self.dtype) * self ** -1.0

    def __pow__(self, p):
        p = float(p)
        out = _make(self.data ** p, (self,), "pow")
        if out._parents:
            out._backward = lambda g: self._accum(g * p * self.data ** (p - 1.0))
        return out

    def __matmul__(self, other):
        other = _as_tensor(other, self.dtype)
        if self.data.ndim < 2 or other.data.ndim < 2:
            raise DimensionError("matmul operands must have rank >= 2")
        out = _make(np.matmul(self.data, other.data), (self, other), "matmul")
        if out._parents:
            def bwd(g):
                if self.requires_grad:
                    self._accum(np.matmul(g, other.data.swapaxes(-1, -2)))
                if other.requires_grad:
                    other._accum(np.matmul(self.data.swapaxes(-1, -2), g))

            out._backward = bwd
        return out

    # ---- elementwise ----------------------------------------------------

    def exp(self):
        e = np.exp(self.data)
        out = _make(e, (self,), "exp")
        if out._parents:
            out._backward = lambda g: self._accum(g * e)
        return out

    def relu(self):
        out = _make(np.maximum(self.data, 0.0), (self,), "relu")
        if out._parents:
            out._backward = lambda g: self._accum(g * (self.data > 0))
        return out

    def sigmoid(self):
        s = _sigmoid(self.data)
        out = _make(s, (self,), "sigmoid")
        if out._parents:
            out._backward = lambda g: self._accum(g * s * (1.0 - s))
        return out

    def softplus(self):
        out = _make(np.logaddexp(0.0, self.data), (self,), "softplus")
        if out._parents:
            out._backward = lambda g: self._accum(g * _sigmoid(self.data))
        return out

    # ---- structural -----------------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out = _make(self.data.reshape(shape), (self,), "reshape")
        if out._parents:
            out._backward = lambda g: self._accum(g.reshape(self.data.shape))
        return out

    def transpose(self, *axes):
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.data.ndim)))
        out = _make(self.data.transpose(axes), (self,), "transpose")
        if out._parents:
            inv = sorted(range(len(axes)), key=axes.__getitem__)
            out._backward = lambda g: self._accum(g.transpose(inv))
        return out

    @property
    def T(self):
        return self.transpose()

    @property
    def mT(self):
        """The transpose of the last two axes, over any leading axes."""
        axes = list(range(self.data.ndim))
        axes[-2:] = axes[-1], axes[-2]
        return self.transpose(axes)

    def __getitem__(self, idx):
        out = _make(self.data[idx], (self,), "getitem")
        if out._parents:
            def bwd(g):
                full = np.zeros_like(self.data)
                np.add.at(full, idx, g)
                self._accum(full)

            out._backward = bwd
        return out

    def sum(self, axis=None, keepdims=False):
        out = _make(self.data.sum(axis=axis, keepdims=keepdims), (self,), "sum")
        if out._parents:
            def bwd(g):
                if axis is not None and not keepdims:
                    g = np.expand_dims(g, axis)
                self._accum(np.broadcast_to(g, self.data.shape))

            out._backward = bwd
        return out

    def mean(self, axis=None, keepdims=False):
        n = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)


def _as_tensor(x, dtype):
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype))


# ops whose output is finite whenever their input is
_FINITE_PRESERVING = frozenset(("reshape", "transpose", "getitem", "concat", "neg", "relu"))


def _make(data, parents, op):
    """Wrap an op's checked output. Outside `no_grad`, when some parent
    requires a gradient, it records `parents` and requires a gradient
    itself; the caller attaches a backward closure when `out._parents` is
    set."""
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


def concat(tensors, axis=0):
    tensors = list(tensors)
    out = _make(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors), "concat")
    if out._parents:
        def bwd(g):
            splits = np.cumsum([t.data.shape[axis] for t in tensors])[:-1]
            for t, part in zip(tensors, np.split(g, splits, axis=axis)):
                t._accum(part)

        out._backward = bwd
    return out


# ---- neural-net building blocks -----------------------------------------

def linear(x, W, b=None):
    """y = x W + b over the last axis of x, as one op. A 1-D x runs as a
    (1, C) row, so it gets the values of `x.reshape(1, -1) @ W + b`."""
    if x.shape[-1] != W.shape[0]:
        raise DimensionError(f"linear: inner extents differ ({x.shape[-1]} vs {W.shape[0]})")
    if W.data.ndim < 2:
        raise DimensionError("matmul operands must have rank >= 2")
    squeeze = x.data.ndim == 1
    x2 = x.data.reshape(1, -1) if squeeze else x.data
    xw = np.matmul(x2, W.data)
    y = xw if b is None else xw + b.data
    out = _make(y.reshape(y.shape[1:]) if squeeze else y,
                (x, W) if b is None else (x, W, b), "linear")
    if out._parents:
        y_shape, y_dtype, xw_dtype = y.shape, y.dtype, xw.dtype

        def bwd(g):
            # the composite's order: bias (the add), then x and W (the matmul)
            if squeeze:
                g = g.reshape(y_shape).astype(y_dtype, copy=False)
            if b is not None:
                b._accum(g)
                g = g.astype(xw_dtype, copy=False)
            if x.requires_grad:
                gx = np.matmul(g, W.data.swapaxes(-1, -2))
                x._accum(gx.astype(x2.dtype, copy=False).reshape(x.shape) if squeeze else gx)
            if W.requires_grad:
                W._accum(np.matmul(x2.swapaxes(-1, -2), g))

        out._backward = bwd
    return out


def relu(x):
    return x.relu()


def softmax(x, axis=-1):
    """exp(x - max) / sum, as one op over `axis`."""
    if axis >= x.data.ndim or axis < -x.data.ndim:
        raise DimensionError(f"softmax: axis {axis} out of range for rank {x.data.ndim}")
    z = x.data + (-x.data.max(axis=axis, keepdims=True))
    # the only way to a non-finite value inside: an input range beyond the float range
    _check_finite(z, "softmax")
    e = np.exp(z)
    s = e.sum(axis=axis, keepdims=True)
    r = s ** -1.0
    out = _make(e * r, (x,), "softmax")
    if out._parents:
        def bwd(g):
            # e * r, r = s ** -1, s = e.sum: e gets g * r, then the sum's share
            gs = _unbroadcast(g * e, r.shape).astype(r.dtype, copy=False) * -1.0 * s ** -2.0
            ge = (g * r).astype(e.dtype, copy=False) + gs
            x._accum(ge * e)

        out._backward = bwd
    return out


def layer_norm(x, gamma, beta, eps=1e-6):
    """Normalize over the last axis, then scale and shift, as one op."""
    if eps <= 0:
        raise DimensionError("layer_norm: eps must be > 0")
    xd = x.data
    inv_n = np.asarray(1.0 / xd.shape[-1], dtype=xd.dtype)
    xc = xd + (-(xd.sum(axis=-1, keepdims=True) * inv_n))
    var = (xc * xc).sum(axis=-1, keepdims=True) * inv_n
    # an overflow in xc * xc gives var = inf and a finite output of beta
    _check_finite(var, "layer_norm")
    ve = var + np.asarray(eps, dtype=var.dtype)
    rs = ve ** -0.5
    a = xc * rs
    scaled = a * gamma.data
    out = _make(scaled + beta.data, (x, gamma, beta), "layer_norm")
    if out._parents:
        scaled_dtype = scaled.dtype

        def bwd(g):
            # the composite ((xc * rs) * gamma) + beta, xc = x - mean(x),
            # rs = (mean(xc * xc) + eps) ** -0.5, in its reverse order
            beta._accum(g)
            g = g.astype(scaled_dtype, copy=False)
            if gamma.requires_grad:
                gamma._accum(g * a)
            if not x.requires_grad:
                return
            ga = (g * gamma.data).astype(a.dtype, copy=False)
            grs = _unbroadcast(ga * xc, rs.shape)
            gsq = grs * -0.5 * ve ** -1.5 * inv_n
            gxc = ga * rs + gsq * xc + gsq * xc
            x._accum(gxc)
            x._accum(np.broadcast_to(-_unbroadcast(gxc, rs.shape) * inv_n, xd.shape))

        out._backward = bwd
    return out


def conv1x1(x, W, b=None):
    """Per-pixel linear map: x is (..., C_in, H, W), W is (C_in, C_out)."""
    if x.data.ndim < 3:
        raise DimensionError("conv1x1: input must be (..., C, H, W)")
    *lead, cin, h, w = x.shape
    if cin != W.shape[0]:
        raise DimensionError(f"conv1x1: channel mismatch ({cin} vs {W.shape[0]})")
    cout = W.shape[1]
    y = linear(x.reshape(*lead, cin, h * w).mT, W, b)
    return y.mT.reshape(*lead, cout, h, w)


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
    """Resize a (C, H, W) map with bilinear interpolation."""
    if x.data.ndim != 3:
        raise DimensionError("bilinear_resize: input must be (C, H, W)")
    _, h, w = x.shape
    rows = Tensor(_interp_matrix(out_h, h, x.dtype))
    cols = Tensor(_interp_matrix(out_w, w, x.dtype))
    return (rows @ x) @ cols.T


def transposed_conv_upscale(x, W, b=None):
    """Stride-2 transposed conv with a 2x2 kernel; doubles the spatial size.

    x: (C_in, H, W); W: (C_in, C_out, 2, 2); b: (C_out,).
    """
    if x.data.ndim != 3 or W.data.ndim != 4:
        raise DimensionError("transposed_conv_upscale: bad ranks")
    cin, h, w = x.shape
    if cin != W.shape[0] or W.shape[2:] != (2, 2):
        raise DimensionError("transposed_conv_upscale: weight shape mismatch")
    cout = W.shape[1]
    y = linear(x.reshape(cin, h * w).transpose(1, 0), W.reshape(cin, cout * 4))
    y = y.reshape(h, w, cout, 2, 2).transpose(2, 0, 3, 1, 4).reshape(cout, 2 * h, 2 * w)
    if b is not None:
        y = y + b.reshape(cout, 1, 1)
    return y


def grad_check(f, x, eps=1e-5, indices=None):
    """Max relative error between the analytic gradient of f at x and
    central differences. `indices` restricts the probe to a coordinate
    subset (flat indices); default checks every coordinate."""
    if not (1e-6 <= eps <= 1e-3):
        raise ValueError("grad_check: eps must lie in [1e-6, 1e-3]")
    x = Tensor(np.asarray(x.data if isinstance(x, Tensor) else x, dtype=np.float64),
               requires_grad=True)
    y = f(x)
    if not np.isfinite(y.data):
        raise NonFiniteError("grad_check: f(x) is non-finite")
    y.backward()
    analytic = np.zeros(x.data.size) if x.grad is None else x.grad.reshape(-1)
    flat = x.data.reshape(-1)
    if indices is None:
        indices = range(flat.size)
    worst = 0.0
    for i in indices:
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
