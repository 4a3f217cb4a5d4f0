"""Reverse-mode automatic differentiation over numpy arrays.

Only the operations the segmentation model needs are provided. Tensors are
immutable once produced by an op; every op validates that its output is
finite and raises NonFiniteError naming the offending op otherwise.

Each op output records its parents and a backward closure that receives the
output's gradient and holds only the arrays it needs, never the output
itself. A graph is therefore acyclic and is freed by reference counting as
soon as its last output is dropped.

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
    if not np.all(np.isfinite(data)):
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
        g = _unbroadcast(np.asarray(g), self.data.shape).reshape(self.data.shape)
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
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
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
                self._accum(g * other.data)
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
                self._accum(np.matmul(g, other.data.swapaxes(-1, -2)))
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

    def log(self):
        with np.errstate(divide="ignore", invalid="ignore"):
            out = _make(np.log(self.data), (self,), "log")
        if out._parents:
            out._backward = lambda g: self._accum(g / self.data)
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
            inv = np.argsort(axes)
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


def _make(data, parents, op):
    """Wrap an op's checked output. Outside `no_grad` it records `parents`,
    and the caller attaches a backward closure when `out._parents` is set."""
    _check_finite(data, op)
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    if _recording:
        out.requires_grad = any(p.requires_grad or p._parents for p in parents)
        out._parents = parents
    else:
        out.requires_grad = False
        out._parents = ()
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
    """y = x W + b over the last axis of x."""
    if x.shape[-1] != W.shape[0]:
        raise DimensionError(f"linear: inner extents differ ({x.shape[-1]} vs {W.shape[0]})")
    squeeze = x.data.ndim == 1
    if squeeze:
        x = x.reshape(1, -1)
    y = x @ W
    if b is not None:
        y = y + b
    return y.reshape(y.shape[1:]) if squeeze else y


def relu(x):
    return x.relu()


def softmax(x, axis=-1):
    if axis >= x.data.ndim or axis < -x.data.ndim:
        raise DimensionError(f"softmax: axis {axis} out of range for rank {x.data.ndim}")
    shift = Tensor(x.data.max(axis=axis, keepdims=True))
    e = (x - shift).exp()
    return e / e.sum(axis=axis, keepdims=True)


def layer_norm(x, gamma, beta, eps=1e-6):
    """Normalize over the last axis, then scale and shift."""
    if eps <= 0:
        raise DimensionError("layer_norm: eps must be > 0")
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    return xc * (var + eps) ** -0.5 * gamma + beta


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
