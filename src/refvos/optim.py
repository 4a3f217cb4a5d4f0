"""Decoupled-weight-decay adaptive-moment optimizer with per-module rates."""

import numpy as np

from .autodiff import NonFiniteError

BETAS = (0.9, 0.999)
EPS = 1e-8


def module_of(name):
    """Map a parameter name to its learning-rate group."""
    if ".adapter" in name:
        return "adapter"
    return name.split(".", 1)[0]


class _Group:
    """The parameters of one learning-rate group, and their first and second
    moments as flat arrays in the parameters' order. The arrays and the
    update take the first parameter's dtype, the model's one dtype; a
    gradient of another dtype is cast to it."""

    def __init__(self, module, params):
        self.module = module
        self.params = params
        size = sum(p.data.size for p in params)
        self.m = np.zeros(size, dtype=params[0].data.dtype)
        self.v = np.zeros_like(self.m)


class AdamW:
    def __init__(self, params, lr_by_module, weight_decay=1e-4):
        """params: dict name -> Tensor (trainable only).
        lr_by_module: dict group name -> learning rate; KeyError if a
        parameter's group has none."""
        self.params = dict(params)
        self.lr_by_module = dict(lr_by_module)
        self.weight_decay = weight_decay
        self.t = 0
        groups = {}
        for name, p in self.params.items():
            self.learning_rate(name)
            groups.setdefault(module_of(name), []).append(p)
        self._groups = [_Group(module, ps) for module, ps in groups.items()]

    def learning_rate(self, name):
        group = module_of(name)
        if group not in self.lr_by_module:
            raise KeyError(f"no learning rate configured for module {group!r}")
        return self.lr_by_module[group]

    def step(self):
        """One update of every parameter, run over each group's parameters
        at once: every expression is elementwise, so each number is computed
        as by a per-parameter loop. Reads each `p.data` afresh and rebinds
        it to a slice of the group's result. Applies wholly or not at all:
        raises NonFiniteError naming the first group whose new second moment
        or values are not finite (an overflowing gradient or g * g), before
        any parameter, moment or `t` changes."""
        t = self.t + 1
        b1, b2 = BETAS
        c1 = 1.0 - b1 ** t
        c2 = 1.0 - b2 ** t
        staged = []
        for group in self._groups:
            ps, dtype = group.params, group.m.dtype
            g = np.concatenate([np.zeros(p.data.size, dtype) if p.grad is None
                                else p.grad.reshape(-1) for p in ps], dtype=dtype)
            data = np.concatenate([p.data.reshape(-1) for p in ps], dtype=dtype)
            lr = float(self.lr_by_module[group.module])
            m = b1 * group.m + (1 - b1) * g
            v = b2 * group.v + (1 - b2) * g * g
            update = (m / c1) / (np.sqrt(v / c2) + EPS)
            new = data - lr * (update + self.weight_decay * data)
            if not (np.isfinite(v).all() and np.isfinite(new).all()):
                raise NonFiniteError(f"AdamW update of group '{group.module}' is not finite")
            staged.append((group, m, v, new))
        self.t = t
        for group, m, v, new in staged:
            group.m, group.v = m, v
            start = 0
            for p in group.params:
                stop = start + p.data.size
                p.data = new[start:stop].reshape(p.data.shape)
                start = stop

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None
