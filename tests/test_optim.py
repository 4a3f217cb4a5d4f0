import numpy as np
import pytest

from refvos.autodiff import NonFiniteError, Tensor
from refvos.optim import AdamW, module_of

RATES = {"cmm": 1e-3, "hda": 2e-3, "decoder": 1e-4, "adapter": 5e-4, "itm": 3e-3}
SHAPES = {"cmm.fc1.weight": (4, 3), "cmm.fc1.bias": (3,), "hda.da0.conv.weight": (2, 5),
          "decoder.token.main": (6,), "decoder.up1.weight": (2, 3, 2, 2),
          "encoder.block1.adapter1.down.weight": (4, 2), "itm.ln.gamma": (5,)}


def loop_step(state, params, rates, t, betas=(0.9, 0.999), eps=1e-8, weight_decay=1e-4):
    """The per-parameter AdamW loop the grouped update replaced."""
    b1, b2 = betas
    c1 = 1.0 - b1 ** t
    c2 = 1.0 - b2 ** t
    for name, p in params.items():
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        lr = rates[module_of(name)]
        m = state["m"][name] = b1 * state["m"][name] + (1 - b1) * g
        v = state["v"][name] = b2 * state["v"][name] + (1 - b2) * g * g
        update = (m / c1) / (np.sqrt(v / c2) + eps)
        p.data = p.data - lr * (update + weight_decay * p.data)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_grouped_adamw_is_bitwise_the_per_parameter_loop(dtype):
    rng = np.random.default_rng(0)
    init = {n: rng.normal(size=s).astype(dtype) for n, s in SHAPES.items()}
    grouped = {n: Tensor(a.copy(), requires_grad=True) for n, a in init.items()}
    looped = {n: Tensor(a.copy(), requires_grad=True) for n, a in init.items()}
    opt = AdamW(grouped, RATES)
    state = {k: {n: np.zeros_like(a) for n, a in init.items()} for k in ("m", "v")}
    for t in range(1, 6):
        for name in SHAPES:
            g = None if name == "hda.da0.conv.weight" else rng.normal(size=SHAPES[name]).astype(dtype)
            grouped[name].grad = looped[name].grad = g
        if t == 3:   # a caller rebinds a parameter between steps, as load_state does
            fresh = rng.normal(size=SHAPES["itm.ln.gamma"]).astype(dtype)
            grouped["itm.ln.gamma"].data, looped["itm.ln.gamma"].data = fresh.copy(), fresh.copy()
        opt.step()
        loop_step(state, looped, RATES, t)
        for name in SHAPES:
            got, want = grouped[name].data, looped[name].data
            assert got.shape == want.shape and got.dtype == want.dtype == dtype
            assert got.tobytes() == want.tobytes(), (t, name)


def test_float64_gradients_leave_a_float32_model_float32():
    p = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
    p.grad = np.full(3, 0.5)
    AdamW({"cmm.w": p}, RATES).step()
    assert p.data.dtype == np.float32


def test_unknown_group_fails_at_construction():
    with pytest.raises(KeyError, match="'neck'"):
        AdamW({"neck.w": Tensor(np.ones(2), requires_grad=True)}, RATES)


@pytest.mark.parametrize("bad", [np.inf, 1e200])
def test_a_non_finite_update_raises_and_leaves_its_group_as_it_was(bad):
    # inf makes the update NaN; 1e200 overflows g * g, so the second moment
    # is inf and the update silently 0. A step applies wholly or not at all:
    # the finite groups before 'hda' keep their bytes too, and t stays.
    for shapes in (SHAPES, {"cmm.w": (3,), "hda.w": (2, 2)}):
        rng = np.random.default_rng(1)
        params = {n: Tensor(rng.normal(size=s), requires_grad=True) for n, s in shapes.items()}
        opt = AdamW(params, RATES)
        for p in params.values():
            p.grad = rng.normal(size=p.data.shape)
        opt.step()
        for p in params.values():
            p.grad = rng.normal(size=p.data.shape)
        next(p for n, p in params.items() if module_of(n) == "hda").grad.flat[1] = bad
        before = {n: p.data.tobytes() for n, p in params.items()}
        moments = [(g.m.tobytes(), g.v.tobytes()) for g in opt._groups]
        assert [g.module for g in opt._groups].index("hda") > 0
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteError, match="AdamW update of group 'hda'"):
                opt.step()
        assert {n: p.data.tobytes() for n, p in params.items()} == before
        assert [(g.m.tobytes(), g.v.tobytes()) for g in opt._groups] == moments
        assert opt.t == 1
