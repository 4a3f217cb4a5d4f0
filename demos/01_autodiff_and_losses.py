"""Tour of the reverse-mode autodiff core and the segmentation losses.

Run:  python3 demos/01_autodiff_and_losses.py
"""

import numpy as np

from refvos.autodiff import Tensor, grad_check, linear, softmax
from refvos.losses import LossConfig, dice_loss, focal_loss

rng = np.random.default_rng(0)

# Tensors track the graph; backward() fills .grad on every input that
# requires a gradient, freeing the graph as it walks it.
x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
w = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
b = Tensor(np.zeros(2), requires_grad=True)
y = softmax(linear(x, w, b), axis=-1)
loss = ((y - 0.5) ** 2).mean()
loss.backward()
print("loss:", float(loss.data))
print("dL/dw norm:", float(np.abs(w.grad).sum()))

# Every op is validated against central finite differences.
err = grad_check(lambda t: (softmax(linear(t, w, b), axis=-1) ** 2).sum(),
                 Tensor(x.data.copy()))
print("finite-difference max relative error:", err)

# Segmentation losses operate on probabilities / logits over a mask.
cfg = LossConfig()
target = (rng.random((8, 8)) > 0.5).astype(float)
logits = Tensor(rng.normal(size=(8, 8)), requires_grad=True)
d = dice_loss(logits.sigmoid(), target, cfg)
f = focal_loss(logits, target, cfg)
total = cfg.w_dice * d + cfg.w_focal * f
total.backward()
print(f"dice={float(d.data):.4f} focal={float(f.data):.4f} "
      f"weighted total={float(total.data):.4f}")
