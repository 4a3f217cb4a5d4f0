"""Text-to-prompt projection and pixel-level vision-language fusion."""

from dataclasses import dataclass

import numpy as np

from .autodiff import DimensionError, Tensor, concat, conv1x1, linear, softmax
from .encoder import _xavier


@dataclass
class SparseEmbeddings:
    words: Tensor      # (L, C_v)
    sentence: Tensor   # (C_v,)


@dataclass
class DenseAttentionTrace:
    tokens: Tensor     # (L+1, C_v), sentence row first
    attn: Tensor       # (..., H0*W0, L+1), rows sum to 1
    attended: Tensor   # (..., H0*W0, C_v)


@dataclass
class DenseEmbeddings:
    map: Tensor        # (..., C_v, H0, W0)

    def __getitem__(self, t):
        """The dense map of frame t of a stack."""
        return DenseEmbeddings(map=self.map[t])


def init_cross_modal_params(embed_width, hidden, out_width, rng, dtype=np.float64):
    return {
        "cmm.fc1.weight": Tensor(_xavier(rng, embed_width, hidden, dtype=dtype), requires_grad=True),
        "cmm.fc1.bias": Tensor(np.zeros(hidden, dtype=dtype), requires_grad=True),
        "cmm.fc2.weight": Tensor(_xavier(rng, hidden, out_width, dtype=dtype), requires_grad=True),
        "cmm.fc2.bias": Tensor(np.zeros(out_width, dtype=dtype), requires_grad=True),
    }


def init_linear_project_params(embed_width, out_width, rng, dtype=np.float64):
    """Fallback projection used when the cross-modal MLP is toggled off."""
    return {
        "cmm.proj.weight": Tensor(_xavier(rng, embed_width, out_width, dtype=dtype), requires_grad=True),
        "cmm.proj.bias": Tensor(np.zeros(out_width, dtype=dtype), requires_grad=True),
    }


def cross_modal_project(text, params):
    """Map word and sentence embeddings into the decoder's prompt space."""
    if "cmm.proj.weight" in params:
        proj = lambda x: linear(x, params["cmm.proj.weight"], params["cmm.proj.bias"])
    else:
        if text.words.shape[-1] != params["cmm.fc1.weight"].shape[0]:
            raise DimensionError("cross_modal_project: embedding width mismatch")
        proj = lambda x: linear(
            linear(x, params["cmm.fc1.weight"], params["cmm.fc1.bias"]).relu(),
            params["cmm.fc2.weight"], params["cmm.fc2.bias"])
    return SparseEmbeddings(words=proj(text.words), sentence=proj(text.sentence))


def init_dense_attention_params(c_v, rng, dtype=np.float64, prefix="hda.da0."):
    return {
        prefix + "conv.weight": Tensor(_xavier(rng, 2 * c_v, c_v, dtype=dtype), requires_grad=True),
        prefix + "conv.bias": Tensor(np.zeros(c_v, dtype=dtype), requires_grad=True),
    }


def init_hda_params(c_v, c_mid, rng, dtype=np.float64):
    """Four dense-attention branches (final map + 3 mid maps) with per-branch
    reduce convolutions for the mid maps; no weight sharing."""
    p = {}
    for i in range(4):
        p.update(init_dense_attention_params(c_v, rng, dtype=dtype, prefix=f"hda.da{i}."))
    for i in range(1, 4):
        p[f"hda.reduce{i}.weight"] = Tensor(_xavier(rng, c_mid, c_v, dtype=dtype), requires_grad=True)
        p[f"hda.reduce{i}.bias"] = Tensor(np.zeros(c_v, dtype=dtype), requires_grad=True)
    return p


def dense_attention(feat, sparse, params, prefix="hda.da0."):
    """Pixel-to-token attention producing a dense conditioning map.

    feat: (..., C_v, H0, W0), frames along the leading axes. Each pixel
    attends over [sentence; words] with scaled dot-product similarity, and
    the attended token mixture is fused back with the visual features
    through a 1x1 convolution.
    """
    *lead, c_v, h0, w0 = feat.shape
    if sparse.words.shape[-1] != c_v:
        raise DimensionError("dense_attention: token width must equal feature channels")
    tokens = concat([sparse.sentence.reshape(1, c_v), sparse.words], axis=0)   # (L+1, C_v)
    pixels = feat.reshape(*lead, c_v, h0 * w0).mT                              # (..., HW, C_v)
    attn = softmax(pixels @ tokens.T * (1.0 / np.sqrt(c_v)), axis=-1)
    attended = attn @ tokens                                                   # (..., HW, C_v)
    fused = concat([attended.mT.reshape(*lead, c_v, h0, w0), feat], axis=-3)
    dense = conv1x1(fused, params[prefix + "conv.weight"], params[prefix + "conv.bias"])
    return (DenseEmbeddings(map=dense),
            DenseAttentionTrace(tokens=tokens, attn=attn, attended=attended))


def hierarchical_dense_attention(ff, sparse, params):
    """Sum of dense attention over the final map and the three mid maps."""
    out, _ = dense_attention(ff.final, sparse, params, prefix="hda.da0.")
    total = out.map
    for i, mid in enumerate(ff.mids, start=1):
        reduced = conv1x1(mid, params[f"hda.reduce{i}.weight"], params[f"hda.reduce{i}.bias"])
        branch, _ = dense_attention(reduced, sparse, params, prefix=f"hda.da{i}.")
        total = total + branch.map
    return DenseEmbeddings(map=total)
