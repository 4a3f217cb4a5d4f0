"""Text-to-prompt projection and pixel-level vision-language fusion, over
the encoder's (..., H0*W0, C) patch rows."""

import numpy as np

from .autodiff import DimensionError, concat, linear, softmax
from .encoder import TextEmbeddings, mlp


def cross_modal_project(text, params):
    """Map word and sentence embeddings into the decoder's prompt space:
    the sparse prompts, a TextEmbeddings of width C_v. The sentence is
    projected as a (1, C) row and handed on as a (C_v,) vector."""
    layers = ("cmm.proj",) if "cmm.proj.weight" in params else ("cmm.fc1", "cmm.fc2")
    return TextEmbeddings(words=mlp(text.words, params, layers),
                          sentence=mlp(text.sentence.reshape(1, -1), params, layers).reshape(-1))


def dense_attention(feat, sparse, params, prefix="hda.da0."):
    """Pixel-to-token attention producing dense conditioning rows; returns
    them, (..., H0*W0, C_v), and the attention map, (..., H0*W0, L+1), whose
    rows sum to 1 over [sentence; words], sentence column first.

    feat: (..., H0*W0, C_v) patch rows, frames along the leading axes. Each
    row attends over [sentence; words] with scaled dot-product similarity,
    and a `linear` over [attended | feat] fuses the attended token mixture
    back with the row's features.
    """
    c_v = feat.shape[-1]
    if sparse.words.shape[-1] != c_v:
        raise DimensionError("dense_attention: token width must equal feature channels")
    tokens = concat([sparse.sentence.reshape(1, c_v), sparse.words], axis=0)   # (L+1, C_v)
    attn = softmax(feat @ tokens.mT * (1.0 / np.sqrt(c_v)), axis=-1)
    attended = attn @ tokens                                                   # (..., HW, C_v)
    dense = linear(concat([attended, feat], axis=-1),
                   params[prefix + "conv.weight"], params[prefix + "conv.bias"])
    return dense, attn


def hierarchical_dense_attention(ff, sparse, params):
    """Sum of dense attention over the final rows and over each mid level
    whose `hda.reduce<i>` exists, its rows reduced to width C_v by that
    `linear` first; a model with model.hda false declares no mid level."""
    total, _ = dense_attention(ff.final, sparse, params, prefix="hda.da0.")
    for i, mid in enumerate(ff.mids, start=1):
        if f"hda.reduce{i}.weight" in params:
            reduced = linear(mid, params[f"hda.reduce{i}.weight"], params[f"hda.reduce{i}.bias"])
            branch, _ = dense_attention(reduced, sparse, params, prefix=f"hda.da{i}.")
            total = total + branch
    return total
