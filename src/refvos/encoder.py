"""Frame encoding with adapter tuning, and referring-expression embedding.

A frame's features are patch rows: (..., H0*W0, C), row y*W0 + x the patch
at (y, x) of the H0 x W0 grid, as SAM's decoder flattens its image
embedding into tokens. They stay rows through fusion and the decoder."""

import functools
import hashlib
from dataclasses import dataclass

import numpy as np

from .autodiff import DimensionError, Tensor, _leaf, layer_norm, linear
from .autodiff import attention as fused_attention


class ConfigurationError(ValueError):
    pass


# the longest referring expression accepted
MAX_WORDS = 32


@dataclass
class FrameFeatures:
    final: Tensor      # (..., H0*W0, C_v): the neck's output rows
    mids: list         # 3 x (..., H0*W0, C_mid): the tapped blocks' token rows
    grid: tuple        # (H0, W0), the patch grid the rows flatten


@dataclass
class ReferringExpression:
    words: list

    def __post_init__(self):
        if not self.words:
            raise ValueError("referring expression must contain at least one word")
        if len(self.words) > MAX_WORDS:
            raise ValueError("referring expression too long")
        for w in self.words:
            if not w or w != w.lower():
                raise ValueError(f"tokens must be nonempty lowercase strings: {w!r}")


@dataclass
class TextEmbeddings:
    """Word rows and their sentence row: the text's embeddings (width C_e),
    or the sparse prompts that `fusion.cross_modal_project` maps them to
    (width C_v)."""
    words: Tensor      # (L, C)
    sentence: Tensor   # (C,)


@functools.lru_cache(maxsize=32)
def sinusoidal_grid(width, h, w, dtype=np.float64):
    """Fixed 2-D sin/cos positional table, shape (h*w, width); cached, so
    read-only."""
    if width % 4 != 0:
        raise ConfigurationError("positional width must be divisible by 4")
    quarter = width // 4
    freq = 1.0 / (10000.0 ** (np.arange(quarter) / quarter))
    ys, xs = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    ys = ys.reshape(-1, 1) * freq
    xs = xs.reshape(-1, 1) * freq
    grid = np.concatenate([np.sin(ys), np.cos(ys), np.sin(xs), np.cos(xs)], axis=1).astype(dtype)
    grid.setflags(write=False)
    return grid


def mlp(x, params, layers):
    """The `linear` layers named in `layers` in turn, each reading
    `<name>.{weight,bias}`, with a ReLU between each two and none after the last."""
    for i, name in enumerate(layers):
        x = linear(x.relu() if i else x, params[name + ".weight"], params[name + ".bias"])
    return x


def adapter_forward(tokens, params, prefix):
    """tokens + Up(ReLU(Down(tokens))); Up is zero-initialized."""
    return tokens + mlp(tokens, params, (prefix + "down", prefix + "up"))


def attention(q_in, kv_in, params, prefix):
    """Single-head attention of q_in over kv_in, scores scaled by 1/sqrt of
    the projected width, with the projections `<prefix>{wq,wk,wv,wo}.{weight,bias}`:
    k and v are `linear` ops, the rest is one `autodiff.attention` op."""
    k = linear(kv_in, params[prefix + "wk.weight"], params[prefix + "wk.bias"])
    v = linear(kv_in, params[prefix + "wv.weight"], params[prefix + "wv.bias"])
    return fused_attention(q_in, params[prefix + "wq.weight"], params[prefix + "wq.bias"], k, v,
                           params[prefix + "wo.weight"], params[prefix + "wo.bias"])


def patch_grid(h, w, ps):
    """The (H0, W0) grid of ps x ps patches that an h x w frame cuts into;
    DimensionError unless the frame has pixels and ps divides both sides."""
    if not h or not w:
        raise DimensionError(f"frame has no pixels: its sides are {h} x {w}")
    if h % ps or w % ps:
        raise DimensionError(f"frame dims must be divisible by patch size {ps}")
    return h // ps, w // ps


def encode_frame(frame, cfg, params):
    """Run a frame (a (3, H, W) array in [0, 1]) or a stack of equally sized
    frames ((..., 3, H, W), or a sequence of frames) through the encoder;
    returns the FrameFeatures, as patch rows. Frames do not interact: the
    features keep the leading axes, and each frame's features equal those of
    its own rank-3 call bit for bit. `cfg` is a ModelConfig; with cfg.adapter
    false the adapters are skipped."""
    try:
        frame = np.asarray(frame)
    except ValueError as exc:    # a sequence of frames of mixed sizes
        raise DimensionError("frames encoded together must share one size") from exc
    if frame.ndim < 3 or frame.shape[-3] != 3:
        raise DimensionError("frame must be (..., 3, H, W)")
    *lead, _, h, w = frame.shape
    ps = cfg.patch_size
    h0, w0 = patch_grid(h, w, ps)
    d = cfg.token_width
    dtype = params["encoder.patch.weight"].dtype
    # (..., 3, h0, ps, w0, ps) -> (..., h0, w0, 3, ps, ps)
    patches = np.moveaxis(frame.reshape(*lead, 3, h0, ps, w0, ps), (-4, -2), (-5, -4))
    patches = Tensor(patches.reshape(*lead, h0 * w0, 3 * ps * ps).astype(dtype, copy=False))
    # a stack's frames and patch rows are its largest arrays: free each once used
    del frame
    tokens = linear(patches, params["encoder.patch.weight"], params["encoder.patch.bias"])
    del patches
    tokens = tokens + _leaf(sinusoidal_grid(d, h0, w0, dtype), False)

    taps = {}
    for i in range(cfg.blocks):
        pre = f"encoder.block{i}."
        x = layer_norm(tokens, params[pre + "ln1.gamma"], params[pre + "ln1.beta"])
        tokens = tokens + attention(x, x, params, pre + "attn.")
        if cfg.adapter and i in cfg.adapter_blocks:
            tokens = adapter_forward(tokens, params, pre + "adapter1.")
        x = layer_norm(tokens, params[pre + "ln2.gamma"], params[pre + "ln2.beta"])
        tokens = tokens + mlp(x, params, (pre + "mlp.fc1", pre + "mlp.fc2"))
        if cfg.adapter and i in cfg.adapter_blocks:
            tokens = adapter_forward(tokens, params, pre + "adapter2.")
        if i in cfg.tap_indices:
            taps[i] = tokens

    neck = linear(tokens, params["encoder.neck.proj.weight"], params["encoder.neck.proj.bias"])
    final = layer_norm(neck, params["encoder.neck.ln.gamma"], params["encoder.neck.ln.beta"])
    return FrameFeatures(final=final, mids=[taps[i] for i in cfg.tap_indices], grid=(h0, w0))


# ---- text -----------------------------------------------------------------

def _bucket(token, vocab_size):
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little") % vocab_size


def pool_sentence(words):
    """Mean over the word axis."""
    if words.shape[0] < 1:
        raise DimensionError("pool_sentence needs at least one word")
    return words.mean(axis=0)


def encode_text(expr, table):
    """Word rows of `table` (the frozen text.table Tensor, finite) for the
    hashed words of expr, and their mean."""
    words = _leaf(table.data[[_bucket(w, table.shape[0]) for w in expr.words]], False)
    return TextEmbeddings(words=words, sentence=pool_sentence(words))

