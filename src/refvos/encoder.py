"""Frame encoding with adapter tuning, and referring-expression embedding."""

import functools
import hashlib
from dataclasses import dataclass

import numpy as np

from .autodiff import DimensionError, Tensor, layer_norm, linear, softmax


class ConfigurationError(ValueError):
    pass


@dataclass
class FrameFeatures:
    final: Tensor      # (..., C_v, H0, W0)
    mids: list         # 3 x (..., C_mid, H0, W0)

    def __getitem__(self, t):
        """The features of frame t of a stack."""
        return FrameFeatures(final=self.final[t], mids=[m[t] for m in self.mids])


@dataclass
class ReferringExpression:
    words: list
    max_words: int = 32

    def __post_init__(self):
        if not self.words:
            raise ValueError("referring expression must contain at least one word")
        if len(self.words) > self.max_words:
            raise ValueError("referring expression too long")
        for w in self.words:
            if not w or w != w.lower():
                raise ValueError(f"tokens must be nonempty lowercase strings: {w!r}")


@dataclass
class TextEmbeddings:
    words: Tensor      # (L, C_e)
    sentence: Tensor   # (C_e,)


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


def adapter_forward(tokens, params, prefix):
    """tokens + Up(ReLU(Down(tokens))); Up is zero-initialized."""
    h = linear(tokens, params[prefix + "down.weight"], params[prefix + "down.bias"]).relu()
    return tokens + linear(h, params[prefix + "up.weight"], params[prefix + "up.bias"])


def attention(q_in, kv_in, params, prefix):
    """Single-head scaled dot-product attention of q_in over kv_in, with
    the projections `<prefix>{wq,wk,wv,wo}.{weight,bias}`."""
    d = q_in.shape[-1]
    q = linear(q_in, params[prefix + "wq.weight"], params[prefix + "wq.bias"])
    k = linear(kv_in, params[prefix + "wk.weight"], params[prefix + "wk.bias"])
    v = linear(kv_in, params[prefix + "wv.weight"], params[prefix + "wv.bias"])
    att = softmax(q @ k.mT * (1.0 / np.sqrt(d)), axis=-1)
    return linear(att @ v, params[prefix + "wo.weight"], params[prefix + "wo.bias"])


def encode_frame(frame, cfg, params):
    """Run a frame (a (3, H, W) array in [0, 1]) or a stack of equally sized
    frames ((..., 3, H, W), or a sequence of frames) through the encoder.
    Frames do not interact: the features keep the leading axes, and each
    frame's features equal those of its own rank-3 call bit for bit. `cfg`
    is a ModelConfig; with cfg.adapter false the adapters are skipped."""
    try:
        frame = np.asarray(frame)
    except ValueError as exc:    # a sequence of frames of mixed sizes
        raise DimensionError("frames encoded together must share one size") from exc
    if frame.ndim < 3 or frame.shape[-3] != 3:
        raise DimensionError("frame must be (..., 3, H, W)")
    *lead, _, h, w = frame.shape
    ps = cfg.patch_size
    if h % ps or w % ps:
        raise DimensionError(f"frame dims must be divisible by patch size {ps}")
    h0, w0 = h // ps, w // ps
    d = cfg.token_width
    dtype = params["encoder.patch.weight"].dtype
    # (..., 3, h0, ps, w0, ps) -> (..., h0, w0, 3, ps, ps)
    patches = np.moveaxis(frame.reshape(*lead, 3, h0, ps, w0, ps), (-4, -2), (-5, -4))
    patches = Tensor(patches.reshape(*lead, h0 * w0, 3 * ps * ps).astype(dtype, copy=False))
    # a stack's frames and patch rows are its largest arrays: free each once used
    del frame
    tokens = linear(patches, params["encoder.patch.weight"], params["encoder.patch.bias"])
    del patches
    tokens = tokens + Tensor(sinusoidal_grid(d, h0, w0, dtype))

    taps = {}
    for i in range(cfg.blocks):
        pre = f"encoder.block{i}."
        x = layer_norm(tokens, params[pre + "ln1.gamma"], params[pre + "ln1.beta"])
        tokens = tokens + attention(x, x, params, pre + "attn.")
        if cfg.adapter and i in cfg.adapter_blocks:
            tokens = adapter_forward(tokens, params, pre + "adapter1.")
        x = layer_norm(tokens, params[pre + "ln2.gamma"], params[pre + "ln2.beta"])
        x = linear(x, params[pre + "mlp.fc1.weight"], params[pre + "mlp.fc1.bias"]).relu()
        tokens = tokens + linear(x, params[pre + "mlp.fc2.weight"], params[pre + "mlp.fc2.bias"])
        if cfg.adapter and i in cfg.adapter_blocks:
            tokens = adapter_forward(tokens, params, pre + "adapter2.")
        if i in cfg.tap_indices:
            taps[i] = tokens

    mids = [taps[i].mT.reshape(*lead, d, h0, w0) for i in cfg.tap_indices]
    neck = linear(tokens, params["encoder.neck.proj.weight"], params["encoder.neck.proj.bias"])
    neck = layer_norm(neck, params["encoder.neck.ln.gamma"], params["encoder.neck.ln.beta"])
    final = neck.mT.reshape(*lead, cfg.channels, h0, w0)
    return FrameFeatures(final=final, mids=mids)


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
    """Word rows of `table` (the text.table Tensor) for the hashed words of
    expr, and their mean."""
    rows = table.data[[_bucket(w, table.shape[0]) for w in expr.words]]
    words = Tensor(rows.astype(np.float64))
    return TextEmbeddings(words=words, sentence=pool_sentence(words))

