"""Prompt-token mask decoder: a small two-way transformer over learned
output tokens and the fused image embedding, followed by 4x upscaling,
per-token mask kernels, and a mask-quality head."""

from dataclasses import dataclass

import numpy as np

from .autodiff import (DimensionError, Tensor, concat, layer_norm, linear,
                       transposed_conv_upscale)
from .encoder import _xavier, attention, sinusoidal_grid


@dataclass
class DecoderOutput:
    masks: list          # 4 x (4*H0, 4*W0) logit maps: main + 3 scales
    iou_scores: Tensor   # (4,) in [0, 1]
    main_token_out: Tensor  # (C_v,)


def _attn_params(p, par, rng, prefix, d):
    for nm in ("wq", "wk", "wv", "wo"):
        par(prefix + f"{nm}.weight", _xavier(rng, d, d))
        par(prefix + f"{nm}.bias", np.zeros(d))


def init_decoder_params(c_v, rng, dtype=np.float64):
    p = {}

    def par(name, arr):
        p["decoder." + name] = Tensor(np.asarray(arr, dtype=dtype), requires_grad=True)

    par("token.iou", rng.normal(0.0, 1.0, c_v))
    par("token.main", rng.normal(0.0, 1.0, c_v))
    for i in range(3):
        par(f"token.scale{i}", rng.normal(0.0, 1.0, c_v))
    for layer in range(2):
        pre = f"layer{layer}."
        _attn_params(p, par, rng, pre + "self.", c_v)
        par(pre + "ln_self.gamma", np.ones(c_v))
        par(pre + "ln_self.beta", np.zeros(c_v))
        _attn_params(p, par, rng, pre + "t2i.", c_v)
        par(pre + "ln_t2i.gamma", np.ones(c_v))
        par(pre + "ln_t2i.beta", np.zeros(c_v))
        _attn_params(p, par, rng, pre + "i2t.", c_v)
        par(pre + "ln_i2t.gamma", np.ones(c_v))
        par(pre + "ln_i2t.beta", np.zeros(c_v))
    _attn_params(p, par, rng, "final_attn.", c_v)
    par("final_ln.gamma", np.ones(c_v))
    par("final_ln.beta", np.zeros(c_v))

    c_half, c_up = c_v // 2, c_v // 4
    par("up1.weight", _xavier(rng, c_v, c_half, shape=(c_v, c_half, 2, 2)) )
    par("up1.bias", np.zeros(c_half))
    par("up2.weight", _xavier(rng, c_half, c_up, shape=(c_half, c_up, 2, 2)))
    par("up2.bias", np.zeros(c_up))
    for i in range(4):
        pre = f"hyper{i}."
        par(pre + "fc1.weight", _xavier(rng, c_v, c_v))
        par(pre + "fc1.bias", np.zeros(c_v))
        par(pre + "fc2.weight", _xavier(rng, c_v, c_v))
        par(pre + "fc2.bias", np.zeros(c_v))
        par(pre + "fc3.weight", _xavier(rng, c_v, c_up))
        par(pre + "fc3.bias", np.zeros(c_up))
    par("iou_head.fc1.weight", _xavier(rng, c_v, c_v))
    par("iou_head.fc1.bias", np.zeros(c_v))
    # zero weights + pessimistic bias: quality scores start low and only the
    # supervised one moves, so selection never prefers an untrained mask
    par("iou_head.fc2.weight", np.zeros((c_v, 4)))
    par("iou_head.fc2.bias", np.full(4, -2.0))
    return p


def decode(visual, sparse, dense, track, params, include_sentence_token=True):
    """Produce 4 mask logit maps, their quality scores, and the post-decoder
    state of the main mask token.

    visual: (C_v, H0, W0); dense: DenseEmbeddings or None; track: (C_v,)
    Tensor or None. The dense map conditions the decoder additively.
    """
    c_v, h0, w0 = visual.shape
    emb = visual
    if dense is not None:
        if dense.map.shape != visual.shape:
            raise DimensionError("decode: dense map shape mismatch")
        emb = emb + dense.map
    emb = emb + Tensor(sinusoidal_grid(c_v, h0, w0, visual.dtype).T.reshape(c_v, h0, w0))

    parts = [params["decoder.token.iou"].reshape(1, c_v),
             params["decoder.token.main"].reshape(1, c_v)]
    parts += [params[f"decoder.token.scale{i}"].reshape(1, c_v) for i in range(3)]
    if track is not None:
        if track.shape != (c_v,):
            raise DimensionError("decode: track token width mismatch")
        parts.append(track.reshape(1, c_v))
    if include_sentence_token:
        parts.append(sparse.sentence.reshape(1, c_v))
    parts.append(sparse.words)
    tokens = concat(parts, axis=0)

    image = emb.reshape(c_v, h0 * w0).transpose(1, 0)   # (HW, C_v)
    for layer in range(2):
        pre = f"decoder.layer{layer}."
        tokens = layer_norm(tokens + attention(tokens, tokens, params, pre + "self."),
                            params[pre + "ln_self.gamma"], params[pre + "ln_self.beta"])
        tokens = layer_norm(tokens + attention(tokens, image, params, pre + "t2i."),
                            params[pre + "ln_t2i.gamma"], params[pre + "ln_t2i.beta"])
        image = image + attention(image, tokens, params, pre + "i2t.")
    tokens = layer_norm(tokens + attention(tokens, image, params, "decoder.final_attn."),
                        params["decoder.final_ln.gamma"], params["decoder.final_ln.beta"])

    up = transposed_conv_upscale(image.transpose(1, 0).reshape(c_v, h0, w0),
                                 params["decoder.up1.weight"], params["decoder.up1.bias"]).relu()
    up = transposed_conv_upscale(up, params["decoder.up2.weight"], params["decoder.up2.bias"]).relu()
    c_up = up.shape[0]

    masks = []
    for i in range(4):
        pre = f"decoder.hyper{i}."
        t = tokens[1 + i]
        k = linear(t, params[pre + "fc1.weight"], params[pre + "fc1.bias"]).relu()
        k = linear(k, params[pre + "fc2.weight"], params[pre + "fc2.bias"]).relu()
        k = linear(k, params[pre + "fc3.weight"], params[pre + "fc3.bias"])
        masks.append((k.reshape(1, c_up) @ up.reshape(c_up, 16 * h0 * w0))
                     .reshape(4 * h0, 4 * w0))
    iou = linear(tokens[0], params["decoder.iou_head.fc1.weight"],
                 params["decoder.iou_head.fc1.bias"]).relu()
    iou = linear(iou, params["decoder.iou_head.fc2.weight"],
                 params["decoder.iou_head.fc2.bias"]).sigmoid()
    return DecoderOutput(masks=masks, iou_scores=iou, main_token_out=tokens[1])
