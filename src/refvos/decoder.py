"""Prompt-token mask decoder: a small two-way transformer over learned
output tokens and the fused image embedding, followed by 4x upscaling,
per-token mask kernels, and a mask-quality head. The image embedding is the
encoder's (H0*W0, C_v) patch rows until the upscaling, the one step that
reads it as a (C_v, H0, W0) map."""

from dataclasses import dataclass

from .autodiff import DimensionError, Tensor, _leaf, concat, layer_norm, transposed_conv_upscale
from .encoder import attention, mlp, sinusoidal_grid


@dataclass
class DecoderOutput:
    tokens: Tensor       # output tokens: iou, main, 3 scales, then prompts
    up: Tensor           # (C_v/4, 4*H0, 4*W0) upscaled image embedding
    params: dict
    iou_scores: Tensor   # (1, 4) in [0, 1]: main + 3 scales
    main_token_out: Tensor  # (1, C_v)

    def mask(self, i):
        """The (4*H0, 4*W0) logit map of mask i (0 is the main one): runs
        hypernetwork i when called, so training reads only mask 0 and
        inference only the best-scored one."""
        pre = f"decoder.hyper{i}."
        k = mlp(self.tokens[1 + i:2 + i], self.params, (pre + "fc1", pre + "fc2", pre + "fc3"))
        c_up, h, w = self.up.shape
        return (k @ self.up.reshape(c_up, h * w)).reshape(h, w)


def decode(visual, grid, sparse, dense, track, params, include_sentence_token=True):
    """Produce the output tokens and upscaled embedding that give 4 mask
    logit maps (see DecoderOutput.mask), their quality scores, and the
    post-decoder state of the main mask token.

    visual: (H0*W0, C_v) patch rows of the grid (H0, W0); sparse: the
    TextEmbeddings prompts; dense: rows of visual's shape, or None; track:
    a (1, C_v) row or None. The dense rows condition the decoder additively.
    """
    h0, w0 = grid
    if visual.data.ndim != 2 or visual.shape[0] != h0 * w0:
        raise DimensionError(f"decode: visual must be ({h0 * w0}, C) rows of the "
                             f"{h0}x{w0} grid, not {visual.shape}")
    c_v = visual.shape[1]
    image = visual
    if dense is not None:
        if dense.shape != visual.shape:
            raise DimensionError("decode: dense rows shape mismatch")
        image = image + dense
    image = image + _leaf(sinusoidal_grid(c_v, h0, w0, visual.dtype), False)   # (HW, C_v)

    parts = [params["decoder.token.iou"].reshape(1, c_v),
             params["decoder.token.main"].reshape(1, c_v)]
    parts += [params[f"decoder.token.scale{i}"].reshape(1, c_v) for i in range(3)]
    if track is not None:
        if track.shape != (1, c_v):
            raise DimensionError(f"decode: track must be a (1, {c_v}) row, not {track.shape}")
        parts.append(track)
    if include_sentence_token:
        parts.append(sparse.sentence.reshape(1, c_v))
    parts.append(sparse.words)
    tokens = concat(parts, axis=0)

    for layer in range(2):
        pre = f"decoder.layer{layer}."
        tokens = layer_norm(tokens + attention(tokens, tokens, params, pre + "self."),
                            params[pre + "ln_self.gamma"], params[pre + "ln_self.beta"])
        tokens = layer_norm(tokens + attention(tokens, image, params, pre + "t2i."),
                            params[pre + "ln_t2i.gamma"], params[pre + "ln_t2i.beta"])
        image = image + attention(image, tokens, params, pre + "i2t.")
    tokens = layer_norm(tokens + attention(tokens, image, params, "decoder.final_attn."),
                        params["decoder.final_ln.gamma"], params["decoder.final_ln.beta"])

    up = transposed_conv_upscale(image.mT.reshape(c_v, h0, w0),
                                 params["decoder.up1.weight"], params["decoder.up1.bias"]).relu()
    up = transposed_conv_upscale(up, params["decoder.up2.weight"], params["decoder.up2.bias"]).relu()
    iou = mlp(tokens[0:1], params, ("decoder.iou_head.fc1", "decoder.iou_head.fc2")).sigmoid()
    return DecoderOutput(tokens, up, params, iou_scores=iou, main_token_out=tokens[1:2])
