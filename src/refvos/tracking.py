"""Track-token propagation, and the one online frame loop that inference
(`segment_clip`) and training (`clip_loss`) share."""

import contextlib
import gc

import numpy as np

from .autodiff import DimensionError, Tensor, bilinear_resize, layer_norm, no_grad
from .encoder import mlp
from .losses import dice_loss, focal_loss
from .metrics import region_similarity_J

# Patches that segment_clip encodes and fuses in one pass. The encoder and HDA
# depend only on the frame and the text, so they run once over a stack of
# frames; only the decoder and the track update run frame by frame. A pass
# holds the whole frames that fit, and at least one (8 at 64 x 64 with 8-pixel
# patches, one from 256 x 256 up), so its attention scores stay bounded.
PATCHES_PER_PASS = 512


def track_update(main_token_out, params):
    """LayerNorm(E_m + FFN2(ReLU(FFN1(E_m))))."""
    r = mlp(main_token_out, params, ("itm.fc1", "itm.fc2"))
    return layer_norm(main_token_out + r, params["itm.ln.gamma"], params["itm.ln.beta"])


def select_mask(out, h, w):
    """The h x w binary mask of the decoder output with the highest quality
    score (the first on a tie): resized, then thresholded at 0."""
    logits = bilinear_resize(out.mask(int(np.argmax(out.iou_scores.data))), h, w)
    return (logits.data > 0).astype(np.uint8)


def _decoded_frames(model, frames, sparse, frames_per_pass, detach_track=False):
    """Yield the DecoderOutput of each of `frames` in order.

    Encodes and fuses up to `frames_per_pass` frames at once, then decodes
    them one by one, each with the track token of the frame before it
    (detached if `detach_track`); no track update follows the last frame. A
    pass's features are freed before the next pass is encoded, and a pass with
    a frame whose shape differs from frame 0's raises DimensionError."""
    track = None
    for start in range(0, len(frames), frames_per_pass):
        stack = frames[start:start + frames_per_pass]
        if any(np.shape(f) != np.shape(frames[0]) for f in stack):
            raise DimensionError("the frames of a clip must share one size")
        ff = model.encode_frame(stack)
        dense = model.dense_embeddings(ff, sparse)
        for t in range(len(stack)):
            out = model.decode(ff.final[t], ff.grid, sparse,
                               None if dense is None else dense[t], track)
            yield out
            if model.cfg.itm and start + t + 1 < len(frames):
                track = track_update(out.main_token_out, model.params)
                track = track.detach() if detach_track else track
        del ff, dense


def segment_clip(model, clip, expr):
    """Segment every frame online; returns a list of H x W binary masks.

    Encodes and fuses the frames that fit in PATCHES_PER_PASS at a time;
    frame t's mask depends only on frames 0..t. Runs under `no_grad`: no graph
    is recorded, and the track token carries only the previous frame forward."""
    # frame 0's patches; a frame with none counts as one, and encode_frame refuses it
    patches = np.size(clip.frames[0]) // (3 * model.cfg.patch_size ** 2) if clip.frames else 0
    per_pass = max(1, PATCHES_PER_PASS // max(1, patches))
    with no_grad():
        sparse = model.sparse_embeddings(model.encode_text(expr))
        decoded = _decoded_frames(model, clip.frames, sparse, per_pass)
        return [select_mask(out, *frame.shape[1:])
                for frame, out in zip(clip.frames, decoded)]


def clip_loss(model, frames, expr, gt_masks, loss_cfg, detach_track=False):
    """Total training loss over an ordered frame sequence, with the track
    token propagated across frames: differentiated through, unless
    detach_track cuts the gradient between frames.

    Returns (loss Tensor, report dict)."""
    sparse = model.sparse_embeddings(model.encode_text(expr))
    total = None
    report = {"dice": 0.0, "focal": 0.0, "iou": 0.0}
    decoded = _decoded_frames(model, frames, sparse, 1, detach_track)
    for frame, gt, out in zip(frames, gt_masks, decoded):
        _, h, w = frame.shape
        logits = bilinear_resize(out.mask(0), h, w)
        gt_arr = np.asarray(gt, dtype=float)
        d = dice_loss(logits.sigmoid(), gt_arr, loss_cfg)
        f = focal_loss(logits, gt_arr, loss_cfg)
        pred_bin = (logits.data > 0).astype(np.uint8)
        target_iou = region_similarity_J(pred_bin, gt_arr > 0)
        iou_term = (out.iou_scores[0, 0] - target_iou) ** 2.0
        frame_loss = loss_cfg.w_dice * d + loss_cfg.w_focal * f + iou_term
        total = frame_loss if total is None else total + frame_loss
        report["dice"] += float(d.data)
        report["focal"] += float(f.data)
        report["iou"] += float(iou_term.data)
    report["total"] = float(total.data)
    return total, report


@contextlib.contextmanager
def _collector_paused():
    """Disable the cyclic collector inside the block; leaving it (also by an
    exception) restores the state it found."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def train_step(batch, model, optimizer, loss_cfg, detach_track=False):
    """One optimizer step over a batch of (frames, expression, gt_masks)
    samples; frames within a sample must already be in temporal order.

    Runs with the cyclic collector paused: a training graph is acyclic and
    freed by reference counting, so a collection there would find nothing.
    `backward` frees the graph as it walks it, so AdamW runs beside the
    gradients alone and no graph is left when the collector resumes."""
    with _collector_paused():
        optimizer.zero_grad()
        total = None
        report = {"dice": 0.0, "focal": 0.0, "iou": 0.0, "total": 0.0}
        for frames, expr, gts in batch:
            if len(frames) != len(gts):
                raise ValueError("train_step: each frame needs a ground-truth mask")
            loss, rep = clip_loss(model, frames, expr, gts, loss_cfg, detach_track)
            total = loss if total is None else total + loss
            for k in report:
                report[k] += rep[k]
        total.backward()
        optimizer.step()
    return report


def sample_training_frames(frames, gt_masks, n, rng):
    """Pick n distinct frame indices at random and return them sorted into
    temporal order."""
    idx = sorted(rng.choice(len(frames), size=min(n, len(frames)), replace=False).tolist())
    return [frames[i] for i in idx], [gt_masks[i] for i in idx]
