"""End-to-end acceptance checks.

Each test prints a single pass/fail line so the suite doubles as a
checklist when run with -s. Tolerances are pinned in the assertions.
"""

import contextlib
import filecmp
import io
import os
import time
from dataclasses import replace

import numpy as np

from refvos.autodiff import Tensor, linear
from refvos.data import SyntheticSpec, generate_clip, VideoClip
from refvos.decoder import decode
from refvos.encoder import TextEmbeddings, encode_frame
from refvos.fusion import dense_attention, hierarchical_dense_attention
from refvos.losses import LossConfig
from refvos.metrics import (aggregate, boundary_pixels, contour_accuracy_F,
                            evaluate_sequence, region_similarity_J)
from refvos.model import Model, ModelConfig
from refvos.optim import AdamW
from refvos.tracking import (clip_loss, sample_training_frames, segment_clip,
                             track_update, train_step)

TOY = dict(patch_size=8, blocks=2, token_width=32, channels=32,
           adapter_width=4, hidden=32, text_width=32)


def _report(num, name, ok):
    print(f"[acceptance {num}] {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} ({name}) failed"


def _toy_model(seed=0, **kw):
    cfg = dict(TOY)
    cfg.update(kw)
    return Model(ModelConfig(**cfg), seed=seed)


def _hda_params(rng, c_v, c_mid):
    """Random weights and biases of the four dense-attention branches and the
    three mid-row reductions."""
    params = {}
    for name, n_in in [(f"hda.da{i}.conv", 2 * c_v) for i in range(4)] + \
            [(f"hda.reduce{i}", c_mid) for i in (1, 2, 3)]:
        params[name + ".weight"] = Tensor(rng.normal(size=(n_in, c_v)) / np.sqrt(n_in))
        params[name + ".bias"] = Tensor(rng.normal(0.0, 0.1, c_v))
    return params


def _make_sparse(rng, length, c_v):
    return TextEmbeddings(words=Tensor(rng.normal(size=(length, c_v))),
                          sentence=Tensor(rng.normal(size=c_v)))


# 1 -------------------------------------------------------------------------

def test_acceptance_1_gradient_integrity():
    start = time.monotonic()
    model = _toy_model(seed=0)
    rng = np.random.default_rng(0)
    # zero-init residual branches would hide upstream parameters from the
    # probe, so give the second ITM layer small nonzero weights
    model.params["itm.fc2.weight"].data = rng.normal(size=(32, 32)) * 0.1
    clip, expr, gts = generate_clip(
        SyntheticSpec(height=32, width=32, frames=2, max_objects=1, seed=20))
    cfg = LossConfig()

    def loss_value():
        return float(clip_loss(model, clip.frames, expr, gts, cfg)[0].data)

    # frozen parameters record no gradient; let every parameter record one,
    # so the probe below checks the frozen ones too
    for p in model.params.values():
        p.requires_grad = True
    loss, _ = clip_loss(model, clip.frames, expr, gts, cfg)
    for p in model.params.values():
        p.grad = None
    loss.backward()

    eps = 1e-5
    worst = 0.0
    for name, p in sorted(model.params.items()):
        grad = p.grad if p.grad is not None else np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        gflat = grad.reshape(-1)
        for idx in rng.choice(flat.size, size=min(2, flat.size), replace=False):
            orig = flat[idx]
            flat[idx] = orig + eps
            lp = loss_value()
            flat[idx] = orig - eps
            lm = loss_value()
            flat[idx] = orig
            fd = (lp - lm) / (2 * eps)
            err = abs(fd - gflat[idx]) / max(1.0, abs(fd), abs(gflat[idx]))
            worst = max(worst, err)
    elapsed = time.monotonic() - start
    _report(1, f"gradient integrity (max rel err {worst:.2e}, {elapsed:.0f}s)",
            worst < 1e-4 and elapsed < 120)


# 2 -------------------------------------------------------------------------

def _brute_force_dense(feat, sentence, words, W, b):
    """feat: (pixels, C_v) rows."""
    n_pix, c_v = feat.shape
    tokens = np.concatenate([sentence[None], words], axis=0)
    attended = np.zeros((n_pix, c_v))
    attn = np.zeros((n_pix, tokens.shape[0]))
    for p in range(n_pix):
        pix = feat[p]
        scores = np.array([sum(pix[c] * tokens[j, c] for c in range(c_v)) / np.sqrt(c_v)
                           for j in range(tokens.shape[0])])
        e = np.exp(scores - scores.max())
        attn[p] = e / e.sum()
        for c in range(c_v):
            attended[p, c] = sum(attn[p, j] * tokens[j, c] for j in range(tokens.shape[0]))
    dense = np.zeros((n_pix, c_v))
    for p in range(n_pix):
        stacked = list(attended[p]) + list(feat[p])
        for co in range(c_v):
            dense[p, co] = b[co] + sum(stacked[ci] * W[ci, co] for ci in range(2 * c_v))
    return dense, attn


def test_acceptance_2_dense_attention_oracle():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(100):
        c_v = int(rng.integers(1, 9))
        h0, w0 = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        length = int(rng.integers(1, 4))
        feat = rng.normal(size=(h0 * w0, c_v))
        sparse = _make_sparse(rng, length, c_v)
        params = _hda_params(rng, c_v, c_v)
        out, attn = dense_attention(Tensor(feat), sparse, params)
        expect, expect_attn = _brute_force_dense(feat, sparse.sentence.data,
                                          sparse.words.data,
                                          params["hda.da0.conv.weight"].data,
                                          params["hda.da0.conv.bias"].data)
        worst = max(worst, float(np.abs(out.data - expect).max()),
                    float(np.abs(attn.data - expect_attn).max()))
    _report(2, f"dense attention vs brute force (max dev {worst:.2e})", worst <= 1e-9)


# 3 -------------------------------------------------------------------------

def test_acceptance_3_attention_rows_normalized():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(100):
        c_v, c_mid = 8, 4
        params = _hda_params(rng, c_v, c_mid)
        sparse = _make_sparse(rng, int(rng.integers(1, 4)), c_v)
        feats = [Tensor(rng.normal(size=(9, c_v)))] + \
                [linear(Tensor(rng.normal(size=(9, c_mid))),
                        params[f"hda.reduce{i}.weight"],
                        params[f"hda.reduce{i}.bias"]) for i in (1, 2, 3)]
        for i, feat in enumerate(feats):
            _, attn = dense_attention(feat, sparse, params, prefix=f"hda.da{i}.")
            worst = max(worst, float(np.abs(attn.data.sum(axis=-1) - 1.0).max()))
            assert np.all(attn.data >= 0)
    _report(3, f"attention normalization (max dev {worst:.2e})", worst <= 1e-6)


# 4 -------------------------------------------------------------------------

def test_acceptance_4_hda_decomposition():
    from refvos.encoder import FrameFeatures
    rng = np.random.default_rng(4)
    ok = True
    for _ in range(20):
        c_v, c_mid = 8, 4
        params = _hda_params(rng, c_v, c_mid)
        sparse = _make_sparse(rng, 2, c_v)
        ff = FrameFeatures(final=Tensor(rng.normal(size=(9, c_v))),
                           mids=[Tensor(rng.normal(size=(9, c_mid)))
                                 for _ in range(3)], grid=(3, 3))
        total = hierarchical_dense_attention(ff, sparse, params)
        acc = dense_attention(ff.final, sparse, params, prefix="hda.da0.")[0].data
        for i, mid in enumerate(ff.mids, start=1):
            red = linear(mid, params[f"hda.reduce{i}.weight"],
                         params[f"hda.reduce{i}.bias"])
            acc = acc + dense_attention(red, sparse, params,
                                        prefix=f"hda.da{i}.")[0].data
        ok = ok and np.array_equal(total.data, acc)
    _report(4, "hierarchical attention equals sum of branches", ok)


# 5 -------------------------------------------------------------------------

def test_acceptance_5_freezing_contract():
    model = _toy_model(seed=5)
    clip, expr, gts = generate_clip(SyntheticSpec(seed=21, max_objects=2))
    frozen, trainable = model.partition()
    before = {n: p.data.copy() for n, p in model.params.items()}
    lrs = {"cmm": 1e-4, "hda": 1e-4, "decoder": 1e-6, "adapter": 1e-5, "itm": 1e-4}
    opt = AdamW(model.trainable_params(), lrs)
    rng = np.random.default_rng(5)
    for _ in range(10):
        frames, gs = sample_training_frames(clip.frames, gts, 3, rng)
        train_step([(frames, expr, gs)], model, opt, LossConfig())

    frozen_ok = all(np.array_equal(model.params[n].data, before[n]) for n in frozen)
    from refvos.optim import module_of
    changed_by_group = {}
    for n in trainable:
        g = module_of(n)
        changed_by_group[g] = changed_by_group.get(g, False) or \
            not np.array_equal(model.params[n].data, before[n])
    groups_ok = all(changed_by_group.values()) and \
        set(changed_by_group) == {"cmm", "hda", "decoder", "adapter", "itm"}
    lr_ok = {opt.learning_rate("cmm.fc1.weight"),
             opt.learning_rate("decoder.token.main"),
             opt.learning_rate("encoder.block1.adapter1.down.weight")} == \
        {1e-4, 1e-6, 1e-5}
    _report(5, "freezing contract and learning-rate groups",
            frozen_ok and groups_ok and lr_ok)


# 6 -------------------------------------------------------------------------

def test_acceptance_6_zero_init_transparency():
    model = _toy_model(seed=6)
    frame = np.random.default_rng(6).random((3, 64, 64))
    with_ad = encode_frame(frame, model.cfg, model.params)
    without = encode_frame(frame, replace(model.cfg, adapter=False), model.params)
    enc_ok = np.array_equal(with_ad.final.data, without.final.data) and \
        all(np.array_equal(a.data, b.data) for a, b in zip(with_ad.mids, without.mids))

    rng = np.random.default_rng(7)
    params = model.params
    visual = Tensor(rng.normal(size=(16, 32)))
    sparse = _make_sparse(rng, 2, 32)
    zero = Tensor(np.zeros((16, 32)))
    a = decode(visual, (4, 4), sparse, zero, None, params)
    b = decode(visual, (4, 4), sparse, None, None, params)
    dec_ok = all(np.array_equal(a.mask(i).data, b.mask(i).data) for i in range(4)) \
        and np.array_equal(a.iou_scores.data, b.iou_scores.data)
    _report(6, "zero-init adapters and zero dense map are transparent",
            enc_ok and dec_ok)


# 7 -------------------------------------------------------------------------

def _brute_force_F(pred, gt, tol):
    pb = np.argwhere(boundary_pixels(pred))
    gb = np.argwhere(boundary_pixels(gt))
    if len(pb) == 0 and len(gb) == 0:
        return 1.0
    if len(pb) == 0 or len(gb) == 0:
        return 0.0
    d = np.sqrt(((pb[:, None, :] - gb[None, :, :]) ** 2).sum(-1))
    precision = (d.min(axis=1) <= tol).mean()
    recall = (d.min(axis=0) <= tol).mean()
    return 0.0 if precision + recall == 0 else \
        2 * precision * recall / (precision + recall)


def test_acceptance_7_metric_oracles():
    rng = np.random.default_rng(7)
    ok = True
    for _ in range(200):
        h, w = int(rng.integers(1, 17)), int(rng.integers(1, 17))
        a = (rng.random((h, w)) > 0.55).astype(np.uint8)
        b = (rng.random((h, w)) > 0.55).astype(np.uint8)
        inter = int(np.sum(a.astype(bool) & b.astype(bool)))
        union = int(np.sum(a.astype(bool) | b.astype(bool)))
        ok = ok and region_similarity_J(a, b) == (1.0 if union == 0 else inter / union)
        tol = float(rng.integers(0, 4))
        ok = ok and abs(contour_accuracy_F(a, b, tol) - _brute_force_F(a, b, tol)) < 1e-12

    sq = np.zeros((16, 16), dtype=np.uint8)
    sq[4:12, 4:12] = 1
    shifted = np.roll(sq, 1, axis=1)
    ok = ok and contour_accuracy_F(sq, shifted, tolerance_px=2) == 1.0
    ok = ok and contour_accuracy_F(sq, shifted, tolerance_px=0) < 1.0
    ok = ok and contour_accuracy_F(sq, sq, tolerance_px=0) == 1.0
    _report(7, "region and contour metrics match brute force", ok)


# 8 -------------------------------------------------------------------------

def _overfit_run(use_hda, use_itm, seed, dataseed, steps=500):
    model = _toy_model(seed=seed, hda=use_hda, itm=use_itm)
    clips = [generate_clip(SyntheticSpec(seed=dataseed + k, max_objects=2))
             for k in range(4)]
    opt = AdamW(model.trainable_params(),
                {"cmm": 2e-3, "hda": 2e-3, "decoder": 2e-3,
                 "adapter": 2e-4, "itm": 2e-3})
    loss_cfg = LossConfig()
    rng = np.random.default_rng(seed)
    for _ in range(steps):
        clip, expr, masks = clips[int(rng.integers(0, 4))]
        frames, gts = sample_training_frames(clip.frames, masks, 3, rng)
        train_step([(frames, expr, gts)], model, opt, loss_cfg)
    return aggregate([evaluate_sequence(segment_clip(model, c, e), g)
                      for c, e, g in clips]).JF


def test_acceptance_8_overfit_ablation_ordering():
    start = time.monotonic()
    seed, dataseed = 2, 100
    full = _overfit_run(True, True, seed, dataseed)
    da_only = _overfit_run(False, True, seed, dataseed)
    no_itm = _overfit_run(True, False, seed, dataseed)
    elapsed = time.monotonic() - start
    ok = full >= 0.85 and da_only < full and no_itm <= full and elapsed < 900
    _report(8, f"overfit ordering (full={full:.4f} da={da_only:.4f} "
               f"noitm={no_itm:.4f}, {elapsed:.0f}s)", ok)


# 9 -------------------------------------------------------------------------

def test_acceptance_9_online_causality():
    model = _toy_model(seed=9)
    rng = np.random.default_rng(9)
    # nonzero temporal update so later frames genuinely depend on the track
    model.params["itm.fc2.weight"].data = rng.normal(size=(32, 32)) * 0.5
    clip, expr, _ = generate_clip(SyntheticSpec(seed=22, frames=4, max_objects=2))
    full = segment_clip(model, clip, expr)
    prefix_ok = True
    for t in (1, 2, 3):
        prefix = segment_clip(model, VideoClip(frames=clip.frames[:t]), expr)
        prefix_ok = prefix_ok and all(np.array_equal(full[i], prefix[i])
                                      for i in range(t))

    one = segment_clip(model, VideoClip(frames=clip.frames[:1]), expr)
    text = model.encode_text(expr)
    sparse = model.sparse_embeddings(text)
    ff = model.encode_frame(clip.frames[0])
    out = model.decode(ff.final, ff.grid, sparse, model.dense_embeddings(ff, sparse), None)
    from refvos.autodiff import bilinear_resize
    idx = int(np.argmax(out.iou_scores.data))
    logits = bilinear_resize(out.mask(idx), 64, 64)
    t1_ok = np.array_equal(one[0], (logits.data > 0).astype(np.uint8))
    _report(9, "prefix replay bit-exact, single frame equals no-track decode",
            prefix_ok and t1_ok)


# 10 ------------------------------------------------------------------------

RUN_CFG = """
model.patch_size = 8
model.blocks = 2
model.token_width = 32
model.channels = 32
model.adapter_width = 4
model.hidden = 32
model.text_width = 32
train.steps = 50
train.seed = 3
train.checkpoint_interval = 50
data.clips = 2
data.frames = 3
"""


def _end_to_end(root):
    from refvos.cli import main
    cfg = os.path.join(root, "run.cfg")
    with open(cfg, "w") as fh:
        fh.write(RUN_CFG)
    data = os.path.join(root, "data")
    ckpt = os.path.join(root, "model.ckpt")
    log = io.StringIO()
    with contextlib.redirect_stdout(log):
        assert main(["generate", "--config", cfg, "--out", data]) == 0
        assert main(["train", "--config", cfg, "--out-checkpoint", ckpt]) == 0
        assert main(["eval", "--config", cfg, "--checkpoint", ckpt,
                     "--data", data]) == 0
        for clip in sorted(os.listdir(data)):
            assert main(["infer", "--checkpoint", ckpt,
                         "--clip", os.path.join(data, clip),
                         "--out", os.path.join(root, "preds", clip)]) == 0
    with open(os.path.join(root, "run.log"), "w") as fh:
        fh.write(log.getvalue().replace(root, "<root>"))


def test_acceptance_10_end_to_end_determinism(tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    os.makedirs(a)
    os.makedirs(b)
    _end_to_end(a)
    _end_to_end(b)
    ok = True
    for root, _, names in os.walk(a):
        rel = os.path.relpath(root, a)
        for name in names:
            ok = ok and filecmp.cmp(os.path.join(root, name),
                                    os.path.join(b, rel, name), shallow=False)
    _report(10, "two seeded end-to-end runs are byte-identical", ok)
