import collections
import gc
import importlib
import os
import sys
import tracemalloc
import zlib

import numpy as np
import pytest

from refvos.autodiff import DimensionError, Tensor, bilinear_resize, layer_norm, linear, no_grad
from refvos.data import SyntheticSpec, VideoClip, generate_clip
from refvos.losses import LossConfig
from refvos.model import Model, ModelConfig
from refvos.optim import AdamW
from refvos.tracking import (_decoded_frames, clip_loss, sample_training_frames, segment_clip,
                             select_mask, track_update, train_step)


def toy_model(seed=0, dtype=np.float64, **kw):
    base = dict(patch_size=8, blocks=2, token_width=32, channels=32,
                adapter_width=4, hidden=32, text_width=32)
    base.update(kw)
    return Model(ModelConfig(**base), seed=seed, dtype=dtype)


def toy_clip(seed=3, frames=3):
    return generate_clip(SyntheticSpec(seed=seed, frames=frames, max_objects=2))


def default_lrs(**kw):
    lrs = {"cmm": 1e-4, "hda": 1e-4, "decoder": 1e-6, "adapter": 1e-5, "itm": 1e-4}
    lrs.update(kw)
    return lrs


def test_track_update_zero_init_is_layer_norm():
    rng = np.random.default_rng(0)
    params = toy_model(channels=16).params
    e_m = Tensor(rng.normal(size=(1, 16)))
    out = track_update(e_m, params)
    expect = layer_norm(e_m, params["itm.ln.gamma"], params["itm.ln.beta"])
    assert np.array_equal(out.data, expect.data)


def test_track_update_zero_input_zero_output():
    params = toy_model(channels=8).params
    out = track_update(Tensor(np.zeros((1, 8))), params)
    assert np.allclose(out.data, 0.0)


def test_track_update_matches_composed_oracle():
    rng = np.random.default_rng(2)
    params = {f"itm.{name}": Tensor(rng.normal(size=shape)) for name, shape in (
        ("fc1.weight", (4, 4)), ("fc1.bias", 4), ("fc2.weight", (4, 4)), ("fc2.bias", 4),
        ("ln.gamma", 4), ("ln.beta", 4))}
    e_m = Tensor(rng.normal(size=(1, 4)))
    out = track_update(e_m, params)
    h = linear(e_m, params["itm.fc1.weight"], params["itm.fc1.bias"]).relu()
    r = linear(h, params["itm.fc2.weight"], params["itm.fc2.bias"])
    oracle = layer_norm(e_m + r, params["itm.ln.gamma"], params["itm.ln.beta"])
    assert np.allclose(out.data, oracle.data)


def test_single_frame_clip_equals_no_track_decode():
    model = toy_model()
    clip, expr, _ = toy_clip(frames=1)
    masks = segment_clip(model, clip, expr)

    text = model.encode_text(expr)
    sparse = model.sparse_embeddings(text)
    ff = model.encode_frame(clip.frames[0])
    dense = model.dense_embeddings(ff, sparse)
    out = model.decode(ff.final, ff.grid, sparse, dense, None)
    from refvos.autodiff import bilinear_resize
    idx = int(np.argmax(out.iou_scores.data))
    logits = bilinear_resize(out.mask(idx), 64, 64)
    assert np.array_equal(masks[0], (logits.data > 0).astype(np.uint8))


def test_segment_clip_deterministic():
    model = toy_model()
    clip, expr, _ = toy_clip()
    a = segment_clip(model, clip, expr)
    b = segment_clip(model, clip, expr)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_online_causality_prefix_replay():
    from refvos.data import VideoClip
    model = toy_model()
    clip, expr, _ = toy_clip(frames=4)
    full = segment_clip(model, clip, expr)
    for t in (1, 2, 3):
        prefix = segment_clip(model, VideoClip(frames=clip.frames[:t]), expr)
        assert all(np.array_equal(full[i], prefix[i]) for i in range(t))


def test_segment_clip_passes_equal_rank3_frame_loop(monkeypatch):
    from refvos import tracking
    from refvos.autodiff import no_grad
    from refvos.data import VideoClip
    model = toy_model()
    rng = np.random.default_rng(6)
    for p in model.params.values():   # nonzero adapters and track update
        p.data = p.data + rng.normal(0.0, 0.05, p.data.shape)
    short, expr, _ = toy_clip(frames=5)
    clip = VideoClip(frames=[short.frames[t % 5] * (1.0 - 0.01 * t) for t in range(19)])

    with no_grad():
        sparse = model.sparse_embeddings(model.encode_text(expr))
        track, expect = None, []
        for frame in clip.frames:
            ff = model.encode_frame(frame)
            out = model.decode(ff.final, ff.grid, sparse, model.dense_embeddings(ff, sparse),
                               track)
            expect.append((tracking.select_mask(out, 64, 64), out))
            track = track_update(out.main_token_out, model.params)

    passes, outs = [], []
    encode, decode = model.encode_frame, model.decode
    monkeypatch.setattr(model, "encode_frame", lambda f: passes.append(len(f)) or encode(f))
    monkeypatch.setattr(model, "decode", lambda *a: outs.append(decode(*a)) or outs[-1])
    masks = segment_clip(model, clip, expr)
    assert passes == [8, 8, 3]
    for mask, out, (mask_ref, out_ref) in zip(masks, outs, expect, strict=True):
        assert np.array_equal(mask, mask_ref)
        assert np.array_equal(out.iou_scores.data, out_ref.iou_scores.data)
        assert all(np.array_equal(out.mask(i).data, out_ref.mask(i).data) for i in range(4))
    prefix = segment_clip(model, VideoClip(frames=clip.frames[:10]), expr)
    assert all(np.array_equal(a, b) for a, b in zip(prefix, masks[:10], strict=True))


def _varied_clip(frames, size):
    """A toy clip of `frames` frames of size x size, each frame distinct."""
    short, expr, _ = generate_clip(SyntheticSpec(seed=3, frames=min(frames, 5), max_objects=2,
                                                 height=size, width=size))
    return VideoClip(frames=[short.frames[t % 5] * (1.0 - 0.01 * t)
                             for t in range(frames)]), expr


@pytest.mark.parametrize("frames, size", [(10, 64), (3, 256)])
def test_masks_are_the_same_bytes_at_any_pass_size(frames, size):
    model = toy_model(seed=1)
    rng = np.random.default_rng(6)
    for p in model.params.values():   # nonzero adapters and track update
        p.data = p.data + rng.normal(0.0, 0.05, p.data.shape)
    clip, expr = _varied_clip(frames, size)
    masks = segment_clip(model, clip, expr)
    with no_grad():
        sparse = model.sparse_embeddings(model.encode_text(expr))
        for per_pass in (1, 2, 8):
            decoded = _decoded_frames(model, clip.frames, sparse, per_pass)
            other = [select_mask(out, size, size) for out in decoded]
            assert [m.tobytes() for m in other] == [m.tobytes() for m in masks], per_pass


@pytest.mark.parametrize("size, frames, passes", [
    (64, 10, [8, 2]), (128, 5, [2, 2, 1]), (256, 2, [1, 1])])
def test_the_pass_size_is_the_frames_that_fit_in_the_patch_budget(monkeypatch, size, frames,
                                                                   passes):
    model = toy_model()
    clip, expr = _varied_clip(frames, size)
    sizes, encode = [], model.encode_frame
    monkeypatch.setattr(model, "encode_frame", lambda f: sizes.append(len(f)) or encode(f))
    segment_clip(model, clip, expr)
    assert sizes == passes


def test_a_long_clip_of_large_frames_peaks_near_one_frame():
    # from 256 x 256 a pass holds one frame, so the clip's length adds only
    # its masks to the peak, not 7 more frames' attention scores
    model = toy_model()
    clip, expr = _varied_clip(8, 256)
    segment_clip(model, VideoClip(frames=clip.frames[:1]), expr)   # fill the resize caches
    peaks = []
    for n in (1, 8):
        gc.collect()
        tracemalloc.start()
        try:
            segment_clip(model, VideoClip(frames=clip.frames[:n]), expr)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.25 * peaks[0]


@pytest.mark.parametrize("first, odd", [((64, 64), (128, 64)), ((128, 64), (64, 64))],
                         ids=["larger-odd-frame", "smaller-odd-frame"])
@pytest.mark.parametrize("before", [1, 8], ids=["same-pass", "new-pass"])
def test_a_clip_whose_frames_differ_in_size_is_refused(first, odd, before):
    # the odd frame shares the first frame's pass, or (before = 8) starts a
    # pass of its own in segment_clip; clip_loss runs one frame per pass
    model = toy_model()
    rng = np.random.default_rng(0)
    frames = [rng.random((3, *first)) for _ in range(before)] + [rng.random((3, *odd))]
    gts = [np.zeros(f.shape[1:], np.uint8) for f in frames]
    expr = toy_clip(frames=1)[1]
    with pytest.raises(DimensionError, match="the frames of a clip must share one size"):
        segment_clip(model, VideoClip(frames=frames), expr)
    with pytest.raises(DimensionError, match="the frames of a clip must share one size"):
        clip_loss(model, frames, expr, gts, LossConfig())


def test_frame1_independent_of_itm_params():
    a = toy_model(itm=True)
    b = toy_model(itm=False)
    clip, expr, _ = toy_clip(frames=2)
    ma = segment_clip(a, clip, expr)
    mb = segment_clip(b, clip, expr)
    assert np.array_equal(ma[0], mb[0])


def test_track_changes_later_frames_with_nonzero_itm():
    model = toy_model(itm=True)
    rng = np.random.default_rng(5)
    model.params["itm.fc2.weight"].data = rng.normal(size=(32, 32)) * 0.5
    clip, expr, _ = toy_clip(frames=2)
    with_track = segment_clip(model, clip, expr)

    model_no = toy_model(itm=False)
    for name, p in model_no.params.items():
        p.data = model.params[name].data.copy()
    without = segment_clip(model_no, clip, expr)
    text = model.encode_text(expr)
    sp = model.sparse_embeddings(text)
    ff0, ff = model.encode_frame(clip.frames[0]), model.encode_frame(clip.frames[1])
    out0 = model.decode(ff0.final, ff0.grid, sp, model.dense_embeddings(ff0, sp), None)
    out_t = model.decode(ff.final, ff.grid, sp, model.dense_embeddings(ff, sp),
                         track_update(out0.main_token_out, model.params))
    out_n = model.decode(ff.final, ff.grid, sp, model.dense_embeddings(ff, sp), None)
    assert not np.array_equal(out_t.mask(0).data, out_n.mask(0).data)


def test_train_step_respects_freezing():
    model = toy_model()
    clip, expr, gts = toy_clip()
    frozen, trainable = model.partition()
    before = {n: model.params[n].data.copy() for n in model.params}
    opt = AdamW(model.trainable_params(), default_lrs())
    train_step([(clip.frames[:3], expr, gts[:3])], model, opt, LossConfig())
    for n in frozen:
        assert np.array_equal(model.params[n].data, before[n]), n
    assert any(not np.array_equal(model.params[n].data, before[n])
               for n in trainable if ".adapter" in n)


def test_train_step_default_frame_count_is_three():
    from refvos.config import TrainSection
    assert TrainSection().n_frames == 3


def test_gradient_flows_across_frames_through_track():
    # central-difference probe on an ITM parameter: the only path from ITM
    # weights to the loss runs through the frame-2 decode
    model = toy_model()
    # zero-init FFN2 would give FFN1 an exactly zero gradient; perturb it
    rng = np.random.default_rng(6)
    model.params["itm.fc2.weight"].data = rng.normal(size=(32, 32)) * 0.1
    clip, expr, gts = toy_clip(frames=2)
    cfg = LossConfig()

    loss, _ = clip_loss(model, clip.frames[:2], expr, gts[:2], cfg)
    for p in model.params.values():
        p.grad = None
    loss.backward()
    g = model.params["itm.fc1.weight"].grad
    assert g is not None and np.abs(g).max() > 0

    p = model.params["itm.fc1.weight"]
    i, j = np.unravel_index(np.abs(g).argmax(), g.shape)
    eps = 1e-5
    orig = p.data[i, j]
    p.data[i, j] = orig + eps
    lp = float(clip_loss(model, clip.frames[:2], expr, gts[:2], cfg)[0].data)
    p.data[i, j] = orig - eps
    lm = float(clip_loss(model, clip.frames[:2], expr, gts[:2], cfg)[0].data)
    p.data[i, j] = orig
    fd = (lp - lm) / (2 * eps)
    assert abs(fd - g[i, j]) / max(1.0, abs(fd), abs(g[i, j])) < 1e-4


def test_detach_track_blocks_cross_frame_gradient():
    model = toy_model()
    clip, expr, gts = toy_clip(frames=2)
    loss, _ = clip_loss(model, clip.frames[:2], expr, gts[:2], LossConfig(),
                        detach_track=True)
    for p in model.params.values():
        p.grad = None
    loss.backward()
    g = model.params["itm.fc1.weight"].grad
    assert g is None or np.abs(g).max() == 0


# trainable parameters that no loss reaches: the mask heads clip_loss does not
# supervise (ROADMAP item 1) and the i2t layer norms decode never reads
UNTRAINED = {f"decoder.hyper{i}.fc{j}.{k}" for i in (1, 2, 3) for j in (1, 2, 3)
             for k in ("weight", "bias")} | \
            {f"decoder.layer{i}.ln_i2t.{k}" for i in (0, 1) for k in ("gamma", "beta")}
ITM = {f"itm.{name}" for name in ("fc1.weight", "fc1.bias", "fc2.weight", "fc2.bias",
                                  "ln.gamma", "ln.beta")}


@pytest.mark.parametrize("ablation, detach", [
    pytest.param({}, False, id="toy"), pytest.param({}, True, id="detach_track"),
    *[pytest.param(off, False, id="-".join(f"no_{k}" for k in off))
      for off in ({"hda": False}, {"hda": False, "da": False}, {"itm": False},
                  {"cross_modal_mlp": False}, {"adapter": False},
                  {"include_sentence_token": False})]])
def test_every_trainable_parameter_gets_a_gradient_but_the_named_ones(ablation, detach):
    model = toy_model(seed=1, **ablation)
    clip, expr, gts = toy_clip(frames=3)
    loss, _ = clip_loss(model, clip.frames, expr, gts, LossConfig(), detach_track=detach)
    loss.backward()
    untrained = {n for n, p in model.trainable_params().items() if p.grad is None}
    # a detached track token cuts the ITM's output off from every later loss
    assert untrained == UNTRAINED | (ITM if detach else set())


def test_a_da_only_model_holds_the_full_models_values_minus_the_mid_levels():
    full, da_only = toy_model(), toy_model(hda=False)
    mids = {f"hda.{layer}.{k}" for i in (1, 2, 3) for layer in (f"da{i}.conv", f"reduce{i}")
            for k in ("weight", "bias")}
    assert set(da_only.params) == set(full.params) - mids and len(mids) == 12
    for name, p in da_only.params.items():
        assert p.data.tobytes() == full.params[name].data.tobytes(), name


def test_sample_training_frames_sorted():
    rng = np.random.default_rng(0)
    frames = list(range(10))
    gts = list(range(10, 20))
    for _ in range(20):
        fs, gs = sample_training_frames(frames, gts, 3, rng)
        assert fs == sorted(fs)
        assert [g - 10 for g in gs] == fs
        assert len(set(fs)) == 3


def test_optimizer_learning_rate_introspection():
    model = toy_model()
    opt = AdamW(model.trainable_params(), default_lrs())
    assert opt.learning_rate("cmm.fc1.weight") == 1e-4
    assert opt.learning_rate("hda.da0.conv.weight") == 1e-4
    assert opt.learning_rate("decoder.token.main") == 1e-6
    assert opt.learning_rate("encoder.block1.adapter1.down.weight") == 1e-5
    assert opt.learning_rate("itm.fc1.weight") == 1e-4


def test_checkpoint_round_trip(tmp_path):
    from refvos.io import load_checkpoint, save_checkpoint
    model = toy_model()
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model.state_arrays())
    arrays = load_checkpoint(path)
    assert set(arrays) == set(model.params)
    for n, arr in arrays.items():
        assert np.allclose(arr, model.params[n].data.astype(np.float32))
    model.load_state(arrays)


def test_model_reconstruction_from_checkpoint(tmp_path):
    from refvos.io import load_checkpoint, save_checkpoint
    from refvos.model import model_from_checkpoint
    # flags the parameter shapes cannot reveal, and others away from their defaults
    model = toy_model(seed=4, include_sentence_token=False, itm=False,
                      cross_modal_mlp=False, mlp_ratio=3, vocab_size=64)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model.checkpoint_arrays())
    rebuilt = model_from_checkpoint(load_checkpoint(path))
    assert rebuilt.cfg == model.cfg
    clip, expr, _ = toy_clip(frames=2)
    model.load_state(load_checkpoint(path))   # same float32 rounding on both sides
    a = segment_clip(model, clip, expr)
    b = segment_clip(rebuilt, clip, expr)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_graphs_are_freed_without_the_cyclic_collector():
    # with the collector off, a graph that only the collector could free
    # would end up in gc.garbage at the explicit collect below
    model = toy_model()
    clip, expr, gts = toy_clip()
    opt = AdamW(model.trainable_params(), default_lrs())
    gc.collect()
    enabled, flags = gc.isenabled(), gc.get_debug()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        train_step([(clip.frames[:3], expr, gts[:3])], model, opt, LossConfig())
        segment_clip(model, clip, expr)
        gc.collect()
        leaked = sum(isinstance(o, Tensor) for o in gc.garbage)
    finally:
        gc.garbage.clear()
        gc.set_debug(flags)
        if enabled:
            gc.enable()
    assert leaked == 0


@pytest.mark.parametrize("enabled", [True, False])
def test_train_step_pauses_the_collector_and_restores_its_state(enabled):
    model = toy_model()
    clip, expr, gts = toy_clip()
    opt = AdamW(model.trainable_params(), default_lrs())
    seen = []
    step = opt.step
    opt.step = lambda: (seen.append(gc.isenabled()), step())
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        train_step([(clip.frames[:2], expr, gts[:2])], model, opt, LossConfig())
        assert seen == [False] and gc.isenabled() == enabled
        with pytest.raises(ValueError, match="ground-truth"):
            train_step([(clip.frames[:2], expr, gts[:1])], model, opt, LossConfig())
        assert gc.isenabled() == enabled
    finally:
        (gc.enable if was else gc.disable)()


def _count_ops(monkeypatch, run):
    """The number of op outputs `run` makes, by dtype (a Counter)."""
    from refvos import autodiff
    make, count = autodiff._make, collections.Counter()

    def counting(data, parents, op):
        count[data.dtype] += 1
        return make(data, parents, op)

    with monkeypatch.context() as m:
        m.setattr(autodiff, "_make", counting)
        run()
    return count


def test_op_counts_of_a_toy_train_step_and_a_long_toy_clip(monkeypatch):
    # exact counts: an upper bound alone also passes when ops bypass the
    # patched _make and none are counted
    model = toy_model()
    clip, expr, gts = toy_clip(frames=5)
    opt = AdamW(model.trainable_params(), default_lrs())
    step = lambda: train_step([(clip.frames[:3], expr, gts[:3])], model, opt, LossConfig())
    step()
    assert _count_ops(monkeypatch, step).total() == 475
    long_clip = VideoClip(frames=[clip.frames[i] for i in [0, 1, 2, 3, 4, 3, 2, 1] * 3])
    assert _count_ops(monkeypatch, lambda: segment_clip(model, long_clip, expr)).total() == 1955


def test_scan_counts_of_a_toy_train_step_and_a_long_toy_clip(monkeypatch):
    # a value is scanned where a finite input can first turn it non-finite:
    # not q and the weighted sum inside attention, not the output of sigmoid
    # or softmax, not the cached tables or the word rows
    from refvos import autodiff
    model = toy_model()
    clip, expr, gts = toy_clip(frames=5)
    opt = AdamW(model.trainable_params(), default_lrs())
    step = lambda: train_step([(clip.frames[:3], expr, gts[:3])], model, opt, LossConfig())
    step()
    long_clip = VideoClip(frames=[clip.frames[i] for i in [0, 1, 2, 3, 4, 3, 2, 1] * 3])
    counts = []
    for run in (step, lambda: segment_clip(model, long_clip, expr)):
        scans, check = [], autodiff._check_finite
        counting = lambda data, op: (scans.append(op), check(data, op))
        with monkeypatch.context() as m:
            m.setattr(autodiff, "_check_finite", counting)
            run()
        counts.append(len(scans))
    assert counts == [421, 1688]


@pytest.mark.parametrize("frames", [1, 3])
def test_the_track_update_runs_between_frames_only(monkeypatch, frames):
    from refvos import tracking
    model = toy_model()
    clip, expr, gts = toy_clip(frames=frames)
    calls = []
    monkeypatch.setattr(tracking, "track_update",
                        lambda *a: calls.append(1) or track_update(*a))
    segment_clip(model, clip, expr)
    clip_loss(model, clip.frames, expr, gts, LossConfig())
    assert len(calls) == 2 * (frames - 1)


def _op_tensors():
    """Every op output alive in the process."""
    return [o for o in gc.get_objects() if isinstance(o, Tensor) and o._op != "leaf"]


def test_backward_frees_the_graph_it_walks(monkeypatch):
    model = toy_model()
    clip, expr, gts = toy_clip()
    gc.collect()
    before = _op_tensors()   # held, so no id below is reused
    known = {id(t) for t in before}
    losses = []
    counted = _count_ops(monkeypatch, lambda: losses.append(
        clip_loss(model, clip.frames, expr, gts, LossConfig())[0])).total()
    loss = losses.pop()
    # the forward graph is alive: most of the ops this clip_loss made. Those
    # that record no graph (the frozen encoder block) are freed once read.
    assert counted >= len([t for t in _op_tensors() if id(t) not in known]) > counted // 2
    loss.backward()
    assert [t for t in _op_tensors() if id(t) not in known] == [loss]
    assert loss._parents == () and model.params["itm.fc1.weight"].grad is not None


def test_backward_peaks_near_the_forward_graph():
    # the walk frees activations and intermediate gradients as it goes, so
    # it adds little beyond the leaves' gradients to the forward graph
    model = toy_model()
    clip, expr, gts = toy_clip()
    clip_loss(model, clip.frames, expr, gts, LossConfig())   # fill the resize caches
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        loss = clip_loss(model, clip.frames, expr, gts, LossConfig())[0]
        graph = tracemalloc.get_traced_memory()[0] - base
        tracemalloc.reset_peak()
        loss.backward()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * graph


def test_a_second_backward_through_a_graph_raises():
    model = toy_model()
    clip, expr, gts = toy_clip()
    loss = clip_loss(model, clip.frames, expr, gts, LossConfig())[0]
    loss.backward()
    grads = {n: p.grad for n, p in model.params.items()}
    with pytest.raises(RuntimeError, match="backward already ran through this graph"):
        loss.backward()
    assert all(model.params[n].grad is g for n, g in grads.items())


def test_perfbench_tracer_finds_its_entry_points_and_counts_ops(monkeypatch):
    # the tracer patches entry points by name, and counts ops through
    # autodiff._make; a rename would drop per-layer metrics without an error
    from refvos import autodiff
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    monkeypatch.syspath_prepend(os.path.join(root, "perfbench"))
    monkeypatch.delitem(sys.modules, "tracer", raising=False)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)   # write nothing into perfbench/
    tracer = importlib.import_module("tracer").Tracer()
    make = autodiff._make
    tracer.install()
    try:
        assert tracer.absent == set()
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        linear(x, Tensor(np.ones((3, 2)))).sum().backward()
        assert tracer.counts["ops"] == 2 and tracer.calls["autodiff.backward"] == 1
    finally:
        tracer.uninstall()
    assert autodiff._make is make


def test_perfbench_self_test_passes(monkeypatch, tmp_path):
    # the benchmark's output checks agree with its plain-numpy reference on
    # the program, and each fails with one weight perturbed
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    work = os.path.join(root, "perfbench", "work")
    had_work = os.path.exists(work)
    monkeypatch.syspath_prepend(os.path.join(root, "perfbench"))
    for name in ("checks", "weights", "reference"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)   # write nothing into perfbench/
    weights = importlib.import_module("weights")
    monkeypatch.setattr(weights, "WORK", tmp_path)
    monkeypatch.setattr(weights, "WEIGHTS", tmp_path / "weights")
    assert importlib.import_module("checks").self_test() == 0
    assert os.path.exists(work) == had_work

def test_decoded_logits_and_scores_match_the_perfbench_reference(monkeypatch):
    # perfbench compares mask signs only, which a 1% error in HDA's attention
    # scale passes; its plain-numpy forward pass pins the logits themselves
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    monkeypatch.syspath_prepend(os.path.join(root, "perfbench"))
    monkeypatch.delitem(sys.modules, "reference", raising=False)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)   # write nothing into perfbench/
    reference = importlib.import_module("reference")
    model = toy_model(seed=1)
    # noise seeded by name moves the adapters and the ITM off their zero init
    for name, p in model.params.items():
        rng = np.random.default_rng([6, zlib.crc32(name.encode())])
        p.data = p.data + rng.normal(0.0, 0.05, p.data.shape)
    clip, expr, _ = toy_clip(frames=5)
    # two passes, so a track token crosses from one pass to the next
    frames = [clip.frames[t % 5] * (1.0 - 0.01 * t) for t in range(10)]
    cfg = model.cfg
    arch = dict(patch_size=cfg.patch_size, blocks=cfg.blocks, taps=cfg.tap_indices)
    ref = reference.segment({n: p.data for n, p in model.params.items()}, arch, frames, expr.words)
    with no_grad():
        sparse = model.sparse_embeddings(model.encode_text(expr))
        decoded = list(_decoded_frames(model, frames, sparse, 8))
    assert len(decoded) == len(ref) == len(frames)
    for frame, out, (ref_logits, ref_scores) in zip(frames, decoded, ref):
        logits = np.stack([bilinear_resize(out.mask(i), *frame.shape[1:]).data
                           for i in range(4)])
        assert logits.shape == ref_logits.shape
        assert np.max(np.abs(logits - ref_logits)) <= 1e-9
        assert np.max(np.abs(out.iou_scores.data.reshape(-1) - ref_scores)) <= 1e-9


def _composite_attention(q_in, kv_in, params, prefix):
    """encoder.attention as the chain of ops it was before its fusion."""
    from refvos.autodiff import softmax
    q = linear(q_in, params[prefix + "wq.weight"], params[prefix + "wq.bias"])
    k = linear(kv_in, params[prefix + "wk.weight"], params[prefix + "wk.bias"])
    v = linear(kv_in, params[prefix + "wv.weight"], params[prefix + "wv.bias"])
    att = softmax(q @ k.mT * (1.0 / np.sqrt(q.shape[-1])), axis=-1)
    return linear(att @ v, params[prefix + "wo.weight"], params[prefix + "wo.bias"])


def test_clip_loss_gradients_are_bitwise_those_of_composite_attention(monkeypatch):
    # with the track token carried and differentiated through, a decoder's
    # query holds the previous frames' decoders, which read the same k/v
    # weights: those weights must gather their gradients in the chain's order
    from refvos import decoder, encoder
    clip, expr, gts = toy_clip(frames=3)
    grads = []
    for patch in (False, True):
        model = toy_model(seed=1)
        with monkeypatch.context() as m:
            if patch:
                m.setattr(encoder, "attention", _composite_attention)
                m.setattr(decoder, "attention", _composite_attention)
            loss, _ = clip_loss(model, clip.frames, expr, gts, LossConfig())
            loss.backward()
        grads.append({n: p.grad for n, p in model.params.items() if p.grad is not None})
    assert model.cfg.itm and grads[0].keys() == grads[1].keys()
    for name, g in grads[0].items():
        assert g.tobytes() == grads[1][name].tobytes(), name


def _rank3_clip_loss(model, frames, expr, gt_masks, loss_cfg, detach_track=False):
    """clip_loss as it was before training shared the pass loop: each frame
    encoded on its own as a (3, H, W) array, and a track update after every
    frame, the last one included."""
    from refvos.autodiff import bilinear_resize
    from refvos.losses import dice_loss, focal_loss
    from refvos.metrics import region_similarity_J
    sparse = model.sparse_embeddings(model.encode_text(expr))
    track, total = None, None
    for frame, gt in zip(frames, gt_masks):
        _, h, w = frame.shape
        ff = model.encode_frame(frame)
        out = model.decode(ff.final, ff.grid, sparse, model.dense_embeddings(ff, sparse), track)
        logits = bilinear_resize(out.mask(0), h, w)
        gt_arr = np.asarray(gt, dtype=float)
        d = dice_loss(logits.sigmoid(), gt_arr, loss_cfg)
        f = focal_loss(logits, gt_arr, loss_cfg)
        target_iou = region_similarity_J((logits.data > 0).astype(np.uint8), gt_arr > 0)
        iou_term = (out.iou_scores[0, 0] - target_iou) ** 2.0
        frame_loss = loss_cfg.w_dice * d + loss_cfg.w_focal * f + iou_term
        total = frame_loss if total is None else total + frame_loss
        if model.cfg.itm:
            track = track_update(out.main_token_out, model.params)
            track = track.detach() if detach_track else track
    return total


@pytest.mark.parametrize("setting", [
    {}, {"detach_track": True}, {"itm": False}, {"dtype": np.float32}],
    ids=["toy", "detach_track", "no_itm", "float32"])
def test_clip_loss_gradients_are_bitwise_those_of_the_rank3_frame_loop(setting):
    # training runs the pass loop one (1, 3, H, W) frame at a time; every
    # gradient must stay that of per-frame calls on (3, H, W) frames
    setting = dict(setting)
    detach = setting.pop("detach_track", False)
    clip, expr, gts = toy_clip(frames=3)
    rng = np.random.default_rng(6)
    noise, grads, losses = None, [], []
    for run in (lambda *a, **kw: clip_loss(*a, **kw)[0], _rank3_clip_loss):
        model = toy_model(seed=1, **setting)
        if noise is None:   # nonzero adapters and track update
            noise = {n: rng.normal(0.0, 0.05, p.shape) for n, p in model.params.items()}
        for n, p in model.params.items():
            p.data = p.data + noise[n].astype(p.data.dtype)
        loss = run(model, clip.frames, expr, gts, LossConfig(), detach_track=detach)
        loss.backward()
        losses.append(loss.data.tobytes())
        grads.append({n: p.grad for n, p in model.params.items() if p.grad is not None})
    assert losses[0] == losses[1] and grads[0].keys() == grads[1].keys()
    assert ("itm.fc1.weight" in grads[0]) == (model.cfg.itm and not detach)
    for name, g in grads[0].items():
        assert g.dtype == grads[1][name].dtype and g.tobytes() == grads[1][name].tobytes(), name


@pytest.mark.parametrize("ablation", [
    {}, {"itm": False}, {"hda": False}, {"hda": False, "da": False}, {"adapter": False},
    {"cross_modal_mlp": False}, {"include_sentence_token": False}],
    ids=lambda off: "-".join(f"no_{k}" for k in off) or "default")
def test_a_float32_model_trains_and_segments_in_float32_alone(monkeypatch, ablation):
    clip, expr, gts = toy_clip(frames=5)
    totals = []
    for dtype in (np.float64, np.float32):
        model = toy_model(dtype=dtype, **ablation)
        params = model.trainable_params().values()
        opt = AdamW(model.trainable_params(), default_lrs())
        step_ops = _count_ops(monkeypatch, lambda: train_step(
            [(clip.frames[:3], expr, gts[:3])], model, opt, LossConfig()))
        clip_ops = _count_ops(monkeypatch, lambda: segment_clip(model, clip, expr))
        assert set(step_ops) == set(clip_ops) == {np.dtype(dtype)}
        assert {p.grad.dtype for p in params if p.grad is not None} == {np.dtype(dtype)}
        assert {p.data.dtype for p in model.params.values()} == {np.dtype(dtype)}
        totals.append((step_ops.total(), clip_ops.total()))
    assert totals[0] == totals[1]
