import filecmp
import os

import numpy as np
import pytest

from refvos.cli import (EXIT_BAD_CHECKPOINT, EXIT_FAILURE, EXIT_OK,
                        EXIT_SHAPE_MISMATCH, main)
from refvos.config import load_config, parse_config
from refvos.encoder import ConfigurationError
from refvos.io import save_checkpoint, write_pgm, write_ppm
from refvos.model import Model, ModelConfig


TOY_LINES = """
model.patch_size = 8
model.blocks = 2
model.token_width = 32
model.channels = 32
model.adapter_width = 4
model.hidden = 32
model.text_width = 32
train.steps = {steps}
train.seed = 2
train.lr_cmm = 0.002
train.lr_hda = 0.002
train.lr_decoder = 0.002
train.lr_adapter = 0.0002
train.lr_itm = 0.002
train.checkpoint_interval = {steps}
data.clips = 2
data.frames = 3
"""


TOY_MODEL = dict(patch_size=8, blocks=2, token_width=32, channels=32,
                 adapter_width=4, hidden=32, text_width=32)


def write_toy_config(tmp_path, steps=4, extra=""):
    path = tmp_path / "run.cfg"
    path.write_text(TOY_LINES.format(steps=steps) + extra)
    return str(path)


# ---- config parsing ---------------------------------------------------------

def test_parse_defaults_and_overrides():
    cfg = parse_config("train.steps = 7\nmodel.hda = false\nmodel.da = false\n")
    assert cfg.train.steps == 7
    assert cfg.model.hda is False and cfg.model.da is False
    assert cfg.model.channels == 256
    assert cfg.train.lr_decoder == 1e-6


def test_parse_comments_and_blank_lines():
    cfg = parse_config("# a comment\n\ntrain.seed = 5\n")
    assert cfg.train.seed == 5


def test_parse_rejects_bad_lines():
    with pytest.raises(ConfigurationError, match="line 1"):
        parse_config("nonsense\n")
    with pytest.raises(ConfigurationError, match="unknown section"):
        parse_config("nope.steps = 3\n")
    with pytest.raises(ConfigurationError, match="unknown key"):
        parse_config("train.nope = 3\n")
    with pytest.raises(ConfigurationError, match="boolean"):
        parse_config("model.itm = yes\n")
    with pytest.raises(ConfigurationError, match="model.patch_size must be >= 1"):
        parse_config("model.patch_size = 0\n")
    with pytest.raises(ConfigurationError, match="model.vocab_size must be >= 1"):
        parse_config("model.vocab_size = 0\n")
    with pytest.raises(ConfigurationError, match="line 2: bad value for 'model.blocks'"):
        parse_config("train.seed = 1\nmodel.blocks = two\n")
    with pytest.raises(ConfigurationError, match="line 1: bad value for 'train.lr_cmm'"):
        parse_config("train.lr_cmm = fast\n")
    for bad in ("nan", "inf", "-inf"):
        with pytest.raises(ConfigurationError, match="train.lr_hda must be finite"):
            parse_config(f"train.lr_hda = {bad}\n")
    for key, bad in (("train.weight_decay", "nan"), ("train.w_dice", "inf"),
                     ("train.focal_gamma", "nan"), ("train.dice_smooth", "inf"),
                     ("eval.tolerance_px", "nan")):
        with pytest.raises(ConfigurationError, match=f"line 2: bad value for '{key}': "
                                                     f"{key} must be finite, got {bad}"):
            parse_config(f"train.seed = 1\n{key} = {bad}\n")


@pytest.mark.parametrize("key", ["patch_size", "vocab_size"])
def test_train_zero_model_size_exits_4(tmp_path, capsys, key):
    cfg = write_toy_config(tmp_path, extra=f"model.{key} = 0\n")
    code = main(["train", "--config", cfg, "--out-checkpoint", str(tmp_path / "m.ckpt")])
    assert code == EXIT_SHAPE_MISMATCH
    assert f"model.{key} must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("line, message", [
    ("model.blocks = two", "line 19: bad value for 'model.blocks'"),
    ("train.lr_cmm = nan", "train.lr_cmm must be finite"),
    ("train.w_dice = inf", "line 19: bad value for 'train.w_dice': train.w_dice must be finite"),
    ("train.focal_alpha = 1.5", "train.focal_alpha must lie in (0, 1)"),
    ("train.w_dice = -1", "train.w_dice must be >= 0"),
    ("train.checkpoint_interval = 0", "train.checkpoint_interval must be >= 1"),
    ("train.steps = 0", "train.steps must be >= 1"),
    ("data.clips = 0", "data.clips must be >= 1"),
    ("data.height = 16", "data.height must be >= 32"),
    ("data.max_objects = 5", "data.max_objects must lie in min_objects..4"),
])
def test_train_bad_value_exits_4_before_step_1(tmp_path, capsys, line, message):
    cfg = write_toy_config(tmp_path, extra=line + "\n")
    ckpt = tmp_path / "m.ckpt"
    assert main(["train", "--config", cfg, "--out-checkpoint", str(ckpt)]) == EXIT_SHAPE_MISMATCH
    out, err = capsys.readouterr()
    assert message in err
    assert "step=" not in out
    assert not ckpt.exists()


def test_train_zero_steps_keeps_existing_checkpoint(tmp_path, capsys):
    cfg = write_toy_config(tmp_path, extra="train.steps = 0\n")
    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(ckpt, Model(ModelConfig(**TOY_MODEL), seed=2).checkpoint_arrays())
    before = ckpt.read_bytes()
    assert main(["train", "--config", cfg, "--out-checkpoint", str(ckpt)]) == EXIT_SHAPE_MISMATCH
    out, err = capsys.readouterr()
    assert "train.steps must be >= 1" in err
    assert "J=" not in out
    assert ckpt.read_bytes() == before


def test_validate_hda_requires_da():
    with pytest.raises(ConfigurationError, match="hda"):
        parse_config("model.da = false\n")


def test_load_config(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("eval.tolerance_px = 2\n")
    assert load_config(path).eval.tolerance_px == 2.0


# ---- generate ---------------------------------------------------------------

def test_generate_writes_layout(tmp_path, capsys):
    cfg = write_toy_config(tmp_path)
    out = tmp_path / "data"
    assert main(["generate", "--config", cfg, "--out", str(out)]) == EXIT_OK
    assert "wrote 2 clips" in capsys.readouterr().out
    for k in range(2):
        clip = out / f"clip{k:04d}"
        assert sorted(os.listdir(clip / "frames")) == [f"{t:05d}.ppm" for t in range(3)]
        assert sorted(os.listdir(clip / "masks")) == [f"{t:05d}.pgm" for t in range(3)]
        assert (clip / "expression.txt").read_text().startswith("the ")


def test_generate_byte_identical_reruns(tmp_path):
    cfg = write_toy_config(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    main(["generate", "--config", cfg, "--out", str(a)])
    main(["generate", "--config", cfg, "--out", str(b)])
    for root, _, names in os.walk(a):
        rel = os.path.relpath(root, a)
        for name in names:
            assert filecmp.cmp(os.path.join(root, name),
                               os.path.join(b, rel, name), shallow=False)


def test_generate_unwritable_dir_exits_one(tmp_path):
    cfg = write_toy_config(tmp_path)
    blocked = tmp_path / "blocked"
    blocked.write_text("a file, not a directory")
    assert main(["generate", "--config", cfg, "--out", str(blocked / "x")]) == EXIT_FAILURE


def test_generate_impossible_long_clips_exits_one(tmp_path, capsys):
    # most seeds cannot keep an object inside its cell for 24 frames
    cfg = write_toy_config(tmp_path, extra="data.frames = 24\ndata.clips = 8\n")
    assert main(["generate", "--config", cfg, "--out", str(tmp_path / "d")]) == EXIT_FAILURE
    assert "error: object cannot stay inside its cell" in capsys.readouterr().err


def test_generate_small_canvas_exits_4(tmp_path, capsys):
    cfg = write_toy_config(tmp_path, extra="data.height = 16\n")
    out = tmp_path / "data"
    assert main(["generate", "--config", cfg, "--out", str(out)]) == EXIT_SHAPE_MISMATCH
    assert "data.height must be >= 32" in capsys.readouterr().err
    assert not out.exists()


# ---- train / eval / infer ---------------------------------------------------

def test_train_log_format_and_checkpoint(tmp_path, capsys):
    cfg = write_toy_config(tmp_path, steps=2)
    ckpt = tmp_path / "m.ckpt"
    assert main(["train", "--config", cfg, "--out-checkpoint", str(ckpt)]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    for k, line in enumerate(lines[:2], start=1):
        parts = line.split()
        assert parts[0] == f"step={k}"
        assert [p.split("=")[0] for p in parts] == ["step", "dice", "focal", "iou", "total"]
        float(parts[4].split("=")[1])
    assert lines[2].startswith("J=") and " F=" in lines[2] and " JF=" in lines[2]
    assert ckpt.read_bytes().startswith(b"REFSAM1\n")


def test_eval_checkpoint_matches_training_validation(tmp_path, capsys):
    cfg = write_toy_config(tmp_path, steps=2)
    data = tmp_path / "data"
    ckpt = tmp_path / "m.ckpt"
    main(["generate", "--config", cfg, "--out", str(data)])
    main(["train", "--config", cfg, "--out-checkpoint", str(ckpt)])
    val_line = capsys.readouterr().out.strip().splitlines()[-1]
    assert main(["eval", "--config", cfg, "--checkpoint", str(ckpt),
                 "--data", str(data)]) == EXIT_OK
    assert capsys.readouterr().out.strip() == val_line


def test_eval_checkpoint_matches_training_validation_quickstart(tmp_path, capsys):
    # the README quickstart config at 20 steps: validating on float frames
    # instead of the 8-bit frames eval reads printed F=0.0358 against 0.0357
    path = tmp_path / "run.cfg"
    path.write_text("".join(f"model.{k} = {v}\n" for k, v in TOY_MODEL.items())
                    + "train.steps = 20\ndata.clips = 4\n")
    data, ckpt = tmp_path / "data", tmp_path / "m.ckpt"
    main(["generate", "--config", str(path), "--out", str(data)])
    main(["train", "--config", str(path), "--out-checkpoint", str(ckpt)])
    val_line = capsys.readouterr().out.strip().splitlines()[-1]
    assert main(["eval", "--config", str(path), "--checkpoint", str(ckpt),
                 "--data", str(data)]) == EXIT_OK
    assert capsys.readouterr().out.strip() == val_line


def test_eval_predictions_equal_gt_scores_one(tmp_path, capsys):
    cfg = write_toy_config(tmp_path)
    data = tmp_path / "data"
    main(["generate", "--config", cfg, "--out", str(data)])
    preds = tmp_path / "preds"
    for clip in sorted(os.listdir(data)):
        os.makedirs(preds / clip)
        for name in os.listdir(data / clip / "masks"):
            (preds / clip / name).write_bytes(
                (data / clip / "masks" / name).read_bytes())
    capsys.readouterr()
    assert main(["eval", "--config", cfg, "--data", str(data),
                 "--predictions", str(preds)]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "J=1.0000 F=1.0000 JF=1.0000"


def test_eval_without_checkpoint_or_predictions_fails(tmp_path):
    cfg = write_toy_config(tmp_path)
    data = tmp_path / "data"
    main(["generate", "--config", cfg, "--out", str(data)])
    assert main(["eval", "--config", cfg, "--data", str(data)]) == EXIT_FAILURE


def test_eval_corrupt_checkpoint_exit_code(tmp_path):
    cfg = write_toy_config(tmp_path)
    data = tmp_path / "data"
    main(["generate", "--config", cfg, "--out", str(data)])
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"NOTACKPT\x00\x01")
    assert main(["eval", "--config", cfg, "--checkpoint", str(bad),
                 "--data", str(data)]) == EXIT_BAD_CHECKPOINT


def test_infer_then_eval_reproduces_validation(tmp_path, capsys):
    cfg = write_toy_config(tmp_path, steps=2)
    data = tmp_path / "data"
    ckpt = tmp_path / "m.ckpt"
    main(["generate", "--config", cfg, "--out", str(data)])
    main(["train", "--config", cfg, "--out-checkpoint", str(ckpt)])
    val_line = capsys.readouterr().out.strip().splitlines()[-1]
    preds = tmp_path / "preds"
    for clip in sorted(os.listdir(data)):
        assert main(["infer", "--checkpoint", str(ckpt),
                     "--clip", str(data / clip),
                     "--out", str(preds / clip)]) == EXIT_OK
    capsys.readouterr()
    main(["eval", "--config", cfg, "--data", str(data), "--predictions", str(preds)])
    assert capsys.readouterr().out.strip() == val_line


def test_infer_missing_token_exit_code(tmp_path, capsys):
    cfg = write_toy_config(tmp_path, steps=1)
    data = tmp_path / "data"
    ckpt = tmp_path / "m.ckpt"
    main(["generate", "--config", cfg, "--out", str(data)])
    main(["train", "--config", cfg, "--out-checkpoint", str(ckpt)])
    capsys.readouterr()
    # every token hashes into the vocabulary, so no token is missing;
    # an empty expression is a usage error surfaced as EXIT_FAILURE
    code = main(["infer", "--checkpoint", str(ckpt),
                 "--clip", str(data / "clip0000"), "--expr", " "])
    assert code == EXIT_FAILURE


def _empty_clip(clip):
    for sub in ("frames", "masks"):
        for name in os.listdir(clip / sub):
            os.remove(clip / sub / name)


def _mixed_size_frames(clip):
    write_ppm(clip / "frames" / "00001.ppm", np.full((3, 32, 32), 0.5))


def _missing_mask(clip):
    os.remove(clip / "masks" / "00002.pgm")


def _small_mask(clip):
    write_pgm(clip / "masks" / "00001.pgm", np.zeros((32, 32), np.uint8))


@pytest.mark.parametrize("damage, command", [
    (_empty_clip, "eval"), (_mixed_size_frames, "infer"), (_missing_mask, "train"),
    (_small_mask, "overlay"),
], ids=["empty-eval", "mixed-sizes-infer", "missing-mask-train", "small-mask-overlay"])
def test_malformed_clip_exits_4(tmp_path, capsys, damage, command):
    data = tmp_path / "data"   # one clip, so train samples the damaged one
    cfg = write_toy_config(tmp_path, steps=1, extra=f"data.clips = 1\ndata.root = {data}\n")
    main(["generate", "--config", cfg, "--out", str(data)])
    damage(data / "clip0000")
    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(ckpt, Model(ModelConfig(**TOY_MODEL), seed=2).checkpoint_arrays())
    argv = {"eval": ["eval", "--config", cfg, "--checkpoint", str(ckpt), "--data", str(data)],
            "infer": ["infer", "--checkpoint", str(ckpt), "--clip", str(data / "clip0000"),
                      "--out", str(tmp_path / "preds")],
            "train": ["train", "--config", cfg, "--out-checkpoint", str(ckpt)],
            "overlay": ["overlay", "--clip", str(data / "clip0000"),
                        "--masks", str(data / "clip0000" / "masks"),
                        "--out", str(tmp_path / "vis")]}[command]
    capsys.readouterr()
    assert main(argv) == EXIT_SHAPE_MISMATCH
    assert capsys.readouterr().err.startswith("error: ")


def test_overlay_writes_frames(tmp_path, capsys):
    cfg = write_toy_config(tmp_path)
    data = tmp_path / "data"
    main(["generate", "--config", cfg, "--out", str(data)])
    out = tmp_path / "vis"
    clip = data / "clip0000"
    assert main(["overlay", "--clip", str(clip),
                 "--masks", str(clip / "masks"), "--out", str(out)]) == EXIT_OK
    assert sorted(os.listdir(out)) == [f"{t:05d}.ppm" for t in range(3)]


# ---- ablation toggles -------------------------------------------------------

def test_itm_toggle_frame1_identical_through_cli(tmp_path, capsys):
    cfg = write_toy_config(tmp_path)
    data = tmp_path / "data"
    main(["generate", "--config", cfg, "--out", str(data)])
    ck_on, ck_off = tmp_path / "on.ckpt", tmp_path / "off.ckpt"
    save_checkpoint(ck_on, Model(ModelConfig(**TOY_MODEL, itm=True), seed=2).checkpoint_arrays())
    save_checkpoint(ck_off, Model(ModelConfig(**TOY_MODEL, itm=False), seed=2).checkpoint_arrays())
    p_on, p_off = tmp_path / "pon", tmp_path / "poff"
    main(["infer", "--checkpoint", str(ck_on), "--clip", str(data / "clip0000"),
          "--out", str(p_on)])
    main(["infer", "--checkpoint", str(ck_off), "--clip", str(data / "clip0000"),
          "--out", str(p_off)])
    capsys.readouterr()
    # the track token only exists from frame 2 onward
    assert (p_on / "00000.pgm").read_bytes() == (p_off / "00000.pgm").read_bytes()


def test_ablations_run_without_code_changes(tmp_path, capsys):
    for extra in ("model.itm = false\n",
                  "model.hda = false\n",
                  "model.hda = false\nmodel.da = false\n",
                  "model.adapter = false\n",
                  "model.cross_modal_mlp = false\n",
                  "train.detach_track = true\n"):
        sub = tmp_path / extra.replace(" ", "").replace("\n", "_").replace(".", "-")
        sub.mkdir()
        cfg = write_toy_config(sub, steps=1, extra=extra)
        ckpt = sub / "m.ckpt"
        assert main(["train", "--config", cfg, "--out-checkpoint", str(ckpt)]) == EXIT_OK
        assert ckpt.exists()
        capsys.readouterr()
