import filecmp
import os
import shutil
import subprocess
import sys
import warnings

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import refvos
from refvos import cli
from refvos.cli import (EXIT_BAD_CHECKPOINT, EXIT_FAILURE, EXIT_OK,
                        EXIT_SHAPE_MISMATCH, main)
from refvos.config import RunConfig, load_config, parse_config
from refvos.data import SyntheticSpec, generate_clip, write_clip
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


@pytest.mark.parametrize("key", ["lr_cmm", "lr_hda", "lr_decoder", "lr_adapter", "lr_itm"])
def test_every_learning_rate_must_be_finite_and_positive(key):
    for bad in ("nan", "inf", "-inf"):
        with pytest.raises(ConfigurationError, match=f"train.{key} must be finite"):
            parse_config(f"train.{key} = {bad}\n")
    for bad in ("0", "-0.5"):
        with pytest.raises(ConfigurationError,
                           match=f"^train.{key} must be finite and > 0, got {float(bad)}$"):
            parse_config(f"train.{key} = {bad}\n")
    assert parse_config(f"train.{key} = 0.25\n").learning_rates()[key[3:]] == 0.25


def test_learning_rates_are_the_lr_fields_by_group():
    assert RunConfig().learning_rates() == {"cmm": 1e-4, "hda": 1e-4, "decoder": 1e-6,
                                            "adapter": 1e-5, "itm": 1e-4}

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
    for key, bad in (("train.weight_decay", "nan"), ("train.w_dice", "inf"),
                     ("train.focal_gamma", "nan"), ("train.dice_smooth", "inf"),
                     ("eval.tolerance_px", "nan")):
        with pytest.raises(ConfigurationError, match=f"line 2: bad value for '{key}': "
                                                     f"{key} must be finite, got {bad}"):
            parse_config(f"train.seed = 1\n{key} = {bad}\n")


def _default_lines():
    """One 'section.key = value' line per key of every section, each holding
    its default."""
    cfg, lines = RunConfig(), []
    for section in dataclasses.fields(cfg):
        values = getattr(cfg, section.name)
        for f in dataclasses.fields(values):
            value = getattr(values, f.name)
            text = str(value).lower() if isinstance(value, bool) else value
            lines.append(f"{section.name}.{f.name} = {text}")
    return lines


EVERY_KEY = _default_lines()
ODD_VALUES = ["nan", "inf", "-inf", "1e400", "-1e400", "1_0", "1__0", "", "0", "-1", "1.5",
              "1e3", "0x10", "true", "True", "=", ".", "==1", "1.", ".5", "9" * 5000]


def _retyped(lines, index, value):
    key = lines[index].split("=", 1)[0]
    return lines[:index] + [f"{key}= {value}"] + lines[index + 1:]


def _inserted(text, offset, chars):
    return text[:offset] + chars + text[offset:]


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_mutated_config_text_parses_or_raises_configuration_error(data):
    base = "\n".join(EVERY_KEY) + "\n"
    text = data.draw(st.one_of(
        st.tuples(st.integers(0, len(EVERY_KEY) - 1),
                  st.one_of(st.sampled_from(ODD_VALUES),
                            st.text("0123456789.-+e_=n ", max_size=12)))
        .map(lambda edit: "\n".join(_retyped(EVERY_KEY, *edit)) + "\n"),
        st.integers(0, len(base) - 1).map(lambda n: base[:n]),
        st.tuples(st.integers(0, len(base)), st.sampled_from(["=", ".", "==", "..", " = ", "\n"]))
        .map(lambda edit: _inserted(base, *edit))))
    try:
        cfg = parse_config(text)
    except ConfigurationError:
        return
    assert isinstance(cfg, RunConfig)


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
    ("train.seed = -2", "train.seed must be >= 0"),
    ("data.clips = 0", "data.clips must be >= 1"),
    ("data.height = 16", "data.height must be >= 32"),
    ("data.max_objects = 5", "data.max_objects must lie in min_objects..4"),
    ("data.frames = 0", "data.frames must be >= 1"),
    ("data.height = 36", "data.height must be a multiple of model.patch_size (8), got 36"),
    ("data.width = 60", "data.width must be a multiple of model.patch_size (8), got 60"),
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


def test_train_names_the_step_and_keeps_the_checkpoint_when_a_save_overflows(tmp_path, capsys):
    # step 1 leaves finite float64 parameters of about 1e300, which the
    # checkpoint's float32 cast would turn into inf
    path = tmp_path / "run.cfg"
    path.write_text("".join(f"model.{k} = {v}\n" for k, v in TOY_MODEL.items()) +
                    "train.lr_cmm = 1e300\ntrain.lr_hda = 1e300\ntrain.lr_decoder = 1e300\n"
                    "train.checkpoint_interval = 1\ntrain.steps = 3\ndata.clips = 2\n")
    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(ckpt, Model(ModelConfig(**TOY_MODEL), seed=2).checkpoint_arrays())
    before = ckpt.read_bytes()
    code = main(["train", "--config", str(path), "--out-checkpoint", str(ckpt)])
    out, err = capsys.readouterr()
    assert code == EXIT_FAILURE
    assert err.startswith("error: step 1: checkpoint record '") and "not finite in float32" in err
    assert out.startswith("step=1 ") and "step=2" not in out
    assert ckpt.read_bytes() == before
    assert sorted(os.listdir(tmp_path)) == ["m.ckpt", "run.cfg"]


def _failing_toy_run(tmp_path, extra):
    """A toy `train` config of 3 steps with no save before the last step,
    and a checkpoint placed at its output beforehand."""
    path = tmp_path / "run.cfg"
    path.write_text("".join(f"model.{k} = {v}\n" for k, v in TOY_MODEL.items()) + extra +
                    "train.checkpoint_interval = 50\ntrain.steps = 3\ndata.clips = 2\n")
    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(ckpt, Model(ModelConfig(**TOY_MODEL), seed=2).checkpoint_arrays())
    return path, ckpt


# 1e306 overflows the dice backward, 1e305 overflows AdamW's g * g
@pytest.mark.parametrize("w_dice", ["1e306", "1e305"])
def test_train_stops_at_the_step_whose_adamw_update_is_not_finite(tmp_path, capsys, w_dice):
    path, ckpt = _failing_toy_run(tmp_path, f"train.w_dice = {w_dice}\n")
    before = ckpt.read_bytes()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["train", "--config", str(path), "--out-checkpoint", str(ckpt)])
    out, err = capsys.readouterr()
    assert code == EXIT_FAILURE
    assert err.startswith("error: step 1: AdamW update of group '") and err.count("\n") == 1
    assert out == "" and not caught
    assert ckpt.read_bytes() == before


def test_a_failing_train_step_prints_one_stderr_line_and_no_numpy_warning(tmp_path):
    # step 1 leaves parameters of about 1e300; step 2's forward overflows in a matmul
    path, ckpt = _failing_toy_run(
        tmp_path, "train.lr_cmm = 1e300\ntrain.lr_hda = 1e300\ntrain.lr_decoder = 1e300\n")
    before = ckpt.read_bytes()
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(refvos.__file__)))
    run = subprocess.run([sys.executable, "-m", "refvos.cli", "train", "--config", str(path),
                          "--out-checkpoint", str(ckpt)], capture_output=True, text=True, env=env)
    assert run.returncode == EXIT_FAILURE
    assert run.stderr == "error: step 2: non-finite value produced by op 'linear'\n"
    assert run.stdout.startswith("step=1 ") and "step=2" not in run.stdout
    assert ckpt.read_bytes() == before


def test_importing_the_cli_loads_numpy_and_the_standard_library_only():
    # modules that site hooks load at interpreter start are not the import's doing
    code = ("import sys; before = set(sys.modules); import refvos.cli; "
            "print(*sorted({m.partition('.')[0] for m in set(sys.modules) - before}"
            " - sys.stdlib_module_names))")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(refvos.__file__)))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert run.stdout.split() == ["numpy", "refvos"]


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
    # the clips written before the failing one are removed with their folder
    assert sorted(os.listdir(tmp_path)) == ["run.cfg"]


def _tree_bytes(root):
    """Every file under root, by relative path, with its bytes."""
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def test_generate_refuses_a_used_folder_and_leaves_its_bytes(tmp_path, capsys):
    # a second run of fewer, shorter clips once left a mix of both runs
    out = tmp_path / "data"
    main(["generate", "--config", write_toy_config(tmp_path, extra="data.frames = 8\n"),
          "--out", str(out)])
    before = _tree_bytes(out)
    cfg = write_toy_config(tmp_path, extra="data.clips = 1\ndata.frames = 5\ntrain.seed = 9\n")
    capsys.readouterr()
    assert main(["generate", "--config", cfg, "--out", str(out)]) == EXIT_FAILURE
    out_text, err = capsys.readouterr()
    assert out_text == "" and err.startswith(f"error: {out} already holds files")
    assert _tree_bytes(out) == before
    assert sorted(os.listdir(tmp_path)) == ["data", "run.cfg"]
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["generate", "--config", cfg, "--out", str(empty)]) == EXIT_OK
    assert sorted(os.listdir(empty)) == ["clip0000"]


def test_generate_small_canvas_exits_4(tmp_path, capsys):
    cfg = write_toy_config(tmp_path, extra="data.height = 16\n")
    out = tmp_path / "data"
    assert main(["generate", "--config", cfg, "--out", str(out)]) == EXIT_SHAPE_MISMATCH
    assert "data.height must be >= 32" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("side, size", [("height", 36), ("width", 60)])
def test_generate_refuses_frames_off_the_patch_grid(tmp_path, capsys, side, size):
    """Frames the model cannot cut into whole patches are refused before
    any clip is written, naming the key."""
    cfg = write_toy_config(tmp_path, extra=f"data.{side} = {size}\n")
    out = tmp_path / "data"
    assert main(["generate", "--config", cfg, "--out", str(out)]) == EXIT_SHAPE_MISMATCH
    assert capsys.readouterr().err == (f"error: data.{side} must be a multiple of "
                                       f"model.patch_size (8), got {size}\n")
    assert not out.exists()


def test_clips_read_from_disk_need_not_match_the_data_sizes(tmp_path, capsys):
    """data.height and data.width size generated clips only, so a run that
    reads 48x48 clips from data.root trains at model.patch_size = 12 although
    the default data.height, 64, is not a multiple of 12."""
    data = tmp_path / "data"
    cfg = write_toy_config(tmp_path, extra="data.height = 48\ndata.width = 48\n")
    assert main(["generate", "--config", cfg, "--out", str(data)]) == 0
    cfg = write_toy_config(tmp_path, steps=1,
                           extra=f"model.patch_size = 12\ndata.root = {data}\n")
    ckpt = tmp_path / "m.ckpt"
    assert main(["train", "--config", cfg, "--out-checkpoint", str(ckpt)]) == 0
    assert "step=1 " in capsys.readouterr().out


def test_generate_negative_seed_exits_4_before_writing(tmp_path, capsys):
    cfg = write_toy_config(tmp_path, extra="train.seed = -1001\n")
    out = tmp_path / "data"
    assert main(["generate", "--config", cfg, "--out", str(out)]) == EXIT_SHAPE_MISMATCH
    assert "train.seed must be >= 0" in capsys.readouterr().err
    assert not out.exists()


# ---- train / eval / infer ---------------------------------------------------

def test_train_refuses_a_checkpoint_in_a_missing_folder_before_step_1(tmp_path, capsys,
                                                                      monkeypatch):
    # the save at step 10 once failed on a temporary file named after the path
    monkeypatch.chdir(tmp_path)
    cfg = write_toy_config(tmp_path, steps=12, extra="train.checkpoint_interval = 10\n")
    code = main(["train", "--config", cfg, "--out-checkpoint", os.path.join("nodir", "m.ckpt")])
    out, err = capsys.readouterr()
    assert code == EXIT_FAILURE
    assert err == "error: checkpoint folder nodir does not exist\n"
    assert "step=" not in out
    assert sorted(os.listdir(tmp_path)) == ["run.cfg"]


def test_train_refuses_a_data_root_clip_off_the_patch_grid_before_step_1(tmp_path, capsys):
    # such a clip once failed, unnamed, at the first step that drew it
    data = tmp_path / "data"
    assert main(["generate", "--config", write_toy_config(tmp_path), "--out", str(data)]) == 0
    clip, expr, masks = generate_clip(SyntheticSpec(height=60, width=64, frames=3))
    write_clip(str(data / "clip0002"), clip, expr, masks)
    cfg = write_toy_config(tmp_path, extra=f"data.root = {data}\n")
    ckpt = tmp_path / "m.ckpt"
    assert main(["train", "--config", cfg, "--out-checkpoint", str(ckpt)]) == EXIT_SHAPE_MISMATCH
    out, err = capsys.readouterr()
    assert err == (f"error: clip {data / 'clip0002'}: frame dims must be divisible "
                   f"by patch size 8\n")
    assert "step=" not in out
    assert not ckpt.exists()


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
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--config", cfg, "--data", str(data)])
    assert exc.value.code == 2


def test_eval_with_both_checkpoint_and_predictions_exits_2(capsys):
    # a usage error: argparse exits before any of the named files is read
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--config", "absent.cfg", "--data", "absent", "--checkpoint",
              "absent.ckpt", "--predictions", "absent-preds"])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


@pytest.mark.parametrize("damage, message", [
    (lambda pred: os.remove(pred / "00002.pgm"), "preds/clip0000 has 2 masks for 3 frames"),
    (lambda pred: write_pgm(pred / "00001.pgm", np.zeros((32, 32), np.uint8)),
     "preds/clip0000 has masks that differ in size from its frames"),
], ids=["one-mask-short", "wrong-size-mask"])
def test_eval_predictions_that_do_not_fit_the_clip_exit_4(tmp_path, capsys, damage, message):
    cfg = write_toy_config(tmp_path, extra="data.clips = 1\n")
    data, preds = tmp_path / "data", tmp_path / "preds"
    main(["generate", "--config", cfg, "--out", str(data)])
    shutil.copytree(data / "clip0000" / "masks", preds / "clip0000")
    damage(preds / "clip0000")
    capsys.readouterr()
    assert main(["eval", "--config", cfg, "--data", str(data),
                 "--predictions", str(preds)]) == EXIT_SHAPE_MISMATCH
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and message in err


@pytest.mark.parametrize("source", ["--checkpoint", "--predictions"])
def test_eval_reads_and_scores_one_clip_at_a_time(tmp_path, capsys, monkeypatch, source):
    cfg = write_toy_config(tmp_path, extra="data.clips = 3\n")
    data, ckpt, preds = tmp_path / "data", tmp_path / "m.ckpt", tmp_path / "preds"
    main(["generate", "--config", cfg, "--out", str(data)])
    save_checkpoint(ckpt, Model(ModelConfig(**TOY_MODEL), seed=2).checkpoint_arrays())
    for clip in sorted(os.listdir(data)):
        shutil.copytree(data / clip / "masks", preds / clip)
    calls = []
    read, score = cli.read_clip, cli.evaluate_sequence
    monkeypatch.setattr(cli, "read_clip",
                        lambda d: calls.append(("read", os.path.basename(d))) or read(d))
    monkeypatch.setattr(cli, "evaluate_sequence", lambda *a: calls.append(("score",)) or score(*a))
    capsys.readouterr()
    assert main(["eval", "--config", cfg, "--data", str(data),
                 source, str(ckpt if source == "--checkpoint" else preds)]) == EXIT_OK
    assert calls == [c for k in range(3) for c in (("read", f"clip{k:04d}"), ("score",))]
    assert capsys.readouterr().out.startswith("J=")


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
    # so is an expression of more than 32 words, reported in one line
    capsys.readouterr()
    code = main(["infer", "--checkpoint", str(ckpt), "--clip", str(data / "clip0000"),
                 "--expr", " ".join(["red"] * 33), "--out", str(tmp_path / "preds")])
    out, err = capsys.readouterr()
    assert code == EXIT_FAILURE and out == ""
    assert err == "error: referring expression too long\n"
    assert not (tmp_path / "preds").exists()


def test_infer_an_empty_expression_exits_1_and_writes_nothing(tmp_path, capsys):
    cfg = write_toy_config(tmp_path)
    data, ckpt = tmp_path / "data", tmp_path / "m.ckpt"
    main(["generate", "--config", cfg, "--out", str(data)])
    save_checkpoint(ckpt, Model(ModelConfig(**TOY_MODEL), seed=2).checkpoint_arrays())
    capsys.readouterr()
    clip = data / "clip0000"
    assert main(["infer", "--checkpoint", str(ckpt), "--clip", str(clip),
                 "--expr", ""]) == EXIT_FAILURE
    out, err = capsys.readouterr()
    assert out == "" and err == "error: referring expression must contain at least one word\n"
    assert not (clip / "predictions").exists()


def test_a_file_in_frames_that_is_not_a_ppm_is_named_in_the_error(tmp_path, capsys):
    cfg = write_toy_config(tmp_path)
    data, ckpt = tmp_path / "data", tmp_path / "m.ckpt"
    main(["generate", "--config", cfg, "--out", str(data)])
    save_checkpoint(ckpt, Model(ModelConfig(**TOY_MODEL), seed=2).checkpoint_arrays())
    stray = data / "clip0000" / "frames" / ".hidden"
    stray.write_bytes(b"not an image\n")
    capsys.readouterr()
    assert main(["infer", "--checkpoint", str(ckpt), "--clip", str(data / "clip0000"),
                 "--out", str(tmp_path / "preds")]) == EXIT_FAILURE
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {stray}: expected P6 header (byte offset 0)\n"
    assert not (tmp_path / "preds").exists()


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


def _one_frame_of_no_pixels(clip):
    for name in ("00001.ppm", "00002.ppm"):
        os.remove(clip / "frames" / name)
    (clip / "frames" / "00000.ppm").write_bytes(b"P6\n0 0 255\n")


@pytest.mark.parametrize("damage, command, message", [
    (_empty_clip, "eval", "has no frames"),
    (_mixed_size_frames, "infer", "frames of clip"),
    (_missing_mask, "train", "has 2 masks for 3 frames"),
    (_small_mask, "overlay", "clip0000/masks has masks that differ in size from its frames"),
    (_small_mask, "eval", "differ in size from its frames"),
    (_small_mask, "train", "differ in size from its frames"),
    (_missing_mask, "overlay", "clip0000/masks has 2 masks for 3 frames"),
    (_empty_clip, "overlay", "has no frames"),
    (_mixed_size_frames, "overlay", "frames of clip"),
    (_one_frame_of_no_pixels, "infer", "frame has no pixels: its sides are 0 x 0"),
], ids=["empty-eval", "mixed-sizes-infer", "missing-mask-train", "small-mask-overlay",
        "small-mask-eval", "small-mask-train", "missing-mask-overlay", "empty-overlay",
        "mixed-sizes-overlay", "no-pixels-infer"])
def test_malformed_clip_exits_4(tmp_path, capsys, damage, command, message):
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
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    # every input is read and checked before an output folder is made
    assert not (tmp_path / "preds").exists() and not (tmp_path / "vis").exists()


@pytest.mark.parametrize("command", ["eval-checkpoint", "eval-predictions", "train"])
def test_data_directory_without_clip_folders_exits_4(tmp_path, capsys, command):
    data = tmp_path / "data"
    data.mkdir()
    (data / "notes.txt").write_text("a file is not a clip folder\n")
    cfg = write_toy_config(tmp_path, steps=1, extra=f"data.root = {data}\n")
    ckpt, out_ckpt = tmp_path / "m.ckpt", tmp_path / "out.ckpt"
    save_checkpoint(ckpt, Model(ModelConfig(**TOY_MODEL), seed=2).checkpoint_arrays())
    argv = {"eval-checkpoint": ["eval", "--config", cfg, "--checkpoint", str(ckpt),
                                "--data", str(data)],
            "eval-predictions": ["eval", "--config", cfg, "--data", str(data),
                                 "--predictions", str(tmp_path / "preds")],
            "train": ["train", "--config", cfg, "--out-checkpoint", str(out_ckpt)]}[command]
    capsys.readouterr()
    assert main(argv) == EXIT_SHAPE_MISMATCH
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: data directory {data} has no clip folders\n"
    assert not out_ckpt.exists()


# every path flag of every subcommand, with a value that names a real input
_PATH_FLAGS = {
    "generate": {"--config": "run.cfg", "--out": "out"},
    "train": {"--config": "run.cfg", "--out-checkpoint": "out.ckpt"},
    "eval": {"--config": "run.cfg", "--data": "data", "--checkpoint": "m.ckpt"},
    "infer": {"--checkpoint": "m.ckpt", "--clip": "data/clip0000", "--out": "out"},
    "overlay": {"--clip": "data/clip0000", "--masks": "data/clip0000/masks", "--out": "out"},
}


@pytest.mark.parametrize("command, flag", [
    (command, flag) for command, flags in _PATH_FLAGS.items() for flag in flags
] + [("eval", "--predictions")])
def test_an_empty_path_flag_exits_2_before_any_work(tmp_path, capsys, monkeypatch,
                                                    command, flag):
    monkeypatch.chdir(tmp_path)
    cfg = write_toy_config(tmp_path, steps=1)
    main(["generate", "--config", cfg, "--out", "data"])
    save_checkpoint("m.ckpt", Model(ModelConfig(**TOY_MODEL), seed=2).checkpoint_arrays())
    flags = dict(_PATH_FLAGS[command])
    if flag == "--predictions":
        del flags["--checkpoint"]
    flags[flag] = ""
    before = sorted(os.walk(tmp_path))
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main([command, *(x for item in flags.items() for x in item)])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert f"argument {flag}: expected a path, got an empty string" in err
    assert sorted(os.walk(tmp_path)) == before


def test_infer_expr_needs_only_the_frames_folder(tmp_path, capsys):
    cfg = write_toy_config(tmp_path, steps=1)
    data, ckpt = tmp_path / "data", tmp_path / "m.ckpt"
    main(["generate", "--config", cfg, "--out", str(data)])
    main(["train", "--config", cfg, "--out-checkpoint", str(ckpt)])
    frames_only = tmp_path / "frames_only"
    shutil.copytree(data / "clip0000" / "frames", frames_only / "frames")
    for clip, out in ((frames_only, "a"), (data / "clip0000", "b")):
        assert main(["infer", "--checkpoint", str(ckpt), "--clip", str(clip),
                     "--expr", "the red square", "--out", str(tmp_path / out)]) == EXIT_OK
    names = sorted(os.listdir(tmp_path / "a"))
    assert names == [f"{t:05d}.pgm" for t in range(3)]
    assert names == sorted(os.listdir(tmp_path / "b"))
    assert all(filecmp.cmp(tmp_path / "a" / n, tmp_path / "b" / n, shallow=False) for n in names)


def test_infer_lowercases_the_expression_file_as_it_does_expr(tmp_path, capsys):
    cfg = write_toy_config(tmp_path, steps=1)
    data, ckpt = tmp_path / "data", tmp_path / "m.ckpt"
    main(["generate", "--config", cfg, "--out", str(data)])
    save_checkpoint(ckpt, Model(ModelConfig(**TOY_MODEL), seed=2).checkpoint_arrays())
    clip = data / "clip0000"
    (clip / "expression.txt").write_text("The Red Square\n")
    for out, expr in (("a", []), ("b", ["--expr", "the red square"])):
        assert main(["infer", "--checkpoint", str(ckpt), "--clip", str(clip),
                     "--out", str(tmp_path / out)] + expr) == EXIT_OK
    names = sorted(os.listdir(tmp_path / "a"))
    assert names == [f"{t:05d}.pgm" for t in range(3)]
    assert names == sorted(os.listdir(tmp_path / "b"))
    assert all(filecmp.cmp(tmp_path / "a" / n, tmp_path / "b" / n, shallow=False) for n in names)


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
