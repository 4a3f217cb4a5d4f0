"""Checkpoint files: atomic writes, strict loading, and the model
configuration they record."""

import os

import numpy as np
import pytest

from refvos.cli import EXIT_BAD_CHECKPOINT, EXIT_OK, main
from refvos.io import CHECKPOINT_MAGIC, CheckpointError, load_checkpoint, save_checkpoint
from refvos.model import Model, ModelConfig, model_from_checkpoint

TOY = dict(patch_size=8, blocks=2, token_width=32, channels=32,
           adapter_width=4, hidden=32, text_width=32)

TOY_RUN = "".join(f"model.{k} = {v}\n" for k, v in TOY.items()) + (
    "train.steps = 1\ntrain.seed = 2\ntrain.checkpoint_interval = 1\n"
    "data.clips = 1\ndata.frames = 2\n")


def toy_model(seed=0, **kw):
    return Model(ModelConfig(**dict(TOY, **kw)), seed=seed)


def test_save_checkpoint_is_atomic(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, {"a": np.arange(3.0)})
    first = path.read_bytes()
    # "b" sorts after "a", so the write fails after new bytes of "a" are out
    with pytest.raises(ValueError):
        save_checkpoint(path, {"a": np.arange(1.0, 4.0), "b": "not a number"})
    assert path.read_bytes() == first
    assert os.listdir(tmp_path) == ["m.ckpt"]


def test_load_checkpoint_rejects_repeated_record(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, {"a": np.arange(3.0)})
    raw = path.read_bytes()
    path.write_bytes(raw + raw[len(CHECKPOINT_MAGIC):])
    with pytest.raises(CheckpointError, match="repeated checkpoint record 'a'"):
        load_checkpoint(path)


def test_load_state_rejects_unknown_records():
    model = toy_model()
    arrays = dict(model.state_arrays(), **{"decoder.extra": np.zeros(2)})
    with pytest.raises(CheckpointError, match="unknown records"):
        model.load_state(arrays)


def test_load_state_checks_config_records():
    model = toy_model()
    model.load_state(model.checkpoint_arrays())
    other = toy_model(include_sentence_token=False)
    with pytest.raises(CheckpointError, match="differ from the model's config"):
        model.load_state(other.checkpoint_arrays())


def test_load_state_missing_or_misshaped_parameter():
    model = toy_model()
    before = model.state_arrays()
    arrays = {n: a + 1.0 for n, a in before.items()}
    del arrays["itm.ln.beta"]
    with pytest.raises(CheckpointError, match="missing parameter 'itm.ln.beta'"):
        model.load_state(arrays)
    assert all(model.params[n].data is a for n, a in before.items())   # nothing loaded
    arrays = dict(model.state_arrays(), **{"itm.ln.beta": np.zeros(3)})
    with pytest.raises(CheckpointError, match="shape mismatch for 'itm.ln.beta'"):
        model.load_state(arrays)


@pytest.mark.parametrize("edit, message", [
    (lambda a: [a.pop(n) for n in list(a) if n.startswith("config.")], "no config"),
    (lambda a: a.pop("config.itm"), r"missing \['itm'\]"),
    (lambda a: a.update({"config.nope": np.ones(1, np.float32)}), r"unknown \['nope'\]"),
    (lambda a: a.update({"config.blocks": np.full(1, 2.5, np.float32)}), "'blocks' holds"),
    (lambda a: a.update({"config.itm": np.full(1, 2.0, np.float32)}), "'itm' holds"),
    (lambda a: a.update({"config.hda": np.ones(2, np.float32)}), "'hda' holds"),
    (lambda a: a.update({"config.da": np.zeros(1, np.float32)}), "invalid: model.hda requires"),
    (lambda a: a.update({"config.blocks": np.full(1, 3.0, np.float32)}), "invalid: block_count"),
    (lambda a: a.update({"config.patch_size": np.zeros(1, np.float32)}),
     "invalid: model.patch_size must be >= 1"),
    (lambda a: a.update({"config.vocab_size": np.zeros(1, np.float32)}),
     "invalid: model.vocab_size must be >= 1"),
], ids=["none", "missing", "unknown", "non-integral", "non-bool", "two-values",
        "hda-without-da", "odd-blocks", "zero-patch", "zero-vocab"])
def test_model_from_checkpoint_rejects_bad_config_records(edit, message):
    arrays = toy_model().checkpoint_arrays()
    edit(arrays)
    with pytest.raises(CheckpointError, match=message):
        model_from_checkpoint(arrays)


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A toy run: its config, generated data and train-written checkpoint."""
    root = tmp_path_factory.mktemp("run")
    cfg, data, ckpt = root / "run.cfg", root / "data", root / "m.ckpt"
    cfg.write_text(TOY_RUN)
    assert main(["generate", "--config", str(cfg), "--out", str(data)]) == EXIT_OK
    assert main(["train", "--config", str(cfg), "--out-checkpoint", str(ckpt)]) == EXIT_OK
    return cfg, data, ckpt


def test_checkpoint_without_config_records_exits_3(trained, tmp_path, capsys):
    cfg, data, ckpt = trained
    arrays = {n: a for n, a in load_checkpoint(ckpt).items() if not n.startswith("config.")}
    bare = tmp_path / "bare.ckpt"
    save_checkpoint(bare, arrays)
    capsys.readouterr()
    assert main(["infer", "--checkpoint", str(bare), "--clip", str(data / "clip0000"),
                 "--out", str(tmp_path / "p")]) == EXIT_BAD_CHECKPOINT
    assert "no config.* records" in capsys.readouterr().err
    assert main(["eval", "--config", str(cfg), "--checkpoint", str(bare),
                 "--data", str(data)]) == EXIT_BAD_CHECKPOINT
    assert "no config.* records" in capsys.readouterr().err


def test_truncated_checkpoints_exit_3(trained, tmp_path, capsys):
    _, data, ckpt = trained
    raw = ckpt.read_bytes()
    arrays = load_checkpoint(ckpt)
    names = sorted(arrays)
    # every record boundary, where the loader itself sees a whole file ...
    prefix = tmp_path / "prefix.ckpt"
    cuts = set()
    for k in range(len(names)):
        save_checkpoint(prefix, {n: arrays[n] for n in names[:k]})
        cuts.add(prefix.stat().st_size)
    # ... and cuts inside the magic and the records
    cuts.update(np.random.default_rng(0).choice(len(raw), 100, replace=False).tolist())
    cut = tmp_path / "cut.ckpt"
    for offset in sorted(cuts):
        cut.write_bytes(raw[:offset])
        with pytest.raises(CheckpointError):
            model_from_checkpoint(load_checkpoint(cut))
        assert main(["infer", "--checkpoint", str(cut), "--clip", str(data / "clip0000"),
                     "--out", str(tmp_path / "p")]) == EXIT_BAD_CHECKPOINT, offset
    capsys.readouterr()
