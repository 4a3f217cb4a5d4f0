"""Checkpoint files: atomic writes, strict loading, and the model
configuration they record."""

import hashlib
import math
import os
import stat
import struct
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from refvos.autodiff import NonFiniteError
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


@pytest.mark.parametrize("options, digest", [
    ({}, "b591cf4ac3e6cb81d444051d77db24055ed1f9c65b667dab7c88e09ef5fce46b"),
    (dict(cross_modal_mlp=False, adapter=False, itm=False, da=False, hda=False),
     "4c3d6361659e94b77d51e2744200b926be8329a1bc55a9686c3f9721440ec333"),
], ids=["toy", "toy-all-off"])
def test_same_seed_parameter_bytes_are_pinned(options, digest):
    """Names, shapes and bytes of a fresh seed-0 model: pins the draw order
    of every parameter."""
    h = hashlib.sha256()
    for name, arr in toy_model(**options).state_arrays().items():
        h.update(f"{name} {arr.shape} {arr.dtype}\n".encode())
        h.update(arr.tobytes())
    assert h.hexdigest() == digest


def test_save_checkpoint_is_atomic(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, {"a": np.arange(3.0)})
    first = path.read_bytes()
    # "b" sorts after "a", so the write fails after new bytes of "a" are out
    with pytest.raises(ValueError):
        save_checkpoint(path, {"a": np.arange(1.0, 4.0), "b": "not a number"})
    assert path.read_bytes() == first
    assert os.listdir(tmp_path) == ["m.ckpt"]


def test_save_checkpoint_refuses_a_value_float32_cannot_hold(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, {"a": np.arange(3.0)})
    first = path.read_bytes()
    # finite in float64, inf once cast to the stored float32
    with pytest.raises(NonFiniteError, match="record 'b' is not finite in float32"):
        save_checkpoint(path, {"a": np.arange(1.0, 4.0), "b": np.array([1.0, 1e300])})
    assert path.read_bytes() == first
    assert os.listdir(tmp_path) == ["m.ckpt"]


def test_load_checkpoint_rejects_repeated_record(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, {"a": np.arange(3.0)})
    raw = path.read_bytes()
    path.write_bytes(raw + raw[len(CHECKPOINT_MAGIC):])
    with pytest.raises(CheckpointError, match="repeated checkpoint record 'a'"):
        load_checkpoint(path)


def test_load_checkpoint_rejects_extents_whose_product_overflows(tmp_path):
    # 65536**4 wraps to 0 in int64
    path = tmp_path / "m.ckpt"
    header = struct.pack("<H", 1) + b"a" + struct.pack("<B4I", 4, *[65536] * 4)
    path.write_bytes(CHECKPOINT_MAGIC + header)
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path)


def test_save_then_load_round_trips_names_shapes_and_bytes(tmp_path):
    rng = np.random.default_rng(0)
    arrays = {"b.weight": rng.normal(size=(3, 4)), "a": np.array([2.5]),
              "empty": np.zeros((2, 0, 3)), "c.é": rng.normal(size=(2, 1, 2, 1)).astype(np.float32)}
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, arrays)
    loaded = load_checkpoint(path)
    assert list(loaded) == sorted(arrays)
    for name, arr in arrays.items():
        assert loaded[name].dtype == np.float32
        assert loaded[name].shape == arr.shape
        assert loaded[name].tobytes() == arr.astype(np.float32).tobytes()


def test_load_checkpoint_holds_each_record_once(tmp_path):
    """Records are read straight into their arrays: no copy of the file, or
    of a record, is held beside them."""
    arrays = {f"r{k}": np.full((256, 256), k, np.float32) for k in range(6)}
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, arrays)
    tracemalloc.start()
    try:
        load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * sum(a.nbytes for a in arrays.values())


def test_a_file_that_ends_inside_a_record_while_read_is_refused(tmp_path, monkeypatch):
    """The file is cut after its size was taken: the read comes up short."""
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, {"a": np.arange(3.0)})
    size = path.stat().st_size
    path.write_bytes(path.read_bytes()[:-4])
    monkeypatch.setattr(os, "fstat",
                        lambda fd: os.stat_result((stat.S_IFREG,) + (0,) * 5 + (size,) + (0,) * 3))
    with pytest.raises(CheckpointError, match=f"at byte {size - 12}: truncated: "
                                              "the file ended inside 'a'"):
        load_checkpoint(path)


def _loaded(path):
    """load_checkpoint(path), or the message of its CheckpointError."""
    try:
        return load_checkpoint(path)
    except CheckpointError as exc:
        return str(exc)


def _loaded_from_a_pipe(pipe, blob):
    """_loaded of the named pipe `pipe` while a thread writes `blob` into it."""
    writer = threading.Thread(target=pipe.write_bytes, args=(blob,), daemon=True)
    writer.start()
    got = _loaded(pipe)
    writer.join(timeout=10)
    return got


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
@pytest.mark.parametrize("cut", [0, 4], ids=["whole", "cut"])
def test_load_checkpoint_reads_a_pipe_as_it_reads_the_file(tmp_path, cut):
    """A pipe (as `--checkpoint <(cat m.ckpt)` passes) reports no size, but
    loads, or is refused with the same message, as the file it carries."""
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, {"a": np.arange(3.0), "b": np.ones((2, 0)), "c": np.eye(2)})
    raw = path.read_bytes()
    path.write_bytes(raw[:len(raw) - cut])
    expect = _loaded(path)
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    got = _loaded_from_a_pipe(pipe, path.read_bytes())
    if isinstance(expect, str):
        assert "truncated" in expect and got == expect
    else:
        assert list(got) == list(expect)
        assert all(got[k].dtype == np.float32 and np.array_equal(got[k], expect[k]) for k in expect)


def _field_starts(raw):
    """Byte offsets of each record's fields (name length, name, rank,
    extents, values), and of each record's end."""
    pos, starts = len(CHECKPOINT_MAGIC), []
    while pos < len(raw):
        (nlen,) = struct.unpack_from("<H", raw, pos)
        rank = raw[pos + 2 + nlen]
        shape = struct.unpack_from(f"<{rank}I", raw, pos + 3 + nlen)
        starts += [pos, pos + 2, pos + 2 + nlen, pos + 3 + nlen, pos + 3 + nlen + 4 * rank]
        pos = starts[-1] + 4 * math.prod(shape)
    return starts + [pos]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_a_checkpoint_cut_anywhere_in_a_record_is_refused_as_truncated_at_the_cut_field(
        tmp_path):
    """Every cut of a file, passed as a file and as a pipe: a cut on a
    record boundary loads the records before it, and any other cut past
    the magic is refused as truncated, at the offset of the field it cut
    (the name length, the name, the rank, the extents or the values)."""
    arrays = {"a": np.arange(3.0), "bb.weight": np.ones((2, 3)), "c.é": np.zeros(1),
              "scalar": np.array(2.0), "long" * 10: np.eye(2), "z": np.zeros((2, 0))}
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, arrays)
    raw = path.read_bytes()
    starts = _field_starts(raw)
    records = starts[::5]   # each record's start, and the end of the file
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    for cut in range(len(CHECKPOINT_MAGIC), len(raw) + 1):
        path.write_bytes(raw[:cut])
        got, from_pipe = _loaded(path), _loaded_from_a_pipe(pipe, raw[:cut])
        if cut in records:
            assert list(got) == list(from_pipe) == sorted(arrays)[:records.index(cut)], cut
            continue
        assert from_pipe == got, cut
        field = max(s for s in starts if s <= cut)
        assert got.startswith(f"malformed checkpoint record at byte {field}: truncated: "), cut
        if field in starts[4::5]:   # the values
            continue
        assert got.endswith("truncated: the file ended inside a record header"), cut


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


def test_load_state_rejects_a_non_finite_record_and_loads_nothing():
    model = toy_model()
    before = {n: a.tobytes() for n, a in model.state_arrays().items()}
    arrays = {n: a + 1.0 for n, a in model.state_arrays().items()}
    arrays["decoder.layer0.t2i.wq.weight"][1, 2] = np.nan
    with pytest.raises(CheckpointError, match="'decoder.layer0.t2i.wq.weight' is not finite"):
        model.load_state(arrays)
    assert {n: a.tobytes() for n, a in model.state_arrays().items()} == before
    with pytest.raises(CheckpointError, match="'decoder.layer0.t2i.wq.weight' is not finite"):
        model_from_checkpoint(dict(model.checkpoint_arrays(), **arrays))


def test_model_from_checkpoint_scans_each_record_once(monkeypatch):
    # _check_records scans every record and names a bad one; the leaves are
    # then built without the Tensor constructor's second scan
    from refvos import autodiff
    arrays = toy_model().checkpoint_arrays()
    scans, check = [], autodiff._check_finite
    monkeypatch.setattr(autodiff, "_check_finite", lambda data, op: (scans.append(op), check(data, op)))
    rebuilt = model_from_checkpoint(arrays)
    assert "leaf" not in scans
    assert all(p.data.tobytes() == arrays[n].tobytes() for n, p in rebuilt.params.items())


def test_a_record_beyond_float32_range_is_refused_by_a_float32_model():
    arrays = toy_model().checkpoint_arrays()
    arrays["itm.ln.beta"] = np.full(32, 1e300)
    with pytest.raises(CheckpointError, match="'itm.ln.beta' is not finite in float32"):
        model_from_checkpoint(arrays, dtype=np.float32)
    model = Model(ModelConfig(**TOY), dtype=np.float32)
    with pytest.raises(CheckpointError, match="'itm.ln.beta' is not finite in float32"):
        model.load_state(arrays)
    assert model_from_checkpoint(arrays).params["itm.ln.beta"].data[0] == 1e300


@pytest.mark.parametrize("edit, message", [
    (lambda a: [a.pop(n) for n in list(a) if n.startswith("config.")], "no config"),
    (lambda a: a.pop("config.itm"), r"missing \['itm'\]"),
    (lambda a: a.update({"config.nope": np.ones(1, np.float32)}), r"unknown \['nope'\]"),
    (lambda a: a.update({"config.blocks": np.full(1, 2.5, np.float32)}), "'blocks' holds"),
    (lambda a: a.update({"config.itm": np.full(1, 2.0, np.float32)}), "'itm' holds"),
    (lambda a: a.update({"config.hda": np.ones(2, np.float32)}), "'hda' holds"),
    (lambda a: a.update({"config.da": np.zeros(1, np.float32)}), "invalid: model.hda requires"),
    (lambda a: a.update({"config.blocks": np.full(1, 3.0, np.float32)}), "invalid: model.blocks must be even"),
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


def test_model_from_checkpoint_draws_nothing(monkeypatch):
    model = toy_model(seed=3)
    monkeypatch.setattr(np.random, "default_rng", None)
    rebuilt = model_from_checkpoint(model.checkpoint_arrays())
    assert rebuilt.cfg == model.cfg
    assert list(rebuilt.params) == list(model.params)
    for name, p in model.params.items():
        assert np.array_equal(rebuilt.params[name].data, p.data), name
        assert rebuilt.params[name].requires_grad == p.requires_grad, name


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


@pytest.mark.parametrize("record, message", [
    ("channels", "shape mismatch for 'encoder.neck.proj.weight'"),
    ("blocks", "missing parameter 'encoder.block2.ln1.gamma'"),
], ids=["channels", "blocks"])
def test_garbled_size_record_exits_3_before_allocating(trained, tmp_path, capsys,
                                                       record, message):
    _, data, ckpt = trained
    arrays = load_checkpoint(ckpt)
    arrays["config." + record] = np.array([2.0 ** 40], np.float32)
    garbled = tmp_path / "garbled.ckpt"
    save_checkpoint(garbled, arrays)
    capsys.readouterr()
    assert main(["infer", "--checkpoint", str(garbled), "--clip", str(data / "clip0000"),
                 "--out", str(tmp_path / "p")]) == EXIT_BAD_CHECKPOINT
    assert message in capsys.readouterr().err


FUZZ_TOY = dict(TOY, text_width=8, vocab_size=8, hidden=8)


def _record_heads(raw):
    """Byte offsets of every record's name, rank and extents, and of the
    values of the config records: where a flipped byte changes structure."""
    starts, heads = _field_starts(raw), []
    for k in range(0, len(starts) - 1, 5):
        start, name, values, end = starts[k], starts[k + 1], starts[k + 4], starts[k + 5]
        heads += range(start, end if raw[name:values].startswith(b"config.") else values)
    return heads


@pytest.fixture(scope="module")
def fuzz_checkpoint(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "m.ckpt"
    save_checkpoint(path, Model(ModelConfig(**FUZZ_TOY), seed=0).checkpoint_arrays())
    raw = path.read_bytes()
    return path, raw, _record_heads(raw)


def _edited(raw, edits):
    out = bytearray(raw)
    for offset, value in edits:
        out[offset] = value
    return bytes(out)


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_malformed_checkpoint_bytes_build_a_model_or_raise_checkpoint_error(
        fuzz_checkpoint, data):
    path, raw, heads = fuzz_checkpoint
    offset = st.one_of(st.sampled_from(heads), st.integers(0, len(raw) - 1))
    blob = data.draw(st.one_of(
        st.integers(0, len(raw) - 1).map(lambda n: raw[:n]),
        st.lists(st.tuples(offset, st.integers(0, 255)), min_size=1, max_size=4).map(
            lambda edits: _edited(raw, edits)),
        st.binary(min_size=1, max_size=64).map(lambda tail: raw + tail)))
    path.write_bytes(blob)
    try:
        model = model_from_checkpoint(load_checkpoint(path))
    except CheckpointError:
        return
    assert isinstance(model, Model)

