"""Full model assembly: configuration, the parameter schema, the per-frame
forward path shared by inference and training, and checkpoints that record
their configuration."""

from collections import namedtuple
from dataclasses import dataclass, fields

import numpy as np

from .autodiff import NonFiniteError, Tensor
from .decoder import decode
from .encoder import ConfigurationError, encode_frame, encode_text
from .fusion import (cross_modal_project, dense_attention,
                     hierarchical_dense_attention)
from .io import CheckpointError
from .optim import module_of

# RNG stream of a parameter, by the first part of its name: an offset from the
# model seed. cmm and hda share one stream.
PARAM_STREAMS = {"encoder": 1, "text": 2, "cmm": 3, "hda": 3, "decoder": 4, "itm": 5}
# seed offsets of the synthetic data and of the training frame sampler
SEED_DATA, SEED_SAMPLER = 1000, 2000
# groups (optim.module_of) that stay frozen: the ViT backbone and the word table
FROZEN_GROUPS = ("encoder", "text")

# checkpoint record name prefix of the ModelConfig fields
CONFIG_PREFIX = "config."


@dataclass
class ModelConfig:
    """The architecture; also the `model` section of a run configuration."""
    patch_size: int = 8
    blocks: int = 4
    token_width: int = 64
    channels: int = 256            # C_v, shared prompt/decoder width
    adapter_width: int = 8
    mlp_ratio: int = 2
    text_width: int = 64           # C_e of the toy text encoder
    vocab_size: int = 4096
    hidden: int = 256              # cross-modal MLP hidden width
    cross_modal_mlp: bool = True
    da: bool = True
    hda: bool = True
    itm: bool = True
    adapter: bool = True
    include_sentence_token: bool = True

    def __post_init__(self):
        for f in fields(self):
            if f.type is int and getattr(self, f.name) < 1:
                raise ConfigurationError(f"model.{f.name} must be >= 1")
        if self.hda and not self.da:
            raise ConfigurationError("model.hda requires model.da")
        if self.channels % 4 or self.token_width % 4:
            raise ConfigurationError("model.channels and model.token_width must be divisible by 4")
        if self.blocks % 2:
            raise ConfigurationError("model.blocks must be even")
        if self.adapter_width >= self.token_width:
            raise ConfigurationError("model.adapter_width must be < model.token_width")

    @property
    def tap_indices(self):
        """The 3 encoder blocks whose outputs become the mid maps."""
        b = self.blocks
        taps = sorted({b // 4, b // 2, 3 * b // 4})
        return tuple(taps[:1] * (3 - len(taps)) + taps)

    @property
    def adapter_blocks(self):
        # latter half of the blocks carries adapters; a range, so a membership
        # test allocates nothing however large a garbled block count is
        return range(self.blocks // 2, self.blocks)


# ---- parameter schema -------------------------------------------------------

# One parameter: its name, shape, init rule (see _draw) and RNG stream.
ParamSpec = namedtuple("ParamSpec", "name shape init stream")


def _linear(name, n_in, n_out, *kernel, weight="xavier"):
    yield name + ".weight", (n_in, n_out, *kernel), weight
    yield name + ".bias", (n_out,), 0.0


def _norm(name, width):
    yield name + ".gamma", (width,), 1.0
    yield name + ".beta", (width,), 0.0


def _attention(prefix, width):
    for nm in ("wq", "wk", "wv", "wo"):
        yield from _linear(prefix + nm, width, width)


def _entries(cfg):
    d, cv, hid = cfg.token_width, cfg.channels, cfg.token_width * cfg.mlp_ratio
    yield from _linear("encoder.patch", 3 * cfg.patch_size ** 2, d)
    for i in range(cfg.blocks):
        pre = f"encoder.block{i}."
        yield from _norm(pre + "ln1", d)
        yield from _attention(pre + "attn.", d)
        yield from _norm(pre + "ln2", d)
        yield from _linear(pre + "mlp.fc1", d, hid)
        yield from _linear(pre + "mlp.fc2", hid, d)
        if cfg.adapter and i in cfg.adapter_blocks:
            for a in ("adapter1", "adapter2"):
                yield from _linear(pre + a + ".down", d, cfg.adapter_width)
                # zero-init up projection: adapters start as the identity
                yield from _linear(pre + a + ".up", cfg.adapter_width, d, weight=0.0)
    yield from _linear("encoder.neck.proj", d, cv)
    yield from _norm("encoder.neck.ln", cv)

    # the frozen word table, one row per hash bucket
    yield "text.table", (cfg.vocab_size, cfg.text_width), "table"

    if cfg.cross_modal_mlp:
        yield from _linear("cmm.fc1", cfg.text_width, cfg.hidden)
        yield from _linear("cmm.fc2", cfg.hidden, cv)
    else:   # a single projection in place of the cross-modal MLP
        yield from _linear("cmm.proj", cfg.text_width, cv)
    if cfg.da:
        # four dense-attention branches (final map + 3 mid maps), with a
        # reduce convolution for each mid map; no weight sharing
        for i in range(4):
            yield from _linear(f"hda.da{i}.conv", 2 * cv, cv)
        for i in range(1, 4):
            yield from _linear(f"hda.reduce{i}", d, cv)

    for token in ("iou", "main", "scale0", "scale1", "scale2"):
        yield f"decoder.token.{token}", (cv,), "normal"
    for layer in range(2):
        for part in ("self", "t2i", "i2t"):
            yield from _attention(f"decoder.layer{layer}.{part}.", cv)
            yield from _norm(f"decoder.layer{layer}.ln_{part}", cv)
    yield from _attention("decoder.final_attn.", cv)
    yield from _norm("decoder.final_ln", cv)
    yield from _linear("decoder.up1", cv, cv // 2, 2, 2)      # 2x2 transposed convolutions
    yield from _linear("decoder.up2", cv // 2, cv // 4, 2, 2)
    for i in range(4):
        yield from _linear(f"decoder.hyper{i}.fc1", cv, cv)
        yield from _linear(f"decoder.hyper{i}.fc2", cv, cv)
        yield from _linear(f"decoder.hyper{i}.fc3", cv, cv // 4)
    yield from _linear("decoder.iou_head.fc1", cv, cv)
    # zero weights + pessimistic bias: quality scores start low and only the
    # supervised one moves, so selection never prefers an untrained mask
    yield "decoder.iou_head.fc2.weight", (cv, 4), 0.0
    yield "decoder.iou_head.fc2.bias", (4,), -2.0

    if cfg.itm:
        yield from _linear("itm.fc1", cv, cv)
        # zero-init second FFN: the residual branch starts at zero
        yield from _linear("itm.fc2", cv, cv, weight=0.0)
        yield from _norm("itm.ln", cv)


def param_schema(cfg):
    """Every parameter of the model `cfg` describes, in draw order. A
    generator, so a caller checking records against it stops at the first
    mismatch, however large the widths of a garbled config."""
    for name, shape, init in _entries(cfg):
        yield ParamSpec(name, shape, init, PARAM_STREAMS[name.split(".", 1)[0]])


def _draw(spec, rng):
    """The float64 initial value of a parameter. "xavier" draws
    N(0, 2 / (fan_in + fan_out)) with the first two extents as the fans,
    "normal" draws N(0, 1), "table" draws N(0, 1) / sqrt(width), and a number
    fills the array with that value and draws nothing."""
    if spec.init == "xavier":
        return rng.normal(0.0, np.sqrt(2.0 / (spec.shape[0] + spec.shape[1])), spec.shape)
    if spec.init == "normal":
        return rng.normal(0.0, 1.0, spec.shape)
    if spec.init == "table":
        return rng.normal(0.0, 1.0, spec.shape) / np.sqrt(spec.shape[1])
    return np.full(spec.shape, float(spec.init))


def _check_records(schema, arrays):
    """Raise CheckpointError unless the records of `arrays` other than
    `config.*` are exactly the parameters of `schema`, each with its shape."""
    names = set()
    for spec in schema:
        if spec.name not in arrays:
            raise CheckpointError(f"checkpoint missing parameter {spec.name!r}")
        shape = np.shape(arrays[spec.name])
        if shape != spec.shape:
            raise CheckpointError(f"checkpoint shape mismatch for {spec.name!r}: "
                                  f"{shape} vs {spec.shape}")
        names.add(spec.name)
    unknown = sorted(n for n in arrays if n not in names and not n.startswith(CONFIG_PREFIX))
    if unknown:
        raise CheckpointError(f"checkpoint has unknown records {unknown}")


class Model:
    def __init__(self, cfg, seed=0, dtype=np.float64):
        """Draw every parameter of the schema from its stream, seeded with
        seed + stream: the same seed gives the same parameter bytes."""
        rngs = {s: np.random.default_rng(seed + s) for s in set(PARAM_STREAMS.values())}
        self._adopt(cfg, dtype, ((p.name, _draw(p, rngs[p.stream]))
                                 for p in param_schema(cfg)))

    def _adopt(self, cfg, dtype, arrays):
        """Take (name, array) pairs as the parameters; frozen ones record no
        gradient. `vcfg` is the same object as `cfg`, kept for callers that
        read the encoder settings under that name."""
        self.cfg = self.vcfg = cfg
        self.dtype = dtype
        self.params = {n: Tensor(np.asarray(a, dtype=dtype),
                                 requires_grad=module_of(n) not in FROZEN_GROUPS)
                       for n, a in arrays}

    # ---- forward pieces --------------------------------------------------

    def encode_text(self, expr):
        return encode_text(expr, self.params["text.table"])

    def sparse_embeddings(self, text):
        return cross_modal_project(text, self.params)

    def encode_frame(self, frame):
        return encode_frame(frame, self.cfg, self.params)

    def dense_embeddings(self, ff, sparse):
        if self.cfg.hda:
            return hierarchical_dense_attention(ff, sparse, self.params)
        if self.cfg.da:
            return dense_attention(ff.final, sparse, self.params)[0]
        return None

    def decode(self, ff, sparse, dense, track):
        return decode(ff.final, sparse, dense, track, self.params,
                      include_sentence_token=self.cfg.include_sentence_token)

    # ---- state -----------------------------------------------------------

    def partition(self):
        """(frozen, trainable) parameter names."""
        frozen = {n for n in self.params if module_of(n) in FROZEN_GROUPS}
        return frozen, set(self.params) - frozen

    def trainable_params(self):
        _, names = self.partition()
        return {n: self.params[n] for n in sorted(names)}

    def state_arrays(self):
        return {n: p.data for n, p in sorted(self.params.items())}

    def checkpoint_arrays(self):
        """state_arrays() plus one `config.<field>` record per ModelConfig
        field; every field is a bool or a small int, exact in float32."""
        arrays = self.state_arrays()
        for f in fields(ModelConfig):
            arrays[CONFIG_PREFIX + f.name] = np.array([getattr(self.cfg, f.name)], np.float32)
        return arrays

    def load_state(self, arrays):
        """Load parameters from checkpoint arrays. `config.*` records, if
        present, must describe this model; every other record must be one of
        its parameters, with its shape. All records are checked before any is
        loaded; then each parameter is replaced in turn, so only one
        parameter's old and new values are held at once."""
        if any(n.startswith(CONFIG_PREFIX) for n in arrays) and \
                _config_from_arrays(arrays) != self.cfg:
            raise CheckpointError("checkpoint config records differ from the model's config")
        _check_records(param_schema(self.cfg), arrays)
        for name, p in self.params.items():
            p.data, p.grad = np.asarray(arrays[name], dtype=self.dtype), None


def _config_from_arrays(arrays):
    """Decode the ModelConfig that checkpoint_arrays() recorded."""
    names = {n[len(CONFIG_PREFIX):] for n in arrays if n.startswith(CONFIG_PREFIX)}
    if not names:
        raise CheckpointError("checkpoint has no config.* records; "
                              "infer and eval need a checkpoint written by `refvos train`")
    types = {f.name: f.type for f in fields(ModelConfig)}
    if names != set(types):
        raise CheckpointError(f"checkpoint config records: missing {sorted(set(types) - names)}, "
                              f"unknown {sorted(names - set(types))}")
    values = {}
    for name, ftype in types.items():
        arr = np.asarray(arrays[CONFIG_PREFIX + name])
        value = float(arr.reshape(-1)[0]) if arr.size == 1 else float("nan")
        if not value.is_integer() or (ftype is bool and value not in (0.0, 1.0)):
            raise CheckpointError(f"checkpoint config record {name!r} holds {arr.tolist()}, "
                                  f"not a single {ftype.__name__}")
        values[name] = ftype(value)
    try:
        return ModelConfig(**values)
    except ConfigurationError as exc:
        raise CheckpointError(f"checkpoint config is invalid: {exc}") from exc


def model_from_checkpoint(arrays, dtype=np.float64):
    """The model a checkpoint describes, built from its records alone: it
    draws nothing, and allocates nothing before every record's name and
    shape match the schema of the recorded config."""
    cfg = _config_from_arrays(arrays)
    _check_records(param_schema(cfg), arrays)
    model = Model.__new__(Model)
    try:
        model._adopt(cfg, dtype, ((p.name, arrays[p.name]) for p in param_schema(cfg)))
    except NonFiniteError as exc:
        raise CheckpointError(f"checkpoint parameters are not finite: {exc}") from exc
    return model
