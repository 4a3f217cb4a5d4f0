"""Full model assembly: configuration, parameter initialization, the
per-frame forward path shared by inference and training, and checkpoints
that record their configuration."""

from dataclasses import dataclass, fields

import numpy as np

from .decoder import decode, init_decoder_params
from .encoder import (ConfigurationError, VisualEncoderConfig, encode_frame,
                      encode_text, freeze_partition, init_text_params,
                      init_visual_params)
from .fusion import (cross_modal_project, dense_attention,
                     hierarchical_dense_attention, init_cross_modal_params,
                     init_hda_params, init_linear_project_params)
from .io import CheckpointError
from .tracking import init_itm_params

# sub-seed offsets derived from the top-level seed
SEED_ENCODER, SEED_TEXT, SEED_FUSION, SEED_DECODER, SEED_ITM, SEED_DATA, SEED_SAMPLER = (
    1, 2, 3, 4, 5, 1000, 2000)

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
            raise ConfigurationError("channel widths must be divisible by 4")


class Model:
    def __init__(self, cfg, seed=0, dtype=np.float64):
        self.cfg = cfg
        self.dtype = dtype
        self.vcfg = VisualEncoderConfig(
            patch_size=cfg.patch_size, block_count=cfg.blocks,
            token_width=cfg.token_width, out_channels=cfg.channels,
            adapter_width=cfg.adapter_width, mlp_ratio=cfg.mlp_ratio)
        self.params = init_visual_params(self.vcfg, np.random.default_rng(seed + SEED_ENCODER),
                                         dtype, with_adapters=cfg.adapter)
        self.params.update(init_text_params(cfg.text_width, cfg.vocab_size,
                                            seed + SEED_TEXT, dtype))
        rng_f = np.random.default_rng(seed + SEED_FUSION)
        if cfg.cross_modal_mlp:
            self.params.update(init_cross_modal_params(
                cfg.text_width, cfg.hidden, cfg.channels, rng_f, dtype))
        else:
            self.params.update(init_linear_project_params(
                cfg.text_width, cfg.channels, rng_f, dtype))
        if cfg.da:
            self.params.update(init_hda_params(
                cfg.channels, self.vcfg.mid_channels, rng_f, dtype))
        self.params.update(init_decoder_params(
            cfg.channels, np.random.default_rng(seed + SEED_DECODER), dtype))
        if cfg.itm:
            self.params.update(init_itm_params(
                cfg.channels, np.random.default_rng(seed + SEED_ITM), dtype))
        for name in self.partition()[0]:   # frozen: no gradient is recorded for them
            self.params[name].requires_grad = False

    # ---- forward pieces --------------------------------------------------

    def encode_text(self, expr):
        return encode_text(expr, self.params["text.table"])

    def sparse_embeddings(self, text):
        return cross_modal_project(text, self.params)

    def encode_frame(self, frame):
        return encode_frame(frame, self.vcfg, self.params,
                            use_adapter=self.cfg.adapter)

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
        return freeze_partition(self.params)

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
        present, must describe this model; any other name must be one of
        its parameters."""
        records = [n for n in arrays if n.startswith(CONFIG_PREFIX)]
        if records and _config_from_arrays(arrays) != self.cfg:
            raise CheckpointError("checkpoint config records differ from the model's config")
        unknown = sorted(set(arrays) - set(self.params) - set(records))
        if unknown:
            raise CheckpointError(f"checkpoint has unknown records {unknown}")
        loaded = {}
        for name, p in self.params.items():
            if name not in arrays:
                raise CheckpointError(f"checkpoint missing parameter {name!r}")
            loaded[name] = np.asarray(arrays[name], dtype=self.dtype)
            if loaded[name].shape != p.data.shape:
                raise CheckpointError(f"checkpoint shape mismatch for {name!r}: "
                                      f"{loaded[name].shape} vs {p.data.shape}")
        for name, p in self.params.items():   # all or nothing
            p.data = loaded[name]
            p.grad = None


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
    """The model a checkpoint describes, with its parameters loaded."""
    cfg = _config_from_arrays(arrays)
    try:
        model = Model(cfg, seed=0, dtype=dtype)
    except ConfigurationError as exc:
        raise CheckpointError(f"checkpoint config is invalid: {exc}") from exc
    model.load_state(arrays)
    return model
