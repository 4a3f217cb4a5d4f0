"""Flat 'section.key = value' run configuration."""

import math
from dataclasses import dataclass, field, fields, replace

from .encoder import ConfigurationError
from .losses import LossConfig
from .model import ModelConfig


@dataclass
class TrainSection:
    n_frames: int = 3
    steps: int = 100
    seed: int = 0
    w_dice: float = 5.0
    w_focal: float = 2.0
    focal_alpha: float = 0.25
    focal_gamma: float = 2.0
    dice_smooth: float = 1.0
    lr_cmm: float = 1e-4
    lr_hda: float = 1e-4
    lr_decoder: float = 1e-6
    lr_adapter: float = 1e-5
    lr_itm: float = 1e-4
    weight_decay: float = 1e-4
    checkpoint_interval: int = 50
    detach_track: bool = False


@dataclass
class DataSection:
    root: str = ""
    clips: int = 4
    height: int = 64
    width: int = 64
    frames: int = 5
    min_objects: int = 1
    max_objects: int = 2


@dataclass
class EvalSection:
    tolerance_px: float = -1.0   # negative: 0.8% of the image diagonal


@dataclass
class RunConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainSection = field(default_factory=TrainSection)
    data: DataSection = field(default_factory=DataSection)
    eval: EvalSection = field(default_factory=EvalSection)

    def validate(self):
        self.model_config()   # ModelConfig.__post_init__ checks the model section
        if self.train.n_frames < 1:
            raise ConfigurationError("train.n_frames must be >= 1")
        for name in ("lr_cmm", "lr_hda", "lr_decoder", "lr_adapter", "lr_itm"):
            lr = getattr(self.train, name)
            if not (math.isfinite(lr) and lr > 0):
                raise ConfigurationError(f"train.{name} must be finite and > 0, got {lr}")
        return self

    def model_config(self):
        """A copy of the model section, checked by ModelConfig.__post_init__."""
        return replace(self.model)

    def loss_config(self):
        t = self.train
        return LossConfig(focal_alpha=t.focal_alpha, focal_gamma=t.focal_gamma,
                          dice_smooth=t.dice_smooth, w_dice=t.w_dice, w_focal=t.w_focal)

    def learning_rates(self):
        t = self.train
        return {"cmm": t.lr_cmm, "hda": t.lr_hda, "decoder": t.lr_decoder,
                "adapter": t.lr_adapter, "itm": t.lr_itm}


def _convert(raw, ftype, key):
    if ftype is bool:
        if raw not in ("true", "false"):
            raise ConfigurationError(f"boolean must be 'true' or 'false', got {raw!r}")
        return raw == "true"
    if ftype is int:
        return int(raw)
    if ftype is float:
        value = float(raw)
        if not math.isfinite(value):
            raise ConfigurationError(f"{key} must be finite, got {raw}")
        return value
    return raw


def parse_config(text):
    cfg = RunConfig()
    sections = {f.name: getattr(cfg, f.name) for f in fields(cfg)}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line or "." not in line.split("=", 1)[0]:
            raise ConfigurationError(f"line {lineno}: expected 'section.key = value'")
        key, raw = (part.strip() for part in line.split("=", 1))
        section_name, field_name = key.split(".", 1)
        if section_name not in sections:
            raise ConfigurationError(f"line {lineno}: unknown section {section_name!r}")
        section = sections[section_name]
        ftypes = {f.name: f.type for f in fields(section)}
        if field_name not in ftypes:
            raise ConfigurationError(f"line {lineno}: unknown key {key!r}")
        ftype = {"int": int, "float": float, "bool": bool, "str": str}.get(
            ftypes[field_name], ftypes[field_name])
        try:
            value = _convert(raw, ftype, key)
        except ValueError as exc:   # also int() and float() on malformed numbers
            raise ConfigurationError(f"line {lineno}: bad value for {key!r}: {exc}") from None
        setattr(section, field_name, value)
    return cfg.validate()


def load_config(path):
    with open(path, encoding="utf-8") as fh:
        return parse_config(fh.read())
