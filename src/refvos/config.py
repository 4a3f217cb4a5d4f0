"""Flat 'section.key = value' run configuration."""

import math
from dataclasses import dataclass, field, fields, replace

from .data import SyntheticSpec
from .encoder import ConfigurationError
from .losses import LossConfig
from .model import SEED_DATA, ModelConfig


@dataclass
class TrainSection(LossConfig):
    """The `train` section: the LossConfig fields (train.w_dice etc.) plus
    the schedule, the seed and the learning rates."""
    n_frames: int = 3
    steps: int = 100
    seed: int = 0
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
        """Raise ConfigurationError, naming the key, unless every section
        holds values that the model, the losses and the data generator take."""
        self.model_config()   # ModelConfig.__post_init__ checks the model section
        for f in fields(TrainSection):
            low = 0 if f.name == "seed" else 1
            if f.type is int and getattr(self.train, f.name) < low:
                raise ConfigurationError(f"train.{f.name} must be >= {low}")
        if self.data.clips < 1:   # SyntheticSpec checks the rest of the data section
            raise ConfigurationError("data.clips must be >= 1")
        for group, lr in self.learning_rates().items():
            if not (math.isfinite(lr) and lr > 0):
                raise ConfigurationError(f"train.lr_{group} must be finite and > 0, got {lr}")
        self.loss_config()
        self.data_spec(self.train.seed)
        return self

    def model_config(self):
        """A copy of the model section, checked by ModelConfig.__post_init__."""
        return replace(self.model)

    def loss_config(self):
        return _checked("train", LossConfig, {f.name: getattr(self.train, f.name)
                                              for f in fields(LossConfig)})

    def data_spec(self, seed):
        """The SyntheticSpec of the data section for run seed `seed`."""
        values = {f.name: getattr(self.data, f.name) for f in fields(SyntheticSpec)
                  if f.name != "seed"}
        return _checked("data", SyntheticSpec, dict(values, seed=seed + SEED_DATA))

    def learning_rates(self):
        """{group: learning rate} from the train section's lr_<group> fields."""
        return {f.name[3:]: getattr(self.train, f.name) for f in fields(TrainSection)
                if f.name.startswith("lr_")}


def _checked(section, cls, values):
    """cls(**values); the ValueError of its checks, whose messages begin with
    the field name, becomes a ConfigurationError on the section's key."""
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigurationError(f"{section}.{exc}") from None


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
        try:
            value = _convert(raw, ftypes[field_name], key)
        except ValueError as exc:   # also int() and float() on malformed numbers
            raise ConfigurationError(f"line {lineno}: bad value for {key!r}: {exc}") from None
        setattr(section, field_name, value)
    return cfg.validate()


def load_config(path):
    with open(path, encoding="utf-8") as fh:
        return parse_config(fh.read())
