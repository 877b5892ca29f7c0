"""Run configuration: typed fields, domain validation, flat key=value file form."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

from .data import atomic_write

LAYER_CHOICES = (2, 3, 4)
BATCH_CHOICES = (8, 16, 32, 64)
POOLING_CHOICES = ("mean", "sum", "max")
ABLATION_CHOICES = (
    "none",
    "no_spatial_link",
    "no_od_link",
    "no_community_level",
    "no_region_level",
)


class ConfigError(ValueError):
    pass


# the JSON types each annotated field type accepts; a bool is not an int
_FIELD_TYPES = {"int": (int,), "float": (int, float), "str": (str,)}


@dataclass
class RunConfig:
    data_dir: str = ""
    out_dir: str = "run_out"
    layers: int = 3          # heterogeneous stack depth at community and region level
    layers_road: int = 3     # road-level stack depth
    hidden: int = 64
    lr: float = 1e-3
    batch_size: int = 32
    pooling: str = "mean"
    ablation: str = "none"
    seed: int = 0
    epochs: int = 100
    patience: int = 20
    train_frac: float = 0.7
    val_frac: float = 0.15
    test_frac: float = 0.15
    min_flow: float = 0.0

    def validate(self) -> "RunConfig":
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value}")
        if self.layers not in LAYER_CHOICES:
            raise ConfigError(f"layers must be one of {LAYER_CHOICES}, got {self.layers}")
        if self.layers_road not in LAYER_CHOICES:
            raise ConfigError(
                f"layers_road must be one of {LAYER_CHOICES}, got {self.layers_road}"
            )
        if not (1e-4 <= self.lr <= 5e-2):
            raise ConfigError(f"lr must lie in [1e-4, 5e-2], got {self.lr}")
        if self.batch_size not in BATCH_CHOICES:
            raise ConfigError(
                f"batch_size must be one of {BATCH_CHOICES}, got {self.batch_size}"
            )
        if self.pooling not in POOLING_CHOICES:
            raise ConfigError(f"pooling must be one of {POOLING_CHOICES}, got {self.pooling}")
        if self.ablation not in ABLATION_CHOICES:
            raise ConfigError(
                f"ablation must be one of {ABLATION_CHOICES}, got {self.ablation}"
            )
        if self.hidden < 2 or self.hidden % 2:
            raise ConfigError(f"hidden must be an even integer >= 2, got {self.hidden}")
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.patience < 0:
            raise ConfigError("patience must be >= 0 (0 disables early stopping)")
        for name in ("train_frac", "val_frac", "test_frac"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        total = self.train_frac + self.val_frac + self.test_frac
        if abs(total - 1.0) > 1e-9:
            raise ConfigError(f"split fractions must sum to 1, got {total}")
        if self.min_flow < 0:
            raise ConfigError("min_flow must be >= 0")
        return self

    @property
    def fractions(self) -> tuple[float, float, float]:
        return (self.train_frac, self.val_frac, self.test_frac)

    def with_overrides(self, **overrides) -> "RunConfig":
        provided = {k: v for k, v in overrides.items() if v is not None}
        return replace(self, **provided)

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(data) -> "RunConfig":
        if not isinstance(data, dict):
            raise ConfigError("config is not an object")
        known = {f.name: f for f in fields(RunConfig)}
        kwargs = {}
        for key, value in data.items():
            if key not in known:
                raise ConfigError(f"unknown config key {key!r}")
            kind = known[key].type
            if isinstance(value, bool) or not isinstance(value, _FIELD_TYPES[kind]):
                raise ConfigError(f"config key {key!r} must be {kind}, got {value!r}")
            kwargs[key] = value
        return RunConfig(**kwargs)

    def to_file(self, path) -> None:
        lines = []
        for f in fields(self):
            value = getattr(self, f.name)
            text = repr(value) if isinstance(value, float) else str(value)
            lines.append(f"{f.name}={text}")
        with atomic_write(path) as fh:
            fh.write("\n".join(lines) + "\n")

    @staticmethod
    def from_file(path) -> "RunConfig":
        path = Path(path)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        known = {f.name: f.type for f in fields(RunConfig)}
        data = {}
        for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, text = line.partition("=")
            key = key.strip()
            text = text.strip()
            if key not in known:
                raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
            kind = known[key]
            try:
                if kind in (int, "int"):
                    data[key] = int(text)
                elif kind in (float, "float"):
                    data[key] = float(text)
                else:
                    data[key] = text
            except ValueError:
                raise ConfigError(f"{path}:{lineno}: bad value for {key}: {text!r}")
        return RunConfig(**data)
