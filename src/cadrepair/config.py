"""Run configuration: one serializable object drives every subcommand.

A run directory always receives the exact effective configuration that
produced its files, so every reported number can be traced to the JSON that
generated it.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path


class ConfigError(Exception):
    """A config value, input record or artifact file is malformed (exit 2)."""


def _require_ints(obj, names: tuple[str, ...]) -> None:
    # bool is an int subclass, but `true` is no count
    for name in names:
        value = getattr(obj, name)
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{name} must be an integer, got {value!r}")


@dataclass
class ModelTraining:
    epochs: int
    batch_size: int
    learning_rate: float

    def __post_init__(self):
        _require_ints(self, ("epochs", "batch_size"))
        # each check is written so that NaN fails it
        if not (self.epochs >= 1 and self.batch_size >= 1):
            raise ConfigError("epochs and batch_size must be >= 1")
        if not self.learning_rate > 0.0:
            raise ConfigError("learning_rate must be > 0")


@dataclass
class RunConfig:
    master_seed: int = 7
    n_conditions: int = 1000
    generations_per_condition: int = 5
    n_eval_conditions: int = 500
    timesteps: int = 100
    beta_start: float = 1e-4
    beta_end: float = 0.02
    denoiser: ModelTraining = field(
        default_factory=lambda: ModelTraining(epochs=150, batch_size=64, learning_rate=3e-3)
    )
    classifier: ModelTraining = field(
        default_factory=lambda: ModelTraining(epochs=300, batch_size=64, learning_rate=3e-2)
    )
    ridge: float = 1e-6
    split: float = 0.8
    # no stage reads these two and --variants chooses guidance; only `true` is
    # accepted, kept because the benchmark's pinned configs name them
    use_classifier_guidance: bool = True
    use_regressor_guidance: bool = True
    classifier_scale: float = 10.0
    regressor_scale: float = 10.0
    stop_gradient_y: bool = False
    sigma_mode: str | float = "median"
    cloud_size: int = 512
    out_dir: str = "runs/default"

    def __post_init__(self):
        _require_ints(
            self,
            (
                "master_seed",
                "n_conditions",
                "generations_per_condition",
                "n_eval_conditions",
                "timesteps",
                "cloud_size",
            ),
        )
        if self.master_seed < 0:
            raise ConfigError("master_seed must be >= 0")
        if self.n_conditions < 1 or self.n_eval_conditions < 0:
            raise ConfigError("condition counts out of range")
        if self.generations_per_condition < 1:
            raise ConfigError("generations_per_condition must be >= 1")
        if not 0.0 < self.split < 1.0:
            raise ConfigError("split must lie in (0, 1)")
        if not self.timesteps >= 2:
            raise ConfigError("timesteps must be >= 2")
        if not 0.0 < self.beta_start < self.beta_end < 1.0:
            raise ConfigError("need 0 < beta_start < beta_end < 1")
        if not self.ridge >= 0.0:
            raise ConfigError("ridge must be >= 0")
        if not self.cloud_size >= 1:
            raise ConfigError("cloud_size must be >= 1")
        if self.use_classifier_guidance is not True or self.use_regressor_guidance is not True:
            raise ConfigError(
                "use_classifier_guidance and use_regressor_guidance must be true; "
                "--variants chooses guidance"
            )
        for scale in (self.classifier_scale, self.regressor_scale):
            if not (math.isfinite(scale) and scale >= 0.0):
                raise ConfigError("guidance scales must be finite and >= 0")
        if isinstance(self.sigma_mode, str):
            if self.sigma_mode != "median":
                raise ConfigError("sigma_mode must be 'median' or a positive number")
        elif isinstance(self.sigma_mode, bool) or not (
            math.isfinite(self.sigma_mode) and self.sigma_mode > 0.0
        ):
            raise ConfigError("fixed sigma must be finite and > 0")

    @property
    def fixed_sigma(self) -> float | None:
        return None if self.sigma_mode == "median" else float(self.sigma_mode)

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2) + "\n"

    def save(self, path) -> None:
        Path(path).write_text(self.to_json())

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        allowed = set(cls.__dataclass_fields__)
        unknown = set(raw) - allowed
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        kwargs = dict(raw)
        for section in ("denoiser", "classifier"):
            if section in kwargs:
                spec = kwargs[section]
                if not isinstance(spec, dict) or set(spec) - {
                    "epochs",
                    "batch_size",
                    "learning_rate",
                }:
                    raise ConfigError(f"{section}: expected epochs/batch_size/learning_rate")
                try:
                    kwargs[section] = ModelTraining(**spec)
                except TypeError as exc:
                    raise ConfigError(f"{section}: {exc}") from exc
        try:
            return cls(**kwargs)
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc

    @classmethod
    def load(cls, path) -> "RunConfig":
        try:
            raw = json.loads(Path(path).read_text())
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {path}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
        return cls.from_dict(raw)
