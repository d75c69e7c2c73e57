"""Run configuration: one serializable object drives every subcommand.

A run directory always receives the exact effective configuration that
produced its files, so every reported number can be traced to the JSON that
generated it.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np


class ConfigError(Exception):
    """A config value, input record or artifact file is malformed (exit 2)."""


class MissingArtifact(Exception):
    """An input file is missing or holds too little data to fit (exit 4)."""


# the JSON values each field annotation (a string, as annotations are postponed
# here) accepts; bool is an int subclass, but `true` is neither a count nor a
# scale, and only `true` and `false` are flags
_JSON_KINDS = {"int": int, "float": (int, float), "bool": bool, "str": str,
               "str | float": (str, int, float)}

# the fields that size arrays and loops, which numpy counts in intp: a larger
# count fails there (np.linspace, say) with a traceback instead of a ConfigError
_COUNTS = {"n_conditions", "generations_per_condition", "n_eval_conditions", "timesteps",
           "cloud_size", "epochs", "batch_size"}
_MAX_COUNT = int(np.iinfo(np.intp).max)


def _check_types(obj) -> None:
    """ConfigError unless each field holds a JSON value of a kind its annotation
    names, and each count is at most numpy's largest index."""
    for f in fields(obj):
        kinds, value = _JSON_KINDS.get(f.type), getattr(obj, f.name)
        if kinds and (isinstance(value, bool) != (kinds is bool) or not isinstance(value, kinds)):
            raise ConfigError(f"{f.name} must be a JSON {f.type}, got {value!r}")
        # the range checks would raise OverflowError on a JSON integer beyond float range
        if f.type.endswith("float") and isinstance(value, int) and abs(value) > sys.float_info.max:
            raise ConfigError(f"{f.name} must be finite, got an integer beyond float range")
        if f.name in _COUNTS and value > _MAX_COUNT:
            raise ConfigError(f"{f.name} must be at most {_MAX_COUNT}, numpy's largest index")


@dataclass
class ModelTraining:
    epochs: int
    batch_size: int
    learning_rate: float

    def __post_init__(self):
        _check_types(self)
        # each check is written so that NaN fails it
        if not (self.epochs >= 1 and self.batch_size >= 1):
            raise ConfigError("epochs and batch_size must be >= 1")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0.0):
            raise ConfigError("learning_rate must be finite and > 0")


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
        for f in fields(self):
            section = getattr(self, f.name)
            if f.type == "ModelTraining" and not isinstance(section, ModelTraining):
                try:
                    setattr(self, f.name, ModelTraining(**section))
                except (TypeError, ConfigError) as exc:  # TypeError: a bad key or no object
                    raise ConfigError(f"{f.name}: {exc}") from exc
        _check_types(self)
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
        if not (math.isfinite(self.ridge) and self.ridge >= 0.0):
            raise ConfigError("ridge must be finite and >= 0")
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
        elif not (math.isfinite(self.sigma_mode) and self.sigma_mode > 0.0):
            raise ConfigError("fixed sigma must be finite and > 0")
        else:
            # metrics' RBF kernel scales d² by -0.5 / σ²: a σ² that underflows
            # makes that a division by zero or inf (NaN scores), and one that
            # overflows makes it 0 (every score 0)
            square = float(self.sigma_mode) * float(self.sigma_mode)
            if not (square > 0.0 and 0.0 < 0.5 / square < math.inf):
                raise ConfigError("fixed sigma must keep 0.5 / sigma² finite and > 0")

    @property
    def fixed_sigma(self) -> float | None:
        return None if self.sigma_mode == "median" else float(self.sigma_mode)

    @classmethod
    def load(cls, path) -> "RunConfig":
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {path}") from exc
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"{path}: cannot read: {exc}") from exc
        except ValueError as exc:  # json.JSONDecodeError, or an integer of too many digits
            raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: config must be a JSON object")
        try:
            return cls(**raw)
        except TypeError as exc:  # an unknown field
            raise ConfigError(f"{path}: {exc}") from exc
