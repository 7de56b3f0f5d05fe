"""Run configuration: a flat sectioned key-value text format.

A section's keys are its settings dataclass's fields, in declaration order,
parsed by their annotations. Unknown sections or keys are rejected with the
offending name so typos fail loudly before any work starts.
"""

from __future__ import annotations

import configparser
import functools
import io
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

from .fusion import FusionThresholds
from .model import CascadeConfig, ModelConfig
from .scene import SceneSpec
from .training import LossConfig

__all__ = ["ConfigError", "RunConfig", "load_config", "config_text", "default_config_text"]


class ConfigError(ValueError):
    """Invalid or unknown configuration input."""


@dataclass(frozen=True)
class TrainSettings:
    steps: int = 300
    learning_rate: float = 1e-3
    decay_factor: float = 0.5
    decay_steps: tuple[int, ...] = (180, 240)

    def __post_init__(self):
        if self.steps < 1:
            raise ConfigError(f"train steps must be at least 1, got {self.steps}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError(
                f"train learning_rate must be finite and positive, got {self.learning_rate}")
        if not 0 < self.decay_factor <= 1:
            raise ConfigError(f"train decay_factor must lie in (0, 1], got {self.decay_factor}")
        if any(step < 0 for step in self.decay_steps):
            raise ConfigError(f"train decay_steps must be non-negative, got {self.decay_steps}")


@dataclass
class RunConfig:
    scene: SceneSpec = field(default_factory=SceneSpec)
    model: ModelConfig = field(default_factory=ModelConfig)
    loss: LossConfig = field(default_factory=LossConfig)
    train: TrainSettings = field(default_factory=TrainSettings)
    fusion: FusionThresholds = field(default_factory=FusionThresholds)
    # True when ``[cascade]`` names d_min or d_max. Otherwise commands
    # operating on an existing scene adopt the scene's own range.
    cascade_range_explicit: bool = False


def _parse_bool(s: str) -> bool:
    v = s.strip().lower()
    if v in ("1", "true", "yes", "on"):
        return True
    if v in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got '{s}'")


def _parse_tuple(s: str, kind=float, length: int | None = None) -> tuple:
    vals = tuple(kind(x) for x in s.replace(",", " ").split())
    if length is not None and len(vals) != length:
        raise ConfigError(f"expected {length} numbers, got '{s}'")
    return vals


_PARSERS = {"int": int, "float": float, "str": str, "bool": _parse_bool,
            "tuple[int, ...]": functools.partial(_parse_tuple, kind=int),
            "tuple[float, ...]": _parse_tuple}


def _parser(annotation: str):
    """The text parser for a field whose annotation string is ``annotation``."""
    if annotation in _PARSERS:
        return _PARSERS[annotation]
    items = annotation.removeprefix("tuple[").removesuffix("]").split(", ")
    if annotation.startswith("tuple[") and set(items) == {"float"}:
        return functools.partial(_parse_tuple, length=len(items))
    raise TypeError(f"no config parser for the annotation '{annotation}'")


def _keys(cls) -> dict[str, object]:
    """A section's keys and their parsers; ``ModelConfig.cascade`` is the
    ``[cascade]`` section, not a key."""
    return {f.name: _parser(f.type) for f in fields(cls)
            if (cls, f.name) != (ModelConfig, "cascade")}


_SECTIONS = {section: _keys(cls) for section, cls in (
    ("scene", SceneSpec), ("model", ModelConfig), ("cascade", CascadeConfig),
    ("loss", LossConfig), ("train", TrainSettings), ("fusion", FusionThresholds))}
_RANGE_KEYS = ("d_min", "d_max")


def load_config(path=None, text: str | None = None) -> RunConfig:
    """Parse and validate a config file, or ``text``; defaults fill whatever
    is absent. An error in a file names the file."""
    if text is None:
        if path is None:
            return RunConfig()
        path = Path(path)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        try:
            return load_config(text=path.read_text(encoding="utf-8"))
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config file {path} is not UTF-8 text: {exc}") from exc
        except ConfigError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    parser = configparser.ConfigParser(interpolation=None)  # a '%' is read as itself
    parser.optionxform = str  # keep keys case-sensitive
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config parse failure: {exc}") from exc

    values: dict[str, dict[str, object]] = {section: {} for section in _SECTIONS}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown config section '[{section}]'")
        for key, raw in parser.items(section):
            if key not in _SECTIONS[section]:
                raise ConfigError(f"unknown config key '{key}' in section '[{section}]'")
            try:
                values[section][key] = _SECTIONS[section][key](raw)
            except (ValueError, TypeError) as exc:
                raise ConfigError(f"bad value for '{section}.{key}': {raw!r}") from exc

    range_explicit = any(key in values["cascade"] for key in _RANGE_KEYS)
    try:
        scene = SceneSpec(**values["scene"])
        # The one cross-section rule: the cascade sweeps the scene's range
        # unless its own range is given.
        cascade = CascadeConfig(**{"d_min": scene.d_min, "d_max": scene.d_max,
                                   **values["cascade"]})
        return RunConfig(scene=scene, model=ModelConfig(cascade=cascade, **values["model"]),
                         loss=LossConfig(**values["loss"]),
                         train=TrainSettings(**values["train"]),
                         fusion=FusionThresholds(**values["fusion"]),
                         cascade_range_explicit=range_explicit)
    except Exception as exc:
        raise ConfigError(f"invalid configuration: {exc}") from exc


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ", ".join(_format_value(v) for v in value)
    return str(value)


def config_text(cfg: RunConfig) -> str:
    """Every section and key of ``cfg``, in the text format ``load_config`` reads;
    the ``[cascade]`` range only if explicit, so the output adopts a scene's range."""
    out = io.StringIO()
    for section, keys in _SECTIONS.items():
        settings = cfg.model.cascade if section == "cascade" else getattr(cfg, section)
        out.write(f"[{section}]\n")
        for key in keys:
            if section == "cascade" and key in _RANGE_KEYS and not cfg.cascade_range_explicit:
                continue
            out.write(f"{key} = {_format_value(getattr(settings, key))}\n")
        out.write("\n")
    return out.getvalue()


def default_config_text() -> str:
    """All sections and keys with their default values, ready to edit."""
    return config_text(RunConfig())
