"""Run configuration: a flat sectioned key-value text format.

Every key has a default; unknown sections or keys are rejected with the
offending name so typos fail loudly before any work starts.
"""

from __future__ import annotations

import configparser
import io
from dataclasses import dataclass, field
from pathlib import Path

from .fusion import FusionThresholds
from .model import CascadeConfig, ModelConfig
from .scene import SceneSpec
from .training import LossConfig

__all__ = ["ConfigError", "RunConfig", "load_config", "default_config_text"]


class ConfigError(ValueError):
    """Invalid or unknown configuration input."""


@dataclass(frozen=True)
class TrainSettings:
    steps: int = 300
    learning_rate: float = 1e-3
    decay_factor: float = 0.5
    decay_steps: tuple[int, ...] = (180, 240)


@dataclass
class RunConfig:
    scene: SceneSpec = field(default_factory=SceneSpec)
    model: ModelConfig = field(default_factory=ModelConfig)
    loss: LossConfig = field(default_factory=LossConfig)
    train: TrainSettings = field(default_factory=TrainSettings)
    fusion: FusionThresholds = field(default_factory=FusionThresholds)
    # False when the cascade depth range was not set explicitly: commands
    # operating on an existing scene then adopt the scene's own range.
    cascade_range_explicit: bool = False


# (section, key) -> (target dataclass attr path, parser)
def _parse_bool(s: str) -> bool:
    v = s.strip().lower()
    if v in ("1", "true", "yes", "on"):
        return True
    if v in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got '{s}'")


def _parse_ints(s: str) -> tuple[int, ...]:
    return tuple(int(x) for x in s.replace(",", " ").split())


def _parse_floats(s: str) -> tuple[float, ...]:
    return tuple(float(x) for x in s.replace(",", " ").split())


def _parse_pair(s: str) -> tuple[float, float]:
    vals = _parse_floats(s)
    if len(vals) != 2:
        raise ConfigError(f"expected two numbers, got '{s}'")
    return vals  # type: ignore[return-value]


def _parse_triple(s: str) -> tuple[float, float, float]:
    vals = _parse_floats(s)
    if len(vals) != 3:
        raise ConfigError(f"expected three numbers, got '{s}'")
    return vals  # type: ignore[return-value]


_SCHEMA: dict[str, dict[str, tuple[str, object]]] = {
    "scene": {
        "kind": ("kind", str),
        "height": ("height", int),
        "width": ("width", int),
        "n_views": ("n_views", int),
        "focal": ("focal", float),
        "baseline": ("baseline", float),
        "d_min": ("d_min", float),
        "d_max": ("d_max", float),
        "plane_depth": ("plane_depth", float),
        "plane_tilt": ("plane_tilt", _parse_pair),
        "sphere_depth": ("sphere_depth", float),
        "sphere_radius": ("sphere_radius", float),
        "checker_size": ("checker_size", float),
        "noise_freq": ("noise_freq", float),
        "light": ("light", _parse_triple),
        "ambient": ("ambient", float),
        "jitter": ("jitter", float),
        "parallel_rig": ("parallel_rig", _parse_bool),
        "supersample": ("supersample", int),
    },
    "model": {
        "n_blocks": ("n_blocks", int),
        "n_heads": ("n_heads", int),
        "attention_normalized": ("attention_normalized", _parse_bool),
        "use_pathway": ("use_pathway", _parse_bool),
    },
    "cascade": {
        "counts": ("counts", _parse_ints),
        "decays": ("decays", _parse_floats),
        "d_min": ("d_min", float),
        "d_max": ("d_max", float),
    },
    "loss": {
        "gamma": ("gamma", float),
        "stage_weights": ("stage_weights", _parse_floats),
    },
    "train": {
        "steps": ("steps", int),
        "learning_rate": ("learning_rate", float),
        "decay_factor": ("decay_factor", float),
        "decay_steps": ("decay_steps", _parse_ints),
    },
    "fusion": {
        "confidence": ("confidence", float),
        "pixel": ("pixel", float),
        "relative": ("relative", float),
    },
}


def load_config(path=None, text: str | None = None) -> RunConfig:
    """Parse and validate a config file; defaults fill whatever is absent."""
    parser = configparser.ConfigParser()
    parser.optionxform = str  # keep keys case-sensitive
    if text is None:
        if path is None:
            return RunConfig()
        path = Path(path)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        text = path.read_text(encoding="utf-8")
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config parse failure: {exc}") from exc

    values: dict[str, dict[str, object]] = {section: {} for section in _SCHEMA}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section '[{section}]'")
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown config key '{key}' in section '[{section}]'")
            attr, convert = _SCHEMA[section][key]
            try:
                values[section][attr] = convert(raw)
            except (ValueError, TypeError) as exc:
                raise ConfigError(f"bad value for '{section}.{key}': {raw!r}") from exc

    range_explicit = any(key in values[section]
                         for section in ("cascade", "scene")
                         for key in ("d_min", "d_max"))
    try:
        scene = SceneSpec(**values["scene"])
        cascade_kwargs = dict(values["cascade"])
        cascade_kwargs.setdefault("d_min", scene.d_min)
        cascade_kwargs.setdefault("d_max", scene.d_max)
        cascade = CascadeConfig(**cascade_kwargs)
        model = ModelConfig(cascade=cascade, **values["model"])
        loss = LossConfig(**values["loss"])
        train = TrainSettings(**values["train"])
        fusion = FusionThresholds(**values["fusion"])
    except Exception as exc:
        raise ConfigError(f"invalid configuration: {exc}") from exc
    return RunConfig(scene=scene, model=model, loss=loss, train=train, fusion=fusion,
                     cascade_range_explicit=range_explicit)


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ", ".join(_format_value(v) for v in value)
    return str(value)


def default_config_text() -> str:
    """All sections and keys with their default values, ready to edit."""
    cfg = RunConfig()
    sources = {
        "scene": cfg.scene, "model": cfg.model, "cascade": cfg.model.cascade,
        "loss": cfg.loss, "train": cfg.train, "fusion": cfg.fusion,
    }
    out = io.StringIO()
    for section, schema in _SCHEMA.items():
        out.write(f"[{section}]\n")
        src = sources[section]
        for key, (attr, _) in schema.items():
            out.write(f"{key} = {_format_value(getattr(src, attr))}\n")
        out.write("\n")
    return out.getvalue()
