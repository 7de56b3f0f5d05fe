"""Tiny parameter-container layer over the autodiff tensors."""

from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

__all__ = ["Module", "parameter", "kaiming_uniform", "ConvLayer", "subsample_2x", "Linear"]


def parameter(data) -> Tensor:
    return ad.tensor(np.asarray(data, dtype=ad.get_default_dtype()), requires_grad=True)


def kaiming_uniform(rng: np.random.Generator, shape, fan_in: int, gain: float = 1.0) -> np.ndarray:
    bound = gain * math.sqrt(3.0 / max(fan_in, 1))
    return rng.uniform(-bound, bound, size=shape)


def _some(names: set[str], limit: int = 3) -> str:
    """Up to ``limit`` sorted names, then an ellipsis if more remain."""
    shown = sorted(names)[:limit] + (["..."] if len(names) > limit else [])
    return "[" + ", ".join(shown) + "]"


class Module:
    """Base class tracking parameters and child modules by attribute name."""

    def __init__(self):
        object.__setattr__(self, "_params", {})
        object.__setattr__(self, "_children", {})

    def __setattr__(self, name, value):
        if isinstance(value, Tensor) and value.requires_grad:
            self._params[name] = value
        elif isinstance(value, Module):
            self._children[name] = value
        object.__setattr__(self, name, value)

    def named_parameters(self, prefix: str = "") -> dict[str, Tensor]:
        out = {}
        for name, p in self._params.items():
            out[f"{prefix}{name}"] = p
        for name, child in self._children.items():
            out.update(child.named_parameters(prefix=f"{prefix}{name}."))
        return out

    def parameters(self) -> list[Tensor]:
        return list(self.named_parameters().values())

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        params = self.named_parameters()
        missing = set(params) - set(state)
        extra = set(state) - set(params)
        if missing or extra:
            raise ad.ContractError(
                f"checkpoint does not match the model: {len(missing)} missing "
                f"{_some(missing)}, {len(extra)} unexpected {_some(extra)}")
        for name, p in params.items():
            arr = np.asarray(state[name], dtype=p.dtype)
            if arr.shape != p.shape:
                raise ad.DimensionError(
                    f"parameter {name}: checkpoint shape {arr.shape} != model shape {p.shape}")
            p.data[...] = arr

    def state(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.named_parameters().items()}


class ConvLayer(Module):
    """3x3 (or 1x1) convolution over ``dims`` (2 or 3) spatial axes with bias,
    optional instance norm + ReLU."""

    def __init__(self, rng, c_in: int, c_out: int, kernel: int = 3,
                 norm: bool = False, act: bool = True, dims: int = 2):
        super().__init__()
        fan_in = c_in * kernel ** dims
        self.weight = parameter(kaiming_uniform(rng, (c_out, c_in) + (kernel,) * dims, fan_in))
        self.bias = parameter(np.zeros(c_out))
        self.kernel = kernel
        self.norm = norm
        self.act = act

    def __call__(self, x: Tensor) -> Tensor:
        conv = ad.conv3d if x.ndim == 4 else ad.conv2d   # (C, D, H, W) or (C, H, W)
        y = conv(x, self.weight, padding=self.kernel // 2)
        y = y + ad.reshape(self.bias, (-1,) + (1,) * (y.ndim - 1))
        if self.norm:
            # Instance norm: per-channel statistics over every spatial axis.
            y = ad.reshape(ad.layer_norm(ad.reshape(y, (y.shape[0], -1)), axis=1), y.shape)
        if self.act:
            y = ad.relu(y)
        return y


def subsample_2x(x: Tensor) -> Tensor:
    """Every other index of each axis after the channel axis."""
    return x[(slice(None),) + (slice(None, None, 2),) * (x.ndim - 1)]


class Linear(Module):
    def __init__(self, rng, d_in: int, d_out: int, bias: bool = True, scale: float = 1.0):
        super().__init__()
        self.weight = parameter(kaiming_uniform(rng, (d_in, d_out), d_in, gain=scale))
        self.use_bias = bias
        if bias:
            self.bias = parameter(np.zeros(d_out))

    def __call__(self, x: Tensor) -> Tensor:
        y = ad.matmul(x, self.weight)
        if self.use_bias:
            y = y + self.bias
        return y
