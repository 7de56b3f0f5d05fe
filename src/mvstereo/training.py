"""Focal-loss supervision, Adam, checkpoints, and the training loop."""

from __future__ import annotations

import contextlib
import logging
import math
import os
import struct
import uuid
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import ContractError, Tensor
from .cameras import DepthHypotheses
from .model import STAGE_SCALES, StageOutput, StereoModel
from .scene import SyntheticScene

logger = logging.getLogger(__name__)

__all__ = [
    "LossConfig", "Adam", "focal_loss", "total_loss", "train_step", "fit",
    "save_checkpoint", "load_checkpoint", "TrainingAborted",
]

LOG_CLAMP = 1e-12


class TrainingAborted(RuntimeError):
    """Raised when a step produces a non-finite loss."""


@dataclass(frozen=True)
class LossConfig:
    """Focal supervision settings."""

    gamma: float = 0.0
    stage_weights: tuple[float, ...] = (1.0, 1.0, 1.0)

    def __post_init__(self):
        if self.gamma < 0:
            raise ContractError(f"focusing parameter must be >= 0, got {self.gamma}")


def focal_loss(prob: Tensor, gt_depth: np.ndarray,
               hyps: DepthHypotheses, mask: np.ndarray, gamma: float) -> Tensor:
    """Mean focal loss over valid pixels.

    The target hypothesis at each pixel is the one closest to the ground
    truth; the loss is -(1 - P_target)^gamma * log(P_target) with the log
    clamped at 1e-12, averaged over valid pixels. With no valid pixels the
    loss is defined as 0 and a warning is logged.
    """
    h, w, d = prob.shape
    gt = np.asarray(gt_depth, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    if gt.shape != (h, w) or mask.shape != (h, w):
        raise ad.DimensionError(
            f"ground truth {gt.shape}/mask {mask.shape} must match volume plane ({h},{w})")
    hyps.check_volume(prob.shape)
    target = np.abs(hyps.values - gt[..., None]).argmin(axis=2)

    n_valid = int(mask.sum())
    if n_valid == 0:
        logger.warning("focal loss: no valid pixels, defining loss as 0")
        return ad.tensor(np.zeros(()))

    p_sel = ad.reshape(ad.take_along_axis(prob, target[..., None], axis=2), (h, w))
    log_p = ad.log(ad.maximum(p_sel, LOG_CLAMP))
    if gamma == 0.0:
        weighted = log_p
    else:
        focus = ad.pow_const(ad.maximum(1.0 - p_sel, LOG_CLAMP), gamma)
        weighted = focus * log_p
    m = ad.tensor(mask.astype(prob.dtype))
    return -ad.sum_(weighted * m) * (1.0 / n_valid)


def total_loss(stage_losses: list[Tensor], weights) -> Tensor:
    """Weighted sum of per-stage losses."""
    if len(stage_losses) != len(tuple(weights)):
        raise ContractError(f"{len(stage_losses)} losses vs {len(tuple(weights))} weights")
    total = None
    for loss, w in zip(stage_losses, weights):
        term = loss * float(w)
        total = term if total is None else total + term
    return total


def stage_ground_truth(view, stage_index: int) -> tuple[np.ndarray, np.ndarray]:
    """Nearest-neighbor ground truth and validity at a stage's resolution."""
    step = round(1.0 / STAGE_SCALES[stage_index])
    gt = view.depth[::step, ::step]
    valid = gt > 0
    if view.mask is not None:
        valid = valid & view.mask[::step, ::step]
    return gt, valid


def cascade_loss(outputs: list[StageOutput], ref_view, cfg: LossConfig
                 ) -> tuple[Tensor, list[float]]:
    losses = []
    for i, out in enumerate(outputs):
        gt, valid = stage_ground_truth(ref_view, i)
        losses.append(focal_loss(out.prob, gt, out.hyps, valid, cfg.gamma))
    return total_loss(losses, cfg.stage_weights), [float(l.data) for l in losses]


class Adam:
    """Adam with bias correction and step-decayed learning rate."""

    def __init__(self, params: dict[str, Tensor], lr: float = 1e-3,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8,
                 decay_factor: float = 0.5, decay_steps: tuple[int, ...] = ()):
        self.params = dict(params)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.decay_factor = decay_factor
        self.decay_steps = tuple(sorted(decay_steps))
        self.step_count = 0
        self.m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        # Two flat buffers per dtype, as large as the largest parameter, hold
        # every parameter's update temporaries, so a step allocates nothing.
        size = max((p.size for p in self.params.values()), default=0)
        self._scratch = {dt: np.empty((2, size), dtype=dt)
                         for dt in {p.data.dtype for p in self.params.values()}}

    def current_lr(self) -> float:
        drops = sum(1 for s in self.decay_steps if self.step_count >= s)
        return self.lr * self.decay_factor ** drops

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    def step(self) -> None:
        self.step_count += 1
        lr = self.current_lr()
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1 ** self.step_count
        bc2 = 1.0 - b2 ** self.step_count
        for key, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            m = self.m[key]
            v = self.v[key]
            # lr * (m / bc1) / (sqrt(v / bc2) + eps), in that operation order.
            num, den = (buf[:g.size].reshape(g.shape) for buf in self._scratch[p.data.dtype])
            m *= b1
            m += np.multiply(g, 1 - b1, out=num)
            v *= b2
            np.multiply(g, 1 - b2, out=num)
            num *= g
            v += num
            np.divide(m, bc1, out=num)
            num *= lr
            np.divide(v, bc2, out=den)
            np.sqrt(den, out=den)
            den += self.eps
            num /= den
            p.data -= num

    def state(self) -> dict[str, np.ndarray]:
        out = {"adam.step": np.array([self.step_count], dtype=np.float64)}
        for key in self.params:
            out[f"adam.m.{key}"] = self.m[key].copy()
            out[f"adam.v.{key}"] = self.v[key].copy()
        return out

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        self.step_count = int(state["adam.step"][0])
        for key in self.params:
            self.m[key] = np.asarray(state[f"adam.m.{key}"],
                                     dtype=self.params[key].dtype).copy()
            self.v[key] = np.asarray(state[f"adam.v.{key}"],
                                     dtype=self.params[key].dtype).copy()


def train_step(model: StereoModel, views, optimizer: Adam,
               loss_cfg: LossConfig) -> tuple[float, list[float]]:
    """One forward/backward/update on a single scene sample.

    A non-finite loss aborts the step before any parameter is touched; the
    error message reports parameter norms to aid diagnosis.
    """
    outputs = model(views)
    loss, per_stage = cascade_loss(outputs, views[0], loss_cfg)
    value = float(loss.data)
    if not np.isfinite(value):
        norms = {k: float(np.linalg.norm(p.data))
                 for k, p in sorted(model.named_parameters().items())[:8]}
        raise TrainingAborted(f"non-finite loss {value}; leading parameter norms: {norms}")
    optimizer.zero_grad()
    loss.backward()
    optimizer.step()
    return value, per_stage


def fit(model: StereoModel, scenes: list[SyntheticScene], steps: int,
        optimizer: Adam, loss_cfg: LossConfig,
        log_rows: list | None = None) -> list[float]:
    """Cycle scenes for ``steps`` updates; returns the loss trace."""
    trace = []
    for step in range(steps):
        scene = scenes[step % len(scenes)]
        value, per_stage = train_step(model, scene.views, optimizer, loss_cfg)
        trace.append(value)
        if log_rows is not None:
            log_rows.append([step, value] + per_stage + [optimizer.current_lr()])
        if step % 25 == 0 or step == steps - 1:
            logger.info("step %d: loss %.5f (stages %s)", step, value,
                        " ".join(f"{v:.4f}" for v in per_stage))
    return trace


# -- checkpoint container ------------------------------------------------------
#
# Layout (all little-endian):
#   magic  8 bytes  b"MVSTCKPT"
#   version u32     currently 1
#   count   u32     number of named arrays
#   entries count times:
#     name_len u32, name utf-8 bytes
#     ndim u32, shape i64 * ndim
#     data float32 * prod(shape)
# Model parameters appear under their dotted names; the model config fields
# that change no parameter shape as 0-d "config.*" entries (checked by
# StereoModel.load_state); optimizer state under "adam.step" / "adam.m.*" /
# "adam.v.*" when present.

_MAGIC = b"MVSTCKPT"
_VERSION = 1
_MAX_DIMS = 64  # numpy's limit on an array's dimensions


def save_checkpoint(path, model: StereoModel, optimizer: Adam | None = None) -> None:
    """Write a checkpoint to a new file beside ``path``, then rename it over
    ``path``: a save that fails midway leaves any previous file intact."""
    arrays: dict[str, np.ndarray] = model.state()
    if optimizer is not None:
        arrays.update(optimizer.state())
    path = Path(path)
    temp = path.with_name(f".{path.name}.{uuid.uuid4().hex[:12]}.tmp")
    try:
        with open(temp, "xb") as fh:
            fh.write(_MAGIC)
            fh.write(struct.pack("<II", _VERSION, len(arrays)))
            for name in sorted(arrays):
                arr = np.asarray(arrays[name], dtype="<f4")
                encoded = name.encode("utf-8")
                fh.write(struct.pack("<I", len(encoded)))
                fh.write(encoded)
                fh.write(struct.pack("<I", arr.ndim))
                fh.write(struct.pack(f"<{arr.ndim}q", *arr.shape))
                fh.write(arr.tobytes())
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(temp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(temp)


def load_checkpoint(path) -> dict[str, np.ndarray]:
    """Read a checkpoint's named arrays. A cut, padded or malformed file
    raises ContractError naming the file and, once read, the entry."""
    with open(path, "rb") as fh:
        blob = memoryview(fh.read())
    pos = 0

    def take(n: int, where: str) -> memoryview:
        nonlocal pos
        if n > len(blob) - pos:
            raise ContractError(f"{path}: truncated checkpoint: {where} needs {n} bytes "
                                f"at offset {pos}, {len(blob) - pos} left")
        pos += n
        return blob[pos - n:pos]

    if take(8, "header") != _MAGIC:
        raise ContractError(f"{path} is not a checkpoint (bad magic)")
    version, count = struct.unpack("<II", take(8, "header"))
    if version != _VERSION:
        raise ContractError(f"{path}: unsupported checkpoint version {version}")
    arrays = {}
    for i in range(count):
        (name_len,) = struct.unpack("<I", take(4, f"entry {i}"))
        name = bytes(take(name_len, f"entry {i}")).decode("utf-8", errors="replace")
        where = f"entry {i} '{name}'"
        (ndim,) = struct.unpack("<I", take(4, where))
        if ndim > _MAX_DIMS:
            raise ContractError(f"{path}: {where} has {ndim} dimensions; "
                                f"an array has at most {_MAX_DIMS}")
        shape = struct.unpack(f"<{ndim}q", take(8 * ndim, where))
        if min(shape, default=0) < 0:
            raise ContractError(f"{path}: negative extent in the shape of {where}")
        data = np.frombuffer(take(4 * math.prod(shape), where), dtype="<f4").reshape(shape)
        arrays[name] = data.astype(np.float64) if ad.get_default_dtype() == np.float64 else data.copy()
    if pos != len(blob):
        raise ContractError(f"{path}: {len(blob) - pos} trailing bytes after the last entry")
    return arrays


def restore(model: StereoModel, arrays: dict[str, np.ndarray],
            optimizer: Adam | None = None) -> None:
    model_state = {k: v for k, v in arrays.items() if not k.startswith("adam.")}
    model.load_state(model_state)
    if optimizer is not None and "adam.step" in arrays:
        optimizer.load_state(arrays)
