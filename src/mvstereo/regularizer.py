"""Correlation-volume regularization and winner-take-all depth readout."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import DimensionError, Tensor
from .cameras import DepthHypotheses
from .nn import ConvLayer, Module, subsample_2x

__all__ = ["DepthEstimate", "VolumeRegularizer", "probability_volume", "winner_take_all"]


@dataclass
class DepthEstimate:
    """Winner-take-all depth and confidence maps for one stage."""

    depth: np.ndarray
    confidence: np.ndarray


def _crop_to(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    return x[:, :shape[1], :shape[2], :shape[3]]


class VolumeRegularizer(Module):
    """Compact 3D U-Net over the (D, H', W') volume (channels 8-16-32).

    Two subsample/upsample levels with additive skips and trilinear
    upsampling, at every stage: a subsample keeps an axis of extent 1 and
    each upsample is cropped to its skip, so any D >= 1 comes back intact.
    """

    def __init__(self, rng: np.random.Generator):
        super().__init__()
        self.c0 = ConvLayer(rng, 1, 8, dims=3)
        self.c1 = ConvLayer(rng, 8, 16, dims=3)
        self.c2a = ConvLayer(rng, 16, 32, dims=3)
        self.c2b = ConvLayer(rng, 32, 32, dims=3)
        self.u1 = ConvLayer(rng, 32, 16, act=False, dims=3)
        self.u0 = ConvLayer(rng, 16, 8, act=False, dims=3)
        self.out = ConvLayer(rng, 8, 1, act=False, dims=3)

    def __call__(self, volume: Tensor) -> Tensor:
        """Correlation volume (H', W', D) to logits of the same shape."""
        h, w, d = vol_check(volume).shape
        # Whiten the raw correlations: their scale grows with feature norms
        # (saliency weighting squares it) and would otherwise saturate the
        # depth softmax at initialization.
        vol = ad.reshape(ad.layer_norm(ad.reshape(volume, (1, h * w * d)), axis=1), (h, w, d))
        x = ad.reshape(ad.transpose(vol, (2, 0, 1)), (1, d, h, w))
        f0 = self.c0(x)
        f1 = self.c1(subsample_2x(f0))
        f2 = self.c2b(self.c2a(subsample_2x(f1)))
        # No name holds an upsampled input, and each skip is dropped
        # once it has been added.
        s1 = ad.relu(self.u1(_crop_to(ad.upsample_trilinear_2x(f2), f1.shape)) + f1)
        del f1, f2
        s0 = ad.relu(self.u0(_crop_to(ad.upsample_trilinear_2x(s1), f0.shape)) + f0)
        del f0, s1
        logits = self.out(s0)
        return ad.transpose(ad.reshape(logits, (d, h, w)), (1, 2, 0))


def vol_check(t: Tensor) -> Tensor:
    if t.ndim != 3:
        raise DimensionError(f"volume must be (H,W,D), got {t.shape}")
    return t


def probability_volume(logits: Tensor) -> Tensor:
    """Softmax over the depth axis of (H', W', D) logits."""
    return ad.softmax(vol_check(logits), axis=2)


def winner_take_all(prob: Tensor, hyps: DepthHypotheses) -> DepthEstimate:
    """Depth at the most probable hypothesis; ties go to the smaller index.

    Confidence is the probability mass of the 3-hypothesis window around
    the winner; at the ends of the volume the window shifts inward rather
    than shrinking.
    """
    p = vol_check(prob).data
    h, w, d = p.shape
    hyps.check_volume(p.shape)
    idx = p.argmax(axis=2)
    values = np.broadcast_to(hyps.values, p.shape)
    depth = np.take_along_axis(values, idx[..., None], axis=2)[..., 0]
    if d <= 3:
        conf = p.sum(axis=2)
    else:
        csum = np.concatenate([np.zeros((h, w, 1), dtype=p.dtype),
                               np.cumsum(p, axis=2)], axis=2)
        start = np.clip(idx - 1, 0, d - 3)
        lo = np.take_along_axis(csum, start[..., None], axis=2)[..., 0]
        hi = np.take_along_axis(csum, (start + 3)[..., None], axis=2)[..., 0]
        conf = hi - lo
    return DepthEstimate(depth=depth, confidence=np.clip(conf, 0.0, 1.0))
