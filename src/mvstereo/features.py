"""Feature pyramid, deformable receptive-field module, and the
transformed-feature pathway that carries coarse matcher outputs (and their
gradients) to the finer cascade stages.

The deformable convolution itself is one autodiff op,
``autodiff.deformable_conv2d`` (re-exported here): it samples and
multiplies a block of pixels at a time, so its forward builds no
[9C, H*W] patch matrix and the tape keeps none.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import DimensionError, Tensor, deformable_conv2d
from .nn import ConvLayer, Module, kaiming_uniform, parameter, subsample_2x

__all__ = [
    "FeaturePyramidNet", "DeformableConv2d", "PathwayMerge",
    "deformable_conv2d", "PYRAMID_CHANNELS",
]

# Channel counts at scales 1/4, 1/2, 1.
PYRAMID_CHANNELS = (32, 16, 8)


class FeaturePyramidNet(Module):
    """Strided encoder with top-down lateral merges; three output scales.

    Input images must have height and width divisible by 4. Outputs are
    (32, H/4, W/4), (16, H/2, W/2), (8, H, W).
    """

    def __init__(self, rng: np.random.Generator, in_channels: int = 3):
        super().__init__()
        c4, c2, c1 = PYRAMID_CHANNELS
        self.enc0a = ConvLayer(rng, in_channels, c1, norm=True)
        self.enc0b = ConvLayer(rng, c1, c1, norm=True)
        self.enc1a = ConvLayer(rng, c1, c2, norm=True)   # applied after 2x subsample
        self.enc1b = ConvLayer(rng, c2, c2, norm=True)
        self.enc2a = ConvLayer(rng, c2, c4, norm=True)
        self.enc2b = ConvLayer(rng, c4, c4, norm=True)
        self.head2 = ConvLayer(rng, c4, c4, act=False)
        self.proj21 = ConvLayer(rng, c4, c2, kernel=1, act=False)
        self.lat1 = ConvLayer(rng, c2, c2, kernel=1, act=False)
        self.head1 = ConvLayer(rng, c2, c2, act=False)
        self.proj10 = ConvLayer(rng, c2, c1, kernel=1, act=False)
        self.lat0 = ConvLayer(rng, c1, c1, kernel=1, act=False)
        self.head0 = ConvLayer(rng, c1, c1, act=False)

    def __call__(self, image: Tensor) -> tuple[Tensor, Tensor, Tensor]:
        """Returns features at (1/4, 1/2, 1) resolution, coarse first."""
        _, h, w = image.shape
        if h % 4 or w % 4:
            raise DimensionError(f"image extents must be multiples of 4, got {h}x{w}")
        e0 = self.enc0b(self.enc0a(image))
        e1 = self.enc1b(self.enc1a(subsample_2x(e0)))
        e2 = self.enc2b(self.enc2a(subsample_2x(e1)))
        f_quarter = self.head2(e2)
        # Each 1x1 projection runs before its upsample: both are linear and
        # each interpolation row sums to 1, so the order changes only
        # rounding, and the graph keeps the coarse map, not its 4x upsample.
        m1 = self.lat1(e1) + ad.upsample_bilinear_2x(self.proj21(e2))
        f_half = self.head1(m1)
        m0 = self.lat0(e0) + ad.upsample_bilinear_2x(self.proj10(m1))
        f_full = self.head0(m0)
        return f_quarter, f_half, f_full


class DeformableConv2d(Module):
    """Adaptive receptive field: offsets predicted from the features.

    The offset predictor is initialized to exact zeros, so at construction
    this module equals a standard 3x3 convolution.
    """

    def __init__(self, rng: np.random.Generator, channels: int):
        super().__init__()
        fan_in = channels * 9
        self.weight = parameter(kaiming_uniform(rng, (channels, channels, 3, 3), fan_in))
        self.bias = parameter(np.zeros(channels))
        self.offset_weight = parameter(np.zeros((18, channels, 3, 3)))
        self.offset_bias = parameter(np.zeros(18))

    def predict_offsets(self, feat: Tensor) -> Tensor:
        off = ad.conv2d(feat, self.offset_weight, padding=1)
        return off + ad.reshape(self.offset_bias, (-1, 1, 1))

    def __call__(self, feat: Tensor) -> Tensor:
        out = deformable_conv2d(feat, self.weight, self.predict_offsets(feat))
        return out + ad.reshape(self.bias, (-1, 1, 1))


class PathwayMerge(Module):
    """Project coarse transformed features' channels, upsample them 2x, and
    add them to the finer features: the 1x1 projection commutes with the
    upsample (see FeaturePyramidNet), so it runs at the coarse scale."""

    def __init__(self, rng: np.random.Generator, coarse_channels: int, fine_channels: int):
        super().__init__()
        self.proj = ConvLayer(rng, coarse_channels, fine_channels, kernel=1, act=False)

    def __call__(self, transformed_coarse: Tensor, raw_finer: Tensor) -> Tensor:
        up = ad.upsample_bilinear_2x(self.proj(transformed_coarse))
        if up.shape[1:] != raw_finer.shape[1:]:
            raise DimensionError(
                f"pathway spatial mismatch: upsampled {up.shape} vs finer {raw_finer.shape}")
        return raw_finer + up
