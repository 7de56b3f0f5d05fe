"""Plane-sweep correlation volumes.

Source features are warped to the reference view at every depth
hypothesis, correlated channel-wise against the reference feature, and the
per-view volumes are aggregated with pixel-wise saliency weights (each
view's maximum correlation over depth). Out-of-view warps contribute exact
zeros and are excluded from the saliency maximum, so image borders cannot
dominate the aggregation.

A warp is built lazily: ``warp_source_features`` returns what to sample and
where (a ``SourceWarp``), and ``pairwise_correlation`` samples and
correlates it in one op, ``autodiff.sampled_correlation``, so no (D, F, H',
W') warped volume is held, by the forward or by the graph. The cascade
sweeps constant depth planes, so the grid is a plain array and only the
features are differentiated. The sampler's validity mask is the only
mask: ``build_warp_grid`` moves a point behind the source camera out of
bounds.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import ContractError, DimensionError, Tensor
from .cameras import Extrinsics, Intrinsics, build_warp_grid

__all__ = ["SourceWarp", "warp_source_features", "pairwise_correlation",
           "aggregate_correlation"]

_MASK_FILL = 1e9  # pushed below every real correlation before the saliency max


class SourceWarp(NamedTuple):
    """A source feature map (F, H, W) and the (D, H', W', 2) grid of its
    pixel coordinates that every depth plane samples."""

    source: Tensor
    grid: np.ndarray


def warp_source_features(src_feat: Tensor, planes: np.ndarray,
                         ref_intr: Intrinsics, ref_extr: Extrinsics,
                         src_intr: Intrinsics, src_extr: Extrinsics) -> SourceWarp:
    """Where a source feature map is sampled at every depth plane.

    ``planes`` holds constant (D, H', W') depth planes. Only the grid is
    built here, in the planes' dtype; ``pairwise_correlation`` samples it.
    """
    return SourceWarp(ad.as_tensor(src_feat),
                      build_warp_grid(planes, ref_intr, ref_extr, src_intr, src_extr))


def pairwise_correlation(ref_feat: Tensor, warped: Tensor | SourceWarp,
                         mask: np.ndarray | None = None) -> tuple[Tensor, np.ndarray]:
    """Inner product over channels: c at (p, d) = <F0(p), warped(d, p)>.

    ``ref_feat`` is (F, H', W'). ``warped`` is a ``SourceWarp``, sampled
    here, or a warped volume (D, F, H', W') with its (D, H', W') validity
    ``mask``. Returns the (H', W', D) volume and its validity mask; masked
    entries are exact zeros.
    """
    if isinstance(warped, SourceWarp):
        corr, mask = ad.sampled_correlation(ref_feat, warped.source, warped.grid)
    else:
        if ref_feat.ndim != 3 or warped.ndim != 4 or ref_feat.shape[0] != warped.shape[1]:
            raise DimensionError(
                f"channel mismatch: reference {ref_feat.shape} vs warped {warped.shape}")
        corr = ad.sum_(ad.reshape(ref_feat, (1,) + ref_feat.shape) * warped, axis=1)
        corr = corr * ad.tensor(mask.astype(corr.dtype))
    return ad.transpose(corr, (1, 2, 0)), np.ascontiguousarray(np.moveaxis(mask, 0, -1))


def aggregate_correlation(volumes: Tensor, masks: np.ndarray) -> Tensor:
    """Saliency-weighted sum over the source axis of (S, H', W', D) volumes.

    Each source's pixel weight is its maximum correlation over the depth
    axis (invalid entries excluded; a fully masked pixel gets weight 0);
    the weight multiplies that source's whole correlation column. The max
    participates in differentiation through its arg element.
    """
    if volumes.shape != masks.shape or volumes.ndim != 4:
        raise DimensionError(
            f"correlations {volumes.shape} and masks {masks.shape} must match as (S, H', W', D)")
    if volumes.shape[0] == 0:
        raise ContractError("aggregate_correlation needs at least one source view")
    m = masks.astype(volumes.dtype)
    w, _ = ad.max_with_argmax(volumes * m - _MASK_FILL * (1.0 - m), axis=3)  # (S, H', W')
    w = w * masks.any(axis=3).astype(volumes.dtype)
    return ad.sum_(ad.reshape(w, w.shape + (1,)) * volumes, axis=0)
