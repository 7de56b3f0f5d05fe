"""Confidence + geometric-consistency filtering and multi-view depth fusion.

A reference pixel survives filtering when its confidence clears a
threshold and enough source views agree geometrically: the pixel is
projected into a source view, the source's depth there is read back,
re-projected into the reference, and both the round-trip pixel error and
the relative depth error must stay small. The required agreement relaxes
as more supporting views are demanded (thresholds scale with n - 1 for
support level n).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import ContractError, DimensionError
from .cameras import CameraView, backproject_pixels, project_points, warp_pixel

__all__ = [
    "FusionThresholds", "ConsistencyRecord", "PointCloud",
    "geometric_check", "dynamic_filter", "fuse_point_cloud", "pixel_grid",
]


@dataclass(frozen=True)
class FusionThresholds:
    confidence: float = 0.3
    pixel: float = 1.0        # reprojection error budget (px) at unit level
    relative: float = 0.01    # relative depth error budget at unit level

    def pixel_at(self, n: int) -> float:
        return (n - 1) * self.pixel

    def relative_at(self, n: int) -> float:
        return (n - 1) * self.relative


@dataclass
class ConsistencyRecord:
    """Forward-backward reprojection errors of one (reference, source) pair."""

    pixel_error: np.ndarray      # (H, W), +inf where not co-visible
    relative_error: np.ndarray   # (H, W), +inf where not co-visible
    covisible: np.ndarray        # (H, W) bool
    src_depth: np.ndarray        # (H, W) source depth sampled at the projection
    src_points: np.ndarray       # (H, W, 3) world points seen by the source


@dataclass
class PointCloud:
    """Fused world-space points with colors in [0, 1]."""

    points: np.ndarray                      # (N, 3)
    colors: np.ndarray = field(default=None)  # (N, 3) or None

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float64).reshape(-1, 3)
        if self.colors is None:
            self.colors = np.zeros_like(self.points)
        else:
            self.colors = np.asarray(self.colors, dtype=np.float64).reshape(-1, 3)
        if not np.all(np.isfinite(self.points)):
            raise ContractError("point cloud contains non-finite coordinates")

    def __len__(self):
        return self.points.shape[0]


def pixel_grid(h: int, w: int) -> np.ndarray:
    """(H, W, 2) float64 pixel coordinates, x then y."""
    ys, xs = np.meshgrid(np.arange(h, dtype=np.float64),
                         np.arange(w, dtype=np.float64), indexing="ij")
    return np.stack([xs, ys], axis=-1)


def _sample_depth(depth: np.ndarray, xy: np.ndarray) -> np.ndarray:
    """Bilinearly read a depth map at continuous coordinates; 0 outside or where invalid.

    A hair of slack at the border keeps exact-edge warps (identity camera
    pairs land on w-1 plus float noise) classified as inside.
    """
    eps = 1e-9
    h, w = depth.shape
    x, y = xy[..., 0], xy[..., 1]
    inside = (x >= -eps) & (x <= w - 1 + eps) & (y >= -eps) & (y <= h - 1 + eps)
    xc = np.clip(x, 0, w - 1)
    yc = np.clip(y, 0, h - 1)
    x0 = np.clip(np.floor(xc), 0, w - 2).astype(int)
    y0 = np.clip(np.floor(yc), 0, h - 2).astype(int)
    fx = xc - x0
    fy = yc - y0
    corners = np.stack([depth[y0, x0], depth[y0, x0 + 1],
                        depth[y0 + 1, x0], depth[y0 + 1, x0 + 1]])
    weights = np.stack([(1 - fx) * (1 - fy), fx * (1 - fy),
                        (1 - fx) * fy, fx * fy])
    # A zero (invalid) corner poisons the interpolation; require all valid.
    all_valid = (corners > 0).all(axis=0)
    d = (corners * weights).sum(axis=0)
    return np.where(inside & all_valid, d, 0.0)


def geometric_check(ref_depth: np.ndarray, src_depth: np.ndarray,
                    ref_view: CameraView, src_view: CameraView) -> ConsistencyRecord:
    """Round-trip consistency of a reference depth map against one source."""
    if ref_depth.shape != (ref_view.height, ref_view.width):
        raise DimensionError(
            f"depth {ref_depth.shape} does not match view {ref_view.height}x{ref_view.width}")
    p_ref = pixel_grid(*ref_depth.shape)
    valid = ref_depth > 0

    p_src, _, in_front = warp_pixel(p_ref, np.where(valid, ref_depth, 1.0),
                                    ref_view.intrinsics, ref_view.extrinsics,
                                    src_view.intrinsics, src_view.extrinsics)
    d_src = _sample_depth(src_depth, p_src)
    covis = valid & in_front & (d_src > 0)

    src_points = backproject_pixels(src_view.intrinsics, src_view.extrinsics,
                                    p_src, np.where(covis, d_src, 1.0))
    p_back, d_back = project_points(ref_view.intrinsics, ref_view.extrinsics, src_points)
    covis &= d_back > 0

    e_pix = np.linalg.norm(p_back - p_ref, axis=-1)
    e_rel = np.abs(d_back - ref_depth) / np.where(valid, ref_depth, 1.0)
    inf = np.inf
    return ConsistencyRecord(
        pixel_error=np.where(covis, e_pix, inf),
        relative_error=np.where(covis, e_rel, inf),
        covisible=covis,
        src_depth=np.where(covis, d_src, 0.0),
        src_points=src_points)


def dynamic_filter(records: list[ConsistencyRecord], confidence: np.ndarray,
                   thresholds: FusionThresholds = FusionThresholds()
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Per-pixel validity under the dynamic consistency rule.

    A pixel is valid iff its confidence reaches the threshold and there is
    some support level n in {2, ..., N-1} (N = total views) at which at
    least n source views pass the level's pixel/relative error bounds.
    Returns (valid mask, per-source support mask at the accepting level).
    """
    if not records:
        # No sources: the n >= 2 support requirement is unreachable.
        shape = np.asarray(confidence).shape
        return np.zeros(shape, dtype=bool), np.zeros((0,) + shape, dtype=bool)
    n_views = len(records) + 1
    conf_ok = confidence >= thresholds.confidence
    valid = np.zeros_like(conf_ok, dtype=bool)
    support = np.zeros((len(records),) + conf_ok.shape, dtype=bool)
    for n in range(2, max(n_views, 3)):
        passes = np.stack([(r.pixel_error < thresholds.pixel_at(n))
                           & (r.relative_error < thresholds.relative_at(n))
                           for r in records])
        level_ok = passes.sum(axis=0) >= n
        newly = level_ok & ~valid & conf_ok
        support |= passes & newly[None]
        valid |= level_ok & conf_ok
    return valid, support


def fuse_point_cloud(ref_view: CameraView, ref_depth: np.ndarray,
                     records: list[ConsistencyRecord], valid: np.ndarray,
                     support: np.ndarray) -> PointCloud:
    """Back-project valid pixels, averaging with supporting source views.

    Colors come from the reference image. An empty result is legal.
    """
    h, w = ref_depth.shape
    pts_ref = backproject_pixels(ref_view.intrinsics, ref_view.extrinsics, pixel_grid(h, w),
                                 np.where(valid, ref_depth, 1.0))
    total = pts_ref.copy()
    count = np.ones((h, w))
    for rec, sup in zip(records, support):
        use = sup & valid
        total += np.where(use[..., None], rec.src_points, 0.0)
        count += use
    fused = total / count[..., None]
    sel = valid.reshape(-1)
    points = fused.reshape(-1, 3)[sel]
    colors = ref_view.image.transpose(1, 2, 0).reshape(-1, ref_view.image.shape[0])[sel]
    return PointCloud(points=points, colors=colors[:, :3])
