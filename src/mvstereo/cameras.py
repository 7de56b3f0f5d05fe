"""Pinhole cameras, depth-parameterized warping, and plane-sweep hypotheses.

Conventions: pixel (x, y) = (column, row) with centers on the integer
lattice; extrinsics map world to camera coordinates (Xc = R @ Xw + t);
depth is the camera-frame z of a point. Warping a reference pixel p at
depth d into a source view back-projects p, applies the relative pose, and
projects: p_hat = K @ (R_rel @ (K0^-1 p d) + t_rel).

Everything here is plain numpy: the cascade's depth planes are constants,
so its warp grids are never differentiated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import ContractError, DimensionError

__all__ = [
    "Intrinsics", "Extrinsics", "CameraView", "DepthHypotheses",
    "pixel_grid", "warp_pixel", "build_warp_grid",
    "sample_hypotheses_initial", "refine_hypotheses",
    "project_points", "backproject_pixels",
    "format_camera_text", "parse_camera_text",
]

BEHIND_EPS = 1e-6


@dataclass(frozen=True)
class Intrinsics:
    """Pinhole intrinsics in pixels; skew is fixed to zero."""

    fx: float
    fy: float
    cx: float
    cy: float

    def __post_init__(self):
        if self.fx <= 0 or self.fy <= 0:
            raise ContractError(f"focal lengths must be positive, got fx={self.fx} fy={self.fy}")

    @property
    def matrix(self) -> np.ndarray:
        return np.array([[self.fx, 0.0, self.cx],
                         [0.0, self.fy, self.cy],
                         [0.0, 0.0, 1.0]])

    def scaled(self, factor: float) -> "Intrinsics":
        """Scale to a pyramid level (all four entries by ``factor``)."""
        return Intrinsics(self.fx * factor, self.fy * factor,
                          self.cx * factor, self.cy * factor)


@dataclass(frozen=True)
class Extrinsics:
    """World-to-camera rigid transform."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=np.float64)
        t = np.asarray(self.translation, dtype=np.float64).reshape(3)
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)
        if r.shape != (3, 3):
            raise DimensionError(f"rotation must be 3x3, got {r.shape}")
        if not np.allclose(r.T @ r, np.eye(3), atol=1e-9):
            raise ContractError("rotation is not orthonormal (R^T R != I within 1e-9)")
        if abs(np.linalg.det(r) - 1.0) > 1e-9:
            raise ContractError("rotation determinant is not +1 within 1e-9")

    @property
    def matrix4(self) -> np.ndarray:
        m = np.eye(4)
        m[:3, :3] = self.rotation
        m[:3, 3] = self.translation
        return m

    @property
    def center(self) -> np.ndarray:
        """Camera center in world coordinates."""
        return -self.rotation.T @ self.translation


@dataclass
class CameraView:
    """One calibrated view: cameras, image, and optional ground truth."""

    intrinsics: Intrinsics
    extrinsics: Extrinsics
    image: np.ndarray                       # (C, H, W), values in [0, 1]
    depth: np.ndarray | None = None         # (H, W), scene units, 0 = invalid
    mask: np.ndarray | None = None          # (H, W) bool

    def __post_init__(self):
        self.image = np.asarray(self.image)
        if self.image.ndim != 3:
            raise DimensionError(f"image must be (C,H,W), got {self.image.shape}")
        if self.depth is not None:
            self.depth = np.asarray(self.depth)
            if self.depth.shape != self.image.shape[1:]:
                raise DimensionError(
                    f"depth shape {self.depth.shape} != image plane {self.image.shape[1:]}")
            valid = self.depth > 0 if self.mask is None else self.mask
            if np.any(self.depth[valid] <= 0):
                raise ContractError("depth must be positive where valid")

    @property
    def height(self) -> int:
        return self.image.shape[1]

    @property
    def width(self) -> int:
        return self.image.shape[2]


def pixel_grid(h: int, w: int) -> np.ndarray:
    """(H, W, 2) float64 pixel coordinates, x then y."""
    ys, xs = np.meshgrid(np.arange(h, dtype=np.float64),
                         np.arange(w, dtype=np.float64), indexing="ij")
    return np.stack([xs, ys], axis=-1)


def relative_pose(ref: Extrinsics, src: Extrinsics) -> tuple[np.ndarray, np.ndarray]:
    """Rotation/translation taking reference-camera coords to source-camera coords."""
    r_rel = src.rotation @ ref.rotation.T
    t_rel = src.translation - r_rel @ ref.translation
    return r_rel, t_rel


def backproject_pixels(intr: Intrinsics, extr: Extrinsics,
                       xy: np.ndarray, depth: np.ndarray) -> np.ndarray:
    """Lift pixels (..., 2) at camera-frame depths (...) to world points (..., 3)."""
    xy = np.asarray(xy, dtype=np.float64)
    depth = np.asarray(depth, dtype=np.float64)
    x_cam = (xy[..., 0] - intr.cx) / intr.fx * depth
    y_cam = (xy[..., 1] - intr.cy) / intr.fy * depth
    pts_cam = np.stack([x_cam, y_cam, depth], axis=-1)
    return (pts_cam - extr.translation) @ extr.rotation


def project_points(intr: Intrinsics, extr: Extrinsics,
                   points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Project world points (..., 3) to pixels (..., 2); also return camera depth."""
    pts = np.asarray(points, dtype=np.float64)
    cam = pts @ extr.rotation.T + extr.translation
    z = cam[..., 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        u = intr.fx * cam[..., 0] / z + intr.cx
        v = intr.fy * cam[..., 1] / z + intr.cy
    return np.stack([u, v], axis=-1), z


def warp_pixel(xy: np.ndarray, depth: np.ndarray,
               ref_intr: Intrinsics, ref_extr: Extrinsics,
               src_intr: Intrinsics, src_extr: Extrinsics
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Map reference pixels (..., 2) at depths (...) into a source view.

    Returns (source pixels (..., 2), depth in the source frame (...),
    valid (...)): points landing behind the source camera (z <= eps) are
    flagged invalid rather than raising.
    """
    xy = np.asarray(xy, dtype=np.float64)
    depth = np.asarray(depth, dtype=np.float64)
    if depth.ndim and np.any(depth[np.isfinite(depth)] < 0):
        raise ContractError("warp_pixel requires non-negative depths")
    world = backproject_pixels(ref_intr, ref_extr, xy, depth)
    p_src, z_src = project_points(src_intr, src_extr, world)
    valid = z_src > BEHIND_EPS
    return p_src, z_src, valid


@dataclass
class DepthHypotheses:
    """Discretized depth candidates for one cascade stage.

    ``values`` is (D,) for the uniform stage-1 sweep, or (H, W, D) per
    pixel after refinement; every consumer broadcasts a (D,) record
    against the (H, W, D) volume. Values are strictly increasing along the
    depth axis and positive everywhere.
    """

    values: np.ndarray
    interval: float

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim not in (1, 3):
            raise DimensionError(f"hypotheses must be (D,) or (H,W,D), got {self.values.shape}")
        diffs = np.diff(self.values, axis=-1)
        if self.values.shape[-1] > 1 and not np.all(diffs > 0):
            raise ContractError("hypotheses must be strictly increasing along depth")
        if not np.all(self.values > 0):
            raise ContractError("hypotheses must be positive")

    @property
    def count(self) -> int:
        return self.values.shape[-1]

    def check_volume(self, shape: tuple[int, ...]) -> None:
        """Raise DimensionError unless the record fits an (H, W, D) volume:
        (D,) with the volume's D, or exactly (H, W, D)."""
        if self.values.shape not in (shape[-1:], shape):
            raise DimensionError(
                f"hypotheses {self.values.shape} do not match the (H,W,D) volume {shape}")

    def planes(self, height: int, width: int) -> np.ndarray:
        """Hypotheses as (D, H, W) depth planes."""
        self.check_volume((height, width, self.count))
        plane = np.broadcast_to(self.values, (height, width, self.count))
        return np.ascontiguousarray(np.moveaxis(plane, -1, 0))


def sample_hypotheses_initial(d_min: float, d_max: float, count: int) -> DepthHypotheses:
    """Uniform samples over [d_min, d_max], endpoints included."""
    if count < 2 or d_max <= d_min or d_min <= 0:
        raise ContractError(f"bad hypothesis range ({d_min}, {d_max}, {count})")
    values = np.linspace(d_min, d_max, count)
    interval = (d_max - d_min) / (count - 1)
    return DepthHypotheses(values, interval)


def refine_hypotheses(prev_depth: np.ndarray, count: int, decay: float,
                      prev_interval: float, d_min: float, d_max: float) -> DepthHypotheses:
    """Per-pixel window of ``count`` samples centered on the previous depth.

    The sample step is the previous interval scaled by ``decay``. Windows
    poking out of [d_min, d_max] are shifted back as a whole so the depth
    axis stays strictly increasing at every pixel.
    """
    prev = np.asarray(prev_depth, dtype=np.float64)
    if np.any(prev <= 0):
        raise ContractError("previous depth must be positive everywhere")
    interval = prev_interval * decay
    offsets = (np.arange(count) - (count - 1) / 2.0) * interval
    vals = prev[..., None] + offsets
    span = offsets[-1] - offsets[0]
    if span > d_max - d_min:
        # Window wider than the whole range: center it.
        mid = 0.5 * (d_min + d_max)
        vals = mid + np.broadcast_to(offsets, prev.shape + (count,)).copy()
    else:
        vals = vals + np.maximum(0.0, d_min - vals[..., :1])
        vals = vals - np.maximum(0.0, vals[..., -1:] - d_max)
    return DepthHypotheses(vals, interval)


def build_warp_grid(planes: np.ndarray, ref_intr: Intrinsics, ref_extr: Extrinsics,
                    src_intr: Intrinsics, src_extr: Extrinsics) -> np.ndarray:
    """Per-hypothesis sampling grid into a source view.

    ``planes`` holds constant (D, H, W) depth planes. Returns the
    (D, H, W, 2) grid of source-pixel coordinates, in the planes' dtype,
    that sampled_correlation and grid_sample_2d read. Where the
    back-projected point falls behind the source camera, both coordinates
    are ``-2 * max(H, W)``, out of bounds, so the sampler's validity mask
    is False there.
    """
    if planes.ndim != 3:
        raise DimensionError(f"depth planes must be (D,H,W), got {planes.shape}")
    _, height, width = planes.shape

    r_rel, t_rel = relative_pose(ref_extr, src_extr)
    xs, ys = np.moveaxis(pixel_grid(height, width), -1, 0)
    rays = np.stack([(xs - ref_intr.cx) / ref_intr.fx,
                     (ys - ref_intr.cy) / ref_intr.fy,
                     np.ones_like(xs)])                      # (3, H, W)
    a = np.einsum("ij,jhw->ihw", r_rel, rays)                # rotated ray dirs

    # Every factor in the planes' dtype, so float32 planes give a float32 grid.
    cast = planes.dtype.type
    qx, qy, qz = (a_i * planes + t_i for a_i, t_i in
                  zip(a.astype(planes.dtype), t_rel.astype(planes.dtype)))
    front = qz > BEHIND_EPS                                  # in front of the source camera
    qz = np.where(front, qz, cast(1.0))                      # keeps division finite
    far = cast(-2.0 * max(height, width))
    u = np.where(front, (qx / qz) * cast(src_intr.fx) + cast(src_intr.cx), far)
    v = np.where(front, (qy / qz) * cast(src_intr.fy) + cast(src_intr.cy), far)
    return np.stack([u, v], axis=-1)


# -- camera text format -------------------------------------------------------

def format_camera_text(intr: Intrinsics, extr: Extrinsics,
                       d_min: float, interval: float,
                       count: int | None = None, d_max: float | None = None) -> str:
    """Serialize to the interoperable plain-text camera layout."""
    lines = ["extrinsic"]
    for row in extr.matrix4:
        lines.append(" ".join(f"{v:.17g}" for v in row))
    lines.append("")
    lines.append("intrinsic")
    for row in intr.matrix:
        lines.append(" ".join(f"{v:.17g}" for v in row))
    lines.append("")
    tail = f"{d_min:.17g} {interval:.17g}"
    if count is not None and d_max is not None:
        tail += f" {count:d} {d_max:.17g}"
    lines.append(tail)
    return "\n".join(lines) + "\n"


def parse_camera_text(text: str) -> tuple[Intrinsics, Extrinsics, dict]:
    """Parse the camera text format; returns (intrinsics, extrinsics, range info).

    The range dict holds d_min and interval, plus count/d_max when present.
    A token that is not a finite number, or a count that is not a positive
    integer, raises ContractError.
    """
    tokens = text.split()
    try:
        e_at = tokens.index("extrinsic")
        i_at = tokens.index("intrinsic")
    except ValueError as exc:
        raise ContractError("camera text missing 'extrinsic'/'intrinsic' tokens") from exc
    ext_vals = _numbers(tokens[e_at + 1:e_at + 17], "extrinsic block")
    if len(ext_vals) != 16:
        raise ContractError("camera text: extrinsic block must hold 16 numbers")
    m4 = np.array(ext_vals).reshape(4, 4)
    intr_vals = _numbers(tokens[i_at + 1:i_at + 10], "intrinsic block")
    if len(intr_vals) != 9:
        raise ContractError("camera text: intrinsic block must hold 9 numbers")
    k = np.array(intr_vals).reshape(3, 3)
    if abs(k[0, 1]) > 1e-12:
        raise ContractError("camera text: skew must be zero")
    rest = _numbers(tokens[i_at + 10:], "depth line")
    if len(rest) not in (2, 4):
        raise ContractError("camera text: depth line must be 'd_min interval [count d_max]'")
    info = {"d_min": rest[0], "interval": rest[1]}
    if len(rest) == 4:
        if not (rest[2] >= 1 and rest[2] == int(rest[2])):
            raise ContractError(f"camera text: hypothesis count {rest[2]!r} "
                                f"is not a positive integer")
        info["count"] = int(rest[2])
        info["d_max"] = rest[3]
    intr = Intrinsics(k[0, 0], k[1, 1], k[0, 2], k[1, 2])
    extr = Extrinsics(m4[:3, :3], m4[:3, 3])
    return intr, extr, info


def _numbers(tokens: list[str], what: str) -> list[float]:
    """Parse tokens as finite floats, naming the block of a bad one."""
    try:
        values = [float(t) for t in tokens]
    except ValueError as exc:
        raise ContractError(f"camera text: {what} holds a non-numeric token ({exc})") from None
    if not np.isfinite(values).all():
        raise ContractError(f"camera text: {what} holds a non-finite number")
    return values
