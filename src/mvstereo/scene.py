"""Synthetic calibrated scenes with exact analytic ground truth.

A scene is a textured plane or sphere rendered into a small ring of
pinhole cameras. Depth is computed by exact ray-surface intersection and
the albedo is a pure function of the 3D surface point (procedural value
noise plus a checkerboard), so reprojection consistency holds to float
precision by construction: every co-visible pixel pair observes the same
surface point and the same color up to Lambertian shading.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .autodiff import ContractError
from .cameras import (CameraView, Extrinsics, Intrinsics, backproject_pixels, pixel_grid,
                      project_points)

__all__ = ["SceneSpec", "SyntheticScene", "render_synthetic_scene"]

_RENDER_BLOCK = 1 << 13  # supersampled pixels shaded at a time


@dataclass(frozen=True)
class SceneSpec:
    """Parameters of a synthetic scene; all geometry in scene units."""

    kind: str = "plane"                  # "plane" or "sphere"
    height: int = 64
    width: int = 80
    n_views: int = 3
    focal: float = 70.0
    baseline: float = 0.6
    d_min: float = 1.2
    d_max: float = 3.3
    plane_depth: float = 2.0
    plane_tilt: tuple[float, float] = (0.12, -0.08)
    sphere_depth: float = 2.2
    sphere_radius: float = 0.75
    checker_size: float = 0.22
    noise_freq: float = 9.0
    light: tuple[float, float, float] = (0.35, -0.5, -0.95)
    ambient: float = 0.35
    jitter: float = 0.0                  # per-seed geometry variation amplitude
    parallel_rig: bool = False           # translate-only cameras (no look-at)
    supersample: int = 2                 # image anti-aliasing factor (depth stays exact)

    def __post_init__(self):
        for name, least in (("height", 1), ("width", 1), ("n_views", 2), ("supersample", 1)):
            if getattr(self, name) < least:
                raise ContractError(f"scene {name} must be at least {least}, "
                                    f"got {getattr(self, name)}")
        for name in ("focal", "noise_freq", "checker_size"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ContractError(f"scene {name} must be finite and positive, got {value}")

    def intrinsics(self) -> Intrinsics:
        return Intrinsics(self.focal, self.focal,
                          (self.width - 1) / 2.0, (self.height - 1) / 2.0)


@dataclass
class SyntheticScene:
    """Rendered views plus the analytic surface they observe."""

    spec: SceneSpec
    seed: int
    views: list[CameraView]
    surface: dict = field(default_factory=dict)

    def surface_distance(self, points: np.ndarray) -> np.ndarray:
        """Unsigned distance from world points (..., 3) to the true surface."""
        pts = np.asarray(points, dtype=np.float64)
        if self.surface["kind"] == "plane":
            n = self.surface["normal"]
            return np.abs(pts @ n - self.surface["offset"])
        center = self.surface["center"]
        return np.abs(np.linalg.norm(pts - center, axis=-1) - self.surface["radius"])

    def surface_normal(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=np.float64)
        if self.surface["kind"] == "plane":
            n = self.surface["normal"]
            return np.broadcast_to(n, pts.shape).copy()
        d = pts - self.surface["center"]
        return d / np.linalg.norm(d, axis=-1, keepdims=True)


def _hash_lattice(ix, iy, iz, seed: int) -> np.ndarray:
    """Deterministic pseudo-random values in [0, 1) on the integer lattice."""
    s = np.sin(ix * 127.1 + iy * 311.7 + iz * 74.7 + (seed % 1024) * 1013.9)
    return (s * 43758.5453) % 1.0


def _lattice_cells(i0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct integer-lattice cells among the columns of ``i0`` (3, N).

    Returns the cells (3, M) and each column's index into them. A cell's key
    packs its per-axis offsets to the minimum, so no two cells share a key.
    """
    lo = i0.min(axis=1, keepdims=True)
    span = i0.max(axis=1) - lo[:, 0] + 1
    if not np.prod(span) < 2.0 ** 62:      # also false for non-finite points
        raise ContractError(f"texture lattice spans {span} cells; surface points "
                            "are non-finite or too far from the cameras")
    key = np.ravel_multi_index((i0 - lo).astype(np.int64), span.astype(np.int64))
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    return i0[:, first], inverse


def _value_noise(points: np.ndarray, freq: float, seeds: list[int]) -> np.ndarray:
    """Trilinearly interpolated lattice noise, one octave per seed: (len(seeds), ...) in [0, 1).

    The lattice is built once and shared by the seeds, so each seed hashes
    only the corners of the distinct cells and every point gathers its own.
    """
    p = np.ascontiguousarray((points * freq).reshape(-1, 3).T)
    i0 = np.floor(p)
    f = p - i0
    t = f * f * (3.0 - 2.0 * f)
    weights = (1.0 - t, t)
    (cx, cy, cz), inverse = _lattice_cells(i0)
    out = np.zeros((len(seeds), p.shape[1]))
    for acc, seed in zip(out, seeds):
        for dx in (0, 1):
            for dy in (0, 1):
                for dz in (0, 1):
                    corner = _hash_lattice(cx + dx, cy + dy, cz + dz, seed)[inverse]
                    acc += corner * weights[dx][0] * weights[dy][1] * weights[dz][2]
    return out.reshape(len(seeds), *points.shape[:-1])


def _albedo(points: np.ndarray, spec: SceneSpec, seed: int) -> np.ndarray:
    """View-independent surface color (3, ...) at world points (..., 3)."""
    cell = np.floor(points / spec.checker_size).sum(axis=-1)
    checker = (cell % 2.0 == 0).astype(np.float64)
    color_a = np.array([0.9, 0.62, 0.25])
    color_b = np.array([0.18, 0.4, 0.85])
    base = checker[None] * color_a[:, None, None] + (1 - checker)[None] * color_b[:, None, None]
    n1 = _value_noise(points, spec.noise_freq, [seed + 11 * c for c in range(3)])
    n2 = _value_noise(points, spec.noise_freq * 3.1, [seed + 11 * c + 5 for c in range(3)])
    noise = 0.65 * n1 + 0.35 * n2
    return np.clip(base + 0.55 * (noise - 0.5), 0.02, 1.0)


def _look_at(center: np.ndarray, target: np.ndarray) -> Extrinsics:
    """World-to-camera pose for a camera at ``center`` looking at ``target``.

    Camera axes: x right, y down, z forward (towards the target).
    """
    fwd = target - center
    fwd = fwd / np.linalg.norm(fwd)
    approx_down = np.array([0.0, 1.0, 0.0])
    right = np.cross(approx_down, fwd)
    right = right / np.linalg.norm(right)
    down = np.cross(fwd, right)
    r = np.stack([right, down, fwd])
    return Extrinsics(r, -r @ center)


def _camera_ring(spec: SceneSpec, target_depth: float) -> list[Extrinsics]:
    """Reference camera at the origin plus sources fanned out along x/y."""
    target = np.array([0.0, 0.0, target_depth])
    poses = [Extrinsics(np.eye(3), np.zeros(3))]
    for i in range(1, spec.n_views):
        step = (i + 1) // 2
        side = 1.0 if i % 2 == 1 else -1.0
        center = np.array([side * step * spec.baseline,
                           0.35 * spec.baseline * side * ((i % 4) - 1.5),
                           0.0])
        if spec.parallel_rig:
            poses.append(Extrinsics(np.eye(3), -center))
        else:
            poses.append(_look_at(center, target))
    return poses


def _intersect(spec: SceneSpec, surface: dict, origin: np.ndarray,
               dirs: np.ndarray, strict: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Exact ray-surface intersection: (depth along camera z, hit mask)."""
    if spec.kind == "plane":
        n, c = surface["normal"], surface["offset"]
        denom = dirs @ n
        if strict and np.any(np.abs(denom) < 1e-12):
            raise ContractError("degenerate scene: camera ray parallel to plane")
        s = (c - origin @ n) / denom
        if strict and not np.all(s > 0):
            raise ContractError("degenerate scene: plane behind a camera")
        return s, s > 0
    center, radius = surface["center"], surface["radius"]
    oc = origin - center
    if strict and float(oc @ oc) <= radius * radius:
        raise ContractError("degenerate scene: camera inside the sphere")
    b = dirs @ oc
    a = (dirs * dirs).sum(axis=-1)
    disc = b * b - a * (float(oc @ oc) - radius * radius)
    hit = disc > 0
    s = np.where(hit, (-b - np.sqrt(np.maximum(disc, 0.0))) / a, 0.0)
    hit &= s > 0
    return np.where(hit, s, 0.0), hit


def _shade(spec: SceneSpec, surface: dict, origin: np.ndarray, dirs: np.ndarray,
           seed: int, light: np.ndarray) -> np.ndarray:
    """Lambertian color (3, ...) for the rays; background where rays miss."""
    depth, hit = _intersect(spec, surface, origin, dirs)
    points = origin + dirs * depth[..., None]
    albedo = _albedo(points, spec, seed)
    if spec.kind == "plane":
        normal = np.broadcast_to(-surface["normal"], points.shape)
    else:
        d = points - surface["center"]
        norm = np.linalg.norm(d, axis=-1, keepdims=True)
        normal = np.divide(d, norm, out=np.zeros_like(d), where=norm > 0)
    shade = spec.ambient + (1 - spec.ambient) * np.clip(normal @ -light, 0.0, 1.0)
    image = np.clip(albedo * shade[None], 0.0, 1.0)
    if spec.kind == "sphere":
        image = np.where(hit[None], image, 0.08)
    return image


def _render_image(spec: SceneSpec, surface: dict, intr: Intrinsics, extr: Extrinsics,
                  seed: int, light: np.ndarray) -> np.ndarray:
    """One view's image (3, H, W): each pixel is the mean of its s x s
    supersampled rays, shaded and box-filtered one block of whole rows at a
    time (at most ``_RENDER_BLOCK`` supersampled pixels, unless one row is
    larger) straight into the image."""
    s = spec.supersample
    sub = (np.arange(s) + 0.5) / s - 0.5
    # Ray (x, y) offsets in the camera plane, for every supersampled column.
    cols = ((np.arange(spec.width, dtype=np.float64)[:, None] + sub).ravel() - intr.cx) / intr.fx
    step = max(1, _RENDER_BLOCK // (s * s * spec.width))
    image = np.empty((3, spec.height, spec.width))
    for lo in range(0, spec.height, step):
        hi = min(lo + step, spec.height)
        rows = ((np.arange(lo, hi, dtype=np.float64)[:, None] + sub).ravel() - intr.cy) / intr.fy
        rays = np.empty((len(rows), len(cols), 3))
        rays[..., 0] = cols
        rays[..., 1] = rows[:, None]
        rays[..., 2] = 1.0
        fine = _shade(spec, surface, extr.center, rays @ extr.rotation, seed, light)
        fine.reshape(3, hi - lo, s, spec.width, s).mean(axis=(2, 4), out=image[:, lo:hi])
    return image


def render_synthetic_scene(spec: SceneSpec, seed: int) -> SyntheticScene:
    """Render all views of a scene; deterministic for a given (spec, seed)."""
    rng = np.random.default_rng(seed)
    if spec.jitter > 0:
        j = spec.jitter
        if spec.kind == "plane":
            spec = replace(
                spec,
                plane_depth=spec.plane_depth + rng.uniform(-j, j),
                plane_tilt=(spec.plane_tilt[0] + rng.uniform(-j, j) * 0.5,
                            spec.plane_tilt[1] + rng.uniform(-j, j) * 0.5))
        else:
            spec = replace(spec, sphere_depth=spec.sphere_depth + rng.uniform(-j, j))

    if spec.kind == "plane":
        n = np.array([spec.plane_tilt[0], spec.plane_tilt[1], -1.0])
        n = n / np.linalg.norm(n)
        offset = float(n @ np.array([0.0, 0.0, spec.plane_depth]))
        surface = {"kind": "plane", "normal": n, "offset": offset}
        target_depth = spec.plane_depth
    elif spec.kind == "sphere":
        center = np.array([0.0, 0.0, spec.sphere_depth])
        surface = {"kind": "sphere", "center": center, "radius": spec.sphere_radius}
        target_depth = spec.sphere_depth
    else:
        raise ContractError(f"unknown surface kind '{spec.kind}'")

    intr = spec.intrinsics()
    poses = _camera_ring(spec, target_depth)
    light = np.array(spec.light, dtype=np.float64)
    light = light / np.linalg.norm(light)

    xs, ys = np.moveaxis(pixel_grid(spec.height, spec.width), -1, 0)
    rays_cam = np.stack([(xs - intr.cx) / intr.fx,
                         (ys - intr.cy) / intr.fy,
                         np.ones_like(xs)], axis=-1)          # (H, W, 3)

    views = []
    for extr in poses:
        origin = extr.center
        depth, hit = _intersect(spec, surface, origin, rays_cam @ extr.rotation,
                                strict=True)
        image = _render_image(spec, surface, intr, extr, seed, light)
        if spec.kind == "sphere":
            depth = np.where(hit, depth, 0.0)
        views.append(CameraView(
            intrinsics=intr, extrinsics=extr,
            image=image,
            depth=depth.astype(np.float64),
            mask=hit if spec.kind == "sphere" else np.ones_like(depth, dtype=bool)))

    scene = SyntheticScene(spec=spec, seed=seed, views=views, surface=surface)
    _check_depth_range(scene)
    return scene


def _check_depth_range(scene: SyntheticScene) -> None:
    for view in scene.views:
        valid = view.depth[view.mask]
        if valid.size and (valid.min() < scene.spec.d_min or valid.max() > scene.spec.d_max):
            raise ContractError(
                f"scene depths [{valid.min():.3f}, {valid.max():.3f}] escape the sweep "
                f"range [{scene.spec.d_min}, {scene.spec.d_max}]")


def covisible_mask(scene: SyntheticScene, ref_id: int, src_id: int) -> np.ndarray:
    """Pixels of the reference view whose surface point is seen by the source."""
    ref = scene.views[ref_id]
    src = scene.views[src_id]
    pts = backproject_pixels(ref.intrinsics, ref.extrinsics,
                             pixel_grid(ref.height, ref.width), ref.depth)
    p_src, z_src = project_points(src.intrinsics, src.extrinsics, pts)
    inside = ((p_src[..., 0] >= 0) & (p_src[..., 0] <= src.width - 1)
              & (p_src[..., 1] >= 0) & (p_src[..., 1] <= src.height - 1)
              & (z_src > 0) & ref.mask)
    if scene.surface["kind"] == "sphere":
        normals = scene.surface_normal(pts)
        to_cam = src.extrinsics.center - pts
        inside &= (normals * to_cam).sum(axis=-1) > 0
    return inside
