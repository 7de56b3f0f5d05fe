"""Plain-file artifact formats: PFM depth maps, PPM images, ASCII PLY
clouds, camera text files, and the scene directory layout."""

from __future__ import annotations

import itertools
import re
from pathlib import Path

import numpy as np

from .autodiff import ContractError, DimensionError
from .cameras import CameraView, Extrinsics, Intrinsics, format_camera_text, parse_camera_text
from .fusion import PointCloud
from .scene import SyntheticScene

__all__ = [
    "write_pfm", "read_pfm", "write_ppm", "read_ppm", "write_ply", "read_ply",
    "save_scene", "load_scene", "save_camera_file", "load_camera_file",
]


# -- PFM: single-channel float maps -------------------------------------------

def write_pfm(path, data: np.ndarray, little_endian: bool = True) -> None:
    """Grayscale PFM: 'Pf', 'W H', scale line (sign = endianness), rows bottom-up."""
    arr = np.asarray(data, dtype=np.float32)
    if arr.ndim != 2:
        raise DimensionError(f"PFM writer expects (H, W), got {arr.shape}")
    h, w = arr.shape
    scale = -1.0 if little_endian else 1.0
    dtype = "<f4" if little_endian else ">f4"
    with open(path, "wb") as fh:
        fh.write(b"Pf\n")
        fh.write(f"{w} {h}\n".encode("ascii"))
        fh.write(f"{scale:.1f}\n".encode("ascii"))
        fh.write(arr[::-1].astype(dtype).tobytes())


def read_pfm(path) -> np.ndarray:
    with open(path, "rb") as fh:
        if fh.readline().strip() != b"Pf":
            raise ContractError(f"{path}: not a grayscale PFM")
        try:
            w, h = (int(v) for v in fh.readline().split())
            scale = float(fh.readline())
        except ValueError:
            raise ContractError(f"{path}: malformed PFM dims or scale line") from None
        payload = fh.read()
    if min(w, h) < 0 or len(payload) != 4 * w * h:
        raise ContractError(f"{path}: PFM header says {w}x{h} floats, "
                            f"payload has {len(payload)} bytes")
    data = np.frombuffer(payload, dtype="<f4" if scale < 0 else ">f4").reshape(h, w)
    return np.ascontiguousarray(data[::-1]).astype(np.float32)


# -- PPM: 8-bit color images ---------------------------------------------------

def write_ppm(path, image: np.ndarray) -> None:
    """Binary P6 from a (3, H, W) float image in [0, 1]."""
    img = np.asarray(image)
    if img.ndim != 3 or img.shape[0] != 3:
        raise DimensionError(f"PPM writer expects (3, H, W), got {img.shape}")
    quant = np.clip(np.rint(img * 255.0), 0, 255).astype(np.uint8)
    h, w = img.shape[1:]
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(quant.transpose(1, 2, 0).tobytes())


def read_ppm(path) -> np.ndarray:
    """(3, H, W) float image in [0, 1] from a binary P6 file."""
    with open(path, "rb") as fh:
        blob = fh.read()
    header = re.match(rb"P6\s+(\d+)\s+(\d+)\s+(\d+)\s", blob)
    if not header:
        raise ContractError(f"{path}: not a binary PPM")
    w, h, maxval = (int(g) for g in header.groups())
    if not 0 < maxval < 256 or len(blob) - header.end() != w * h * 3:
        raise ContractError(f"{path}: PPM header {w}x{h} maxval {maxval} does not fit "
                            f"its {len(blob) - header.end()} payload bytes")
    data = np.frombuffer(blob, dtype=np.uint8, count=w * h * 3, offset=header.end())
    return data.reshape(h, w, 3).transpose(2, 0, 1).astype(np.float64) / maxval


# -- PLY: ASCII point clouds ---------------------------------------------------

_PLY_ROW = "%.9g %.9g %.9g %d %d %d\n"
_PLY_ROWS = 1 << 9  # vertex rows formatted per write, to bound the text held at once


def write_ply(path, cloud: PointCloud) -> None:
    """ASCII PLY with float32 xyz and uchar rgb per vertex."""
    colors = np.clip(np.rint(cloud.colors * 255.0), 0, 255).astype(np.uint8)
    # float32 -> float64 is exact, so "%.9g" prints the text that formatting
    # each float32 coordinate would; 9 digits round-trip a float32.
    rows = np.hstack([cloud.points.astype(np.float32).astype(np.float64), colors])
    with open(path, "w", encoding="ascii") as fh:
        fh.write("ply\nformat ascii 1.0\n")
        fh.write(f"element vertex {len(cloud)}\n")
        fh.write("property float x\nproperty float y\nproperty float z\n")
        fh.write("property uchar red\nproperty uchar green\nproperty uchar blue\n")
        fh.write("end_header\n")
        for lo in range(0, len(rows), _PLY_ROWS):
            chunk = rows[lo:lo + _PLY_ROWS]
            fh.write(_PLY_ROW * len(chunk) % tuple(chunk.ravel().tolist()))


def read_ply(path) -> PointCloud:
    """Cloud from the ASCII PLY that `write_ply` writes: x y z red green blue."""
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        if fh.readline().strip() != "ply":
            raise ContractError(f"{path}: not a PLY file")
        count = 0
        while True:
            line = fh.readline()
            if not line:
                raise ContractError(f"{path}: truncated PLY header")
            if line.startswith("element vertex"):
                field = line.split()[-1]
                if not field.isdigit():
                    raise ContractError(f"{path}: malformed PLY line {line.strip()!r}")
                count = int(field)
            if line.strip() == "end_header":
                break
        rows = list(itertools.islice(fh, count))
    complete = len(rows) - (not rows[-1].endswith("\n")) if rows else 0
    if complete < count:
        raise ContractError(f"{path}: truncated PLY, {complete} of {count} vertex rows")
    malformed = f"{path}: PLY vertex rows are not 6 finite numbers each"
    try:
        # loadtxt skips blank rows (warning when every row is), so all-blank
        # rows never reach it and the shape check rejects the others.
        arr = (np.loadtxt(rows, dtype=np.float64, comments=None, ndmin=2)
               if any(row.strip() for row in rows) else np.zeros((0, 6)))
    except ValueError:
        raise ContractError(malformed) from None
    if arr.shape != (count, 6) or not np.isfinite(arr).all():
        raise ContractError(malformed)
    return PointCloud(points=arr[:, :3], colors=arr[:, 3:6] / 255.0)


# -- scene directories -----------------------------------------------------------

def save_camera_file(path, view: CameraView, d_min: float, d_max: float,
                     count: int | None = None) -> None:
    """Write a view's cameras with the sweep range ``[d_min, d_max]``."""
    interval = (d_max - d_min) / max((count or 2) - 1, 1)
    text = format_camera_text(view.intrinsics, view.extrinsics, d_min, interval, count, d_max)
    Path(path).write_text(text, encoding="utf-8")


def load_camera_file(path) -> tuple[Intrinsics, Extrinsics, dict]:
    """Read a camera text file; bad text raises ContractError naming the file."""
    try:
        return parse_camera_text(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError:
        raise ContractError(f"{path}: camera file is not UTF-8 text") from None
    except ContractError as exc:
        raise ContractError(f"{path}: {exc}") from None


def save_scene(scene: SyntheticScene, directory, hypothesis_count: int = 16) -> None:
    """Write one scene: PPM images, PFM depths, camera text, manifest."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    spec = scene.spec
    for i, view in enumerate(scene.views):
        write_ppm(directory / f"view_{i:04d}.ppm", view.image)
        write_pfm(directory / f"depth_{i:04d}.pfm",
                  np.where(view.mask, view.depth, 0.0))
        save_camera_file(directory / f"cam_{i:04d}.txt", view, spec.d_min, spec.d_max,
                         hypothesis_count)
    manifest = "\n".join([
        f"kind = {spec.kind}",
        f"seed = {scene.seed}",
        f"n_views = {len(scene.views)}",
        f"height = {spec.height}",
        f"width = {spec.width}",
        f"d_min = {spec.d_min:.17g}",
        f"d_max = {spec.d_max:.17g}",
    ]) + "\n"
    (directory / "manifest.txt").write_text(manifest, encoding="utf-8")


def load_scene(directory) -> tuple[list[CameraView], dict]:
    """Read a scene directory back into views plus its manifest dict. Each
    camera's depth line must match the manifest's range (d_max if it has one)."""
    directory = Path(directory)
    manifest_path = directory / "manifest.txt"
    if not manifest_path.exists():
        raise ContractError(f"{directory} has no manifest.txt")
    manifest: dict = {}
    # An undecodable byte spoils only its own line; a spoiled key below is named.
    for line in manifest_path.read_text(encoding="utf-8", errors="replace").splitlines():
        if "=" in line:
            key, value = (part.strip() for part in line.split("=", 1))
            manifest[key] = value
    numbers = {}
    for key, kind in (("n_views", int), ("d_min", float), ("d_max", float)):
        try:
            numbers[key] = kind(manifest[key])
        except (KeyError, ValueError):
            raise ContractError(f"{manifest_path}: '{key}' is missing or not "
                                f"a valid {kind.__name__}") from None
    if numbers["n_views"] < 2:
        raise ContractError(f"{manifest_path}: n_views = {numbers['n_views']}, but a scene "
                            f"needs a reference plus at least one source view")
    scene_range = [numbers["d_min"], numbers["d_max"]]
    if not 0 < scene_range[0] < scene_range[1]:
        raise ContractError(f"{manifest_path}: bad depth range {scene_range}")
    views = []
    for i in range(numbers["n_views"]):
        image_path, depth_path = directory / f"view_{i:04d}.ppm", directory / f"depth_{i:04d}.pfm"
        cam_path = directory / f"cam_{i:04d}.txt"
        try:
            image, depth = read_ppm(image_path), read_pfm(depth_path).astype(np.float64)
            intr, extr, info = load_camera_file(cam_path)
        except FileNotFoundError as exc:
            raise ContractError(f"{manifest_path}: n_views = {numbers['n_views']}, but "
                                f"{exc.filename} does not exist") from None
        cam_range = [info["d_min"], info.get("d_max", scene_range[1])]
        if cam_range != scene_range:
            raise ContractError(f"{cam_path}: depth range {cam_range} does not match "
                                f"{manifest_path}'s {scene_range}")
        try:
            views.append(CameraView(intrinsics=intr, extrinsics=extr, image=image,
                                    depth=depth, mask=depth > 0))
        except (ContractError, DimensionError) as exc:
            raise type(exc)(f"{image_path}, {depth_path}: {exc}") from None
    return views, manifest
