"""Point-cloud and depth-map evaluation metrics."""

from __future__ import annotations

import numpy as np

from .autodiff import ContractError
from .fusion import PointCloud

__all__ = [
    "MetricError", "GridIndex", "cloud_metrics", "depth_metrics",
    "nearest_distances_bruteforce",
]

DEPTH_NORMALIZATION_SPAN = 128.0
_MAX_PAIRS = 1 << 14  # (query, cell) or (query, point) pairs per grid-search batch


class MetricError(ContractError):
    """Metric undefined for the given inputs (e.g. empty cloud)."""


class GridIndex:
    """Uniform-voxel spatial index for exact nearest-neighbor queries.

    Points are sorted by linear cell key, with a CSR table of the occupied
    cells (sorted keys, first point, point count). All queries scan growing
    Chebyshev rings of cells together, and a query stops once its best
    distance is within the lower bound on the distance to any cell past the
    current ring (see ``_search``). Work is batched at ``_MAX_PAIRS`` (query, cell) or
    (query, point) pairs, so peak memory does not grow with the query count.
    """

    def __init__(self, points: np.ndarray, cell_size: float | None = None):
        points = _finite_xyz(points, "indexed points")
        if points.shape[0] == 0:
            raise MetricError("cannot index an empty point cloud")
        self.origin = points.min(axis=0)
        self._top = points.max(axis=0)
        extent = self._top - self.origin
        if cell_size is None:
            # Size cells from the largest extent so flat or degenerate
            # clouds cannot explode the key space.
            side = max(float(extent.max()), 1e-9)
            cell_size = side / max(round(points.shape[0] ** (1 / 3)), 1)
        self.cell = float(cell_size)
        if not (self.cell > 0 and np.log2(extent / self.cell + 1).sum() < 62):
            raise MetricError(f"cell size {self.cell!r} is not positive or gives too many cells")
        keys = np.floor((points - self.origin) / self.cell).astype(np.int64)
        self.max_key = keys.max(axis=0)
        linear = np.ravel_multi_index(tuple(keys.T), self.max_key + 1)
        self._order = np.argsort(linear, kind="stable")
        self._points = points[self._order]
        self._keys, self._starts, self._counts = np.unique(
            linear[self._order], return_index=True, return_counts=True)

    def nearest(self, query: np.ndarray) -> tuple[float, int]:
        """Distance and index (in the caller's point order) of the closest point."""
        d2, index = self._search(np.asarray(query, dtype=np.float64).reshape(1, 3))
        return float(np.sqrt(d2[0])), int(index[0])

    def nearest_distances(self, queries: np.ndarray) -> np.ndarray:
        return np.sqrt(self._search(queries)[0])

    def _search(self, queries) -> tuple[np.ndarray, np.ndarray]:
        """Squared nearest distances and original point indices.

        Each query starts from its cell clamped into the occupied box: cells
        outside it are empty. A point past ring r lies beyond it along some
        axis a, so it is at least r * cell plus the query's distance
        ``out[a]`` outside the box along a away on that axis, and at least
        ``out[b]`` on each other axis b. A query stops once its best squared
        distance is within the least such bound over a; inside the box that
        is (r * cell)^2. By its ``coverage`` ring a query has seen the box.
        """
        q = _finite_xyz(queries, "queries")
        best, index = np.full(len(q), np.inf), np.full(len(q), -1)
        center = np.clip(np.floor((q - self.origin) / self.cell), 0,
                         self.max_key).astype(np.int64)
        coverage = np.maximum(center, self.max_key - center).max(axis=1)
        out = np.maximum(np.maximum(self.origin - q, q - self._top), 0.0)
        out_min, out_d2 = out.min(axis=1), (out ** 2).sum(axis=1)
        active, r = np.arange(len(q)), 0
        while active.size:
            shell = _shell(r, self.max_key)
            for owner, k in _batches(np.full(active.size, len(shell))):
                qi = active[owner]
                cells = center[qi] + shell[k]
                inside = ((cells >= 0) & (cells <= self.max_key)).all(axis=1)
                qi, key = qi[inside], np.ravel_multi_index(tuple(cells[inside].T),
                                                           self.max_key + 1)
                slot = np.minimum(np.searchsorted(self._keys, key), len(self._keys) - 1)
                hit = self._keys[slot] == key
                qi, slot = qi[hit], slot[hit]
                # Expand each (query, cell) hit to its (query, point) pairs.
                for pair, k in _batches(self._counts[slot]):
                    qq, point = qi[pair], self._starts[slot[pair]] + k
                    d2 = ((self._points[point] - q[qq]) ** 2).sum(axis=-1)
                    np.minimum.at(best, qq, d2)
                    win = d2 == best[qq]
                    index[qq[win]] = point[win]
            reach = r * self.cell
            bound = reach * (reach + 2 * out_min[active]) + out_d2[active]
            active = active[(best[active] > bound) & (coverage[active] > r)]
            r += 1
        return best, self._order[index]


def _batches(counts: np.ndarray):
    """Split the pairs (i, k), 0 <= k < counts[i], into batches of at most
    ``_MAX_PAIRS`` in order, yielding (i, k) index arrays per batch."""
    ends = np.cumsum(counts)
    begins = ends - counts
    total = int(ends[-1]) if len(ends) else 0
    for lo in range(0, total, _MAX_PAIRS):
        hi = min(lo + _MAX_PAIRS, total)
        first, last = np.searchsorted(ends, [lo, hi - 1], side="right") + [0, 1]
        owner = np.repeat(np.arange(first, last), np.minimum(ends[first:last], hi)
                          - np.maximum(begins[first:last], lo))
        yield owner, np.arange(lo, hi) - begins[owner]


def _shell(r: int, max_key: np.ndarray) -> np.ndarray:
    """Cell offsets at Chebyshev distance r that can stay in a box of
    ``max_key + 1`` cells, as six faces without overlap; shape (K, 3)."""
    if r == 0:
        return np.zeros((1, 3), dtype=np.int64)
    faces = []
    for axis in np.flatnonzero(max_key >= r):
        span = [np.arange(-min(r - (a < axis), m), min(r - (a < axis), m) + 1)
                for a, m in enumerate(max_key)]
        span[axis] = np.array([-r, r])
        faces.append(np.stack(np.meshgrid(*span, indexing="ij"), axis=-1).reshape(-1, 3))
    return np.concatenate(faces)


def _finite_xyz(values, what: str) -> np.ndarray:
    xyz = np.asarray(values, dtype=np.float64).reshape(-1, 3)
    if not np.isfinite(xyz).all():
        raise MetricError(f"{what} contain non-finite coordinates")
    return xyz


def nearest_distances_bruteforce(queries: np.ndarray, points: np.ndarray) -> np.ndarray:
    """O(N*M) exact nearest distances; the oracle for the grid index."""
    q = np.asarray(queries, dtype=np.float64).reshape(-1, 3)
    p = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    d2 = ((q[:, None, :] - p[None, :, :]) ** 2).sum(axis=2)
    return np.sqrt(d2.min(axis=1))


def cloud_metrics(recon: PointCloud | np.ndarray, reference: PointCloud | np.ndarray,
                  clamp: float) -> tuple[float, float, float]:
    """(Accuracy, Completeness, Overall) between two clouds.

    Accuracy: mean distance from reconstruction points to their nearest
    reference point; Completeness: the reverse; distances are clamped at
    ``clamp`` before averaging; Overall is the mean of the two.
    """
    rp = recon.points if isinstance(recon, PointCloud) else np.asarray(recon, dtype=np.float64)
    gp = reference.points if isinstance(reference, PointCloud) else np.asarray(reference, dtype=np.float64)
    rp = rp.reshape(-1, 3)
    gp = gp.reshape(-1, 3)
    if rp.shape[0] == 0 or gp.shape[0] == 0:
        raise MetricError("cloud metrics are undefined for empty clouds")
    acc = float(np.minimum(GridIndex(gp).nearest_distances(rp), clamp).mean())
    comp = float(np.minimum(GridIndex(rp).nearest_distances(gp), clamp).mean())
    return acc, comp, (acc + comp) / 2.0


def depth_metrics(pred: np.ndarray, gt: np.ndarray, mask: np.ndarray,
                  d_min: float, d_max: float) -> tuple[float, float, float]:
    """(EPE, e1, e3) with depths normalized so the range spans 128 units.

    EPE is the mean absolute normalized error over valid pixels; e1/e3 are
    the percentages of valid pixels whose normalized error exceeds 1 / 3.
    """
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    if pred.shape != gt.shape or mask.shape != gt.shape:
        raise MetricError(f"shape mismatch: {pred.shape} vs {gt.shape} vs {mask.shape}")
    if not mask.any():
        raise MetricError("depth metrics are undefined with no valid pixels")
    scale = DEPTH_NORMALIZATION_SPAN / (d_max - d_min)
    err = np.abs(pred - gt)[mask] * scale
    epe = float(err.mean())
    e1 = float((err > 1.0).mean() * 100.0)
    e3 = float((err > 3.0).mean() * 100.0)
    return epe, e1, e3
