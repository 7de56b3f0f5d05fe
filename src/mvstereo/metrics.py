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
_TARGET_OCCUPANCY = 2.0  # points per occupied cell that the default cell aims at
_MIN_SHRINK = 1 / 8  # the most the occupancy rule may shrink the default cell
_ROUND = 2.0 ** -48  # relative rounding slack taken off the stop bound


class MetricError(ContractError):
    """Metric undefined for the given inputs (e.g. empty cloud)."""


class GridIndex:
    """Uniform-voxel spatial index for exact nearest-neighbor queries.

    Points are sorted by linear cell key, with a CSR table of the occupied
    cells (sorted keys, first point, point count). All queries scan growing
    Chebyshev rings of cells together, and a query stops once its best
    distance is within the Euclidean distance from it to the part of the
    occupied box past the current ring (see ``_search``). Work is
    batched at ``_MAX_PAIRS`` (query, cell) or (query, point) pairs, so
    peak memory does not grow with the query count.

    The default cell starts at ``round(N ** (1/3))`` cells along the largest
    extent, which suits clouds that fill a volume. Fused clouds are
    surfaces, where points per cell grow with cell², so the cell then
    shrinks once by ``sqrt(_TARGET_OCCUPANCY * occupied / N)``, kept within
    ``[_MIN_SHRINK, 1]``: volume clouds keep the start cell, and a cloud of
    duplicate points cannot shrink it without bound.
    """

    def __init__(self, points: np.ndarray, cell_size: float | None = None):
        points = _finite_xyz(points, "indexed points")
        n = points.shape[0]
        if n == 0:
            raise MetricError("cannot index an empty point cloud")
        self.origin = points.min(axis=0)
        self._top = points.max(axis=0)
        extent = self._top - self.origin
        if cell_size is None:
            # Size cells from the largest extent so flat or degenerate
            # clouds cannot explode the key space.
            side = max(float(extent.max()), 1e-9)
            cell_size = side / max(round(n ** (1 / 3)), 1)
            occupied = len(_run_starts(np.sort(self._cell_keys(points, cell_size)[0])))
            cell_size *= min(max(np.sqrt(_TARGET_OCCUPANCY * occupied / n), _MIN_SHRINK), 1.0)
        self.cell = float(cell_size)
        if not (self.cell > 0 and np.log2(extent / self.cell + 1).sum() < 62):
            raise MetricError(f"cell size {self.cell!r} is not positive or gives too many cells")
        linear, self.max_key = self._cell_keys(points, self.cell)
        self._order = np.argsort(linear, kind="stable")
        self._xyz = tuple(np.ascontiguousarray(points[self._order, a]) for a in range(3))
        linear = linear[self._order]
        self._starts = _run_starts(linear)
        self._keys = linear[self._starts]
        self._counts = np.diff(np.append(self._starts, n))

    def _cell_keys(self, points: np.ndarray, cell: float) -> tuple[np.ndarray, np.ndarray]:
        """Linear (row-major) cell key of each point, and the largest key per axis."""
        keys = [np.floor((points[:, a] - self.origin[a]) / cell).astype(np.int64)
                for a in range(3)]
        max_key = np.array([k.max() for k in keys])
        return (keys[0] * (max_key[1] + 1) + keys[1]) * (max_key[2] + 1) + keys[2], max_key

    def nearest(self, query: np.ndarray) -> tuple[float, int]:
        """Distance and index (in the caller's point order) of the closest point."""
        d2, index = self._search(np.asarray(query, dtype=np.float64).reshape(1, 3))
        return float(np.sqrt(d2[0])), int(index[0])

    def nearest_distances(self, queries: np.ndarray) -> np.ndarray:
        return np.sqrt(self._search(queries)[0])

    def _search(self, queries) -> tuple[np.ndarray, np.ndarray]:
        """Squared nearest distances and original point indices.

        Each query starts from its cell clamped into the occupied box: cells
        outside it are empty. A point past ring r lies in a slab of whole
        cells along some axis a, ``key_a > center_a + r`` or
        ``key_a < center_a - r``, and inside the box along the other axes.
        The slab's near face is ``r * cell`` beyond the query's own cell
        face along a, and the box is ``out_b`` away along each other axis
        b. A query stops once its best squared distance is within the least
        ``gap_a² + sum out_b²`` over the non-empty slabs, which is +inf
        once its ring covers the box. ``tol`` takes each gap below any float
        rounding of it and of the keys, and the total drops by ``_ROUND``,
        so rounding can only make the bound smaller.

        Coordinates, cell keys and the in-box test go one axis at a time, and
        each distance sums dx² + dy² + dz² in the brute-force oracle's order,
        so distances are bit-identical to it.
        """
        q = _finite_xyz(queries, "queries")
        best, index = np.full(len(q), np.inf), np.full(len(q), -1)
        qa = np.ascontiguousarray(q.T)
        lo, hi, top_key = self.origin[:, None], self._top[:, None], self.max_key[:, None]
        center = np.clip(np.floor((qa - lo) / self.cell), 0, top_key).astype(np.int64)
        tol = _ROUND * (np.abs(q).max(initial=0.0) + np.abs(self.origin).max()
                        + np.abs(self._top).max() + self.cell)
        corner = lo + center * self.cell
        below, above = qa - corner - tol, corner + self.cell - qa - tol
        out2 = np.maximum(np.maximum(lo - qa, qa - hi) - tol, 0.0) ** 2
        dims = tuple(int(m) for m in self.max_key)
        active, r = np.arange(len(q)), 0
        while active.size:
            shell = _shell(r, self.max_key)
            for owner, k in _batches(np.full(active.size, shell.shape[1])):
                qi, key, inside = active[owner], 0, True
                for a in range(3):
                    cell = center[a][qi] + shell[a][k]
                    # Negative keys wrap to huge unsigned ones: one compare per axis.
                    inside &= cell.view(np.uint64) <= dims[a]
                    key = key * (dims[a] + 1) + cell
                qi, key = qi[inside], key[inside]
                slot = np.minimum(np.searchsorted(self._keys, key), len(self._keys) - 1)
                hit = self._keys[slot] == key
                qi, slot = qi[hit], slot[hit]
                # Expand each (query, cell) hit to its (query, point) pairs,
                # which stay grouped by query.
                for pair, k in _batches(self._counts[slot]):
                    qq, point = qi[pair], self._starts[slot[pair]] + k
                    d2 = ((self._xyz[0][point] - qa[0][qq]) ** 2
                          + (self._xyz[1][point] - qa[1][qq]) ** 2
                          + (self._xyz[2][point] - qa[2][qq]) ** 2)
                    runs = _run_starts(qq)
                    owners = qq[runs]
                    best[owners] = np.minimum(best[owners], np.minimum.reduceat(d2, runs))
                    win = d2 == best[qq]
                    index[qq[win]] = point[win]
            c, up, down, o2 = (x.take(active, axis=1) for x in (center, above, below, out2))
            reach = r * self.cell
            gap = np.minimum(np.where(c + r < top_key, up + reach, np.inf),
                             np.where(c > r, down + reach, np.inf))
            bound = o2.sum(axis=0) + (np.maximum(gap, 0.0) ** 2 - o2).min(axis=0)
            active = active[best[active] > bound * (1.0 - _ROUND)]
            r += 1
        return best, self._order[index]


def _run_starts(values: np.ndarray) -> np.ndarray:
    """Index of the first element of each run of equal values."""
    first = np.empty(len(values), dtype=bool)
    first[:1] = True
    np.not_equal(values[1:], values[:-1], out=first[1:])
    return np.flatnonzero(first)


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
    ``max_key + 1`` cells, as six faces without overlap; shape (3, K)."""
    if r == 0:
        return np.zeros((3, 1), dtype=np.int64)
    faces = []
    for axis in np.flatnonzero(max_key >= r):
        span = [np.arange(-min(r - (a < axis), m), min(r - (a < axis), m) + 1)
                for a, m in enumerate(max_key)]
        span[axis] = np.array([-r, r])
        faces.append(np.stack(np.meshgrid(*span, indexing="ij")).reshape(3, -1))
    return np.concatenate(faces, axis=1)


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
