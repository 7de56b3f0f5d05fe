"""Cloud and depth metrics against brute-force oracles."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvstereo import metrics
from mvstereo.fusion import PointCloud
from mvstereo.metrics import (
    GridIndex,
    MetricError,
    cloud_metrics,
    depth_metrics,
    nearest_distances_bruteforce,
)


class TestGridIndex:
    def test_exactly_matches_bruteforce_on_random_clouds(self, rng):
        for trial in range(5):
            pts = rng.uniform(-1, 1, size=(1000, 3))
            queries = rng.uniform(-1.6, 1.6, size=(400, 3))
            grid = GridIndex(pts).nearest_distances(queries)
            brute = nearest_distances_bruteforce(queries, pts)
            np.testing.assert_array_equal(grid, brute)

    def test_degenerate_flat_cloud(self, rng):
        pts = np.column_stack([rng.uniform(-1, 1, 200),
                               rng.uniform(-1, 1, 200),
                               np.zeros(200)])
        queries = rng.uniform(-2, 2, size=(100, 3))
        np.testing.assert_array_equal(GridIndex(pts).nearest_distances(queries),
                                      nearest_distances_bruteforce(queries, pts))

    def test_single_point(self):
        gi = GridIndex(np.array([[1.0, 2.0, 3.0]]))
        np.testing.assert_array_equal(gi.nearest_distances(np.array([1.0, 2.0, 5.0])), [2.0])

    def test_empty_rejected(self):
        with pytest.raises(MetricError):
            GridIndex(np.zeros((0, 3)))


def _cloud(rng, n: int, kind: str) -> np.ndarray:
    if kind == "uniform":
        return rng.uniform(-1, 1, size=(n, 3))
    if kind == "flat":
        return np.column_stack([rng.uniform(-1, 1, (n, 2)), np.zeros(n)])
    if kind == "duplicates":
        unique = rng.uniform(-1, 1, size=(max(n // 8, 1), 3))
        return unique[rng.integers(len(unique), size=n)]
    # A height field: a surface, so occupied cells hold many points each.
    xy = rng.uniform(-1, 1, size=(n, 2))
    return np.column_stack([xy, 0.3 * np.sin(3 * xy[:, 0]) * np.cos(2 * xy[:, 1])])


def _queries(rng, points: np.ndarray, m: int, kind: str) -> np.ndarray:
    if kind == "near":
        return points[rng.integers(len(points), size=m)] + rng.normal(0, 0.05, (m, 3))
    if kind == "box":
        return rng.uniform(points.min(0) - 0.1, points.max(0) + 0.1, size=(m, 3))
    direction = rng.normal(size=(m, 3))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    return direction * 10.0 ** rng.uniform(1, 3, size=(m, 1))


class TestBatchedRingSearch:
    """The vectorized search returns the brute-force oracle bit for bit."""

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 3000),
           kind=st.sampled_from(["uniform", "flat", "duplicates", "surface"]),
           where=st.sampled_from(["near", "box", "far"]),
           scale=st.sampled_from([None, 0.125, 8.0, 1000.0]))
    def test_equals_bruteforce(self, seed, n, kind, where, scale):
        rng = np.random.default_rng(seed)
        points = _cloud(rng, n, kind)
        if scale == 0.125:
            # Ring count grows as (distance / cell): tiny cells get near queries.
            where = "near"
        queries = _queries(rng, points, 200, where)
        cell = None if scale is None else scale * GridIndex(points).cell
        distances = GridIndex(points, cell).nearest_distances(queries)
        np.testing.assert_array_equal(distances, nearest_distances_bruteforce(queries, points))

    def test_empty_queries(self, rng):
        out = GridIndex(rng.random((10, 3))).nearest_distances(np.zeros((0, 3)))
        assert out.shape == (0,)

    def test_peak_memory_does_not_grow_with_queries(self):
        """20k queries against a surface cloud, many points per occupied cell.
        Scanning all their (query, point) pairs at once peaks near 190 MB;
        batched under the pair cap the call stays near 4 MB."""
        rng = np.random.default_rng(3)
        points = _cloud(rng, 3000, "surface")
        queries = _queries(rng, points, 20_000, "near")
        grid = GridIndex(points)
        tracemalloc.start()
        try:
            grid.nearest_distances(queries)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MB"

    def test_far_queries_stop_within_a_few_rings(self, monkeypatch):
        """Queries 100x the cloud's extent outside it along every axis. The
        stop bound counts their distance outside the box, so they stop a few
        rings out instead of scanning up to the ring that covers the box."""
        rng = np.random.default_rng(5)
        points = rng.uniform(-1, 1, size=(3000, 3))
        signs = rng.choice([-1.0, 1.0], size=(300, 3))
        queries = signs * 200.0 * rng.uniform(0.5, 1.5, size=(300, 3))
        grid = GridIndex(points)
        rings = []
        shell = metrics._shell
        monkeypatch.setattr(metrics, "_shell", lambda r, max_key: (rings.append(r),
                                                                  shell(r, max_key))[1])
        distances = grid.nearest_distances(queries)
        np.testing.assert_array_equal(distances, nearest_distances_bruteforce(queries, points))
        coverage = int(grid.max_key.max()) + 1
        assert coverage >= 12
        assert len(rings) <= 6, f"{len(rings)} rings, coverage {coverage}"

    def test_far_queries_in_random_directions_stop_sooner(self, monkeypatch):
        """Queries 100x the cloud's extent away in random directions. The
        stop bound is the Euclidean distance to the occupied box past the
        ring, from the query's own position, so 300 queries scan 1363 rings
        in all and 2 reach the coverage ring; a per-axis bound from the
        query's clamped cell scans 1599, and 22 reach coverage. Coverage
        stays the maximum: a query just off an axis's direction sees the
        face across that axis at nearly one distance, so its nearest point
        can lie 13 rings from the start cell."""
        rng = np.random.default_rng(5)
        points = rng.uniform(-1, 1, size=(3000, 3))
        direction = rng.normal(size=(300, 3))
        queries = 200.0 * direction / np.linalg.norm(direction, axis=1, keepdims=True)
        grid = GridIndex(points)
        rings = []
        shell = metrics._shell
        monkeypatch.setattr(metrics, "_shell", lambda r, max_key: (rings.append(r),
                                                                  shell(r, max_key))[1])
        counts = []
        for q in queries:
            before = len(rings)
            assert grid.nearest_distances(q) == nearest_distances_bruteforce(q, points)
            counts.append(len(rings) - before)
        coverage = int(grid.max_key.max()) + 1
        assert coverage == 15
        assert sum(counts) <= 1363 and counts.count(coverage) <= 2, (sum(counts), counts)

    def test_stop_bound_leaves_room_for_rounding(self):
        """Points and a query a few ulps off cell faces, far from the origin.
        Evaluated without its rounding slack, the stop bound ends this
        query's search before it reaches its nearest point, which is 1 ulp
        of the distance closer than the one it had found."""
        cell = 0.09776948992084654
        points = np.array([[100000.19553897984, 100000.0977694899, 100000.19553897984],
                           [100000.0, 100000.48884744964, 100000.09776948992],
                           [100000.29330846973, 100000.39107795969, 99999.99999999997],
                           [99999.99999999997, 100000.48884744964, 100000.09776948989]])
        query = np.array([[99999.90223051008, 100000.58661693953, 100000.19553897984]])
        assert (GridIndex(points, cell_size=cell).nearest_distances(query)
                == nearest_distances_bruteforce(query, points)).all()


class TestDefaultCell:
    """The default cell holds about _TARGET_OCCUPANCY points per occupied cell."""

    @staticmethod
    def _start_cell(points: np.ndarray) -> float:
        return np.ptp(points, axis=0).max() / round(len(points) ** (1 / 3))

    @pytest.mark.parametrize("n", [1000, 3000, 10_000, 20_000])
    def test_surface_clouds_hold_a_few_points_per_occupied_cell(self, n):
        points = _cloud(np.random.default_rng(n), n, "surface")
        grid = GridIndex(points)
        occupied = len(np.unique(np.floor((points - grid.origin) / grid.cell), axis=0))
        assert 1 <= n / occupied <= 4, n / occupied
        assert grid.cell < self._start_cell(points)

    @pytest.mark.parametrize("n", [1000, 3000, 10_000, 20_000])
    def test_volume_clouds_keep_the_start_cell(self, n):
        points = _cloud(np.random.default_rng(n), n, "uniform")
        assert GridIndex(points).cell == self._start_cell(points)

    def test_duplicate_points_shrink_the_cell_a_bounded_amount(self, rng):
        """Three distinct points, 2000 copies each: the occupancy rule alone
        would shrink the cell 32x; it shrinks by _MIN_SHRINK and stays exact."""
        points = np.repeat(rng.uniform(-1, 1, size=(3, 3)), 2000, axis=0)
        grid = GridIndex(points)
        assert grid.cell == pytest.approx(metrics._MIN_SHRINK * self._start_cell(points))
        queries = np.concatenate([_queries(rng, points, 200, where)
                                  for where in ("near", "box", "far")])
        np.testing.assert_array_equal(grid.nearest_distances(queries),
                                      nearest_distances_bruteforce(queries, points))


class TestNonFinite:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_points_rejected(self, rng, bad):
        pts = rng.random((20, 3))
        pts[7, 1] = bad
        with pytest.raises(MetricError, match="non-finite"):
            GridIndex(pts)
        with pytest.raises(MetricError, match="non-finite"):
            cloud_metrics(rng.random((5, 3)), pts, clamp=1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_queries_rejected(self, rng, bad):
        grid = GridIndex(rng.random((20, 3)))
        queries = rng.random((4, 3))
        queries[2, 0] = bad
        with pytest.raises(MetricError, match="non-finite"):
            grid.nearest_distances(queries)
        with pytest.raises(MetricError, match="non-finite"):
            grid.nearest_distances(queries[2])
        with pytest.raises(MetricError, match="non-finite"):
            cloud_metrics(queries, rng.random((20, 3)), clamp=1.0)

    @pytest.mark.parametrize("cell", [0.0, -1.0, np.nan, 1e-300])
    def test_unusable_cell_size_rejected(self, rng, cell):
        with pytest.raises(MetricError, match="cell size"):
            GridIndex(rng.random((20, 3)), cell)


class TestCloudMetrics:
    def test_identical_clouds_zero(self, rng):
        pts = rng.uniform(-1, 1, size=(300, 3))
        assert cloud_metrics(pts, pts.copy(), clamp=10.0) == (0.0, 0.0, 0.0)

    def test_worked_example(self):
        acc, comp, overall = cloud_metrics(
            np.array([[0.0, 0.0, 0.0]]),
            np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]]), clamp=10.0)
        assert acc == pytest.approx(1.0)
        assert comp == pytest.approx(1.5)
        assert overall == pytest.approx(1.25)

    def test_clamp_applies_before_averaging(self):
        acc, comp, overall = cloud_metrics(
            np.array([[0.0, 0.0, 0.0]]),
            np.array([[1.0, 0.0, 0.0], [0.0, 9.0, 0.0]]), clamp=2.0)
        assert comp == pytest.approx((1.0 + 2.0) / 2)

    def test_accuracy_is_completeness_of_swapped_args(self, rng):
        a = rng.uniform(-1, 1, size=(150, 3))
        b = rng.uniform(-1, 1, size=(90, 3))
        acc_ab, comp_ab, _ = cloud_metrics(a, b, clamp=5.0)
        acc_ba, comp_ba, _ = cloud_metrics(b, a, clamp=5.0)
        assert acc_ab == pytest.approx(comp_ba, rel=1e-12)
        assert comp_ab == pytest.approx(acc_ba, rel=1e-12)

    def test_completeness_non_increasing_as_recon_grows(self, rng):
        recon = rng.uniform(-1, 1, size=(50, 3))
        ref = rng.uniform(-1, 1, size=(80, 3))
        _, comp_small, _ = cloud_metrics(recon, ref, clamp=5.0)
        grown = np.vstack([recon, rng.uniform(-1, 1, size=(50, 3))])
        _, comp_grown, _ = cloud_metrics(grown, ref, clamp=5.0)
        assert comp_grown <= comp_small + 1e-12

    def test_empty_cloud_is_an_error(self, rng):
        with pytest.raises(MetricError, match="empty"):
            cloud_metrics(np.zeros((0, 3)), rng.random((5, 3)), clamp=1.0)

    def test_accepts_pointcloud_objects(self, rng):
        a = PointCloud(points=rng.random((20, 3)))
        b = PointCloud(points=rng.random((30, 3)))
        acc, comp, overall = cloud_metrics(a, b, clamp=5.0)
        assert overall == pytest.approx((acc + comp) / 2)


class TestDepthMetrics:
    def test_perfect_prediction(self, rng):
        gt = rng.uniform(1.0, 3.0, size=(10, 12))
        assert depth_metrics(gt, gt.copy(), np.ones_like(gt, bool), 1.0, 3.0) == (0.0, 0.0, 0.0)

    def test_constant_two_unit_offset(self, rng):
        """+2 normalized units everywhere: EPE 2, e1 100%, e3 0%."""
        d_min, d_max = 1.0, 3.0
        unit = (d_max - d_min) / 128.0
        gt = rng.uniform(1.2, 2.8, size=(8, 9))
        pred = gt + 2.0 * unit
        epe, e1, e3 = depth_metrics(pred, gt, np.ones_like(gt, bool), d_min, d_max)
        assert epe == pytest.approx(2.0)
        assert e1 == pytest.approx(100.0)
        assert e3 == pytest.approx(0.0)

    def test_mask_excludes_pixels(self, rng):
        gt = rng.uniform(1.0, 3.0, size=(6, 6))
        pred = gt.copy()
        pred[0, 0] = 100.0
        mask = np.ones_like(gt, bool)
        mask[0, 0] = False
        assert depth_metrics(pred, gt, mask, 1.0, 3.0) == (0.0, 0.0, 0.0)

    def test_no_valid_pixels_error(self, rng):
        gt = rng.random((4, 4))
        with pytest.raises(MetricError, match="no valid"):
            depth_metrics(gt, gt, np.zeros_like(gt, bool), 0.0, 1.0)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 100_000))
    def test_e3_never_exceeds_e1(self, seed):
        rng = np.random.default_rng(seed)
        gt = rng.uniform(1.0, 3.0, size=(5, 5))
        pred = gt + rng.standard_normal((5, 5)) * rng.uniform(0, 0.2)
        _, e1, e3 = depth_metrics(pred, gt, np.ones_like(gt, bool), 1.0, 3.0)
        assert e3 <= e1 <= 100.0
