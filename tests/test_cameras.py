"""Pinhole model, warping, hypothesis schedules, and the camera text format."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvstereo import autodiff as ad
from mvstereo.cameras import (
    CameraView,
    DepthHypotheses,
    Extrinsics,
    Intrinsics,
    backproject_pixels,
    build_warp_grid,
    format_camera_text,
    parse_camera_text,
    project_points,
    refine_hypotheses,
    sample_hypotheses_initial,
    warp_pixel,
)
from mvstereo.fileio import load_camera_file
from mvstereo.scene import SceneSpec, render_synthetic_scene


IDENTITY = Extrinsics(np.eye(3), np.zeros(3))


def _simple_intr():
    return Intrinsics(fx=50.0, fy=55.0, cx=20.0, cy=15.0)


def _with_depth_line(tail: str) -> str:
    """Camera text with a valid pose and intrinsics and the given depth line."""
    text = format_camera_text(_simple_intr(), IDENTITY, 0.5, 0.05)
    return text[:text.rstrip("\n").rfind("\n") + 1] + tail + "\n"


class TestCameraTypes:
    def test_intrinsics_require_positive_focals(self):
        with pytest.raises(ad.ContractError):
            Intrinsics(fx=-1.0, fy=1.0, cx=0.0, cy=0.0)

    def test_extrinsics_reject_non_orthonormal(self):
        with pytest.raises(ad.ContractError, match="orthonormal"):
            Extrinsics(np.eye(3) * 1.001, np.zeros(3))

    def test_extrinsics_reject_reflections(self):
        r = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ad.ContractError, match="determinant"):
            Extrinsics(r, np.zeros(3))

    def test_scale_camera(self):
        intr = _simple_intr()
        assert intr.scaled(1.0) == intr
        quarter = intr.scaled(0.25)
        assert (quarter.fx, quarter.fy, quarter.cx, quarter.cy) == (12.5, 13.75, 5.0, 3.75)

    def test_scaled_projection_equals_scaled_pixels(self, rng):
        """Projecting with scaled intrinsics = scaling the full-res projection."""
        intr = _simple_intr()
        pts = rng.uniform(-1, 1, size=(20, 3)) + np.array([0, 0, 3.0])
        full, _ = project_points(intr, IDENTITY, pts)
        quarter, _ = project_points(intr.scaled(0.25), IDENTITY, pts)
        np.testing.assert_allclose(quarter, 0.25 * full, rtol=1e-12)


class TestWarp:
    def test_identical_cameras_identity(self, rng):
        intr = _simple_intr()
        xy = np.stack([rng.uniform(0, 39, 30), rng.uniform(0, 29, 30)], axis=-1)
        d = rng.uniform(0.5, 5.0, 30)
        p, z, valid = warp_pixel(xy, d, intr, IDENTITY, intr, IDENTITY)
        np.testing.assert_allclose(p, xy, atol=1e-9)
        np.testing.assert_allclose(z, d, atol=1e-12)
        assert valid.all()

    def test_pure_baseline_gives_disparity_shift(self):
        """Source translated by b along +x shifts pixels by -fx*b/d."""
        intr = Intrinsics(fx=80.0, fy=80.0, cx=20.0, cy=15.0)
        b = 0.3
        src = Extrinsics(np.eye(3), np.array([-b, 0.0, 0.0]))  # camera center at +b
        for d in (1.0, 2.0, 4.0):
            p, z, valid = warp_pixel(np.array([20.0, 15.0]), d, intr, IDENTITY, intr, src)
            np.testing.assert_allclose(p[0] - 20.0, -80.0 * b / d, rtol=1e-12)
            np.testing.assert_allclose(p[1], 15.0, atol=1e-12)
            assert valid

    def test_point_behind_source_flags_invalid(self):
        intr = _simple_intr()
        # Source camera 4 units ahead along z: a point at depth 2 lies behind it.
        src = Extrinsics(np.eye(3), np.array([0.0, 0.0, -4.0]))
        _, _, valid = warp_pixel(np.array([20.0, 15.0]), 2.0, intr, IDENTITY, intr, src)
        assert not valid

    def test_roundtrip_project_backproject(self, rng):
        intr = _simple_intr()
        extr = render_synthetic_scene(SceneSpec(), 0).views[1].extrinsics
        xy = np.stack([rng.uniform(0, 39, 50), rng.uniform(0, 29, 50)], axis=-1)
        d = rng.uniform(0.5, 5.0, 50)
        pts = backproject_pixels(intr, extr, xy, d)
        p2, z2 = project_points(intr, extr, pts)
        assert np.abs(p2 - xy).max() < 1e-9
        assert np.abs(z2 - d).max() < 1e-9

    def test_warp_matches_renderer_correspondence(self):
        """Warping at ground-truth depth lands on the true corresponding pixel."""
        scene = render_synthetic_scene(SceneSpec(), seed=11)
        ref, src = scene.views[0], scene.views[1]
        ys, xs = np.meshgrid(np.arange(ref.height, dtype=float),
                             np.arange(ref.width, dtype=float), indexing="ij")
        xy = np.stack([xs, ys], axis=-1)
        p_warp, _, _ = warp_pixel(xy, ref.depth, ref.intrinsics, ref.extrinsics,
                                  src.intrinsics, src.extrinsics)
        pts = backproject_pixels(ref.intrinsics, ref.extrinsics, xy, ref.depth)
        p_true, _ = project_points(src.intrinsics, src.extrinsics, pts)
        from mvstereo.scene import covisible_mask
        cov = covisible_mask(scene, 0, 1)
        err = np.linalg.norm(p_warp - p_true, axis=-1)[cov]
        assert err.max() < 1e-6


class TestWarpGrid:
    def test_identity_pair_is_integer_lattice(self, f64):
        intr = _simple_intr()
        hyps = sample_hypotheses_initial(1.0, 3.0, 4)
        grid = build_warp_grid(hyps.planes(6, 8), intr, IDENTITY, intr, IDENTITY)
        ys, xs = np.meshgrid(np.arange(6.0), np.arange(8.0), indexing="ij")
        for d in range(4):
            np.testing.assert_allclose(grid[d, ..., 0], xs, atol=1e-9)
            np.testing.assert_allclose(grid[d, ..., 1], ys, atol=1e-9)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_grid_is_an_array_in_the_planes_dtype(self, dtype):
        intr = _simple_intr()
        src = Extrinsics(np.eye(3), np.array([0.25, -0.1, 0.02]))
        planes = sample_hypotheses_initial(1.0, 3.0, 4).planes(6, 8).astype(dtype)
        # np.float64 intrinsics, as parse_camera_text gives them, do not upcast.
        grid = build_warp_grid(planes, intr, IDENTITY, intr.scaled(np.float64(0.5)), src)
        assert isinstance(grid, np.ndarray)
        assert grid.shape == (4, 6, 8, 2) and grid.dtype == dtype

    def test_behind_camera_masked_not_raised(self):
        """Points behind the source camera are moved out of bounds, so the
        sampler masks them; points in front keep their projection."""
        intr = _simple_intr()
        src = Extrinsics(np.eye(3), np.array([0.0, 0.0, -4.0]))
        hyps = sample_hypotheses_initial(1.0, 6.0, 4)  # depths 1 and ~2.7 behind src
        grid = build_warp_grid(hyps.planes(4, 4), intr, IDENTITY, intr, src)
        np.testing.assert_array_equal(grid[:2], -8.0)
        _, inside = ad.grid_sample_2d(ad.tensor(np.ones((1, 40, 40))), grid)
        assert not inside[:2].any()
        ys, xs = np.meshgrid(np.arange(4.0), np.arange(4.0), indexing="ij")
        np.testing.assert_allclose(grid[-1, ..., 0], 3.0 * (xs - 20.0) + 20.0, rtol=1e-6)
        np.testing.assert_allclose(grid[-1, ..., 1], 3.0 * (ys - 15.0) + 15.0, rtol=1e-6)


class TestHypotheses:
    def test_initial_uniform(self):
        hyps = sample_hypotheses_initial(1.0, 3.0, 3)
        np.testing.assert_allclose(hyps.values, [1.0, 2.0, 3.0])
        assert hyps.interval == pytest.approx(1.0)

    def test_full_scale_counts_and_decay_chain(self):
        """Stage counts 48/32/8 with interval decays 0.25 then 0.5."""
        d_min, d_max = 425.0, 935.0
        s1 = sample_hypotheses_initial(d_min, d_max, 48)
        s2 = refine_hypotheses(np.full((4, 4), 600.0), 32, 0.25, s1.interval, d_min, d_max)
        s3 = refine_hypotheses(np.full((8, 8), 600.0), 8, 0.5, s2.interval, d_min, d_max)
        assert s2.interval == pytest.approx(s1.interval * 0.25)
        assert s3.interval == pytest.approx(s1.interval * 0.125)
        assert (s1.count, s2.count, s3.count) == (48, 32, 8)

    def test_refine_centered_window(self):
        hyps = refine_hypotheses(np.full((1, 1), 2.0), 4, 0.25, 1.0, 0.5, 5.0)
        np.testing.assert_allclose(hyps.values[0, 0], [1.625, 1.875, 2.125, 2.375])

    def test_clamp_shifts_whole_window(self):
        hyps = refine_hypotheses(np.full((2, 2), 1.0), 4, 0.25, 1.0, 1.0, 5.0)
        assert hyps.values.min() >= 1.0
        np.testing.assert_allclose(np.diff(hyps.values, axis=-1), 0.25)

    def test_strictly_increasing_enforced(self):
        with pytest.raises(ad.ContractError, match="increasing"):
            DepthHypotheses(np.array([1.0, 1.0, 2.0]), 0.5)

    def test_positive_enforced(self):
        with pytest.raises(ad.ContractError, match="positive"):
            DepthHypotheses(np.array([-1.0, 1.0]), 2.0)


class TestCameraText:
    def test_roundtrip(self, rng):
        scene = render_synthetic_scene(SceneSpec(), 5)
        view = scene.views[2]
        text = format_camera_text(view.intrinsics, view.extrinsics, 1.2, 0.12, 16, 3.0)
        intr, extr, info = parse_camera_text(text)
        np.testing.assert_allclose(intr.matrix, view.intrinsics.matrix, rtol=1e-15)
        np.testing.assert_allclose(extr.matrix4, view.extrinsics.matrix4, rtol=1e-15)
        assert info == {"d_min": 1.2, "interval": 0.12, "count": 16, "d_max": 3.0}

    def test_short_depth_line(self):
        intr = _simple_intr()
        text = format_camera_text(intr, IDENTITY, 0.5, 0.05)
        _, _, info = parse_camera_text(text)
        assert info == {"d_min": 0.5, "interval": 0.05}

    def test_missing_tokens_rejected(self):
        with pytest.raises(ad.ContractError, match="extrinsic"):
            parse_camera_text("intrinsic\n1 0 0\n0 1 0\n0 0 1\n0.5 0.05\n")

    @pytest.mark.parametrize("tail,match", [
        ("0.5 abc", "non-numeric"),
        ("nan 0.05", "non-finite"),
        ("0.5 inf", "non-finite"),
        ("0.5 0.05 16 -inf", "non-finite"),
        ("0.5 0.05 3.7 2.0", "count 3.7"),
        ("0.5 0.05 0 2.0", "count 0"),
    ])
    def test_bad_depth_line_rejected(self, tail, match):
        with pytest.raises(ad.ContractError, match=match):
            parse_camera_text(_with_depth_line(tail))

    @pytest.mark.parametrize("block,bad", [("extrinsic", "1,0"), ("intrinsic", "NaN")])
    def test_bad_matrix_token_rejected(self, block, bad):
        lines = format_camera_text(_simple_intr(), IDENTITY, 0.5, 0.05).split("\n")
        at = lines.index(block) + 1
        lines[at] = lines[at].replace("0", bad, 1)
        with pytest.raises(ad.ContractError, match=block):
            parse_camera_text("\n".join(lines))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_truncated_or_garbage_text_raises_contract_error(self, data):
        text = format_camera_text(_simple_intr(), IDENTITY, 0.5, 0.05, 16, 1.3)
        tokens = text.split()
        if data.draw(st.booleans(), label="truncate"):
            mutated = text[:data.draw(st.integers(0, len(text)), label="cut")]
        else:
            at = data.draw(st.integers(0, len(tokens) - 1), label="token")
            tokens[at] = data.draw(st.one_of(
                st.sampled_from(["nan", "-inf", "1e999", "2.5", "-3", "0x10", "extrinsic",
                                 "intrinsic", "", "1e-320", "١"]),
                st.text(max_size=6)), label="garbage")
            mutated = " ".join(tokens)
        try:
            intr, extr, info = parse_camera_text(mutated)
        except ad.ContractError:
            return
        assert np.isfinite(intr.matrix).all() and np.isfinite(extr.matrix4).all()
        assert all(np.isfinite(v) for v in info.values())
        assert isinstance(info.get("count", 1), int) and info.get("count", 1) >= 1

    def test_load_camera_file_names_the_path(self, tmp_path):
        path = tmp_path / "cam_0000.txt"
        path.write_text(_with_depth_line("0.5 nan"), encoding="utf-8")
        with pytest.raises(ad.ContractError, match="non-finite") as info:
            load_camera_file(path)
        assert str(path) in str(info.value)
        path.write_bytes(b"extrinsic \xff\xfe")
        with pytest.raises(ad.ContractError, match="UTF-8") as info:
            load_camera_file(path)
        assert str(path) in str(info.value)


class TestCameraViewInvariants:
    def test_depth_shape_must_match_image(self):
        with pytest.raises(ad.DimensionError):
            CameraView(_simple_intr(), IDENTITY,
                       image=np.zeros((3, 8, 8)), depth=np.zeros((4, 4)))

    def test_negative_valid_depth_rejected(self):
        depth = np.full((8, 8), -1.0)
        with pytest.raises(ad.ContractError):
            CameraView(_simple_intr(), IDENTITY, image=np.zeros((3, 8, 8)),
                       depth=depth, mask=np.ones((8, 8), dtype=bool))
