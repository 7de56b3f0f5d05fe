"""Synthetic renderer: analytic depth, reprojection consistency, determinism."""

import hashlib

import numpy as np
import pytest

from mvstereo import scene as scene_module
from mvstereo.autodiff import ContractError
from mvstereo.cameras import backproject_pixels, project_points, warp_pixel
from mvstereo.scene import SceneSpec, covisible_mask, render_synthetic_scene


class TestPlaneScene:
    def test_frontoparallel_plane_constant_depth(self):
        spec = SceneSpec(kind="plane", plane_depth=2.0, plane_tilt=(0.0, 0.0), jitter=0.0)
        scene = render_synthetic_scene(spec, seed=0)
        np.testing.assert_allclose(scene.views[0].depth, 2.0, atol=1e-12)

    def test_depths_inside_sweep_range(self):
        scene = render_synthetic_scene(SceneSpec(), seed=4)
        for view in scene.views:
            d = view.depth[view.mask]
            assert d.min() >= scene.spec.d_min and d.max() <= scene.spec.d_max

    def test_reprojection_consistency(self):
        """Warp at GT depth lands on the pixel observing the same point."""
        scene = render_synthetic_scene(SceneSpec(), seed=9)
        for src_id in (1, 2):
            ref, src = scene.views[0], scene.views[src_id]
            ys, xs = np.meshgrid(np.arange(ref.height, dtype=float),
                                 np.arange(ref.width, dtype=float), indexing="ij")
            xy = np.stack([xs, ys], axis=-1)
            pts = backproject_pixels(ref.intrinsics, ref.extrinsics, xy, ref.depth)
            true_px, _ = project_points(src.intrinsics, src.extrinsics, pts)
            warp_px, _, _ = warp_pixel(xy, ref.depth, ref.intrinsics, ref.extrinsics,
                                       src.intrinsics, src.extrinsics)
            cov = covisible_mask(scene, 0, src_id)
            assert cov.mean() > 0.5
            assert np.linalg.norm(true_px - warp_px, axis=-1)[cov].max() < 1e-6


class TestSphereScene:
    def test_center_depth_analytic(self):
        spec = SceneSpec(kind="sphere", sphere_depth=2.2, sphere_radius=0.75, jitter=0.0)
        scene = render_synthetic_scene(spec, seed=0)
        view = scene.views[0]
        # Principal point sits between pixels; check the ray through the
        # nearest pixel against the exact ray-sphere solution.
        intr = view.intrinsics
        px = np.array([round(intr.cx), round(intr.cy)], dtype=float)
        ray = np.array([(px[0] - intr.cx) / intr.fx, (px[1] - intr.cy) / intr.fy, 1.0])
        oc = -np.array([0.0, 0.0, spec.sphere_depth])
        a = ray @ ray
        b = ray @ oc
        expected = (-b - np.sqrt(b * b - a * (oc @ oc - spec.sphere_radius ** 2))) / a
        assert view.depth[int(px[1]), int(px[0])] == pytest.approx(expected, abs=1e-12)

    def test_background_masked(self):
        scene = render_synthetic_scene(SceneSpec(kind="sphere"), seed=0)
        view = scene.views[0]
        assert 0.1 < view.mask.mean() < 0.9
        assert (view.depth[~view.mask] == 0).all()

    def test_camera_inside_sphere_rejected(self):
        spec = SceneSpec(kind="sphere", sphere_depth=0.1, sphere_radius=0.75,
                         d_min=0.01, d_max=3.0)
        with pytest.raises(ContractError, match="degenerate"):
            render_synthetic_scene(spec, seed=0)


class TestDeterminismAndTexture:
    def test_same_seed_bitwise_identical(self):
        a = render_synthetic_scene(SceneSpec(), seed=77)
        b = render_synthetic_scene(SceneSpec(), seed=77)
        for va, vb in zip(a.views, b.views):
            np.testing.assert_array_equal(va.image, vb.image)
            np.testing.assert_array_equal(va.depth, vb.depth)

    def test_different_seed_changes_texture(self):
        a = render_synthetic_scene(SceneSpec(), seed=1)
        b = render_synthetic_scene(SceneSpec(), seed=2)
        assert np.abs(a.views[0].image - b.views[0].image).max() > 0.05

    def test_images_are_textured(self):
        scene = render_synthetic_scene(SceneSpec(), seed=3)
        img = scene.views[0].image
        assert img.std() > 0.05
        assert img.min() >= 0.0 and img.max() <= 1.0

    def test_surface_distance_zero_on_surface(self):
        scene = render_synthetic_scene(SceneSpec(), seed=3)
        view = scene.views[1]
        ys, xs = np.meshgrid(np.arange(view.height, dtype=float),
                             np.arange(view.width, dtype=float), indexing="ij")
        pts = backproject_pixels(view.intrinsics, view.extrinsics,
                                 np.stack([xs, ys], axis=-1), view.depth)
        assert scene.surface_distance(pts[view.mask]).max() < 1e-9


def _reference_value_noise(points, freq, seed):
    """One octave of lattice noise with every point hashing its own eight corners."""
    p = points * freq
    i0 = np.floor(p)
    f = p - i0
    t = f * f * (3.0 - 2.0 * f)
    acc = np.zeros(points.shape[:-1])
    for dx in (0, 1):
        for dy in (0, 1):
            for dz in (0, 1):
                corner = scene_module._hash_lattice(i0[..., 0] + dx, i0[..., 1] + dy,
                                                    i0[..., 2] + dz, seed)
                wx = t[..., 0] if dx else 1.0 - t[..., 0]
                wy = t[..., 1] if dy else 1.0 - t[..., 1]
                wz = t[..., 2] if dz else 1.0 - t[..., 2]
                acc += corner * wx * wy * wz
    return acc


def _reference_albedo(points, spec, seed):
    """The surface color computed one channel and one octave at a time."""
    cell = np.floor(points / spec.checker_size).sum(axis=-1)
    checker = (cell % 2.0 == 0).astype(np.float64)
    color_a = np.array([0.9, 0.62, 0.25])
    color_b = np.array([0.18, 0.4, 0.85])
    base = checker[None] * color_a[:, None, None] + (1 - checker)[None] * color_b[:, None, None]
    chans = []
    for c in range(3):
        n1 = _reference_value_noise(points, spec.noise_freq, seed + 11 * c)
        n2 = _reference_value_noise(points, spec.noise_freq * 3.1, seed + 11 * c + 5)
        chans.append(0.65 * n1 + 0.35 * n2)
    noise = np.stack(chans)
    return np.clip(base + 0.55 * (noise - 0.5), 0.02, 1.0)


class TestTextureLattice:
    @pytest.mark.parametrize("kind, supersample, jitter, seed", [
        ("plane", 2, 0.0, 3), ("sphere", 2, 0.12, 1500),
        ("plane", 1, 0.12, 2**31 - 2), ("sphere", 1, 0.0, 1031)])
    def test_render_bit_identical_to_per_point_hashing(self, monkeypatch, kind,
                                                       supersample, jitter, seed):
        spec = SceneSpec(kind=kind, height=24, width=32, focal=28.0,
                         supersample=supersample, jitter=jitter)
        shared = render_synthetic_scene(spec, seed)
        monkeypatch.setattr(scene_module, "_albedo", _reference_albedo)
        reference = render_synthetic_scene(spec, seed)
        for a, b in zip(shared.views, reference.views):
            assert np.array_equal(a.image, b.image)
            assert np.array_equal(a.depth, b.depth)

    def test_cells_are_distinct_and_cover_every_point(self, rng):
        i0 = rng.integers(-40, 40, size=(3, 5000)).astype(np.float64)
        i0[2] *= 1000.0
        cells, inverse = scene_module._lattice_cells(i0)
        assert np.array_equal(cells[:, inverse], i0)
        assert np.unique(cells, axis=1).shape == cells.shape

    @pytest.mark.parametrize("far", [np.nan, np.inf, 1e20])
    def test_unkeyable_lattice_is_named(self, far):
        i0 = np.array([[0.0, far], [0.0, far], [0.0, far]])
        with pytest.raises(ContractError, match="texture lattice"):
            scene_module._lattice_cells(i0)


class TestRowBlocks:
    """Images are shaded and box-filtered a block of rows at a time."""

    SPECS = [
        SceneSpec(jitter=0.12),
        SceneSpec(kind="sphere", jitter=0.1),
        SceneSpec(height=120, width=160, focal=130.0, supersample=1),
        SceneSpec(height=40, width=52, focal=45.0, supersample=3, parallel_rig=True),
        SceneSpec(height=96, width=128, focal=112.0, n_views=5, baseline=0.3, jitter=0.06),
    ]

    def test_renders_equal_the_whole_image_renderer(self):
        """SHA-256 of every image, depth and mask over 5 specs x 2 seeds, as
        rendered when each view was shaded in one piece."""
        digest = hashlib.sha256()
        for spec in self.SPECS:
            for seed in (3, 11):
                for view in render_synthetic_scene(spec, seed=seed).views:
                    for array in (view.image, view.depth, view.mask):
                        digest.update(array.tobytes())
        assert digest.hexdigest() == (
            "19739f77970ee72e9f25f7a53ee0c882ee2bd8fdaf180faa261bb607349b5b31")

    @pytest.mark.parametrize("block", [1, 3 * 9 * 52, 1 << 30])
    def test_block_size_does_not_change_the_image(self, monkeypatch, block):
        """One row, three rows (a partial last block) and the whole image at a time."""
        spec = self.SPECS[3]
        want = render_synthetic_scene(spec, seed=4)
        monkeypatch.setattr(scene_module, "_RENDER_BLOCK", block)
        for a, b in zip(render_synthetic_scene(spec, seed=4).views, want.views):
            assert np.array_equal(a.image, b.image)


class TestSceneSpecValidation:
    @pytest.mark.parametrize("field, value", [
        ("height", 0), ("width", -1), ("n_views", 0), ("n_views", 1),
        ("supersample", 0), ("supersample", -3), ("focal", 0.0), ("focal", np.inf),
        ("noise_freq", np.nan), ("noise_freq", -9.0), ("checker_size", 0.0)])
    def test_bad_value_names_the_field(self, field, value):
        with pytest.raises(ContractError, match=f"scene {field} must be"):
            SceneSpec(**{field: value})
