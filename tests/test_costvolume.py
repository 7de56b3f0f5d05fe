"""Correlation volumes against nested-loop oracles and matching sanity."""

import numpy as np
import pytest

from mvstereo import autodiff as ad
from mvstereo.autodiff import ContractError
from mvstereo.cameras import (
    Extrinsics,
    Intrinsics,
    sample_hypotheses_initial,
)
from mvstereo.costvolume import (
    aggregate_correlation,
    pairwise_correlation,
    warp_source_features,
)
from mvstereo.scene import SceneSpec, covisible_mask, render_synthetic_scene


def correlation_loop(ref, warped, mask):
    """Per-pixel, per-hypothesis inner product, straight from the definition."""
    d, f, h, w = warped.shape
    out = np.zeros((h, w, d))
    for dd in range(d):
        for i in range(h):
            for j in range(w):
                if mask[dd, i, j]:
                    out[i, j, dd] = ref[:, i, j] @ warped[dd, :, i, j]
    return out


def aggregate_loop(volumes, masks):
    """Saliency-weighted aggregation evaluated pixel by pixel."""
    h, w, d = volumes[0].shape
    out = np.zeros((h, w, d))
    for vol, mask in zip(volumes, masks):
        for i in range(h):
            for j in range(w):
                col = vol[i, j]
                valid = mask[i, j]
                weight = col[valid].max() if valid.any() else 0.0
                out[i, j] += weight * col
    return out


class TestPairwiseCorrelation:
    def test_self_correlation_is_squared_norm(self, f64, rng):
        ref = ad.tensor(rng.standard_normal((6, 4, 5)))
        warped = ad.stack([ref, ref, ref], axis=0)
        volume, _ = pairwise_correlation(ref, warped, np.ones((3, 4, 5), dtype=bool))
        norms = (ref.data ** 2).sum(axis=0)
        for d in range(3):
            np.testing.assert_allclose(volume.data[..., d], norms, rtol=1e-12)

    def test_orthogonal_features_give_zero(self, f64):
        ref = np.zeros((4, 2, 2))
        ref[0] = 1.0
        warped = np.zeros((2, 4, 2, 2))
        warped[:, 1] = 1.0
        volume, _ = pairwise_correlation(ad.tensor(ref), ad.tensor(warped),
                                         np.ones((2, 2, 2), dtype=bool))
        np.testing.assert_array_equal(volume.data, np.zeros((2, 2, 2)))

    def test_matches_loop_oracle(self, f32, rng):
        ref = rng.standard_normal((5, 4, 6)).astype(np.float32)
        warped = rng.standard_normal((3, 5, 4, 6)).astype(np.float32)
        mask = rng.random((3, 4, 6)) > 0.25
        volume, out_mask = pairwise_correlation(ad.tensor(ref), ad.tensor(warped), mask)
        ref_out = correlation_loop(ref, warped, mask)
        assert np.abs(volume.data - ref_out).max() <= 1e-6
        np.testing.assert_array_equal(out_mask, np.moveaxis(mask, 0, -1))

    def test_channel_mismatch_rejected(self, f64, rng):
        with pytest.raises(ad.DimensionError, match="channel"):
            pairwise_correlation(ad.tensor(rng.random((4, 3, 3))),
                                 ad.tensor(rng.random((2, 5, 3, 3))),
                                 np.ones((2, 3, 3), dtype=bool))


def sweep_grid(rng, planes, h, w, src_h, src_w):
    """A constant (D, H', W', 2) grid reaching past every border of the
    source, with a non-finite and a wild coordinate."""
    grid = np.stack([rng.uniform(-3.0, src_w + 2.0, (planes, h, w)),
                     rng.uniform(-3.0, src_h + 2.0, (planes, h, w))], axis=-1)
    grid[0, 0, 0, 0], grid[-1, -1, -1, 1] = np.nan, 1e9
    return grid


class TestSampledCorrelation:
    """The op equals grid_sample_2d -> mul -> sum_ bit for bit."""

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("c,planes,h,w", [(32, 16, 16, 20), (16, 8, 32, 40),
                                              (8, 4, 64, 80), (300, 3, 20, 20)],
                             ids=["stage1", "stage2", "stage3", "blocks"])
    def test_equals_the_composition_bitwise(self, rng, dtype, c, planes, h, w):
        with ad.precision(dtype):
            ref0, src0 = rng.standard_normal((c, h, w)), rng.standard_normal((c, h, w))
            grid = ad.tensor(sweep_grid(rng, planes, h, w, h, w))
            g = ad.tensor(rng.standard_normal((planes, h, w)))
            ref, src = (ad.tensor(a, requires_grad=True) for a in (ref0, src0))
            warped, want_mask = ad.grid_sample_2d(src, grid)
            want = ad.sum_(ad.reshape(ref, (1, c, h, w)) * warped, axis=1)
            ad.sum_(want * g).backward()
            fused_ref, fused_src = (ad.tensor(a, requires_grad=True) for a in (ref0, src0))
            got, mask = ad.sampled_correlation(fused_ref, fused_src, grid)
            ad.sum_(got * g).backward()
        assert got.data.tobytes() == want.data.tobytes()
        assert fused_ref.grad.tobytes() == ref.grad.tobytes()
        assert fused_src.grad.tobytes() == src.grad.tobytes()
        np.testing.assert_array_equal(mask, want_mask)

    def test_grid_requiring_grad_rejected(self, f64, rng):
        grid = ad.tensor(rng.uniform(0.0, 3.0, (2, 3, 4, 2)), requires_grad=True)
        with pytest.raises(ContractError, match="constant grid"):
            ad.sampled_correlation(ad.tensor(rng.random((2, 3, 4))),
                                   ad.tensor(rng.random((2, 5, 5))), grid)

    def test_channel_mismatch_rejected(self, f64, rng):
        with pytest.raises(ad.DimensionError, match="channel"):
            ad.sampled_correlation(ad.tensor(rng.random((3, 3, 4))),
                                   ad.tensor(rng.random((2, 5, 5))),
                                   ad.tensor(rng.uniform(0.0, 3.0, (2, 3, 4, 2))))


class TestCorrelationOfAWarp:
    """pairwise_correlation samples a SourceWarp itself."""

    INTR = Intrinsics(20.0, 20.0, 4.5, 3.5)
    REF = Extrinsics(np.eye(3), np.zeros(3))
    SRC = Extrinsics(np.eye(3), np.array([0.3, -0.1, 0.05]))

    def warp(self, feat, depth):
        return warp_source_features(feat, depth, self.INTR, self.REF, self.INTR, self.SRC)

    def test_equals_the_correlation_of_its_sampled_volume(self, f32, rng):
        feat = ad.tensor(rng.standard_normal((6, 8, 10)), requires_grad=True)
        warp = self.warp(feat, sample_hypotheses_initial(1.0, 2.0, 5).planes(8, 10))
        ref = ad.tensor(rng.standard_normal((6, 8, 10)), requires_grad=True)
        got, mask = pairwise_correlation(ref, warp)
        ad.sum_(got).backward()
        grads = ref.grad, warp.source.grad
        ref.zero_grad(), warp.source.zero_grad()
        want, want_mask = pairwise_correlation(ref, *ad.grid_sample_2d(warp.source, warp.grid))
        ad.sum_(want).backward()
        assert not mask.all() and mask.any()
        np.testing.assert_array_equal(mask, want_mask)
        assert got.data.tobytes() == want.data.tobytes()
        assert all(a.tobytes() == b.tobytes()
                   for a, b in zip(grads, (ref.grad, warp.source.grad)))

    def test_behind_the_source_camera_is_invalid(self, f64):
        """Over random poses, every sample whose point lies behind the
        source camera is masked: the sampler's mask is the only one."""
        rng = np.random.default_rng(2024)
        feat = ad.tensor(rng.standard_normal((4, 8, 10)))
        ys, xs = np.mgrid[0:8, 0:10]
        rays = np.stack([(xs - self.INTR.cx) / self.INTR.fx,
                         (ys - self.INTR.cy) / self.INTR.fy, np.ones((8, 10))], axis=-1)
        behind_seen = valid_seen = 0
        for _ in range(12):
            # Rodrigues: up to 0.5 rad about a random axis, the source up to
            # 3 units in front of or 0.5 behind the reference.
            ax = rng.standard_normal(3)
            ax /= np.linalg.norm(ax)
            k = np.array([[0.0, -ax[2], ax[1]], [ax[2], 0.0, -ax[0]], [-ax[1], ax[0], 0.0]])
            angle = rng.uniform(0.0, 0.5)
            rotation = np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * k @ k
            src = Extrinsics(rotation, np.append(rng.uniform(-0.3, 0.3, 2),
                                                 rng.uniform(-3.0, 0.5)))
            depth = rng.uniform(0.5, 4.0, (5, 8, 10))
            # The reference camera is the world frame: a pixel's point is its
            # ray times the depth, and its source-camera z is row 2 of [R | t].
            behind = (rays * depth[..., None]) @ rotation[2] + src.translation[2] <= 0
            _, mask = pairwise_correlation(feat, warp_source_features(
                feat, depth, self.INTR, self.REF, self.INTR, src))
            mask = np.moveaxis(mask, -1, 0)
            assert not mask[behind].any()
            behind_seen += int(behind.sum())
            valid_seen += int(mask.sum())
        assert behind_seen > 1000 and valid_seen > 500


def aggregate_per_source(volumes, masks):
    """The saliency aggregation as a loop over sources, one op chain each."""
    total = None
    for volume, mask in zip(volumes, masks):
        m = mask.astype(volume.dtype)
        w, _ = ad.max_with_argmax(volume * m - 1e9 * (1.0 - m), axis=2)
        w = w * mask.any(axis=2).astype(volume.dtype)
        term = ad.reshape(w, w.shape + (1,)) * volume
        total = term if total is None else total + term
    return total


class TestAggregation:
    def test_single_view_unit_correlation(self, f64):
        vol = ad.tensor(np.ones((1, 3, 4, 2)))
        out = aggregate_correlation(vol, np.ones((1, 3, 4, 2), bool))
        np.testing.assert_allclose(out.data, np.ones((3, 4, 2)))

    def test_two_view_worked_example(self, f64):
        """w1 = 0.8, w2 = 0.6 -> C = 0.8*[0.2,0.8] + 0.6*[0.6,0.4]."""
        vols = ad.tensor(np.array([[0.2, 0.8], [0.6, 0.4]]).reshape(2, 1, 1, 2))
        out = aggregate_correlation(vols, np.ones((2, 1, 1, 2), bool))
        np.testing.assert_allclose(out.data[0, 0], [0.52, 0.88], rtol=1e-12)

    def test_fully_masked_view_contributes_zero(self, f64, rng):
        live = rng.random((1, 2, 2, 3))
        both = np.concatenate([live, np.zeros((1, 2, 2, 3))])
        masks = np.concatenate([np.ones((1, 2, 2, 3), bool), np.zeros((1, 2, 2, 3), bool)])
        with_dead = aggregate_correlation(ad.tensor(both), masks).data
        alone = aggregate_correlation(ad.tensor(live), masks[:1]).data
        np.testing.assert_allclose(with_dead, alone, atol=1e-12)

    def test_matches_loop_oracle(self, f32, rng):
        vols = [rng.standard_normal((4, 5, 6)).astype(np.float32) for _ in range(3)]
        masks = [rng.random((4, 5, 6)) > 0.2 for _ in range(3)]
        stacked = np.stack([np.where(m, v, 0.0) for v, m in zip(vols, masks)])
        out = aggregate_correlation(ad.tensor(stacked), np.stack(masks)).data
        expected = aggregate_loop([np.where(m, v, 0.0) for v, m in zip(vols, masks)], masks)
        assert np.abs(out - expected).max() <= 1e-6

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_equals_per_source_loop_forward_and_backward(self, rng, dtype):
        """Bitwise, with the last source masked everywhere."""
        with ad.precision(dtype):
            masks = rng.random((4, 5, 6, 7)) > 0.3
            masks[-1] = False
            data = np.where(masks, rng.standard_normal(masks.shape), 0.0)
            coef = ad.tensor(rng.standard_normal((5, 6, 7)))
            stacked = ad.tensor(data, requires_grad=True)
            out = aggregate_correlation(stacked, masks)
            ad.sum_(out * coef).backward()
            views = [ad.tensor(v, requires_grad=True) for v in data]
            expected = aggregate_per_source(views, masks)
            ad.sum_(expected * coef).backward()
            assert np.array_equal(out.data, expected.data)
            assert np.array_equal(stacked.grad, np.stack([v.grad for v in views]))
            assert not stacked.grad[-1].any()

    @pytest.mark.parametrize("mask_shape", [(2, 3, 4, 5), (3, 3, 4, 4), (3, 4, 5)])
    def test_shape_mismatch_rejected(self, f64, rng, mask_shape):
        with pytest.raises(ad.DimensionError, match="must match"):
            aggregate_correlation(ad.tensor(rng.random((3, 3, 4, 5))),
                                  np.ones(mask_shape, bool))

    def test_empty_view_set_rejected(self, f64):
        with pytest.raises(ContractError):
            aggregate_correlation(ad.tensor(np.zeros((0, 2, 2, 3))),
                                  np.zeros((0, 2, 2, 3), bool))

    def test_max_gradient_routes_through_argmax(self, f64, rng):
        vol = ad.tensor(rng.standard_normal((1, 2, 2, 4)), requires_grad=True)
        mask = np.ones((1, 2, 2, 4), bool)
        c = ad.tensor(rng.standard_normal((2, 2, 4)))
        worst = ad.gradcheck(
            lambda v: ad.sum_(aggregate_correlation(v, mask) * c),
            [vol], max_entries=None)
        assert worst < 1e-4


class TestWarpedFeatures:
    def test_identical_cameras_reproduce_features(self, f64, rng):
        intr = Intrinsics(20.0, 20.0, 4.5, 3.5)
        pose = Extrinsics(np.eye(3), np.zeros(3))
        feat = ad.tensor(rng.standard_normal((6, 8, 10)))
        hyps = sample_hypotheses_initial(1.0, 2.0, 3)
        warp = warp_source_features(feat, hyps.planes(8, 10), intr, pose, intr, pose)
        warped, mask = ad.grid_sample_2d(warp.source, warp.grid)
        assert warped.shape == (3, 6, 8, 10)
        assert mask.all()
        for d in range(3):
            np.testing.assert_allclose(warped.data[d], feat.data, atol=1e-9)

    def test_gt_depth_slice_aligns_with_reference(self, f64):
        """At the hypothesis nearest GT depth, warped image content matches.

        Anti-aliased rendering keeps the residual down to bilinear
        interpolation error; slices far from GT are much worse.
        """
        scene = render_synthetic_scene(
            SceneSpec(plane_tilt=(0.0, 0.0), jitter=0.0, supersample=2), seed=21)
        ref, src = scene.views[0], scene.views[1]
        d0 = float(ref.depth[32, 40])
        hyps = sample_hypotheses_initial(d0 - 0.4, d0 + 0.4, 17)  # center = GT
        warp = warp_source_features(
            ad.tensor(src.image), hyps.planes(ref.height, ref.width),
            ref.intrinsics, ref.extrinsics, src.intrinsics, src.extrinsics)
        warped, mask = ad.grid_sample_2d(warp.source, warp.grid)
        cov = covisible_mask(scene, 0, 1) & mask[8]
        at_gt = np.abs(warped.data[8] - ref.image)[:, cov].mean()
        off_gt = np.abs(warped.data[0] - ref.image)[:, cov].mean()
        assert at_gt < 0.04
        assert off_gt > 5 * at_gt


MATCHING_SCENE = SceneSpec(width=160, height=64, baseline=1.15,
                           plane_tilt=(0.04, -0.03), d_min=1.2, d_max=3.4,
                           noise_freq=6.5, parallel_rig=True, supersample=2)


def raw_patch_features(img: np.ndarray, k: int = 7) -> np.ndarray:
    """Mean-removed k x k RGB patches around every pixel (no learning).

    Removing each patch's DC keeps the plain inner product from rewarding
    brightness instead of alignment.
    """
    from numpy.lib.stride_tricks import sliding_window_view
    pad = k // 2
    feats = []
    for ch in img:
        padded = np.pad(ch, pad, mode="edge")
        win = sliding_window_view(padded, (k, k))
        feats.append(win.reshape(*ch.shape, k * k).transpose(2, 0, 1))
    f = np.concatenate(feats).astype(np.float32)
    return np.ascontiguousarray(f - f.mean(axis=0, keepdims=True))


def matching_hit_rate(scene, depth_count: int = 32) -> tuple[float, int]:
    """Fraction of well-textured interior co-visible pixels whose aggregated
    correlation argmax is the hypothesis nearest GT depth."""
    views = scene.views
    ref = views[0]
    feats = [raw_patch_features(v.image) for v in views]
    hyps = sample_hypotheses_initial(scene.spec.d_min, scene.spec.d_max, depth_count)
    depth = hyps.planes(ref.height, ref.width)
    with ad.no_grad():
        pairs = []
        for feat, view in zip(feats[1:], views[1:]):
            pairs.append(pairwise_correlation(ad.tensor(feats[0]), warp_source_features(
                ad.tensor(feat), depth, ref.intrinsics, ref.extrinsics,
                view.intrinsics, view.extrinsics)))
        volumes, masks = zip(*pairs)
        volume = aggregate_correlation(ad.stack(volumes), np.stack(masks)).data
    winner = volume.argmax(axis=2)
    target = np.abs(hyps.values[None, None, :] - ref.depth[..., None]).argmin(axis=2)
    gy, gx = np.gradient(ref.image.mean(axis=0))
    grad_mag = np.hypot(gy, gx)
    textured = grad_mag > np.quantile(grad_mag, 0.5)
    interior = np.zeros_like(textured)
    interior[8:-8, 8:-8] = True
    covis = covisible_mask(scene, 0, 1) & covisible_mask(scene, 0, 2)
    sel = textured & interior & covis
    return float((winner == target)[sel].mean()), int(sel.sum())


class TestMatchingSanity:
    def test_patch_features_pick_nearest_hypothesis(self, f32):
        """Raw image patches as features, D = 32, no learning anywhere."""
        scene = render_synthetic_scene(MATCHING_SCENE, seed=33)
        hit, n = matching_hit_rate(scene)
        assert n > 500
        assert hit >= 0.9, f"argmax hit rate {hit:.3f}"
