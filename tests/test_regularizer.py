"""Volume regularization, probability readout, winner-take-all, cascade."""

import re

import numpy as np
import pytest

from mvstereo import autodiff as ad
from mvstereo.cameras import DepthHypotheses, sample_hypotheses_initial
from mvstereo.model import CascadeConfig, ModelConfig, StereoModel
from mvstereo.regularizer import VolumeRegularizer, probability_volume, winner_take_all
from mvstereo.scene import SceneSpec, render_synthetic_scene
from mvstereo.training import focal_loss


class TestRegularizer:
    def test_output_shape_equals_input_shape(self, f32, rng):
        reg = VolumeRegularizer(rng)
        vol = ad.tensor(rng.random((12, 10, 8)))
        assert reg(vol).shape == (12, 10, 8)

    def test_deterministic(self, f32, rng):
        reg = VolumeRegularizer(rng)
        vol = ad.tensor(rng.random((8, 8, 8)))
        np.testing.assert_array_equal(reg(vol).data, reg(vol).data)

    def test_odd_extents_survive_unet(self, f32, rng):
        reg = VolumeRegularizer(rng)
        vol = ad.tensor(rng.random((7, 9, 5)))
        assert reg(vol).shape == (7, 9, 5)

    def test_gradients(self, f64, rng):
        reg = VolumeRegularizer(rng)
        vol = ad.tensor(rng.random((4, 5, 4)), requires_grad=True)
        c = ad.tensor(rng.standard_normal((4, 5, 4)))
        worst = ad.gradcheck(
            lambda v: ad.sum_(reg(v) * c), [vol], max_entries=8)
        assert worst < 1e-4

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_unet_takes_fewer_than_four_hypotheses(self, f64, rng, d):
        """Depth extents that cannot survive two halvings keep their shape
        and their gradients. The check redraws a probe whose +-h interval
        straddles a ReLU kink (D = 2 here has one within 1e-5 of index 0)."""
        reg = VolumeRegularizer(rng)
        vol = ad.tensor(rng.random((5, 6, d)), requires_grad=True)
        assert reg(vol).shape == (5, 6, d)
        c = ad.tensor(rng.standard_normal((5, 6, d)))
        worst = ad.gradcheck(lambda v: ad.sum_(reg(v) * c), [vol], max_entries=8)
        assert worst < 1e-4


class TestProbabilityVolume:
    def test_uniform_logits_give_uniform_probability(self, f64):
        p = probability_volume(ad.tensor(np.zeros((3, 4, 5))))
        np.testing.assert_allclose(p.data, 0.2, atol=1e-12)

    def test_per_pixel_constant_shift_invariance(self, f64, rng):
        logits = rng.standard_normal((3, 4, 5))
        shift = rng.standard_normal((3, 4, 1))
        a = probability_volume(ad.tensor(logits)).data
        b = probability_volume(ad.tensor(logits + shift)).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_matches_direct_softmax(self, f64, rng):
        logits = rng.standard_normal((2, 3, 6))
        p = probability_volume(ad.tensor(logits)).data
        e = np.exp(logits - logits.max(axis=2, keepdims=True))
        np.testing.assert_allclose(p, e / e.sum(axis=2, keepdims=True), atol=1e-12)

    def test_normalization_invariant(self, f32, rng):
        p = probability_volume(ad.tensor(10 * rng.standard_normal((5, 6, 9))))
        sums = p.data.sum(axis=2)
        assert np.abs(sums - 1).max() < 1e-5


class TestWinnerTakeAll:
    def test_one_hot_selects_hypothesis(self, f64):
        hyps = sample_hypotheses_initial(1.0, 4.0, 4)
        p = np.zeros((1, 1, 4))
        p[0, 0, 2] = 1.0
        est = winner_take_all(ad.tensor(p), hyps)
        assert est.depth[0, 0] == pytest.approx(3.0)
        assert est.confidence[0, 0] == pytest.approx(1.0)

    def test_window_confidence_example(self, f64):
        hyps = sample_hypotheses_initial(1.0, 3.0, 3)
        p = np.array([0.1, 0.5, 0.4]).reshape(1, 1, 3)
        est = winner_take_all(ad.tensor(p), hyps)
        assert est.depth[0, 0] == pytest.approx(2.0)
        assert est.confidence[0, 0] == pytest.approx(1.0)

    def test_tie_breaks_toward_smaller_index(self, f64):
        hyps = sample_hypotheses_initial(1.0, 4.0, 4)
        p = np.full((1, 1, 4), 0.25)
        est = winner_take_all(ad.tensor(p), hyps)
        assert est.depth[0, 0] == pytest.approx(1.0)
        # Window shifts inward at the volume end: indices {0, 1, 2}.
        assert est.confidence[0, 0] == pytest.approx(0.75)

    def test_depths_are_hypothesis_members(self, f32, rng):
        hyps = sample_hypotheses_initial(0.8, 2.4, 9)
        p = probability_volume(ad.tensor(rng.standard_normal((6, 7, 9))))
        est = winner_take_all(p, hyps)
        assert np.isin(est.depth, hyps.values).all()

    def test_argmax_invariance_under_positive_scale_and_shift(self, f64, rng):
        hyps = sample_hypotheses_initial(1.0, 2.0, 6)
        logits = rng.standard_normal((4, 5, 6))
        base = winner_take_all(probability_volume(ad.tensor(logits)), hyps)
        scaled = winner_take_all(
            probability_volume(ad.tensor(3.7 * logits + 12.3)), hyps)
        np.testing.assert_array_equal(base.depth, scaled.depth)


class TestHypothesisLayout:
    """A (D,) record and its (H, W, D) broadcast give identical results."""

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_global_record_equals_its_broadcast(self, f32, rng, d):
        h, w = 4, 6
        flat = sample_hypotheses_initial(1.0, 3.0, d)
        full = DepthHypotheses(np.broadcast_to(flat.values, (h, w, d)), flat.interval)
        np.testing.assert_array_equal(flat.planes(h, w), full.planes(h, w))

        logits = rng.standard_normal((h, w, d))
        logits[0] = 0.0                       # every hypothesis tied
        logits[1, :, 1] = logits[1, :, 0]     # the first two tied
        logits[2, :, -1] = logits[2, :, -2]   # the last two tied
        prob = probability_volume(ad.tensor(logits))
        a, b = winner_take_all(prob, flat), winner_take_all(prob, full)
        np.testing.assert_array_equal(a.depth, b.depth)
        np.testing.assert_array_equal(a.confidence, b.confidence)

        gt = rng.uniform(0.8, 3.2, size=(h, w))
        mask = rng.random((h, w)) > 0.3
        for gamma in (0.0, 2.0):
            np.testing.assert_array_equal(focal_loss(prob, gt, flat, mask, gamma).data,
                                          focal_loss(prob, gt, full, mask, gamma).data)

    @pytest.mark.parametrize("shape", [(4,), (3, 2, 8), (2, 3, 4), (1, 3, 8)])
    def test_record_that_does_not_fit_the_volume_is_named(self, f64, rng, shape):
        """Both readers reject it with one error naming both shapes; a record
        that fits is read by both in the test above."""
        prob = probability_volume(ad.tensor(rng.standard_normal((2, 3, 8))))
        hyps = DepthHypotheses(np.broadcast_to(np.linspace(1.0, 2.0, shape[-1]), shape), 0.1)
        named = re.escape(f"{shape}") + ".*" + re.escape("(2, 3, 8)")
        with pytest.raises(ad.DimensionError, match=named):
            focal_loss(prob, np.full((2, 3), 1.5), hyps, np.ones((2, 3), bool), 2.0)
        with pytest.raises(ad.DimensionError, match=named):
            winner_take_all(prob, hyps)


@pytest.fixture(scope="module")
def outputs_and_model():
    with ad.precision("float32"):
        scene = render_synthetic_scene(SceneSpec(), seed=5)
        model = StereoModel(ModelConfig(), seed=1)
        outs = model(scene.views)
    return scene, model, outs


class TestCascade:
    def test_stage_shapes(self, outputs_and_model):
        _, _, outs = outputs_and_model
        assert [o.estimate.depth.shape for o in outs] == [(16, 20), (32, 40), (64, 80)]
        assert [o.prob.shape[-1] for o in outs] == [16, 8, 4]

    def test_probability_normalized_every_stage(self, outputs_and_model):
        _, _, outs = outputs_and_model
        for o in outs:
            assert np.abs(o.prob.data.sum(axis=2) - 1).max() < 1e-5

    def test_wta_membership_every_stage(self, outputs_and_model):
        _, _, outs = outputs_and_model
        for o in outs:
            if o.hyps.values.ndim == 1:
                assert np.isin(o.estimate.depth, o.hyps.values).all()
            else:
                gathered = np.take_along_axis(
                    o.hyps.values, o.prob.data.argmax(axis=2)[..., None],
                    axis=2)[..., 0]
                np.testing.assert_array_equal(o.estimate.depth, gathered)

    def test_hypothesis_nesting_and_interval_decay(self, outputs_and_model):
        """Stage s+1 windows center on upsampled stage-s depth, decayed step."""
        _, model, outs = outputs_and_model
        cfg = model.config.cascade
        interval = outs[0].hyps.interval
        for s in (1, 2):
            expected_interval = interval * cfg.decays[s]
            assert outs[s].hyps.interval == pytest.approx(expected_interval)
            interval = expected_interval
            prev_up = ad.upsample_bilinear_2x(
                ad.tensor(outs[s - 1].estimate.depth[None], dtype=np.float64)).data[0]
            vals = outs[s].hyps.values
            centers = vals.mean(axis=2)
            unclamped = ((vals[..., 0] > cfg.d_min + 1e-9)
                         & (vals[..., -1] < cfg.d_max - 1e-9))
            np.testing.assert_allclose(centers[unclamped], prev_up[unclamped],
                                       rtol=1e-6)
            np.testing.assert_allclose(np.diff(vals, axis=2), expected_interval,
                                       rtol=1e-6)

    def test_needs_at_least_two_views(self, f32):
        model = StereoModel(ModelConfig(), seed=0)
        scene = render_synthetic_scene(SceneSpec(), seed=5)
        with pytest.raises(ad.ContractError, match="source view"):
            model(scene.views[:1])

    def test_gradient_reaches_matcher_from_fine_stage(self, f32):
        """Supervising only stage 3 still trains the transformer (pathway on)."""
        from mvstereo.training import LossConfig, cascade_loss
        scene = render_synthetic_scene(SceneSpec(height=16, width=16, focal=18.0),
                                       seed=2)
        model = StereoModel(ModelConfig(cascade=CascadeConfig(counts=(8, 6, 4))),
                            seed=0)
        outs = model(scene.views)
        loss, _ = cascade_loss(outs, scene.views[0],
                               LossConfig(stage_weights=(0.0, 0.0, 1.0)))
        model.zero_grad()
        loss.backward()
        matcher_grads = [p.grad for p in model.matcher.parameters()]
        assert any(g is not None and np.abs(g).max() > 0 for g in matcher_grads)

    def test_pathway_ablation_blocks_matcher_gradient(self, f32):
        from mvstereo.training import LossConfig, cascade_loss
        scene = render_synthetic_scene(SceneSpec(height=16, width=16, focal=18.0),
                                       seed=2)
        model = StereoModel(
            ModelConfig(cascade=CascadeConfig(counts=(8, 6, 4)), use_pathway=False),
            seed=0)
        outs = model(scene.views)
        loss, _ = cascade_loss(outs, scene.views[0],
                               LossConfig(stage_weights=(0.0, 0.0, 1.0)))
        model.zero_grad()
        loss.backward()
        for p in model.matcher.parameters():
            assert p.grad is None or np.abs(p.grad).max() == 0.0


class TestSmallCounts:
    """Stages under 4 hypotheses use the same U-Net as the others."""

    def test_cascade_with_small_counts_gives_valid_depths(self, f32):
        cfg = CascadeConfig(counts=(8, 3, 2))
        scene = render_synthetic_scene(SceneSpec(height=16, width=16, focal=18.0),
                                       seed=2)
        model = StereoModel(ModelConfig(cascade=cfg), seed=0)
        with ad.no_grad():
            outs = model(scene.views)
        assert [o.prob.shape[-1] for o in outs] == [8, 3, 2]
        for o in outs:
            depth, conf = o.estimate.depth, o.estimate.confidence
            assert np.isfinite(depth).all()
            assert ((depth >= cfg.d_min) & (depth <= cfg.d_max)).all()
            assert ((conf >= 0) & (conf <= 1)).all()

    def test_state_does_not_depend_on_counts(self):
        small = StereoModel(ModelConfig(cascade=CascadeConfig(counts=(8, 3, 2))), seed=0)
        default = StereoModel(ModelConfig(), seed=0)
        a, b = small.state(), default.state()
        assert list(a) == list(b)
        for name in a:
            assert a[name].dtype == b[name].dtype, name
            np.testing.assert_array_equal(a[name], b[name], err_msg=name)


class TestCascadeConfig:
    def test_counts_must_not_increase(self):
        with pytest.raises(ad.ContractError, match="non-increasing"):
            CascadeConfig(counts=(8, 16, 4))

    def test_decays_must_be_in_unit_interval(self):
        with pytest.raises(ad.ContractError, match="decays"):
            CascadeConfig(decays=(1.0, 0.0, 0.5))

    def test_full_scale_pattern_accepted(self):
        cfg = CascadeConfig(counts=(48, 32, 8), decays=(1.0, 0.25, 0.5),
                            d_min=425.0, d_max=935.0)
        assert cfg.counts == (48, 32, 8)
