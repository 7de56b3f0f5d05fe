"""The no-grad feature memo: a scene's references reuse each view's
pyramid and deformable features, bit for bit, and any change to an image,
the dtype or a feature-path parameter recomputes them."""

import gc
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from mvstereo import autodiff as ad
from mvstereo.features import FeaturePyramidNet
from mvstereo.model import CascadeConfig, ModelConfig, StereoModel
from mvstereo.scene import SceneSpec, render_synthetic_scene
from mvstereo.training import Adam, LossConfig, cascade_loss

CONFIG = ModelConfig(cascade=CascadeConfig(counts=(8, 6, 4)), n_blocks=1, n_heads=2)
N_VIEWS = 5


@pytest.fixture(scope="module")
def views():
    spec = SceneSpec(height=32, width=40, focal=35.0, n_views=N_VIEWS, baseline=0.3)
    return render_synthetic_scene(spec, seed=5).views


@pytest.fixture
def pyramid_calls(monkeypatch):
    """Counts FeaturePyramidNet calls, one per view whose features are computed."""
    calls = []
    original = FeaturePyramidNet.__call__

    def counted(self, image):
        calls.append(image.shape)
        return original(self, image)

    monkeypatch.setattr(FeaturePyramidNet, "__call__", counted)
    return calls


def ordered(views, ref):
    return [views[ref]] + [v for j, v in enumerate(views) if j != ref]


def infer(model, views):
    with ad.no_grad():
        return model(views)


def assert_same_outputs(got, want):
    for a, b in zip(got, want, strict=True):
        assert np.array_equal(a.prob.data, b.prob.data)
        assert np.array_equal(a.estimate.depth, b.estimate.depth)
        assert np.array_equal(a.estimate.confidence, b.estimate.confidence)
        assert np.array_equal(a.hyps.values, b.hyps.values)


def fresh_outputs(model, views):
    """The outputs of a new model holding ``model``'s parameters."""
    twin = StereoModel(model.config, seed=1)
    twin.load_state(model.state())
    return infer(twin, views)


def test_every_reference_equals_a_fresh_model(f32, views, pyramid_calls):
    """References 3-5 reuse all five views' features; every output is
    bit-identical to a model that computes them anew."""
    model = StereoModel(CONFIG, seed=0)
    per_call = []
    for ref in range(N_VIEWS):
        before = len(pyramid_calls)
        outputs = infer(model, ordered(views, ref))
        per_call.append(len(pyramid_calls) - before)
        assert_same_outputs(outputs, infer(StereoModel(CONFIG, seed=0), ordered(views, ref)))
    assert per_call == [N_VIEWS, N_VIEWS, 0, 0, 0]


def _adam_step(model, views):
    opt = Adam(model.named_parameters(), lr=1e-2)
    for p in model.parameters():
        p.grad = np.full_like(p.data, 0.5)
    opt.step()


def _load_other(model, views):
    model.load_state(StereoModel(CONFIG, seed=7).state())


def _edit_parameter(model, views):
    model.fpn.head0.weight.data[0, 0, 1, 1] += 0.25


def _edit_image(model, views):
    views[2].image[:, 3:6, 4:9] *= 0.5


@pytest.mark.parametrize("change, recomputed", [
    (_adam_step, N_VIEWS), (_load_other, N_VIEWS), (_edit_parameter, N_VIEWS),
    (_edit_image, 1)])
def test_a_change_recomputes(f32, views, pyramid_calls, change, recomputed):
    model = StereoModel(CONFIG, seed=0)
    scene = list(views)
    scene[2] = replace(views[2], image=views[2].image.copy())  # edited in place
    infer(model, scene)
    infer(model, scene)  # every view's features are kept now
    change(model, scene)
    before = len(pyramid_calls)
    outputs = infer(model, scene)
    assert len(pyramid_calls) - before == recomputed
    assert_same_outputs(outputs, fresh_outputs(model, scene))


def test_a_dtype_switch_recomputes(f32, views, pyramid_calls):
    model = StereoModel(CONFIG, seed=0)
    infer(model, views)
    infer(model, views)
    before = len(pyramid_calls)
    with ad.precision("float64"):
        outputs = infer(model, views)
        assert len(pyramid_calls) - before == N_VIEWS
        assert outputs[0].prob.dtype == np.float64
        assert_same_outputs(outputs, fresh_outputs(model, views))


def test_grad_enabled_calls_bypass_the_memo(f32, views, pyramid_calls):
    """With gradients on, every view is computed, the tape is the one
    without a memo, and the memo is neither read nor refilled."""
    model = StereoModel(CONFIG, seed=0)
    small = render_synthetic_scene(SceneSpec(height=16, width=16, focal=18.0), seed=3).views
    infer(model, small)
    infer(model, small)
    kept = dict(model._feature_memo)
    before = len(pyramid_calls)
    loss, _ = cascade_loss(model(small), small[0], LossConfig())
    assert len(pyramid_calls) - before == len(small)
    assert len(ad.Tape.trace(loss)) == 584  # the tape's node count without the memo
    assert model._feature_memo.keys() == kept.keys()
    assert all(model._feature_memo[k] is kept[k] for k in kept)

    other = StereoModel(CONFIG, seed=0)
    for _ in range(2):
        other(small)
    assert other._feature_memo == {}


def test_one_shot_call_keeps_no_features(f32, views):
    """A view is kept only when seen in two calls in a row, so a single
    call leaves nothing live; a second one keeps every view's features."""
    one_view = StereoModel(CONFIG, seed=0).extract_features(views[:1])[0]
    feature_bytes = N_VIEWS * sum(f.data.nbytes for f in one_view)
    infer(StereoModel(CONFIG, seed=0), views)  # first-call caches of numpy and Python
    model = StereoModel(CONFIG, seed=0)

    def live():
        gc.collect()  # also empties the interpreter's free lists
        return tracemalloc.get_traced_memory()[0]

    tracemalloc.start()
    try:
        baseline = live()
        infer(model, views)
        one_shot = live() - baseline
        infer(model, views)
        second = live() - baseline
    finally:
        tracemalloc.stop()
    assert one_shot < 16 * 1024, f"kept {one_shot} bytes after one call"
    assert second >= feature_bytes


def test_memoized_features_are_read_only(f32, views):
    model = StereoModel(CONFIG, seed=0)
    infer(model, views)
    infer(model, views)
    with ad.no_grad():
        feats = model.extract_features(views)  # every view reused
    for view_feats in feats:
        for f in view_feats:
            with pytest.raises(ValueError, match="read-only"):
                f.data[...] = 0.0
