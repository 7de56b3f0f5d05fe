"""Named gradient-check suite over every differentiable operation.

Each check builds random instances (64-bit), runs reverse-mode backward,
and compares against central finite differences. The CLI and the
acceptance tests share this registry so "the gradient suite" means one
thing everywhere.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import gradcheck
from .features import deformable_conv2d
from .matcher import MatchingTransformer, linear_attention
from .model import CascadeConfig, ModelConfig, StereoModel
from .regularizer import probability_volume
from .scene import SceneSpec, render_synthetic_scene
from .training import LossConfig, cascade_loss, focal_loss

__all__ = ["GRAD_CHECKS", "run_check", "run_suite"]


def _t(rng, shape, lo=-1.0, hi=1.0, grad=True):
    return ad.tensor(rng.uniform(lo, hi, size=shape), requires_grad=grad)


def _coef(rng, shape):
    return ad.tensor(rng.standard_normal(shape))


def check_matmul(rng) -> float:
    a = _t(rng, (4, 5))
    b = _t(rng, (5, 3))
    c = _coef(rng, (4, 3))
    return gradcheck(lambda a, b: ad.sum_(ad.matmul(a, b) * c), [a, b], max_entries=8, rng=rng)


def check_conv2d(rng) -> float:
    x = _t(rng, (2, 6, 7))
    k = _t(rng, (3, 2, 3, 3))
    c = _coef(rng, (3, 6, 7))
    return gradcheck(lambda x, k: ad.sum_(ad.conv2d(x, k, padding=1) * c), [x, k],
                     max_entries=8, rng=rng)


def check_conv3d(rng) -> float:
    x = _t(rng, (2, 4, 5, 4))
    k = _t(rng, (2, 2, 3, 3, 3))
    c = _coef(rng, (2, 4, 5, 4))
    return gradcheck(lambda x, k: ad.sum_(ad.conv3d(x, k, padding=1) * c), [x, k],
                     max_entries=8, rng=rng)


def check_grid_sample(rng) -> float:
    img = _t(rng, (3, 6, 7))
    # Keep sampling points clear of cell boundaries: bilinear interpolation
    # is only piecewise differentiable there.
    grid = ad.tensor(rng.uniform(0.1, 5.4, size=(4, 5, 2))
                     + rng.choice([0.15, 0.45], size=(4, 5, 2)), requires_grad=True)
    c = _coef(rng, (3, 4, 5))
    worst = gradcheck(lambda i, g: ad.sum_(ad.grid_sample_2d(i, g)[0] * c), [img, grid],
                      max_entries=8, rng=rng)
    # The plane sweep's sample-and-correlate op: bilinear in its two maps,
    # along a constant grid with some samples out of bounds.
    ref = _t(rng, (3, 4, 5))
    sweep = ad.tensor(rng.uniform(-0.5, 6.5, size=(2, 4, 5, 2)))
    cs = _coef(rng, (2, 4, 5))
    return max(worst, gradcheck(
        lambda r, i: ad.sum_(ad.sampled_correlation(r, i, sweep)[0] * cs), [ref, img],
        max_entries=8, rng=rng))


def check_elementwise(rng) -> float:
    # elu and relu away from their kink; softmax, layer_norm, max, and
    # exp/log on safe ranges; concat and getitem; stack.
    x = ad.tensor(rng.uniform(0.2, 2.0, size=(3, 5)) * rng.choice([-1.0, 1.0], size=(3, 5)),
                  requires_grad=True)
    c = _coef(rng, (3, 5))
    worst = gradcheck(lambda x: ad.sum_(ad.elu(x) * c), [x], max_entries=8, rng=rng)
    worst = max(worst, gradcheck(lambda x: ad.sum_(ad.relu(x) * c), [x],
                                 max_entries=8, rng=rng))
    y = _t(rng, (4, 6))
    cy = _coef(rng, (4, 6))
    worst = max(worst, gradcheck(lambda y: ad.sum_(ad.softmax(y, axis=1) * cy), [y],
                                 max_entries=8, rng=rng))
    worst = max(worst, gradcheck(lambda y: ad.sum_(ad.layer_norm(y, axis=1) * cy), [y],
                                 max_entries=8, rng=rng))
    z = _t(rng, (3, 4))
    cz = _coef(rng, (3,))
    worst = max(worst, gradcheck(
        lambda z: ad.sum_(ad.max_with_argmax(z, axis=1)[0] * cz), [z],
        max_entries=8, rng=rng))
    worst = max(worst, gradcheck(
        lambda z: ad.mean(ad.exp(z * 0.3)) + ad.sum_(ad.log(z * z + 1.0)), [z],
        max_entries=8, rng=rng))
    # concat of getitem's two paths: a basic slice, and an index array that
    # repeats a row (its gradient accumulates).
    w = _t(rng, (4, 3))
    cw = _coef(rng, (5, 3))
    rows = np.array([0, 2, 2])
    worst = max(worst, gradcheck(
        lambda y, w: ad.sum_(ad.concat([y[1:3, ::2], w[rows]], axis=0) * cw), [y, w],
        max_entries=8, rng=rng))
    cs = _coef(rng, (3, 2, 4))
    return max(worst, gradcheck(lambda y, z: ad.sum_(ad.stack([y[:3, :4], z], axis=1) * cs),
                                [y, z], max_entries=8, rng=rng))


def check_upsample(rng) -> float:
    x = _t(rng, (2, 3, 4))
    c = _coef(rng, (2, 6, 8))
    worst = gradcheck(lambda x: ad.sum_(ad.upsample_bilinear_2x(x) * c), [x],
                      max_entries=8, rng=rng)
    v = _t(rng, (1, 2, 3, 4))
    cv = _coef(rng, (1, 4, 6, 8))
    return max(worst, gradcheck(lambda v: ad.sum_(ad.upsample_trilinear_2x(v) * cv), [v],
                                max_entries=8, rng=rng))


def check_deformable_conv(rng) -> float:
    feat = _t(rng, (2, 6, 7))
    kernel = _t(rng, (3, 2, 3, 3))
    offsets = ad.tensor(rng.uniform(-0.4, 0.4, size=(18, 6, 7)) + 0.13, requires_grad=True)
    c = _coef(rng, (3, 6, 7))
    return gradcheck(
        lambda f, k, o: ad.sum_(deformable_conv2d(f, k, o) * c),
        [feat, kernel, offsets], max_entries=6, rng=rng)


def check_linear_attention(rng) -> float:
    q = _t(rng, (6, 8))
    k = _t(rng, (5, 8))
    v = _t(rng, (5, 8))
    c = _coef(rng, (6, 8))
    return gradcheck(
        lambda q, k, v: ad.sum_(linear_attention(q, k, v, n_heads=2) * c),
        [q, k, v], max_entries=8, rng=rng)


def check_focal_loss(rng) -> float:
    from .cameras import sample_hypotheses_initial
    hyps = sample_hypotheses_initial(1.0, 3.0, 6)
    logits = _t(rng, (3, 4, 6), lo=-2.0, hi=2.0)
    gt = rng.uniform(1.0, 3.0, size=(3, 4))
    mask = rng.random((3, 4)) > 0.2
    if not mask.any():
        mask[0, 0] = True
    gamma = float(rng.choice([0.0, 1.0, 2.0]))
    def f(lg):
        return focal_loss(probability_volume(lg), gt, hyps, mask, gamma)
    return gradcheck(f, [logits], max_entries=10, rng=rng)


def _tiny_scene(seed: int):
    spec = SceneSpec(height=8, width=8, focal=8.0, baseline=0.25,
                     d_min=1.4, d_max=2.8, plane_depth=2.0,
                     checker_size=0.35, noise_freq=6.0)
    return render_synthetic_scene(spec, seed=seed)


def _tiny_model(seed: int) -> StereoModel:
    cfg = ModelConfig(cascade=CascadeConfig(counts=(8, 6, 4), d_min=1.4, d_max=2.8),
                      n_blocks=1, n_heads=2)
    return StereoModel(cfg, seed=seed)


def check_matcher_forward(rng) -> float:
    seed = int(rng.integers(1 << 31))
    net = MatchingTransformer(np.random.default_rng(seed), channels=8,
                              n_blocks=1, n_heads=2)
    feats = [_t(rng, (8, 4, 5)) for _ in range(2)]
    coefs = [_coef(rng, (8, 4, 5)) for _ in range(2)]
    def f(a, b):
        outs = net([a, b])
        return ad.sum_(outs[0] * coefs[0]) + ad.sum_(outs[1] * coefs[1])
    return gradcheck(f, feats, max_entries=6, rng=rng)


def check_cascade_loss(rng) -> float:
    """Full pipeline loss vs finite differences on 10 random parameters."""
    seed = int(rng.integers(1 << 31))
    scene = _tiny_scene(seed)
    model = _tiny_model(seed)
    loss_cfg = LossConfig(gamma=0.0)
    def f(*params):
        outputs = model(scene.views)
        return cascade_loss(outputs, scene.views[0], loss_cfg)[0]
    return gradcheck(f, model.parameters(), max_entries=10,
                     rng=np.random.default_rng(seed ^ 0x5F5F), pooled=True)


GRAD_CHECKS = {
    "matmul": check_matmul,
    "conv2d": check_conv2d,
    "conv3d": check_conv3d,
    "grid_sample": check_grid_sample,
    "elementwise": check_elementwise,
    "upsample": check_upsample,
    "deformable_conv": check_deformable_conv,
    "linear_attention": check_linear_attention,
    "focal_loss": check_focal_loss,
    "matcher_forward": check_matcher_forward,
    "cascade_loss": check_cascade_loss,
}


def run_check(name: str, instances: int = 20, base_seed: int = 0) -> float:
    """Run one named check over ``instances`` random instances (64-bit)."""
    fn = GRAD_CHECKS[name]
    worst = 0.0
    with ad.precision("float64"):
        for i in range(instances):
            worst = max(worst, fn(np.random.default_rng(base_seed * 1000 + i)))
    return worst


def run_suite(names=None, instances: int = 20, base_seed: int = 0,
              report=print) -> bool:
    """Run checks and report one pass/fail line each; True if all pass."""
    ok = True
    for name in names or GRAD_CHECKS:
        try:
            worst = run_check(name, instances=instances, base_seed=base_seed)
            report(f"PASS {name}: worst rel err {worst:.3g} over {instances} instances")
        except AssertionError as exc:
            ok = False
            report(f"FAIL {name}: {exc}")
    return ok
