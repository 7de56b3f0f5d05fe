"""Acceptance gate: one test per criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -s` to see the report lines.
The training criterion renders and trains the full desk-scale model and
dominates the suite's runtime (several minutes on a laptop CPU).
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from mvstereo import autodiff as ad
from mvstereo.bench import run_attention_benchmark
from mvstereo.cameras import (
    backproject_pixels,
    project_points,
    sample_hypotheses_initial,
    warp_pixel,
)
from mvstereo.costvolume import aggregate_correlation, pairwise_correlation
from mvstereo.features import deformable_conv2d
from mvstereo.fusion import dynamic_filter, fuse_point_cloud, geometric_check
from mvstereo.gradsuite import GRAD_CHECKS, run_check
from mvstereo.matcher import MatchingTransformer, attention_oracle, linear_attention
from mvstereo.metrics import (
    GridIndex,
    cloud_metrics,
    depth_metrics,
    nearest_distances_bruteforce,
)
from mvstereo.model import CascadeConfig, ModelConfig, StereoModel
from mvstereo.regularizer import probability_volume, winner_take_all
from mvstereo.scene import SceneSpec, covisible_mask, render_synthetic_scene
from mvstereo.training import Adam, LossConfig, cascade_loss, fit, focal_loss

from test_costvolume import MATCHING_SCENE, matching_hit_rate
from test_training import focal_loop


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_gradient_suite():
    """Every differentiable operation passes central finite differences."""
    t0 = time.time()
    worst = {}
    for name in GRAD_CHECKS:
        worst[name] = run_check(name, instances=20, base_seed=2024)
    elapsed = time.time() - t0
    top = max(worst.values())
    report(1, top < 1e-4 and elapsed < 300,
           f"{len(GRAD_CHECKS)} op families x 20 instances, worst rel err {top:.2e}, "
           f"{elapsed:.0f}s (< 300s)")


def test_criterion_2_linear_attention_oracle_and_scaling():
    rng = np.random.default_rng(7)
    worst = 0.0
    with ad.precision("float64"):
        for _ in range(100):
            l = int(rng.integers(2, 513))
            q = rng.standard_normal((l, 16))
            k = rng.standard_normal((l, 16))
            v = rng.standard_normal((l, 16))
            out = linear_attention(ad.tensor(q), ad.tensor(k), ad.tensor(v),
                                   n_heads=4)
            worst = max(worst, float(np.abs(
                out.data - attention_oracle(q, k, v, n_heads=4)).max()))
    bench = run_attention_benchmark(lengths=(256, 1024, 4096, 16384),
                                    channels=16, trials=3, seed=0)
    ok = (worst < 1e-10 and bench["linear_slope"] < 1.2
          and bench["softmax_slope"] > 1.7)
    report(2, ok,
           f"oracle max diff {worst:.2e} (< 1e-10); slopes: linear "
           f"{bench['linear_slope']:.2f} (< 1.2), softmax "
           f"{bench['softmax_slope']:.2f} (> 1.7)")


def test_criterion_3_reference_invariance():
    with ad.precision("float64"):
        rng = np.random.default_rng(3)
        net = MatchingTransformer(rng, channels=16, n_blocks=4, n_heads=4)
        feats = [ad.tensor(rng.standard_normal((16, 6, 8))) for _ in range(3)]
        tokens = MatchingTransformer.flatten(ad.stack(feats))
        bitwise = True
        for i in range(net.n_blocks):
            block = getattr(net, f"block{i}")
            ref = tokens[0]
            expected = block.intra.update(ref, ref)
            tokens = block(tokens)
            bitwise &= bool(np.array_equal(tokens.data[0], expected.data))
    report(3, bitwise,
           "reference tokens bitwise equal to the intra-only path across "
           "4 blocks with random parameters")


def test_criterion_4_geometry():
    worst_px = 0.0
    covis_seen = 0
    for kind in ("plane", "sphere"):
        scene = render_synthetic_scene(SceneSpec(kind=kind), seed=41)
        ref = scene.views[0]
        ys, xs = np.meshgrid(np.arange(ref.height, dtype=float),
                             np.arange(ref.width, dtype=float), indexing="ij")
        xy = np.stack([xs, ys], axis=-1)
        for src_id in (1, 2):
            src = scene.views[src_id]
            cov = covisible_mask(scene, 0, src_id)
            covis_seen += int(cov.sum())
            p_warp, _, _ = warp_pixel(xy, np.where(ref.mask, ref.depth, 1.0),
                                      ref.intrinsics, ref.extrinsics,
                                      src.intrinsics, src.extrinsics)
            pts = backproject_pixels(ref.intrinsics, ref.extrinsics, xy,
                                     np.where(ref.mask, ref.depth, 1.0))
            p_true, _ = project_points(src.intrinsics, src.extrinsics, pts)
            worst_px = max(worst_px, float(
                np.linalg.norm(p_warp - p_true, axis=-1)[cov].max()))
    rng = np.random.default_rng(4)
    scene = render_synthetic_scene(SceneSpec(), seed=41)
    view = scene.views[1]
    xy = np.stack([rng.uniform(0, view.width - 1, 500),
                   rng.uniform(0, view.height - 1, 500)], axis=-1)
    d = rng.uniform(0.5, 5.0, 500)
    pts = backproject_pixels(view.intrinsics, view.extrinsics, xy, d)
    p2, z2 = project_points(view.intrinsics, view.extrinsics, pts)
    rt = max(float(np.abs(p2 - xy).max()), float(np.abs(z2 - d).max()))
    report(4, worst_px < 1e-6 and rt < 1e-9 and covis_seen > 10000,
           f"warp vs true correspondence {worst_px:.2e} px over 100% of "
           f"{covis_seen} co-visible pixels (< 1e-6); round trip {rt:.2e} (< 1e-9)")


def test_criterion_5_matching_sanity():
    t0 = time.time()
    with ad.precision("float32"):
        scene = render_synthetic_scene(MATCHING_SCENE, seed=33)
        hit, n = matching_hit_rate(scene, depth_count=32)
    elapsed = time.time() - t0
    report(5, hit >= 0.9 and elapsed < 30 and n > 500,
           f"raw-patch argmax picks the nearest hypothesis at {hit:.1%} of "
           f"{n} well-textured interior pixels (>= 90%), {elapsed:.1f}s (< 30s)")


def test_criterion_6_equation_oracles():
    from test_costvolume import aggregate_loop, correlation_loop
    rng = np.random.default_rng(6)
    with ad.precision("float32"):
        ref = rng.standard_normal((6, 5, 7)).astype(np.float32)
        warped = rng.standard_normal((4, 6, 5, 7)).astype(np.float32)
        mask = rng.random((4, 5, 7)) > 0.2
        volume, _ = pairwise_correlation(ad.tensor(ref), ad.tensor(warped), mask)
        corr_diff = float(np.abs(volume.data
                                 - correlation_loop(ref, warped, mask)).max())
        vols = [rng.standard_normal((5, 7, 4)).astype(np.float32) for _ in range(2)]
        masks = [rng.random((5, 7, 4)) > 0.2 for _ in range(2)]
        agg = aggregate_correlation(
            ad.tensor(np.stack([np.where(m, v, 0.0) for v, m in zip(vols, masks)])),
            np.stack(masks)).data
        agg_diff = float(np.abs(
            agg - aggregate_loop([np.where(m, v, 0.0)
                                  for v, m in zip(vols, masks)], masks)).max())
    with ad.precision("float64"):
        hyps = sample_hypotheses_initial(1.0, 3.0, 8)
        prob = probability_volume(ad.tensor(rng.standard_normal((5, 6, 8))))
        gt = rng.uniform(1.0, 3.0, size=(5, 6))
        mask2 = rng.random((5, 6)) > 0.3
        focal_diff = 0.0
        for gamma in (0.0, 1.0, 2.0):
            got = float(focal_loss(prob, gt, hyps, mask2, gamma).data)
            want = focal_loop(prob.data, gt, hyps, mask2, gamma)
            focal_diff = max(focal_diff, abs(got - want))
        p = prob.data
        target = np.abs(hyps.values[None, None] - gt[..., None]).argmin(axis=2)
        sel = np.take_along_axis(p, target[..., None], axis=2)[..., 0]
        ce = -(np.log(np.maximum(sel, 1e-12))[mask2]).mean()
        ce_diff = abs(float(focal_loss(prob, gt, hyps, mask2, 0.0).data) - ce)
    ok = corr_diff <= 1e-6 and agg_diff <= 1e-6 and focal_diff <= 1e-6 and ce_diff <= 1e-12
    report(6, ok,
           f"loop oracles: correlation {corr_diff:.2e}, aggregation {agg_diff:.2e}, "
           f"focal {focal_diff:.2e} (<= 1e-6); focal==CE at gamma 0: {ce_diff:.2e} (<= 1e-12)")


def test_criterion_7_zero_offset_deformable_equivalence():
    with ad.precision("float64"):
        rng = np.random.default_rng(70)
        diff = 0.0
        for _ in range(10):
            feat = ad.tensor(rng.standard_normal((4, 10, 12)))
            kernel = ad.tensor(rng.standard_normal((5, 4, 3, 3)))
            deform = deformable_conv2d(feat, kernel, ad.tensor(np.zeros((18, 10, 12))))
            standard = ad.conv2d(feat, kernel, padding=1)
            diff = max(diff, float(np.abs(deform.data - standard.data).max()))
    report(7, diff <= 1e-6, f"zero-offset deformable vs standard conv: {diff:.2e} (<= 1e-6)")


def test_criterion_8_cascade_contracts():
    with ad.precision("float32"):
        scene = render_synthetic_scene(SceneSpec(), seed=8)
        model = StereoModel(ModelConfig(), seed=8)
        outs = model(scene.views)
    counts = tuple(o.prob.shape[-1] for o in outs)
    cfg = model.config.cascade
    decay_ok = (outs[1].hyps.interval == pytest.approx(outs[0].hyps.interval * 0.25)
                and outs[2].hyps.interval == pytest.approx(outs[0].hyps.interval * 0.125))
    member_ok = bool(np.isin(outs[0].estimate.depth, outs[0].hyps.values).all())
    center_ok = True
    for s in (1, 2):
        vals = outs[s].hyps.values
        chosen = np.take_along_axis(
            vals, outs[s].prob.data.argmax(axis=2)[..., None], axis=2)[..., 0]
        member_ok &= bool((chosen == outs[s].estimate.depth).all())
        prev_up = ad.upsample_bilinear_2x(
            ad.tensor(outs[s - 1].estimate.depth[None], dtype=np.float64)).data[0]
        unclamped = ((vals[..., 0] > cfg.d_min + 1e-9)
                     & (vals[..., -1] < cfg.d_max - 1e-9))
        center_ok &= bool(np.allclose(vals.mean(axis=2)[unclamped],
                                      prev_up[unclamped], rtol=1e-6))
    prob_ok = all(np.abs(o.prob.data.sum(axis=2) - 1).max() < 1e-5
                  for o in outs)
    ok = counts == (16, 8, 4) and decay_ok and member_ok and center_ok and prob_ok
    report(8, ok,
           f"counts {counts} with interval decays 0.25/0.5 exact; WTA depths are "
           f"hypothesis members; probabilities sum to 1 +- 1e-5 at every stage")


@pytest.mark.slow
def test_criterion_9_end_to_end_learning():
    t0 = time.time()
    with ad.precision("float32"):
        train_spec = replace(SceneSpec(), jitter=0.12)
        scenes = [render_synthetic_scene(train_spec, seed=100 + i) for i in range(8)]
        holdout = render_synthetic_scene(train_spec, seed=999)

        def holdout_epe(model):
            with ad.no_grad():
                outs = model(holdout.views)
            ref = holdout.views[0]
            epe, _, _ = depth_metrics(outs[-1].estimate.depth, ref.depth,
                                      ref.depth > 0, train_spec.d_min,
                                      train_spec.d_max)
            return epe

        model = StereoModel(ModelConfig(), seed=0)
        epe_untrained = holdout_epe(model)
        optimizer = Adam(model.named_parameters(), lr=1e-3,
                         decay_factor=0.5, decay_steps=(180, 240))
        trace = fit(model, scenes, 300, optimizer, LossConfig())
        epe_trained = holdout_epe(model)

        # Pathway ablation: no gradient reaches the matcher from stage-3-only
        # supervision once the pathway is cut.
        ablated = StereoModel(ModelConfig(use_pathway=False), seed=0)
        outs = ablated(scenes[0].views)
        loss, _ = cascade_loss(outs, scenes[0].views[0],
                               LossConfig(stage_weights=(0.0, 0.0, 1.0)))
        ablated.zero_grad()
        loss.backward()
        ablated_zero = all(p.grad is None or np.abs(p.grad).max() == 0.0
                           for p in ablated.matcher.parameters())
        full = StereoModel(ModelConfig(), seed=0)
        outs = full(scenes[0].views)
        loss, _ = cascade_loss(outs, scenes[0].views[0],
                               LossConfig(stage_weights=(0.0, 0.0, 1.0)))
        full.zero_grad()
        loss.backward()
        pathway_nonzero = any(p.grad is not None and np.abs(p.grad).max() > 0
                              for p in full.matcher.parameters())
    elapsed = time.time() - t0
    reduction = 1.0 - trace[-1] / trace[5]
    epe_ratio = epe_untrained / max(epe_trained, 1e-9)
    ok = (reduction >= 0.5 and epe_ratio >= 2.0 and elapsed < 1800
          and ablated_zero and pathway_nonzero)
    report(9, ok,
           f"loss -{reduction:.0%} from step 5 (>= 50%); held-out EPE "
           f"{epe_untrained:.2f} -> {epe_trained:.2f} ({epe_ratio:.1f}x, >= 2x); "
           f"pathway ablation gradients zero: {ablated_zero}, with pathway "
           f"non-zero: {pathway_nonzero}; {elapsed:.0f}s (< 1800s)")


def test_criterion_10_fusion():
    scene = render_synthetic_scene(SceneSpec(baseline=0.3), seed=10)
    ref = scene.views[0]
    records = [geometric_check(ref.depth, src.depth, ref, src)
               for src in scene.views[1:]]
    conf = np.ones(ref.depth.shape)
    valid, support = dynamic_filter(records, conf)
    covis_all = np.logical_and.reduce([r.covisible for r in records])
    validity = (valid & covis_all).sum() / covis_all.sum()

    cloud = fuse_point_cloud(ref, ref.depth, records, valid, support)
    surf = float(scene.surface_distance(cloud.points).max())

    rng = np.random.default_rng(10)
    bad = ref.depth.copy()
    sel = rng.random(bad.shape) < 0.1
    bad[sel] *= 1.0 + np.where(rng.random(bad.shape) < 0.5, 0.06, -0.07)[sel]
    bad_records = [geometric_check(bad, src.depth, ref, src)
                   for src in scene.views[1:]]
    valid_bad, _ = dynamic_filter(bad_records, conf)
    removed = (~valid_bad & sel).sum() / sel.sum()
    ok = validity >= 0.99 and removed >= 0.95 and surf < 1e-4
    report(10, ok,
           f"GT validity at co-visible confident pixels {validity:.1%} (>= 99%); "
           f"corrupted pixels removed {removed:.1%} (>= 95%); fused points within "
           f"{surf:.1e} of the surface (< 1e-4)")


def test_criterion_11_metric_oracles():
    rng = np.random.default_rng(11)
    exact = True
    for _ in range(3):
        a = rng.uniform(-1, 1, size=(1000, 3))
        b = rng.uniform(-1, 1, size=(1000, 3))
        exact &= bool((GridIndex(b).nearest_distances(a)
                       == nearest_distances_bruteforce(a, b)).all())
    acc_ab, comp_ab, _ = cloud_metrics(a, b, clamp=5.0)
    acc_ba, comp_ba, _ = cloud_metrics(b, a, clamp=5.0)
    sym = abs(acc_ab - comp_ba) < 1e-12 and abs(comp_ab - acc_ba) < 1e-12
    e_ok = True
    for _ in range(50):
        gt = rng.uniform(1.0, 3.0, size=(6, 6))
        pred = gt + rng.standard_normal((6, 6)) * rng.uniform(0, 0.3)
        _, e1, e3 = depth_metrics(pred, gt, np.ones_like(gt, bool), 1.0, 3.0)
        e_ok &= e3 <= e1
    report(11, exact and sym and e_ok,
           "grid index == brute force on 1000-point clouds (exact); "
           "Acc(A,B) == Comp(B,A); e3 <= e1 on 50 random depth-map pairs")
