"""Step memory is one graph, freed by reference count when the loss is
dropped; the graph keeps only what backward reads; and the hot ops
allocate no whole-size temporaries.

The graph tests run with the cyclic garbage collector disabled, so any
graph kept alive by a reference cycle would show up as growing traced
memory.
"""

import gc
import tracemalloc
from contextlib import contextmanager
from dataclasses import replace

import numpy as np

from mvstereo import autodiff as ad
from mvstereo.features import deformable_conv2d
from mvstereo.model import CascadeConfig, ModelConfig, StereoModel
from mvstereo.scene import SceneSpec, render_synthetic_scene
from mvstereo.training import Adam, LossConfig, train_step

MB = 1024 * 1024


@contextmanager
def traced_without_gc():
    """Trace allocations with the cyclic collector off; restore both on exit."""
    gc.collect()
    was_enabled = gc.isenabled()
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()
        if started:
            tracemalloc.stop()


def live_bytes() -> int:
    return tracemalloc.get_traced_memory()[0]


def test_dropping_the_loss_frees_the_graph(f32, rng):
    x = ad.tensor(rng.standard_normal((4, 6, 24, 24)), requires_grad=True)
    k = ad.tensor(rng.standard_normal((8, 4, 3, 3, 3)), requires_grad=True)
    grid = ad.tensor(rng.uniform(0.0, 23.0, size=(6, 24, 24, 2)), requires_grad=True)
    with traced_without_gc():
        baseline = live_bytes()
        h = ad.relu(ad.conv3d(x, k, padding=1))
        warped, _ = ad.grid_sample_2d(h[:, 0], grid)
        loss = ad.mean(warped * warped) + ad.mean(h[:, ::2] * 0.5)
        loss.backward()
        peak = tracemalloc.get_traced_memory()[1]
        for t in (x, k, grid):
            t.zero_grad()
        del h, warped, loss
        freed = live_bytes()
    assert peak - baseline > 1 * MB  # the step was large enough to notice a leak
    assert freed - baseline < 0.25 * MB


def test_train_step_memory_is_bounded(f32):
    scene = render_synthetic_scene(SceneSpec(height=16, width=16, focal=18.0), seed=3)
    cfg = ModelConfig(cascade=CascadeConfig(counts=(8, 6, 4)), n_blocks=1, n_heads=2)
    model = StereoModel(cfg, seed=0)
    opt = Adam(model.named_parameters(), lr=1e-3)
    with traced_without_gc():
        after = []
        for _ in range(4):
            train_step(model, scene.views, opt, LossConfig())
            after.append(live_bytes())
    # Step 1 allocates the gradients and the Adam moments; later steps
    # replace them and keep nothing else.
    growth = np.array(after[1:]) - after[0]
    assert np.all(growth < 1 * MB), f"live memory grew by {growth / MB} MB after step 1"


def test_train_step_peak_at_the_train_workload_shape(f32):
    """One step at the benchmark's train shape (64x80, 3 views, default
    model). Backward frees each node's saved arrays as it passes them, no
    warped volume is kept, and the pyramid's and pathway's projections keep
    coarse maps: the peak was 42.9 MB while the whole graph lived through
    backward, and is about 28 MB now."""
    scene = render_synthetic_scene(replace(SceneSpec(), jitter=0.12), seed=1)
    model = StereoModel(ModelConfig(), seed=0)
    opt = Adam(model.named_parameters(), lr=1e-3)
    with traced_without_gc():
        tracemalloc.reset_peak()
        baseline = live_bytes()
        train_step(model, scene.views, opt, LossConfig())
        peak = tracemalloc.get_traced_memory()[1] - baseline
    assert peak < 34 * MB, f"peak {peak / MB:.2f} MB"


def forward_retained(call) -> tuple[int, object]:
    """Traced bytes a forward leaves live once its intermediates are
    dropped, and its result (which holds the graph)."""
    with traced_without_gc():
        baseline = live_bytes()
        result = call()
        kept = live_bytes() - baseline
    return kept, result


def test_add_chain_keeps_no_intermediate(f32, rng):
    """16 adds on a 1 MB array: the graph keeps only the last output, where
    keeping every node's input tensors would hold all 16."""
    x = ad.tensor(rng.standard_normal(MB // 4), requires_grad=True)

    def chain():
        h = x
        for _ in range(16):
            h = h + 1.0
        return h

    kept, out = forward_retained(chain)
    assert kept <= 2 * x.data.nbytes, f"kept {kept / x.data.nbytes:.1f} arrays"
    ad.sum_(out).backward()
    np.testing.assert_array_equal(x.grad, np.ones_like(x.data))


def test_conv_bias_relu_keeps_only_the_relu_output(f32, rng):
    """relu(conv3d(x, k) + b): backward reads the relu output and the two
    leaves, never the conv output or the bias-add output."""
    x = ad.tensor(rng.standard_normal((4, 8, 32, 32)), requires_grad=True)
    k = ad.tensor(rng.standard_normal((8, 4, 3, 3, 3)), requires_grad=True)
    b = ad.tensor(rng.standard_normal((8, 1, 1, 1)), requires_grad=True)
    kept, out = forward_retained(lambda: ad.relu(ad.conv3d(x, k, padding=1) + b))
    assert kept < 1.5 * out.data.nbytes, f"kept {kept / out.data.nbytes:.1f} outputs"
    ad.sum_(out).backward()
    assert all(t.grad is not None for t in (x, k, b))


def test_grid_sample_on_a_constant_grid_drops_its_input(f32, rng):
    """A warp's grid is a constant, so backward needs the corner indices and
    weights but not the values of the (non-leaf) image it sampled."""
    feat = ad.tensor(rng.standard_normal((16, 128, 128)), requires_grad=True)
    grid = ad.tensor(rng.uniform(-2.0, 130.0, size=(16, 16, 2)))

    def warp():
        image = feat * 2.0  # 1 MB, read by no gradient formula
        return ad.grid_sample_2d(image, grid)[0]

    kept, out = forward_retained(warp)
    assert kept < feat.data.nbytes / 4, f"kept {kept / MB:.2f} MB"
    ad.sum_(out).backward()
    assert feat.grad is not None and np.any(feat.grad)


def test_sampled_correlation_keeps_no_sampled_volume(f32, rng):
    """Stage-1 train shape: the op's node keeps the corner state, not the
    [D, C, H', W'] volume that grid_sample_2d and mul would keep."""
    ref = ad.tensor(rng.standard_normal((32, 16, 20)), requires_grad=True)
    src = ad.tensor(rng.standard_normal((32, 16, 20)), requires_grad=True)
    grid = ad.tensor(rng.uniform(-2.0, 21.0, size=(16, 16, 20, 2)))
    volume = 16 * 32 * 16 * 20 * 4

    def correlate():
        return ad.sampled_correlation(ref * 1.0, src * 1.0, grid)[0]  # non-leaf maps

    kept, out = forward_retained(correlate)
    assert kept < volume / 2, f"kept {kept / volume:.2f} volumes"
    ad.sum_(out).backward()
    assert all(t.grad is not None and np.any(t.grad) for t in (ref, src))


def forward_peak(call) -> tuple[int, object]:
    """Traced peak bytes allocated by a no-grad call, and its result."""
    with ad.no_grad(), traced_without_gc():
        tracemalloc.reset_peak()
        baseline = live_bytes()
        result = call()
        peak = tracemalloc.get_traced_memory()[1] - baseline
    return peak, result


def test_conv3d_forward_peak_is_blocked(f32, rng):
    """The stage-3 regularizer's largest layer: its whole patch matrix
    would be 432 x 49152 float32 entries, 81 MB, and a padded copy of its
    input 16 x 6 x 98 x 130 entries, 4.9 MB. Blocks pad their own rows."""
    x = ad.tensor(rng.standard_normal((16, 4, 96, 128)))
    k = ad.tensor(rng.standard_normal((8, 16, 3, 3, 3)))
    padded_copy = 16 * 6 * 98 * 130 * 4
    peak, _ = forward_peak(lambda: ad.conv3d(x, k, padding=1))
    assert peak < padded_copy, f"peak {peak / MB:.2f} MB"


def test_inference_peak_is_its_working_set(f32):
    """A no-grad cascade at the benchmark's infer shape (96x128, 5 views):
    each scale's features, warped volume, U-Net skip and upsampled input
    dies after its last use, and no op builds a whole padded input or a
    whole deformable patch matrix. Holding them peaked near 24 MB."""
    spec = SceneSpec(height=96, width=128, focal=112.0, n_views=5, baseline=0.3, jitter=0.06)
    views = render_synthetic_scene(spec, seed=11).views
    model = StereoModel(ModelConfig(), seed=0)
    peak, outputs = forward_peak(lambda: model(views))
    assert [out.estimate.depth.shape for out in outputs] == [(24, 32), (48, 64), (96, 128)]
    assert peak < 12 * MB, f"peak {peak / MB:.2f} MB"


def test_deformable_conv_keeps_less_than_its_patch_matrix(f32, rng):
    """Train shape at full resolution: the op keeps the features, the
    kernel and the offsets, never the [9C, H*W] sampled patch matrix."""
    c, h, w = 8, 64, 80
    feat = ad.tensor(rng.standard_normal((c, h, w)), requires_grad=True)
    kernel = ad.tensor(rng.standard_normal((c, c, 3, 3)), requires_grad=True)
    offsets = ad.tensor(rng.uniform(-2.0, 2.0, (18, h, w)), requires_grad=True)
    patch_matrix = 9 * c * h * w * 4

    def deform():
        return deformable_conv2d(feat, kernel, offsets * 1.0)  # non-leaf offsets

    kept, out = forward_retained(deform)
    assert kept < patch_matrix / 2, f"kept {kept / patch_matrix:.2f} patch matrices"
    ad.sum_(out).backward()
    assert all(t.grad is not None and np.any(t.grad) for t in (feat, kernel, offsets))


def test_grid_sample_forward_peak_is_a_few_outputs(f32, rng):
    """Deformable-conv shape: 9 taps of an 8-channel 96x128 feature map."""
    feat = ad.tensor(rng.standard_normal((8, 96, 128)))
    grid = ad.tensor(rng.uniform(-2.0, 130.0, size=(9, 96, 128, 2)))
    peak, (out, _) = forward_peak(lambda: ad.grid_sample_2d(feat, grid))
    assert peak < 2 * out.data.nbytes, f"peak {peak / out.data.nbytes:.1f}x the output"


def test_grid_sample_backward_peak_is_a_few_outputs(f32, rng):
    """Deformable-conv shape at train resolution, both inputs requiring grad."""
    feat = ad.tensor(rng.standard_normal((8, 64, 80)), requires_grad=True)
    taps = (9, 64, 80)
    grid = ad.tensor(np.stack([rng.uniform(-2.0, 82.0, taps), rng.uniform(-2.0, 66.0, taps)],
                              axis=-1), requires_grad=True)
    out, _ = ad.grid_sample_2d(feat, grid)
    g = rng.standard_normal(out.shape).astype(out.dtype)
    with traced_without_gc():
        tracemalloc.reset_peak()
        baseline = live_bytes()
        grads = out.node.backward_fn(g)
        peak = tracemalloc.get_traced_memory()[1] - baseline
    assert all(grad is not None for grad in grads)
    assert peak < 6 * out.data.nbytes, f"peak {peak / out.data.nbytes:.1f}x the output"
