"""Step memory is one graph, freed by reference count when the loss is dropped.

Both tests run with the cyclic garbage collector disabled, so any graph
kept alive by a reference cycle would show up as growing traced memory.
"""

import gc
import tracemalloc
from contextlib import contextmanager

import numpy as np

from mvstereo import autodiff as ad
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
        h = ad.relu(ad.conv3d(x, k, stride=1, padding=1))
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
