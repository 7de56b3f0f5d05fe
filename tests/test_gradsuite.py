"""The gradient suite's op-level checks cover what a train step records,
and the conv checks catch a kernel gradient off by a thousandth."""

import re

import numpy as np
import pytest

from mvstereo import autodiff as ad
from mvstereo.autodiff import conv
from mvstereo.gradsuite import GRAD_CHECKS, run_check
from mvstereo.model import CascadeConfig, ModelConfig, StereoModel
from mvstereo.scene import SceneSpec, render_synthetic_scene
from mvstereo.training import Adam, LossConfig, train_step

# Every family but the two that check whole modules end to end.
OP_LEVEL = [name for name in GRAD_CHECKS if name not in ("matcher_forward", "cascade_loss")]


def recorded_ops(monkeypatch, run) -> set[str]:
    """The op names on every tape that ``run`` backpropagates."""
    seen: set[str] = set()
    trace = ad.Tape.trace.__func__

    def spy(cls, root):
        tape = trace(cls, root)
        seen.update(node.op for node in tape.nodes)
        return tape

    with monkeypatch.context() as patch:
        patch.setattr(ad.Tape, "trace", classmethod(spy))
        run()
    return seen


def test_op_level_checks_cover_every_train_step_op(monkeypatch, f32):
    scene = render_synthetic_scene(SceneSpec(height=16, width=16, focal=18.0), seed=3)
    model = StereoModel(ModelConfig(cascade=CascadeConfig(counts=(8, 6, 4)),
                                    n_blocks=1, n_heads=2), seed=0)
    opt = Adam(model.named_parameters(), lr=1e-3)
    step_ops = recorded_ops(
        monkeypatch, lambda: train_step(model, scene.views, opt, LossConfig(gamma=2.0)))
    checked = recorded_ops(
        monkeypatch, lambda: [run_check(name, instances=1) for name in OP_LEVEL])
    assert len(step_ops) > 20
    assert step_ops <= checked, f"no op-level check for {sorted(step_ops - checked)}"


@pytest.mark.parametrize("name,kernel_shape", [("conv2d", "(3, 2, 3, 3)"),
                                               ("conv3d", "(2, 2, 3, 3, 3)")])
def test_conv_check_catches_a_kernel_gradient_off_by_a_thousandth(monkeypatch, name,
                                                                  kernel_shape):
    """Scale conv's kernel gradient by 1 + 1e-3 at ``make_op``: the op's
    own check, with criterion 1's instances and seed, must fail on the
    kernel."""
    make_op = conv.make_op

    def scaled_kernel_gradient(op, out, inputs, backward):
        def mutated(g):
            gx, gw = backward(g)
            return gx, None if gw is None else gw * (1.0 + 1e-3)
        return make_op(op, out, inputs, mutated)

    assert run_check(name, instances=20, base_seed=2024) < 1e-4
    monkeypatch.setattr(conv, "make_op", scaled_kernel_gradient)
    with pytest.raises(AssertionError, match=rf"tensor shape {re.escape(kernel_shape)}"):
        run_check(name, instances=20, base_seed=2024)
