"""Elementwise/reduction/shape ops and the backward machinery."""

import importlib
import importlib.util
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvstereo import autodiff as ad
from mvstereo.autodiff.tensor import make_op

TRACING_PY = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    """perfbench/tracing.py as a module; perfbench is not a package."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING_PY)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


class TestMatmul:
    def test_identity(self, f64, rng):
        b = ad.tensor(rng.standard_normal((3, 3)))
        out = ad.matmul(ad.tensor(np.eye(3)), b)
        np.testing.assert_array_equal(out.data, b.data)

    def test_permutation_matrix(self, f64):
        a = ad.tensor([[1.0, 2.0], [3.0, 4.0]])
        b = ad.tensor([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_array_equal(ad.matmul(a, b).data, [[2.0, 1.0], [4.0, 3.0]])

    def test_gradient_matches_finite_differences(self, f64, rng):
        a = ad.tensor(rng.standard_normal((4, 5)), requires_grad=True)
        b = ad.tensor(rng.standard_normal((5, 3)), requires_grad=True)
        c = ad.tensor(rng.standard_normal((4, 3)))
        worst = ad.gradcheck(lambda a, b: ad.sum_(ad.matmul(a, b) * c), [a, b],
                             max_entries=None)
        assert worst < 1e-4

    def test_batched_broadcast(self, f64, rng):
        a = ad.tensor(rng.standard_normal((6, 4, 5)), requires_grad=True)
        b = ad.tensor(rng.standard_normal((5, 3)), requires_grad=True)
        c = ad.tensor(rng.standard_normal((6, 4, 3)))
        out = ad.matmul(a, b)
        assert out.shape == (6, 4, 3)
        worst = ad.gradcheck(lambda a, b: ad.sum_(ad.matmul(a, b) * c), [a, b],
                             max_entries=16)
        assert worst < 1e-4

    def test_shape_mismatch_reports_both_shapes(self, f64):
        with pytest.raises(ad.DimensionError, match=r"4, 5.*3, 2"):
            ad.matmul(ad.tensor(np.zeros((4, 5))), ad.tensor(np.zeros((3, 2))))


class TestElementwise:
    def test_elu_at_zero_and_positive(self, f64):
        out = ad.elu(ad.tensor([0.0, 1.5, -1.0]))
        assert out.data[0] == 0.0
        assert out.data[1] == 1.5
        np.testing.assert_allclose(out.data[2], np.expm1(-1.0))

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_elu_equals_its_where_form(self, dtype):
        """The branch-free forward and backward equal the per-element
        ``np.where`` forms, at the kink, the tails and non-finite inputs."""
        values = [0.0, -0.0, 1e-30, -1e-30, -100.0, np.inf, -np.inf, np.nan, 1.5, -0.7]
        with ad.precision(dtype):
            x = ad.tensor(values, requires_grad=True)
            out = ad.elu(x)
            g = np.linspace(-2.0, 2.0, len(values)).astype(dtype)
            ad.sum_(out * ad.tensor(g)).backward()
        a = np.asarray(values, dtype=dtype)
        want = np.where(a > 0, a, np.expm1(np.minimum(a, 0)))
        assert out.dtype == want.dtype and x.grad.dtype == want.dtype
        assert np.array_equal(out.data, want, equal_nan=True)
        assert np.array_equal(x.grad, g * np.where(want > 0, 1.0, want + 1.0), equal_nan=True)

    def test_softmax_of_zeros_is_uniform(self, f64):
        for d in (1, 3, 7):
            out = ad.softmax(ad.tensor(np.zeros(d)), axis=0)
            np.testing.assert_allclose(out.data, np.full(d, 1.0 / d), atol=1e-12)

    def test_max_with_argmax(self, f64):
        values, idx = ad.max_with_argmax(ad.tensor([0.1, 0.9, 0.3]), axis=0)
        assert values.data == pytest.approx(0.9)
        assert idx == 1

    def test_axis_out_of_range(self, f64):
        with pytest.raises(ad.DimensionError, match="axis"):
            ad.sum_(ad.tensor(np.zeros((2, 3))), axis=5)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=12))
    def test_softmax_is_probability_vector(self, xs):
        """Non-negative entries summing to 1 for any finite input."""
        with ad.precision("float64"):
            out = ad.softmax(ad.tensor(np.array(xs)), axis=0).data
        assert np.all(out >= 0)
        assert abs(out.sum() - 1.0) < 1e-6

    def test_maximum_routes_gradient(self, f64):
        a = ad.tensor([1.0, 5.0], requires_grad=True)
        out = ad.sum_(ad.maximum(a, 3.0))
        out.backward()
        np.testing.assert_array_equal(a.grad, [0.0, 1.0])

    def test_division_and_pow(self, f64, rng):
        x = ad.tensor(rng.uniform(0.5, 2.0, size=(3, 4)), requires_grad=True)
        y = ad.tensor(rng.uniform(0.5, 2.0, size=(3, 4)), requires_grad=True)
        c = ad.tensor(rng.standard_normal((3, 4)))
        worst = ad.gradcheck(
            lambda x, y: ad.sum_((x / y + ad.pow_const(x, 2.5)) * c), [x, y],
            max_entries=None)
        assert worst < 1e-4


class TestShapeOps:
    def test_flatten_reshape_transpose_roundtrip(self, f64, rng):
        x = ad.tensor(rng.standard_normal((2, 3, 4)))
        flat = ad.reshape(x, (-1,))
        assert flat.shape == (24,)
        back = ad.reshape(flat, (2, 3, 4))
        np.testing.assert_array_equal(back.data, x.data)
        tr = ad.transpose(x, (2, 0, 1))
        assert tr.shape == (4, 2, 3)
        np.testing.assert_array_equal(ad.transpose(tr, (1, 2, 0)).data, x.data)

    def test_getitem_slice_gradient(self, f64, rng):
        x = ad.tensor(rng.standard_normal((4, 6)), requires_grad=True)
        out = ad.sum_(x[1:3, ::2])
        out.backward()
        expected = np.zeros((4, 6))
        expected[1:3, ::2] = 1.0
        np.testing.assert_array_equal(x.grad, expected)

    def test_getitem_repeated_index_gradient_accumulates(self, f64, rng):
        x = ad.tensor(rng.standard_normal((4, 6)), requires_grad=True)
        ad.sum_(x[np.array([0, 2, 0]), 1:3]).backward()
        expected = np.zeros((4, 6))
        expected[0, 1:3] = 2.0
        expected[2, 1:3] = 1.0
        np.testing.assert_array_equal(x.grad, expected)

    def test_getitem_mixed_basic_key_gradient(self, f64, rng):
        x = ad.tensor(rng.standard_normal((3, 4, 5)), requires_grad=True)
        c = rng.standard_normal((3, 1, 3))
        ad.sum_(x[..., 1, None, 1:4] * c).backward()
        expected = np.zeros((3, 4, 5))
        expected[..., 1, 1:4] = c[:, 0]
        np.testing.assert_array_equal(x.grad, expected)

    def test_concat_and_stack_gradients(self, f64, rng):
        a = ad.tensor(rng.standard_normal((2, 3)), requires_grad=True)
        b = ad.tensor(rng.standard_normal((2, 5)), requires_grad=True)
        c = ad.tensor(rng.standard_normal((2, 8)))
        worst = ad.gradcheck(lambda a, b: ad.sum_(ad.concat([a, b], axis=1) * c),
                             [a, b], max_entries=None)
        assert worst < 1e-4


class TestBackward:
    def test_sum_gives_ones(self, f64, rng):
        x = ad.tensor(rng.standard_normal((3, 4)), requires_grad=True)
        ad.sum_(x).backward()
        np.testing.assert_array_equal(x.grad, np.ones((3, 4)))

    def test_half_square_gives_x(self, f64, rng):
        x = ad.tensor(rng.standard_normal(7), requires_grad=True)
        (ad.sum_(x * x) * 0.5).backward()
        np.testing.assert_allclose(x.grad, x.data, rtol=1e-12)

    def test_two_forward_backward_passes_accumulate(self, f64):
        x = ad.tensor([2.0], requires_grad=True)
        for _ in range(2):
            ad.sum_(x * 3.0).backward()
        np.testing.assert_array_equal(x.grad, [6.0])

    def test_second_backward_on_one_loss_raises(self, f64, rng):
        """The walk consumed the graph: a second backward names the op it
        reaches first and leaves the gradients of the first one as they were."""
        x = ad.tensor(rng.standard_normal(6), requires_grad=True)
        loss = ad.sum_(ad.relu(x * 2.0))
        loss.backward()
        once = x.grad.copy()
        with pytest.raises(ad.ContractError, match="'sum' was already backpropagated"):
            loss.backward()
        np.testing.assert_array_equal(x.grad, once)

    def test_non_scalar_loss_rejected(self, f64):
        x = ad.tensor(np.zeros(3), requires_grad=True)
        with pytest.raises(ad.ContractError, match="scalar"):
            (x * 2.0).backward()

    def test_addition_backward_distributes(self, f64, rng):
        a = ad.tensor(rng.standard_normal(5), requires_grad=True)
        b = ad.tensor(rng.standard_normal(5), requires_grad=True)
        ad.sum_((a + b) * 2.0).backward()
        np.testing.assert_array_equal(a.grad, b.grad)

    def test_diamond_graph_fanout(self, f64):
        """A value consumed at two different graph depths accumulates fully."""
        x = ad.tensor([2.0], requires_grad=True)
        a = x * 3.0
        (a + a * a).backward()
        np.testing.assert_allclose(x.grad, [3.0 + 2.0 * 6.0 * 3.0])


class TestEdges:
    """Gradient routing over node edges: producer nodes, requires-grad
    leaves, and None for constants."""

    def test_non_leaf_used_twice_by_one_op(self, f64, rng):
        x = ad.tensor(rng.standard_normal(5), requires_grad=True)
        a = x * 3.0
        product = a * a
        assert product.node.inputs[0] is product.node.inputs[1] is a.node
        ad.sum_(product).backward()
        np.testing.assert_allclose(x.grad, 18.0 * x.data, rtol=1e-12)

    def test_leaf_as_root(self, f64):
        x = ad.tensor([5.0], requires_grad=True)
        x.backward()
        x.backward()
        np.testing.assert_array_equal(x.grad, [2.0])

    @pytest.mark.parametrize("op, shapes", [
        (ad.mul, ((3, 4), (3, 4))),
        (ad.matmul, ((3, 4), (4, 2))),
        (lambda x, k: ad.conv2d(x, k, padding=1), ((2, 5, 6), (3, 2, 3, 3))),
    ], ids=["mul", "matmul", "conv2d"])
    def test_constant_operand_is_a_none_edge(self, f64, rng, op, shapes):
        """Either operand as a constant: its edge is None and the other
        side's gradient is bit-identical to the one with both live."""
        first, second = (rng.standard_normal(shape) for shape in shapes)
        both = [ad.tensor(first, requires_grad=True), ad.tensor(second, requires_grad=True)]
        ad.sum_(op(*both) * 1.5).backward()
        for const in (0, 1):
            args = [ad.tensor(first, requires_grad=const != 0),
                    ad.tensor(second, requires_grad=const != 1)]
            out = op(*args)
            live = 1 - const
            assert out.node.inputs[const] is None and out.node.inputs[live] is args[live]
            ad.sum_(out * 1.5).backward()
            assert args[const].grad is None
            np.testing.assert_array_equal(args[live].grad, both[live].grad)

    def test_float64_constant_gradient_is_cast_to_the_producer_dtype(self, f32, rng):
        x = ad.tensor(rng.standard_normal(4), requires_grad=True)
        h = x * 2.0
        seen = []
        forward = h.node.backward_fn
        h.node.backward_fn = lambda g: seen.append(g.dtype) or forward(g)
        scale = ad.tensor(rng.standard_normal(4), dtype=np.float64)
        loss = ad.sum_(h * scale)
        assert loss.dtype == np.float64 and h.node.out_dtype == np.float32
        loss.backward()
        assert seen == [np.dtype(np.float32)]
        assert x.grad.dtype == np.float32
        np.testing.assert_array_equal(x.grad, (2.0 * scale.data).astype(np.float32))

    def test_backward_frees_what_the_forward_dropped(self, f64, rng):
        """An intermediate the forward dropped lives on only in the closures
        that read it; the walk frees each closure as it passes, so the
        array is gone once backward returns, though the loss is still held."""
        x = ad.tensor(rng.standard_normal(6), requires_grad=True)
        h = ad.relu(x * 2.0 - 0.5)
        saved = weakref.ref(h.data)  # read by relu's and mul's backward
        loss = ad.sum_(h * h)
        del h
        assert saved() is not None
        loss.backward()
        assert saved() is None
        assert all(node.backward_fn is None for node in ad.Tape.trace(loss).nodes)
        np.testing.assert_allclose(x.grad, 4.0 * np.maximum(2.0 * x.data - 0.5, 0.0),
                                   rtol=1e-12)

    def test_routed_gradient_dies_before_the_next_rule(self, f64, rng):
        """A leaf's gradient is copied into .grad, so the array a rule
        returned for it is dead by the time the next node's rule runs."""
        x, y = (ad.tensor(rng.standard_normal(3), requires_grad=True) for _ in range(2))
        routed, alive_at_next_rule = [], []

        def probe_rule(g):
            alive_at_next_rule.append(routed[0]() is not None)
            return (g,)

        def pair_rule(g):
            leaf_grad = np.full(3, 2.0)
            routed.append(weakref.ref(leaf_grad))
            return g, leaf_grad  # the leaf's gradient last, as the loop's final g

        a = make_op("probe", y.data.copy(), [y], probe_rule)
        loss = make_op("pair", np.array(float(a.data.sum() + 2.0 * x.data.sum())),
                       [a, x], lambda g: pair_rule(g * np.ones(3)))
        loss.backward()
        assert alive_at_next_rule == [False]
        np.testing.assert_array_equal(x.grad, np.full(3, 2.0))
        np.testing.assert_array_equal(y.grad, np.ones(3))


class TestTape:
    def test_topological_order(self, f64, rng):
        x = ad.tensor(rng.standard_normal(4), requires_grad=True)
        a = x * 2.0
        b = a + 1.0
        loss = ad.sum_(a * b)
        tape = ad.Tape.trace(loss)
        positions = {id(node): i for i, node in enumerate(tape.nodes)}
        producers = [(edge, node) for node in tape.nodes for edge in node.inputs
                     if isinstance(edge, ad.Node)]
        assert len(producers) == 4  # a -> b, a -> a*b, b -> a*b, a*b -> sum
        for edge, node in producers:
            assert positions[id(edge)] < positions[id(node)]

    def test_each_node_visited_once(self, f64, rng):
        x = ad.tensor(rng.standard_normal(4), requires_grad=True)
        a = x * 2.0
        loss = ad.sum_(a * a + a)
        tape = ad.Tape.trace(loss)
        assert len({id(n) for n in tape.nodes}) == len(tape.nodes)

    def test_tracing_contract(self, f64):
        """The names perfbench/tracing.py reaches into the engine by."""
        tensor_mod = importlib.import_module("mvstereo.autodiff.tensor")
        assert tensor_mod.Tape is ad.Tape
        assert callable(tensor_mod.make_op)
        x = ad.tensor([2.0], requires_grad=True)
        loss = ad.sum_(x * 3.0)
        calls = []
        for node in tensor_mod.Tape.trace(loss).nodes:
            assert isinstance(node.op, str) and all(
                edge is None or isinstance(edge, (ad.Node, ad.Tensor)) for edge in node.inputs)
            node.backward_fn = (lambda fn: lambda g: calls.append(1) or fn(g))(node.backward_fn)
        loss.backward()
        assert len(calls) == 2
        np.testing.assert_array_equal(x.grad, [3.0])

    def test_benchmark_tracer_installs_on_the_model(self, f32):
        """perfbench/tracing.py wraps program names by attribute; a traced
        forward and backward of a small model must find every one of them
        and go through each op wrapper, and uninstall must restore them."""
        from mvstereo.model import CascadeConfig, ModelConfig, StereoModel
        from mvstereo.scene import SceneSpec, render_synthetic_scene
        from mvstereo import training
        tracing = load_tracing()
        scene = render_synthetic_scene(SceneSpec(height=8, width=8, focal=8.0), seed=0)
        model = StereoModel(ModelConfig(cascade=CascadeConfig(counts=(8, 6, 4)),
                                        n_blocks=1, n_heads=2))
        conv3d = ad.conv3d
        tracer = tracing.Tracer()
        tracer.install(model)
        try:
            assert ad.conv3d is not conv3d
            tracer.begin()
            outputs = model(scene.views)
            training.cascade_loss(outputs, scene.views[0], training.LossConfig())[0].backward()
            tracer.end()
        finally:
            tracer.uninstall()
        assert ad.conv3d is conv3d
        assert tracer.op_mismatches() == []
        record = tracer.record()
        for name in ("autodiff.op.conv2d.calls", "autodiff.op.conv3d.calls",
                     "autodiff.op.conv3d.bwd_s", "regularizer.reg3_s", "regularizer.wta_s",
                     "training.forward_s", "training.loss_s", "autodiff.tape_nodes",
                     "features.deform_s", "costvolume.warp.calls",
                     "costvolume.correlation.calls", "costvolume.aggregate.calls"):
            assert record.get(name, 0) > 0, name

    def test_benchmark_tracer_wraps_and_restores_the_model_hooks(self):
        """The layer names perfbench/tracing.py wraps by attribute. A rename
        in the program fails here, at install, instead of in a traced
        benchmark run."""
        from mvstereo import features
        from mvstereo import model as model_mod
        from mvstereo.model import CascadeConfig, ModelConfig, StereoModel
        hooks = [(features.DeformableConv2d, "__call__"), (model_mod, "warp_source_features"),
                 (model_mod, "pairwise_correlation"), (model_mod, "aggregate_correlation")]
        originals = [getattr(owner, name) for owner, name in hooks]
        tracer = load_tracing().Tracer()
        tracer.install(StereoModel(ModelConfig(cascade=CascadeConfig(counts=(8, 6, 4)),
                                               n_blocks=1, n_heads=2)))
        try:
            wrapped = [getattr(owner, name) for owner, name in hooks]
        finally:
            tracer.uninstall()
        assert all(w is not o for w, o in zip(wrapped, originals))
        assert all(getattr(owner, name) is o for (owner, name), o in zip(hooks, originals))

    def test_no_grad_records_nothing(self, f64, rng):
        x = ad.tensor(rng.standard_normal(4), requires_grad=True)
        with ad.no_grad():
            out = ad.sum_(x * x)
        assert out.node is None and not out.requires_grad


def _wrong_square(x):
    """x**2 with a planted wrong backward: 3x instead of 2x."""
    return make_op("wrong_square", x.data ** 2, (x,), lambda g: (3.0 * g * x.data,))


class TestGradcheck:
    """``gradcheck`` must fail on a wrong gradient, per tensor and pooled,
    and must not mistake a kink for one."""

    @pytest.mark.parametrize("pooled", [False, True])
    def test_wrong_backward_raises(self, f64, rng, pooled):
        a = ad.tensor(rng.uniform(0.5, 1.5, size=(3, 4)), requires_grad=True)
        b = ad.tensor(rng.uniform(0.5, 1.5, size=(5,)), requires_grad=True)
        with pytest.raises(AssertionError, match="gradient mismatch"):
            ad.gradcheck(lambda a, b: ad.sum_(_wrong_square(a)) + ad.sum_(_wrong_square(b)),
                         [a, b], max_entries=4, pooled=pooled)

    def test_pooled_probe_across_an_argmax_flip_is_redrawn(self, f64):
        # The two entries of ``kinked`` are 3e-6 apart, within h = 1e-5, so
        # every difference of either one straddles the flip of their max.
        kinked = ad.tensor([0.0, 3e-6], requires_grad=True)
        smooth = ad.tensor(np.linspace(0.5, 1.5, 4), requires_grad=True)
        calls = []

        def f(k, s):
            calls.append(1)
            return ad.max_with_argmax(k, axis=0)[0] + ad.sum_(s * s)

        with pytest.raises(AssertionError, match="gradient mismatch"):
            ad.gradcheck(f, [kinked, smooth])  # exhaustive, no smooth probe of kinked
        calls.clear()
        assert ad.gradcheck(f, [kinked, smooth], max_entries=6, pooled=True) < 1e-4
        # One evaluation for the gradient, then four per probe drawn.
        assert (len(calls) - 1) // 4 > 6, "no probe landed on the kink"
        with pytest.raises(AssertionError, match="enough smooth probe points"):
            ad.gradcheck(lambda k: ad.max_with_argmax(k, axis=0)[0], [kinked],
                         max_entries=2, pooled=True)


    def test_per_tensor_probe_across_a_relu_kink_is_redrawn(self, f64):
        # The first four entries sit 3e-6 past relu's kink, within h = 1e-5:
        # their +-h quotient reads 0.65 where the derivative is 1.
        x = ad.tensor(np.r_[np.full(4, 3e-6), np.linspace(0.5, 1.5, 8)], requires_grad=True)
        calls = []

        def f(x):
            calls.append(1)
            return ad.sum_(ad.relu(x))

        for max_entries in (6, None):
            calls.clear()
            assert ad.gradcheck(f, [x], max_entries=max_entries) < 1e-4
            # One evaluation for the gradient, then four per probe.
            probes = (len(calls) - 1) // 4
            assert probes == 12 if max_entries is None else probes > 6
        with pytest.raises(AssertionError, match="all 3 probes .* straddle a kink"):
            ad.gradcheck(lambda k: ad.sum_(ad.relu(k)),
                         [ad.tensor(np.full(3, 3e-6), requires_grad=True)], max_entries=None)

    def test_probe_exactly_on_a_relu_kink_is_skipped(self, f64):
        # At x = 0 both quotients read 0.5, so only the one-sided slopes (1
        # right, 0 left) tell the kink from a wrong gradient.
        assert ad.gradcheck(lambda x: ad.sum_(ad.relu(x)),
                            [ad.tensor([0.0, 1.0], requires_grad=True)], max_entries=None) == 0.0
        with pytest.raises(AssertionError, match="all 3 probes .* straddle a kink"):
            ad.gradcheck(lambda k: ad.sum_(ad.relu(k)),
                         [ad.tensor(np.zeros(3), requires_grad=True)], max_entries=None)

class TestPrecisionAndChecks:
    def test_global_dtype_switch(self):
        with ad.precision("float32"):
            assert ad.tensor([1.0]).dtype == np.float32
        with ad.precision("float64"):
            assert ad.tensor([1.0]).dtype == np.float64

    def test_nan_debug_check(self, f64):
        ad.set_nan_checks(True)
        try:
            with np.errstate(invalid="ignore"), pytest.raises(FloatingPointError, match="log"):
                ad.log(ad.tensor([-1.0]))
        finally:
            ad.set_nan_checks(False)

    def test_nan_checks_off_by_default(self, f64):
        with np.errstate(invalid="ignore"):
            out = ad.log(ad.tensor([-1.0]))  # release mode: propagates quietly
        assert np.isnan(out.data).all()
