"""Feature pyramid, deformable convolution, and the pathway."""

import numpy as np
import pytest

from mvstereo import autodiff as ad
from mvstereo.features import (
    DeformableConv2d,
    FeaturePyramidNet,
    PathwayMerge,
    deformable_conv2d,
)


def composed_deformable_conv2d(feat, kernel, offsets):
    """The deformable conv as separate autodiff ops: the integer tap grid
    plus the offsets, one grid sample of all nine taps, and one matrix
    product with the [9C, H*W] patch matrix. The fused op must equal it."""
    c_out, c_in, _, _ = kernel.shape
    _, h, w = feat.shape
    shift = np.arange(-1, 2, dtype=feat.dtype)
    base = np.empty((3, 3, h, w, 2), dtype=feat.dtype)
    base[..., 0] = shift[:, None, None] + np.arange(w, dtype=feat.dtype)
    base[..., 1] = shift[:, None, None, None] + np.arange(h, dtype=feat.dtype)[:, None]
    off = ad.transpose(ad.reshape(offsets, (9, 2, h, w)), (0, 2, 3, 1))
    sampled, _ = ad.grid_sample_2d(feat, ad.tensor(base.reshape(9, h, w, 2)) + off)
    cols = ad.reshape(sampled, (9 * c_in, h * w))
    w_mat = ad.reshape(ad.transpose(kernel, (0, 2, 3, 1)), (c_out, 9 * c_in))
    return ad.reshape(ad.matmul(w_mat, cols), (c_out, h, w))


# The three pyramid scales at the train (64x80) and infer (96x128) shapes.
MODEL_SHAPES = [(32, 16, 20), (16, 32, 40), (8, 64, 80),
                (32, 24, 32), (16, 48, 64), (8, 96, 128)]


def border_offsets(rng, h, w):
    """Offsets in [-4, 4] with every tap of the outer two pixel rings pushed
    off its nearest border, and a few wild and non-finite ones."""
    off = rng.uniform(-4.0, 4.0, (9, 2, h, w))
    off[:, 0, :, :2] = -3.0 - rng.random((9, h, 2))     # off the left edge
    off[:, 0, :, -2:] = 3.0 + rng.random((9, h, 2))     # off the right edge
    off[:, 1, :2, :] = -3.0 - rng.random((9, 2, w))     # off the top edge
    off[:, 1, -2:, :] = 3.0 + rng.random((9, 2, w))     # off the bottom edge
    off[0, 0, h // 2, w // 2] = 1e9
    off[1, 1, h // 2, w // 3] = -np.inf
    off[2, 0, h // 3, w // 2] = np.nan
    return off.reshape(18, h, w)


class TestFusedDeformableConv:
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("shape", MODEL_SHAPES, ids=lambda s: "x".join(map(str, s)))
    def test_forward_equals_the_composition_bitwise(self, rng, dtype, shape):
        c, h, w = shape
        with ad.precision(dtype):
            feat = ad.tensor(rng.standard_normal(shape))
            kernel = ad.tensor(rng.standard_normal((c, c, 3, 3)))
            offsets = ad.tensor(border_offsets(rng, h, w))
            fused = deformable_conv2d(feat, kernel, offsets)
            composed = composed_deformable_conv2d(feat, kernel, offsets)
        assert fused.dtype == composed.dtype
        assert np.array_equal(fused.data, composed.data)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("shape", [(3, 9, 11), (32, 16, 20), (8, 64, 80)],
                             ids=lambda s: "x".join(map(str, s)))
    def test_gradients_equal_the_composition_bitwise(self, rng, dtype, shape):
        """The kernel gradient is one product over all pixels, as in the
        composition, so training follows the same trajectory bit for bit."""
        c, h, w = shape
        with ad.precision(dtype):
            feat = ad.tensor(rng.standard_normal(shape), requires_grad=True)
            kernel = ad.tensor(rng.standard_normal((c + 1, c, 3, 3)), requires_grad=True)
            off = np.nan_to_num(border_offsets(rng, h, w), posinf=1e9, neginf=-1e9)
            offsets = ad.tensor(off, requires_grad=True)
            coef = ad.tensor(rng.standard_normal((c + 1, h, w)))
            grads = []
            for op in (deformable_conv2d, composed_deformable_conv2d):
                for t in (feat, kernel, offsets):
                    t.zero_grad()
                ad.sum_(op(feat, kernel, offsets) * coef).backward()
                grads.append([t.grad for t in (feat, kernel, offsets)])
        for fused, composed in zip(*grads):
            assert np.array_equal(fused, composed)

    def test_is_one_tape_node(self, f32, rng):
        feat = ad.tensor(rng.standard_normal((4, 6, 7)), requires_grad=True)
        kernel = ad.tensor(rng.standard_normal((4, 4, 3, 3)), requires_grad=True)
        offsets = ad.tensor(rng.uniform(-1, 1, (18, 6, 7)), requires_grad=True)
        out = deformable_conv2d(feat, kernel, offsets)
        assert out.node.op == "deformable_conv2d"
        assert out.node.inputs == (feat, kernel, offsets)


class TestFeaturePyramid:
    def test_output_shapes_64x80(self, f32, rng):
        net = FeaturePyramidNet(rng)
        f4, f2, f1 = net(ad.tensor(rng.random((3, 64, 80))))
        assert f4.shape == (32, 16, 20)
        assert f2.shape == (16, 32, 40)
        assert f1.shape == (8, 64, 80)

    def test_rejects_non_multiple_of_four(self, f32, rng):
        net = FeaturePyramidNet(rng)
        with pytest.raises(ad.DimensionError, match="multiples of 4"):
            net(ad.tensor(rng.random((3, 62, 80))))

    def test_constant_image_gives_constant_interior(self, f64, rng):
        net = FeaturePyramidNet(rng)
        f4, _, _ = net(ad.tensor(np.full((3, 64, 80), 0.5)))
        # Each 3x3 conv taints one pixel inward from the border; the deepest
        # path reaches ~5 quarter-scale pixels.
        interior = f4.data[:, 5:-5, 5:-5]
        spread = interior.max(axis=(1, 2)) - interior.min(axis=(1, 2))
        assert spread.max() < 1e-6

    def test_deterministic(self, f32, rng):
        net = FeaturePyramidNet(rng)
        img = ad.tensor(rng.random((3, 16, 16)))
        a = net(img)[0].data
        b = net(img)[0].data
        np.testing.assert_array_equal(a, b)

    def test_gradients_reach_input_and_weights(self, f64, rng):
        net = FeaturePyramidNet(rng)
        img = ad.tensor(rng.random((3, 8, 8)), requires_grad=True)
        coefs = [ad.tensor(rng.standard_normal(s))
                 for s in ((32, 2, 2), (16, 4, 4), (8, 8, 8))]
        def f(img):
            outs = net(img)
            return sum((ad.sum_(o * c) for o, c in zip(outs, coefs)),
                       start=ad.tensor(np.zeros(())))
        assert ad.gradcheck(f, [img], max_entries=6) < 1e-4


class TestDeformableConv:
    def test_zero_offsets_equal_standard_conv(self, f64, rng):
        feat = ad.tensor(rng.standard_normal((4, 10, 12)))
        kernel = ad.tensor(rng.standard_normal((5, 4, 3, 3)))
        zero_off = ad.tensor(np.zeros((18, 10, 12)))
        deform = deformable_conv2d(feat, kernel, zero_off)
        standard = ad.conv2d(feat, kernel, padding=1)
        assert np.abs(deform.data - standard.data).max() <= 1e-6

    def test_module_initialized_to_standard_conv(self, f64, rng):
        mod = DeformableConv2d(rng, channels=4)
        feat = ad.tensor(rng.standard_normal((4, 8, 9)))
        expected = ad.conv2d(feat, mod.weight, padding=1) + ad.reshape(mod.bias, (-1, 1, 1))
        np.testing.assert_allclose(mod(feat).data, expected.data, atol=1e-6)
        assert np.all(mod.offset_weight.data == 0)

    def test_uniform_shift_offset_matches_shifted_conv(self, f64, rng):
        """Offset (+1, 0) everywhere equals convolving the shifted image."""
        feat_np = rng.standard_normal((3, 9, 11))
        kernel = ad.tensor(rng.standard_normal((2, 3, 3, 3)))
        offsets = np.zeros((18, 9, 11))
        offsets[0::2] = 1.0  # dx = +1 for every tap
        out = deformable_conv2d(ad.tensor(feat_np), kernel, ad.tensor(offsets))
        shifted = np.zeros_like(feat_np)
        shifted[:, :, :-1] = feat_np[:, :, 1:]
        ref = ad.conv2d(ad.tensor(shifted), kernel, padding=1)
        np.testing.assert_allclose(out.data[:, 2:-2, 2:-2], ref.data[:, 2:-2, 2:-2],
                                   atol=1e-6)

    def test_offsets_of_another_size_rejected(self, f64, rng):
        feat = ad.tensor(rng.standard_normal((2, 6, 7)))
        kernel = ad.tensor(rng.standard_normal((2, 2, 3, 3)))
        with pytest.raises(ad.DimensionError, match=r"\(18, 6, 8\).*\(2, 6, 7\)"):
            deformable_conv2d(feat, kernel, ad.tensor(np.zeros((18, 6, 8))))

    def test_offset_gradients(self, f64, rng):
        feat = ad.tensor(rng.standard_normal((2, 6, 7)), requires_grad=True)
        kernel = ad.tensor(rng.standard_normal((2, 2, 3, 3)), requires_grad=True)
        offsets = ad.tensor(rng.uniform(-0.35, 0.35, size=(18, 6, 7)) + 0.1,
                            requires_grad=True)
        c = ad.tensor(rng.standard_normal((2, 6, 7)))
        worst = ad.gradcheck(
            lambda f, k, o: ad.sum_(deformable_conv2d(f, k, o) * c),
            [feat, kernel, offsets], max_entries=10)
        assert worst < 1e-4


def fpn_upsample_first(fpn, image):
    """The pyramid with each 1x1 projection after its upsample."""
    e0 = fpn.enc0b(fpn.enc0a(image))
    e1 = fpn.enc1b(fpn.enc1a(e0[:, ::2, ::2]))
    e2 = fpn.enc2b(fpn.enc2a(e1[:, ::2, ::2]))
    m1 = fpn.lat1(e1) + fpn.proj21(ad.upsample_bilinear_2x(e2))
    m0 = fpn.lat0(e0) + fpn.proj10(ad.upsample_bilinear_2x(m1))
    return fpn.head2(e2), fpn.head1(m1), fpn.head0(m0)


class TestCoarseScaleProjection:
    """The 1x1 projections run before their 2x upsample; both are linear
    and each interpolation row sums to 1, so the bias commutes as well and
    only rounding differs from projecting the upsampled map."""

    def test_pyramid_equals_the_upsample_first_order(self, f64, rng):
        fpn = FeaturePyramidNet(rng)
        for layer in (fpn.proj21, fpn.proj10):
            layer.bias.data[...] = rng.standard_normal(layer.bias.shape)
        image = ad.tensor(rng.random((3, 16, 24)))
        for got, want in zip(fpn(image), fpn_upsample_first(fpn, image)):
            np.testing.assert_allclose(got.data, want.data, rtol=0, atol=1e-12)

    def test_pathway_equals_the_upsample_first_order(self, f64, rng):
        merge = PathwayMerge(rng, 32, 16)
        merge.proj.bias.data[...] = rng.standard_normal(16)
        coarse = ad.tensor(rng.standard_normal((32, 6, 10)))
        raw = ad.tensor(rng.standard_normal((16, 12, 20)))
        want = raw + merge.proj(ad.upsample_bilinear_2x(coarse))
        np.testing.assert_allclose(merge(coarse, raw).data, want.data, rtol=0, atol=1e-12)


class TestPathway:
    def test_zero_coarse_leaves_raw_unchanged(self, f64, rng):
        merge = PathwayMerge(rng, coarse_channels=32, fine_channels=16)
        merge.proj.bias.data[...] = 0.0
        raw = ad.tensor(rng.standard_normal((16, 8, 10)))
        coarse = ad.tensor(np.zeros((32, 4, 5)))
        out = merge(coarse, raw)
        np.testing.assert_allclose(out.data, raw.data, atol=1e-12)

    def test_shape_contract(self, f32, rng):
        merge = PathwayMerge(rng, 32, 16)
        out = merge(ad.tensor(rng.random((32, 16, 20))), ad.tensor(rng.random((16, 32, 40))))
        assert out.shape == (16, 32, 40)

    def test_spatial_mismatch_raises(self, f32, rng):
        merge = PathwayMerge(rng, 32, 16)
        with pytest.raises(ad.DimensionError, match="mismatch"):
            merge(ad.tensor(rng.random((32, 16, 20))), ad.tensor(rng.random((16, 30, 40))))

    def test_gradient_reaches_coarse_features(self, f32, rng):
        merge = PathwayMerge(rng, 32, 16)
        coarse = ad.tensor(rng.random((32, 4, 5)), requires_grad=True)
        raw = ad.tensor(rng.random((16, 8, 10)))
        ad.sum_(merge(coarse, raw) * ad.tensor(rng.standard_normal((16, 8, 10)))).backward()
        assert coarse.grad is not None and np.abs(coarse.grad).max() > 0
