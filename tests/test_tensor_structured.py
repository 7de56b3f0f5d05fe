"""Convolutions, grid sampling, and upsampling against loop oracles."""

import itertools

import numpy as np
import pytest

from mvstereo import autodiff as ad
from mvstereo.autodiff import sampling
from mvstereo.autodiff.conv import _BLOCK_ENTRIES


def conv2d_loop(x, k, stride, pad):
    """Direct nested-loop cross-correlation."""
    c_out, c_in, ksz, _ = k.shape
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    h_out = (x.shape[1] + 2 * pad - ksz) // stride + 1
    w_out = (x.shape[2] + 2 * pad - ksz) // stride + 1
    out = np.zeros((c_out, h_out, w_out))
    for o in range(c_out):
        for i in range(h_out):
            for j in range(w_out):
                patch = xp[:, i * stride:i * stride + ksz, j * stride:j * stride + ksz]
                out[o, i, j] = (patch * k[o]).sum()
    return out


def conv3d_loop(x, k, stride, pad):
    c_out, c_in, ksz, _, _ = k.shape
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (pad, pad)))
    dims = [(s + 2 * pad - ksz) // stride + 1 for s in x.shape[1:]]
    out = np.zeros((c_out, *dims))
    for o in range(c_out):
        for d in range(dims[0]):
            for i in range(dims[1]):
                for j in range(dims[2]):
                    patch = xp[:, d * stride:d * stride + ksz,
                               i * stride:i * stride + ksz,
                               j * stride:j * stride + ksz]
                    out[o, d, i, j] = (patch * k[o]).sum()
    return out


def conv_input_grad_loop(g, k, in_shape, stride, pad):
    """Adjoint of the loops above: each output element's gradient, output
    channel by output channel, added back over the input window it read."""
    c_out, c_in, ksz = k.shape[:3]
    gp = np.zeros((c_in,) + tuple(n + 2 * pad for n in in_shape))
    for idx in np.ndindex(*g.shape[1:]):
        window = (slice(None),) + tuple(slice(i * stride, i * stride + ksz) for i in idx)
        for o in range(c_out):
            gp[window] += g[(o,) + idx] * k[o]
    return gp[(slice(None),) + tuple(slice(pad, pad + n) for n in in_shape)]


def strided(conv, x, k, stride, pad):
    """``conv`` (always stride 1), then every ``stride``-th output along each
    spatial axis: the strided correlation of the loop oracles, taken the way
    the pyramid and the 3D U-Net subsample, by slicing."""
    out = conv(x, k, padding=pad)
    return out[(slice(None),) + (slice(None, None, stride),) * (out.ndim - 1)]


def input_grad(conv, x, k, stride, pad, g):
    """Input gradient of ``sum(strided(conv, x, k) * g)`` through the engine."""
    xt = ad.tensor(x, requires_grad=True)
    ad.sum_(strided(conv, xt, ad.tensor(k), stride, pad) * ad.tensor(g)).backward()
    return xt.grad


def conv_gradcheck(conv, x, k, stride, pad):
    """Finite-difference check of ``sum(strided(conv, x, k) * c)`` for a fixed random c."""
    c = ad.tensor(np.random.default_rng(7).standard_normal(
        strided(conv, x, k, stride, pad).shape))
    return ad.gradcheck(lambda x, k: ad.sum_(strided(conv, x, k, stride, pad) * c),
                        [x, k], max_entries=24)


def ragged_split(per_index: int) -> int:
    """Extent of the axis the block iterator splits when one index along it
    holds ``per_index`` patch entries: three blocks, the last one ragged."""
    step = _BLOCK_ENTRIES // per_index
    assert step >= 2, "one index must fit the budget at least twice over"
    return 2 * step + 1


def in_extent(out: int, stride: int, pad: int, k: int = 3) -> int:
    """Input extent whose convolution has ``out`` samples."""
    return (out - 1) * stride + k - 2 * pad


class TestConvBlocks:
    """Shapes the im2col budget splits into several blocks, the last ragged,
    against float64 per-element loops."""

    @pytest.mark.parametrize("stride,pad", [(1, 1), (2, 0)])
    def test_conv2d_split_rows(self, f64, rng, stride, pad):
        c_in, w_out = 16, 24
        h_out = ragged_split(c_in * 9 * w_out)
        x = rng.standard_normal((c_in, in_extent(h_out, stride, pad), in_extent(w_out, stride, pad)))
        k = rng.standard_normal((2, c_in, 3, 3))
        out = strided(ad.conv2d, ad.tensor(x), ad.tensor(k), stride, pad)
        np.testing.assert_allclose(out.data, conv2d_loop(x, k, stride, pad), rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("stride,pad", [(1, 1), (2, 0)])
    @pytest.mark.parametrize("split", ["depth", "height"])
    def test_conv3d(self, f64, rng, split, stride, pad):
        if split == "depth":  # blocks of whole depth slices
            c_in, h_out, w_out = 4, 6, 6
            d_out = ragged_split(c_in * 27 * h_out * w_out)
        else:  # one depth slice exceeds the budget: blocks of rows within it
            c_in, d_out, w_out = 16, 2, 20
            h_out = ragged_split(c_in * 27 * w_out)
            assert c_in * 27 * h_out * w_out > _BLOCK_ENTRIES
        x = rng.standard_normal((c_in,) + tuple(in_extent(n, stride, pad)
                                                 for n in (d_out, h_out, w_out)))
        k = rng.standard_normal((2, c_in, 3, 3, 3))
        out = strided(ad.conv3d, ad.tensor(x), ad.tensor(k), stride, pad)
        np.testing.assert_allclose(out.data, conv3d_loop(x, k, stride, pad), rtol=1e-12, atol=1e-12)

    def test_kernel_gradient_over_blocks(self, f64, rng):
        c_in, d_out, w_out = 16, 2, 20
        h_out = ragged_split(c_in * 27 * w_out)
        x = ad.tensor(rng.standard_normal((c_in, d_out + 2, h_out + 2, w_out + 2)))
        k = ad.tensor(rng.standard_normal((2, c_in, 3, 3, 3)), requires_grad=True)
        assert conv_gradcheck(ad.conv3d, x, k, 1, 0) < 1e-4
        assert x.grad is None


class TestConvInputGradient:
    """The input gradient, a forward conv of the output gradient with the
    flipped, channel-swapped kernel, against float64 per-element loops."""

    @pytest.mark.parametrize("conv,k_taps,c_in,in_shape,stride,pad", [
        (ad.conv2d, (3, 3), 3, (7, 9), 2, 1),  # sliced: zero-dilated gradient
        (ad.conv2d, (3, 3), 3, (6, 7), 1, 0),
        (ad.conv2d, (3, 3), 3, (6, 7), 1, 2),  # padding k - 1
        (ad.conv2d, (3, 3), 3, (5, 6), 1, 3),  # padding k: cropped
        (ad.conv2d, (3, 3), 2, (4, 5), 1, 4),
        (ad.conv2d, (3, 3), 3, (5, 7), 2, 3),  # sliced and cropped
        (ad.conv2d, (3, 3), 1, (6, 7), 1, 1),  # one input channel, as in reg*.c0
        (ad.conv2d, (5, 5), 2, (9, 8), 1, 2),
        (ad.conv2d, (1, 1), 3, (5, 7), 2, 0),
        (ad.conv3d, (3, 3, 3), 3, (5, 7, 5), 2, 1),
        (ad.conv3d, (3, 3, 3), 3, (4, 5, 6), 1, 0),
        (ad.conv3d, (3, 3, 3), 3, (4, 5, 6), 1, 2),
        (ad.conv3d, (3, 3, 3), 3, (3, 4, 5), 1, 3),
        (ad.conv3d, (3, 3, 3), 2, (3, 5, 5), 2, 3),
        (ad.conv3d, (3, 3, 3), 1, (4, 5, 6), 1, 1),
    ])
    def test_matches_loop_oracle(self, f64, rng, conv, k_taps, c_in, in_shape, stride, pad):
        x = rng.standard_normal((c_in,) + in_shape)
        k = rng.standard_normal((3, c_in) + k_taps)
        g = rng.standard_normal(strided(conv, ad.tensor(x), ad.tensor(k), stride, pad).shape)
        np.testing.assert_allclose(input_grad(conv, x, k, stride, pad, g),
                                   conv_input_grad_loop(g, k, in_shape, stride, pad),
                                   rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("split", ["conv2d rows", "conv3d depth", "conv3d rows"])
    def test_split_into_blocks(self, f64, rng, split):
        """The gradient's conv has C_out * k^d patch rows and the input's
        extents as outputs; these shapes split it into several blocks, the
        last one ragged."""
        if split == "conv2d rows":
            conv, c_out, taps, w_in = ad.conv2d, 16, 9, 24
            in_shape = (ragged_split(c_out * taps * w_in), w_in)
        elif split == "conv3d depth":
            conv, c_out, taps = ad.conv3d, 4, 27
            in_shape = (ragged_split(c_out * taps * 6 * 6), 6, 6)
        else:  # one depth slice exceeds the budget: blocks of rows within it
            conv, c_out, taps, w_in = ad.conv3d, 16, 27, 20
            in_shape = (2, ragged_split(c_out * taps * w_in), w_in)
            assert c_out * taps * in_shape[1] * w_in > _BLOCK_ENTRIES
        x = rng.standard_normal((2,) + in_shape)
        k = rng.standard_normal((c_out, 2) + (3,) * len(in_shape))
        g = rng.standard_normal((c_out,) + in_shape)
        np.testing.assert_allclose(input_grad(conv, x, k, 1, 1, g),
                                   conv_input_grad_loop(g, k, in_shape, 1, 1),
                                   rtol=1e-12, atol=1e-12)

    def test_gradcheck_over_blocks(self, f64, rng):
        c_out, w_in = 16, 20
        in_shape = (2, ragged_split(c_out * 27 * w_in), w_in)
        x = ad.tensor(rng.standard_normal((2,) + in_shape), requires_grad=True)
        k = ad.tensor(rng.standard_normal((c_out, 2, 3, 3, 3)))
        assert conv_gradcheck(ad.conv3d, x, k, 1, 1) < 1e-4
        assert k.grad is None


class TestConv2d:
    def test_1x1_unit_kernel_is_identity(self, f64, rng):
        x = rng.standard_normal((1, 5, 6))
        out = ad.conv2d(ad.tensor(x), ad.tensor(np.ones((1, 1, 1, 1))))
        np.testing.assert_allclose(out.data, x)

    def test_averaging_kernel_on_constant_image(self, f64):
        x = ad.tensor(np.full((1, 6, 7), 3.5))
        k = ad.tensor(np.full((1, 1, 3, 3), 1.0 / 9.0))
        out = ad.conv2d(x, k, padding=1)
        np.testing.assert_allclose(out.data[0, 1:-1, 1:-1], 3.5, atol=1e-12)

    @pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 1), (3, 0)])
    def test_matches_loop_oracle(self, f64, rng, stride, pad):
        h = stride * 4 + 3 - 2 * pad  # 5 x 5 strided outputs
        x = rng.standard_normal((2, h, h))
        k = rng.standard_normal((3, 2, 3, 3))
        out = strided(ad.conv2d, ad.tensor(x), ad.tensor(k), stride, pad)
        np.testing.assert_allclose(out.data, conv2d_loop(x, k, stride, pad), atol=1e-6)

    def test_input_smaller_than_kernel(self, f64):
        with pytest.raises(ad.DimensionError,
                           match="conv2d width: extent 2 with padding 0 is smaller than kernel 3"):
            ad.conv2d(ad.tensor(np.zeros((1, 6, 2))), ad.tensor(np.zeros((1, 1, 3, 3))))

    def test_even_kernel_rejected(self, f64):
        with pytest.raises(ad.DimensionError, match="odd"):
            ad.conv2d(ad.tensor(np.zeros((1, 6, 6))), ad.tensor(np.zeros((1, 1, 2, 2))))

    def test_gradients(self, f64, rng):
        x = ad.tensor(rng.standard_normal((2, 5, 6)), requires_grad=True)
        k = ad.tensor(rng.standard_normal((3, 2, 3, 3)), requires_grad=True)
        c = ad.tensor(rng.standard_normal((3, 3, 4)))
        worst = ad.gradcheck(
            lambda x, k: ad.sum_(ad.conv2d(x, k) * c),
            [x, k], max_entries=20)
        assert worst < 1e-4

    @pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 1)])
    def test_gradients_strided_and_padded(self, f64, rng, stride, pad):
        h = stride * 3 + 3 - 2 * pad  # strided output extents: 4 x 5
        x = ad.tensor(rng.standard_normal((2, h, h + stride)), requires_grad=True)
        k = ad.tensor(rng.standard_normal((3, 2, 3, 3)), requires_grad=True)
        assert conv_gradcheck(ad.conv2d, x, k, stride, pad) < 1e-4

    @pytest.mark.parametrize("operand", ["input", "kernel"])
    def test_gradient_of_one_operand(self, f64, rng, operand):
        x = ad.tensor(rng.standard_normal((2, 7, 8)), requires_grad=operand == "input")
        k = ad.tensor(rng.standard_normal((3, 2, 3, 3)), requires_grad=operand == "kernel")
        assert conv_gradcheck(ad.conv2d, x, k, 1, 1) < 1e-4
        assert (k if operand == "input" else x).grad is None


class TestConv3d:
    def test_matches_loop_oracle(self, f64, rng):
        x = rng.standard_normal((2, 4, 5, 4))
        k = rng.standard_normal((2, 2, 3, 3, 3))
        out = ad.conv3d(ad.tensor(x), ad.tensor(k), padding=1)
        np.testing.assert_allclose(out.data, conv3d_loop(x, k, 1, 1), atol=1e-6)

    def test_unit_kernel_identity(self, f64, rng):
        x = rng.standard_normal((1, 3, 4, 5))
        k = np.zeros((1, 1, 3, 3, 3))
        k[0, 0, 1, 1, 1] = 1.0
        out = ad.conv3d(ad.tensor(x), ad.tensor(k), padding=1)
        np.testing.assert_allclose(out.data, x, atol=1e-12)

    def test_gradients(self, f64, rng):
        x = ad.tensor(rng.standard_normal((1, 4, 4, 4)), requires_grad=True)
        k = ad.tensor(rng.standard_normal((2, 1, 3, 3, 3)), requires_grad=True)
        c = ad.tensor(rng.standard_normal((2, 4, 4, 4)))
        worst = ad.gradcheck(
            lambda x, k: ad.sum_(ad.conv3d(x, k, padding=1) * c),
            [x, k], max_entries=16)
        assert worst < 1e-4

    @pytest.mark.parametrize("pad", [0, 1])
    def test_matches_loop_oracle_stride_2(self, f64, rng, pad):
        x = rng.standard_normal((2, 5, 7, 5))
        k = rng.standard_normal((3, 2, 3, 3, 3))
        out = strided(ad.conv3d, ad.tensor(x), ad.tensor(k), 2, pad)
        np.testing.assert_allclose(out.data, conv3d_loop(x, k, 2, pad), atol=1e-6)

    @pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 1)])
    def test_gradients_strided_and_padded(self, f64, rng, stride, pad):
        d = stride * 2 + 3 - 2 * pad  # strided output extents: 3 x 4 x 3
        x = ad.tensor(rng.standard_normal((2, d, d + stride, d)), requires_grad=True)
        k = ad.tensor(rng.standard_normal((2, 2, 3, 3, 3)), requires_grad=True)
        assert conv_gradcheck(ad.conv3d, x, k, stride, pad) < 1e-4

    @pytest.mark.parametrize("operand", ["input", "kernel"])
    def test_gradient_of_one_operand(self, f64, rng, operand):
        x = ad.tensor(rng.standard_normal((2, 4, 5, 4)), requires_grad=operand == "input")
        k = ad.tensor(rng.standard_normal((2, 2, 3, 3, 3)), requires_grad=operand == "kernel")
        assert conv_gradcheck(ad.conv3d, x, k, 1, 1) < 1e-4
        assert (k if operand == "input" else x).grad is None


class TestConvArguments:
    """Bad arguments to either conv give a DimensionError naming the op
    and the value, not a numpy error from inside the lowering."""

    @pytest.mark.parametrize("conv,nd", [(ad.conv2d, 2), (ad.conv3d, 3)])
    def test_zero_input_channels_rejected(self, f64, conv, nd):
        with pytest.raises(ad.DimensionError, match=rf"{conv.__name__} .*input channel.*\(2, 0"):
            conv(ad.tensor(np.zeros((0,) + (5,) * nd)), ad.tensor(np.zeros((2, 0) + (3,) * nd)))


class TestGridSample:
    def test_identity_grid_copies_input(self, f64, rng):
        x = rng.standard_normal((3, 5, 6))
        ys, xs = np.meshgrid(np.arange(5.0), np.arange(6.0), indexing="ij")
        grid = np.stack([xs, ys], axis=-1)
        out, mask = ad.grid_sample_2d(ad.tensor(x), ad.tensor(grid))
        np.testing.assert_allclose(out.data, x, atol=1e-6)
        assert mask.all()

    def test_center_of_2x2_is_corner_mean(self, f64, rng):
        x = rng.standard_normal((1, 2, 2))
        out, _ = ad.grid_sample_2d(ad.tensor(x), ad.tensor([[[0.5, 0.5]]]))
        np.testing.assert_allclose(out.data[0, 0, 0], x.mean(), atol=1e-12)

    def test_out_of_bounds_yields_zero_and_masked(self, f64, rng):
        x = rng.standard_normal((2, 4, 4))
        grid = np.array([[[-1.0, 1.0], [1.0, 5.0], [2.0, 2.0]]])
        out, mask = ad.grid_sample_2d(ad.tensor(x), ad.tensor(grid))
        np.testing.assert_array_equal(mask, [[False, False, True]])
        np.testing.assert_array_equal(out.data[:, 0, :2], np.zeros((2, 2)))

    def test_batched_grid_leading_dims(self, f64, rng):
        x = rng.standard_normal((2, 5, 5))
        grid = rng.uniform(0.3, 3.7, size=(4, 3, 3, 2))
        out, mask = ad.grid_sample_2d(ad.tensor(x), ad.tensor(grid))
        assert out.shape == (4, 2, 3, 3)
        assert mask.shape == (4, 3, 3)

    def test_gradients_including_grid(self, f64, rng):
        x = ad.tensor(rng.standard_normal((2, 5, 6)), requires_grad=True)
        # Stay away from the integer lattice: the interpolant's derivative
        # jumps across cell boundaries.
        grid = ad.tensor(np.round(rng.uniform(0.0, 4.0, size=(3, 4, 2))) + 0.37,
                         requires_grad=True)
        c = ad.tensor(rng.standard_normal((2, 3, 4)))
        worst = ad.gradcheck(
            lambda x, g: ad.sum_(ad.grid_sample_2d(x, g)[0] * c),
            [x, grid], max_entries=None)
        assert worst < 1e-4

    @pytest.mark.parametrize("operand", ["image", "grid"])
    def test_gradient_of_one_operand(self, f64, rng, operand):
        x = ad.tensor(rng.standard_normal((2, 5, 6)), requires_grad=operand == "image")
        # Off the integer lattice, and partly out of bounds to cover masked lanes.
        grid = ad.tensor(np.round(rng.uniform(-1.0, 5.0, size=(2, 3, 4, 2))) + 0.37,
                         requires_grad=operand == "grid")
        c = ad.tensor(rng.standard_normal((2, 2, 3, 4)))
        worst = ad.gradcheck(
            lambda x, g: ad.sum_(ad.grid_sample_2d(x, g)[0] * c),
            [x, grid], max_entries=None)
        assert worst < 1e-4
        assert (grid if operand == "image" else x).grad is None

    def test_editing_returned_mask_leaves_gradients(self, f64, rng):
        x = ad.tensor(rng.standard_normal((2, 5, 6)), requires_grad=True)
        grid = ad.tensor(rng.uniform(-1.0, 5.0, size=(3, 4, 2)), requires_grad=True)
        grads = []
        for edit in (False, True):
            x.zero_grad()
            grid.zero_grad()
            out, mask = ad.grid_sample_2d(x, grid)
            if edit:
                mask[...] = ~mask
            ad.sum_(out * out).backward()
            grads.append((x.grad, grid.grad))
        for before, after in zip(*grads):
            np.testing.assert_array_equal(before, after)

    @pytest.mark.parametrize("lead", [(), (3,), (2, 3)])
    def test_matches_loop_oracle(self, f64, rng, lead):
        x = rng.standard_normal((3, 5, 7))
        grid = rng.uniform(-1.5, 7.5, size=lead + (4, 6, 2))
        grid[..., 0, :2, :] = [[0.0, 0.0], [6.0, 4.0]]  # corners of the image
        grid[..., 1, 0, 0] = np.nan
        grid[..., 1, 1, 1] = np.inf
        out, mask = ad.grid_sample_2d(ad.tensor(x), ad.tensor(grid))
        want, want_mask = grid_sample_loop(x, grid)
        np.testing.assert_allclose(out.data, want, rtol=1e-12, atol=1e-12)
        np.testing.assert_array_equal(mask, want_mask)
        assert 0 < mask.sum() < mask.size

    @pytest.mark.parametrize("lead", [(), (3,), (2, 3)])
    def test_backward_matches_loop_oracle(self, f64, rng, lead):
        x = rng.standard_normal((3, 5, 7))
        grid = rng.uniform(-1.5, 7.5, size=lead + (5, 6, 2))
        grid[..., 0, :, :] = [2.25, 1.5]  # six samples per plane in one cell
        grid[..., 1, :, :] = np.stack([np.arange(6.0), np.full(6, 3.0)], axis=-1)  # integers
        grid[..., 2, :4, :] = [[6.0, 2.5], [3.5, 4.0], [6.0, 4.0], [0.0, 0.0]]  # edges, corner
        grid[..., 3, :, :] = [[np.nan, 1.0], [1.0, np.inf], [-np.inf, 2.0],
                              [-0.01, 2.0], [3.0, 4.01], [7.0, 1.0]]  # masked lanes
        g = rng.standard_normal(lead + (3, 5, 6))
        xt = ad.tensor(x, requires_grad=True)
        gt = ad.tensor(grid, requires_grad=True)
        out, mask = ad.grid_sample_2d(xt, gt)
        ad.sum_(out * ad.tensor(g)).backward()
        want_x, want_grid = grid_sample_grad_loop(x, grid, g)
        np.testing.assert_allclose(xt.grad, want_x, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(gt.grad, want_grid, rtol=1e-12, atol=1e-12)
        assert not mask[..., 3, :].any()
        np.testing.assert_array_equal(gt.grad[..., 3, :, :], 0.0)
        assert np.abs(gt.grad[..., :3, :4, :]).min() > 0  # the oracle is not vacuous

    @pytest.mark.parametrize("fill", ["outside", "nan"])
    def test_no_valid_sample_gives_zeros(self, f64, rng, fill):
        x = rng.standard_normal((2, 4, 5))
        grid = rng.uniform(5.5, 9.0, size=(2, 3, 4, 2)) * rng.choice([-1, 1], size=(2, 3, 4, 2))
        if fill == "nan":
            grid[...] = np.nan
        out, mask = ad.grid_sample_2d(ad.tensor(x), ad.tensor(grid))
        np.testing.assert_array_equal(out.data, np.zeros((2, 2, 3, 4)))
        assert not mask.any()


def sample_split(channels: int) -> tuple[int, int]:
    """(H', W') of a sample plane that grid sampling with ``channels``
    channels splits into three blocks per leading index, the last ragged."""
    step = sampling._BLOCK_ENTRIES // channels
    plane = (5, step // 2)
    assert 2 * step < plane[0] * plane[1] < 3 * step
    return plane


class TestGridSampleBlocks:
    """Sample planes the gather budget splits into several blocks per
    leading index, the last one ragged, against float64 per-sample loops."""

    CASES = [((), 1), ((2,), 16), ((1, 2), 16)]  # (leading axes, channels)
    IDS = ["0 leading axes, C=1", "1 leading axis", "2 leading axes"]

    def inputs(self, rng, lead, c):
        x = rng.standard_normal((c, 9, 11))
        plane = sample_split(c)
        grid = np.stack([rng.uniform(-0.5, 10.5, lead + plane),
                         rng.uniform(-0.5, 8.5, lead + plane)], axis=-1)
        grid[..., 0, :2, 0] = [np.nan, 11.0]  # masked lanes in the first block
        return x, grid

    @pytest.mark.parametrize("lead,c", CASES, ids=IDS)
    def test_forward_matches_loop_oracle(self, f64, rng, lead, c):
        x, grid = self.inputs(rng, lead, c)
        out, mask = ad.grid_sample_2d(ad.tensor(x), ad.tensor(grid))
        want, want_mask = grid_sample_loop(x, grid)
        np.testing.assert_allclose(out.data, want, rtol=1e-12, atol=1e-12)
        np.testing.assert_array_equal(mask, want_mask)
        assert mask[..., -1, -1].all()  # the ragged block samples inside

    @pytest.mark.parametrize("lead,c", CASES, ids=IDS)
    def test_backward_matches_loop_oracle(self, f64, rng, lead, c):
        x, grid = self.inputs(rng, lead, c)
        g = rng.standard_normal(lead + (c,) + grid.shape[-3:-1])
        xt = ad.tensor(x, requires_grad=True)
        gt = ad.tensor(grid, requires_grad=True)
        out, _ = ad.grid_sample_2d(xt, gt)
        ad.sum_(out * ad.tensor(g)).backward()
        want_x, want_grid = grid_sample_grad_loop(x, grid, g)
        np.testing.assert_allclose(xt.grad, want_x, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(gt.grad, want_grid, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("c,plane", [(0, (3, 4)), (2, (0, 4)), (0, (0, 0))])
    def test_zero_channels_or_samples(self, f64, rng, c, plane):
        xt = ad.tensor(rng.standard_normal((c, 4, 5)), requires_grad=True)
        gt = ad.tensor(rng.uniform(0.0, 3.0, (2,) + plane + (2,)), requires_grad=True)
        out, mask = ad.grid_sample_2d(xt, gt)
        assert out.shape == (2, c) + plane and mask.shape == (2,) + plane
        ad.sum_(out).backward()
        np.testing.assert_array_equal(xt.grad, np.zeros((c, 4, 5)))
        np.testing.assert_array_equal(gt.grad, np.zeros((2,) + plane + (2,)))


def grid_sample_loop(x, grid):
    """Bilinear sampling sample by sample and channel by channel; zero and
    masked outside [0, W-1] x [0, H-1] and at non-finite coordinates."""
    c, h, w = x.shape
    lead, plane = grid.shape[:-3], grid.shape[-3:-1]
    out = np.zeros(lead + (c,) + plane)
    mask = np.zeros(lead + plane, dtype=bool)
    for idx in np.ndindex(*lead, *plane):
        gx, gy = grid[idx]
        if not (0 <= gx <= w - 1 and 0 <= gy <= h - 1):
            continue
        mask[idx] = True
        x0, y0 = min(int(np.floor(gx)), w - 2), min(int(np.floor(gy)), h - 2)
        ax, ay = gx - x0, gy - y0
        for ch in range(c):
            out[idx[:-2] + (ch,) + idx[-2:]] = (
                x[ch, y0, x0] * (1 - ax) * (1 - ay) + x[ch, y0, x0 + 1] * ax * (1 - ay)
                + x[ch, y0 + 1, x0] * (1 - ax) * ay + x[ch, y0 + 1, x0 + 1] * ax * ay)
    return out, mask


def grid_sample_grad_loop(x, grid, g):
    """Gradients of ``sum(grid_sample_2d(x, grid)[0] * g)`` sample by sample
    and channel by channel: the image gradient scatters g into the four
    corners, the grid gradient differentiates the bilinear blend inside the
    sample's cell (the cell ``grid_sample_loop`` picks). Zero at masked and
    non-finite lanes."""
    c, h, w = x.shape
    gx, gg = np.zeros_like(x), np.zeros_like(grid)
    for idx in np.ndindex(*grid.shape[:-1]):
        px, py = grid[idx]
        if not (0 <= px <= w - 1 and 0 <= py <= h - 1):
            continue
        x0, y0 = min(int(np.floor(px)), w - 2), min(int(np.floor(py)), h - 2)
        ax, ay = px - x0, py - y0
        for ch in range(c):
            go = g[idx[:-2] + (ch,) + idx[-2:]]
            v00, v01 = x[ch, y0, x0], x[ch, y0, x0 + 1]
            v10, v11 = x[ch, y0 + 1, x0], x[ch, y0 + 1, x0 + 1]
            gx[ch, y0, x0] += go * (1 - ax) * (1 - ay)
            gx[ch, y0, x0 + 1] += go * ax * (1 - ay)
            gx[ch, y0 + 1, x0] += go * (1 - ax) * ay
            gx[ch, y0 + 1, x0 + 1] += go * ax * ay
            gg[idx + (0,)] += go * ((1 - ay) * (v01 - v00) + ay * (v11 - v10))
            gg[idx + (1,)] += go * ((1 - ax) * (v10 - v00) + ax * (v11 - v01))
    return gx, gg


def upsample_loop(x, n_spatial):
    """Per-element 2x linear upsampling of the last ``n_spatial`` axes.

    Output index o along an axis of extent n reads source coordinate
    (o + 0.5)/2 - 0.5, clamped into [0, n - 1], between its two neighbours.
    """
    split = x.ndim - n_spatial
    out = np.zeros(x.shape[:split] + tuple(2 * n for n in x.shape[split:]))
    for idx in np.ndindex(*out.shape):
        taps = []
        for o, n in zip(idx[split:], x.shape[split:]):
            s = min(max((o + 0.5) / 2 - 0.5, 0.0), n - 1.0)
            j0 = int(np.floor(s))
            taps.append(((j0, 1.0 - (s - j0)), (min(j0 + 1, n - 1), s - j0)))
        for corner in itertools.product(*taps):
            weight = np.prod([w for _, w in corner])
            out[idx] += weight * x[idx[:split] + tuple(j for j, _ in corner)]
    return out


class TestUpsample:
    @pytest.mark.parametrize("h, w", list(itertools.product((1, 2, 3, 4), repeat=2)))
    def test_bilinear_equals_loop_oracle(self, f64, rng, h, w):
        x = rng.standard_normal((2, h, w))
        out = ad.upsample_bilinear_2x(ad.tensor(x))
        np.testing.assert_allclose(out.data, upsample_loop(x, 2), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("dhw", [(1, 2, 3), (2, 3, 4), (3, 4, 1), (4, 1, 2), (5, 5, 5)])
    def test_trilinear_equals_loop_oracle(self, f64, rng, dhw):
        x = rng.standard_normal((2,) + dhw)
        out = ad.upsample_trilinear_2x(ad.tensor(x))
        np.testing.assert_allclose(out.data, upsample_loop(x, 3), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("shape", [(2, 1, 3, 4), (1, 3, 2, 3)])
    def test_trilinear_gradients_exhaustive(self, f64, rng, shape):
        v = ad.tensor(rng.standard_normal(shape), requires_grad=True)
        c = ad.tensor(rng.standard_normal(shape[:1] + tuple(2 * n for n in shape[1:])))
        worst = ad.gradcheck(lambda v: ad.sum_(ad.upsample_trilinear_2x(v) * c),
                             [v], max_entries=None)
        assert worst < 1e-4

    @pytest.mark.parametrize("name, ndim", [("upsample_bilinear_2x", 3),
                                            ("upsample_trilinear_2x", 4)])
    def test_node_op_is_function_name(self, f64, name, ndim):
        fn = getattr(ad, name)
        assert fn is getattr(sampling, name)
        out = fn(ad.tensor(np.ones((2,) * ndim), requires_grad=True))
        assert out.node.op == name

    def test_2x_shapes_and_constant_preservation(self, f64):
        x = ad.tensor(np.full((2, 3, 5), 1.25))
        out = ad.upsample_bilinear_2x(x)
        assert out.shape == (2, 6, 10)
        np.testing.assert_allclose(out.data, 1.25, atol=1e-12)

    def test_trilinear_shapes(self, f64, rng):
        out = ad.upsample_trilinear_2x(ad.tensor(rng.standard_normal((1, 2, 3, 4))))
        assert out.shape == (1, 4, 6, 8)

    def test_gradients(self, f64, rng):
        x = ad.tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
        c = ad.tensor(rng.standard_normal((2, 6, 8)))
        worst = ad.gradcheck(lambda x: ad.sum_(ad.upsample_bilinear_2x(x) * c),
                             [x], max_entries=None)
        assert worst < 1e-4
