"""The shared layer helpers: one conv layer for 2D and 3D, one 2x subsample."""

import numpy as np
import pytest

from mvstereo import autodiff as ad
from mvstereo.nn import ConvLayer, kaiming_uniform, subsample_2x


def bare_conv_layer(layer, x, norm, act):
    """The layer as separate ops: conv, bias, instance norm, ReLU."""
    conv = ad.conv3d if x.ndim == 4 else ad.conv2d
    y = conv(x, layer.weight, padding=layer.kernel // 2)
    y = y + ad.reshape(layer.bias, (-1,) + (1,) * (x.ndim - 1))
    if norm:
        c, *spatial = y.shape
        flat = ad.reshape(y, (c, int(np.prod(spatial))))
        y = ad.reshape(ad.layer_norm(flat, axis=1), (c, *spatial))
    return ad.relu(y) if act else y


class TestConvLayer:
    @pytest.mark.parametrize("dims, kernel", [(2, 3), (2, 1), (3, 3)])
    @pytest.mark.parametrize("norm", [False, True])
    @pytest.mark.parametrize("act", [False, True])
    def test_equals_the_bare_ops(self, f64, rng, dims, kernel, norm, act):
        layer = ConvLayer(rng, 3, 4, kernel=kernel, norm=norm, act=act, dims=dims)
        layer.bias.data[...] = rng.standard_normal(4)
        x = ad.tensor(rng.standard_normal((3,) + (5, 6, 7)[-dims:]))
        out = layer(x)
        want = bare_conv_layer(layer, x, norm, act)
        assert out.shape == (4,) + x.shape[1:]
        assert np.array_equal(out.data, want.data)

    @pytest.mark.parametrize("dims", [2, 3])
    def test_draws_the_weight_of_its_kernel_shape(self, dims):
        """The weight is one kaiming draw over c_in * k**dims inputs; the
        bias starts at zero and draws nothing."""
        layer = ConvLayer(np.random.default_rng(5), 2, 5, dims=dims)
        want = kaiming_uniform(np.random.default_rng(5), (5, 2) + (3,) * dims, 2 * 3 ** dims)
        assert set(layer.named_parameters()) == {"weight", "bias"}
        assert np.array_equal(layer.weight.data, want.astype(layer.weight.dtype))
        assert np.array_equal(layer.bias.data, np.zeros(5))


class TestSubsample:
    @pytest.mark.parametrize("shape", [(2, 7, 6), (2, 5, 7, 6)])
    def test_takes_every_other_index_after_the_channel_axis(self, f64, rng, shape):
        x = rng.standard_normal(shape)
        out = subsample_2x(ad.tensor(x))
        want = x[:, ::2, ::2, ::2] if x.ndim == 4 else x[:, ::2, ::2]
        assert np.array_equal(out.data, want)
