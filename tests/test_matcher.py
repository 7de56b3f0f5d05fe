"""Matching transformer: encoding, linear attention, block semantics."""

import numpy as np
import pytest

from mvstereo import autodiff as ad
from mvstereo.matcher import (
    AttentionBlock,
    AttentionUnit,
    MatchingTransformer,
    attention_oracle,
    linear_attention,
    positional_encode,
    softmax_attention,
)


class TestPositionalEncoding:
    def test_origin_is_sin_zero_cos_one(self, f64):
        enc = positional_encode(ad.tensor(np.zeros((8, 3, 4)))).data
        n = 2  # 8 channels / 4 groups
        np.testing.assert_allclose(enc[0:n, 0, 0], 0.0, atol=1e-12)       # sin x
        np.testing.assert_allclose(enc[n:2 * n, 0, 0], 1.0, atol=1e-12)   # cos x
        np.testing.assert_allclose(enc[2 * n:3 * n, 0, 0], 0.0, atol=1e-12)
        np.testing.assert_allclose(enc[3 * n:, 0, 0], 1.0, atol=1e-12)

    def test_independent_of_feature_values(self, f64, rng):
        a = ad.tensor(rng.standard_normal((8, 5, 6)))
        b = ad.tensor(rng.standard_normal((8, 5, 6)))
        diff_in = b.data - a.data
        diff_out = positional_encode(b).data - positional_encode(a).data
        np.testing.assert_allclose(diff_out, diff_in, atol=1e-12)

    def test_distinct_pixels_distinct_encodings(self, f64):
        enc = positional_encode(ad.tensor(np.zeros((8, 48, 64)))).data
        flat = enc.reshape(8, -1).T
        unique = np.unique(flat.round(decimals=12), axis=0)
        assert unique.shape[0] == flat.shape[0]

    def test_channels_not_divisible_by_four(self, f64):
        with pytest.raises(ad.DimensionError, match="divisible by 4"):
            positional_encode(ad.tensor(np.zeros((6, 3, 4))))


class TestLinearAttention:
    def test_single_key_returns_value_row(self, f64, rng):
        q = ad.tensor(rng.standard_normal((5, 8)))
        k = ad.tensor(rng.standard_normal((1, 8)))
        v = ad.tensor(rng.standard_normal((1, 8)))
        out = linear_attention(q, k, v, n_heads=2)
        # The normalizer cancels the single kernel weight up to its epsilon.
        np.testing.assert_allclose(out.data, np.broadcast_to(v.data, (5, 8)), atol=1e-5)

    def test_matches_quadratic_oracle(self, f64, rng):
        """Factored order equals explicit normalized kernel attention."""
        worst = 0.0
        for trial in range(100):
            l = int(rng.integers(2, 64))
            s = int(rng.integers(2, 64))
            heads = int(rng.choice([1, 2, 4]))
            q = rng.standard_normal((l, 8))
            k = rng.standard_normal((s, 8))
            v = rng.standard_normal((s, 8))
            out = linear_attention(ad.tensor(q), ad.tensor(k), ad.tensor(v),
                                   n_heads=heads)
            ref = attention_oracle(q, k, v, n_heads=heads)
            worst = max(worst, float(np.abs(out.data - ref).max()))
        assert worst < 1e-10

    def test_unnormalized_variant_matches_bare_product(self, f64, rng):
        q = rng.standard_normal((7, 4))
        k = rng.standard_normal((6, 4))
        v = rng.standard_normal((6, 4))
        out = linear_attention(ad.tensor(q), ad.tensor(k), ad.tensor(v),
                               n_heads=1, normalized=False)
        ref = attention_oracle(q, k, v, n_heads=1, normalized=False)
        np.testing.assert_allclose(out.data, ref, atol=1e-12)

    def test_head_count_consistency(self, f64, rng):
        q = ad.tensor(rng.standard_normal((10, 8)))
        k = ad.tensor(rng.standard_normal((9, 8)))
        v = ad.tensor(rng.standard_normal((9, 8)))
        for heads in (1, 2, 4, 8):
            assert linear_attention(q, k, v, n_heads=heads).shape == (10, 8)
        single = linear_attention(q, k, v, n_heads=1).data
        manual = attention_oracle(q.data, k.data, v.data, n_heads=1)
        np.testing.assert_allclose(single, manual, atol=1e-12)

    def test_mismatched_key_value_lengths(self, f64, rng):
        with pytest.raises(ad.DimensionError):
            linear_attention(ad.tensor(rng.random((4, 8))),
                             ad.tensor(rng.random((5, 8))),
                             ad.tensor(rng.random((6, 8))))

    def test_gradients(self, f64, rng):
        q = ad.tensor(rng.standard_normal((6, 8)), requires_grad=True)
        k = ad.tensor(rng.standard_normal((5, 8)), requires_grad=True)
        v = ad.tensor(rng.standard_normal((5, 8)), requires_grad=True)
        c = ad.tensor(rng.standard_normal((6, 8)))
        worst = ad.gradcheck(
            lambda q, k, v: ad.sum_(linear_attention(q, k, v, n_heads=2) * c),
            [q, k, v], max_entries=12)
        assert worst < 1e-4


class TestAttentionBlock:
    def test_reference_bitwise_unchanged_by_inter_step(self, f64, rng):
        block = AttentionBlock(rng, channels=16, n_heads=4, normalized=True)
        tokens = ad.tensor(rng.standard_normal((4, 20, 16)))
        ref = tokens[0]
        ref_out = block(tokens)[0]
        post_intra = block.intra.update(ref, ref)
        assert np.array_equal(ref_out.data, post_intra.data)

    def test_zeroed_merge_reduces_to_identity(self, f64, rng):
        block = AttentionBlock(rng, channels=8, n_heads=2, normalized=True)
        for unit in (block.intra, block.inter):
            unit.merge2.weight.data[...] = 0.0
            unit.merge2.bias.data[...] = 0.0
        tokens = ad.tensor(rng.standard_normal((2, 10, 8)))
        np.testing.assert_array_equal(block(tokens).data, tokens.data)

    def test_key_value_permutation_invariance(self, f64, rng):
        """Attention sums over keys, so reordering reference rows is invisible."""
        unit = AttentionUnit(rng, channels=16, n_heads=4, normalized=True)
        x = ad.tensor(rng.standard_normal((12, 16)))
        other = ad.tensor(rng.standard_normal((15, 16)))
        out = unit.update(x, other)
        perm = rng.permutation(15)
        out_perm = unit.update(x, ad.tensor(other.data[perm]))
        assert np.abs(out.data - out_perm.data).max() < 1e-10

    def test_requires_a_source_view(self, f64, rng):
        block = AttentionBlock(rng, channels=8, n_heads=2, normalized=True)
        with pytest.raises(ad.ContractError, match="two views"):
            block(ad.tensor(rng.standard_normal((1, 4, 8))))

    def test_intra_weights_shared_across_views(self, f64, rng):
        """Relabeling reference vs source does not change intra-attention."""
        block = AttentionBlock(rng, channels=8, n_heads=2, normalized=True)
        features = ad.tensor(rng.standard_normal((9, 8)))
        as_ref = block.intra.update(features, features)
        as_src = block.intra.update(features, features)
        np.testing.assert_array_equal(as_ref.data, as_src.data)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("n_views", [2, 3, 5])
    def test_stacked_views_equal_per_view_loop(self, rng, dtype, n_views):
        """One batched block equals intra per view, then inter per source."""
        with ad.precision(dtype):
            block = AttentionBlock(rng, channels=16, n_heads=4, normalized=True)
            views = [ad.tensor(rng.standard_normal((12, 16))) for _ in range(n_views)]
            out = block(ad.stack(views, axis=0))
            intra = [block.intra.update(v, v) for v in views]
            loop = [intra[0]] + [block.inter.update(s, intra[0]) for s in intra[1:]]
            assert out.dtype == np.dtype(dtype)
            for v in range(n_views):
                assert np.array_equal(out.data[v], loop[v].data)


class TestTransformer:
    def test_zero_blocks_is_positional_encoding_only(self, f64, rng):
        net = MatchingTransformer(rng, channels=8, n_blocks=0, n_heads=2)
        feats = [ad.tensor(rng.standard_normal((8, 3, 4))) for _ in range(2)]
        outs = net(feats)
        for f, o in zip(feats, outs):
            np.testing.assert_allclose(o.data, positional_encode(f).data, atol=1e-12)

    def test_output_shapes_match_inputs(self, f32, rng):
        net = MatchingTransformer(rng, channels=16, n_blocks=2, n_heads=4)
        feats = [ad.tensor(rng.random((16, 5, 6))) for _ in range(3)]
        for o in net(feats):
            assert o.shape == (16, 5, 6)

    def test_flatten_unflatten_roundtrip(self, f64, rng):
        feat = ad.tensor(rng.standard_normal((8, 4, 6)))
        tokens = MatchingTransformer.flatten(feat)
        assert tokens.shape == (24, 8)
        back = MatchingTransformer.unflatten(tokens, 4, 6)
        np.testing.assert_array_equal(back.data, feat.data)

    def test_reference_invariance_across_four_blocks(self, f64, rng):
        """The reference tokens out of every block equal the intra-only path."""
        net = MatchingTransformer(rng, channels=8, n_blocks=4, n_heads=2)
        feats = [ad.tensor(rng.standard_normal((8, 3, 4))) for _ in range(3)]
        tokens = MatchingTransformer.flatten(positional_encode(ad.stack(feats)))
        for i in range(net.n_blocks):
            block = getattr(net, f"block{i}")
            ref = tokens[0]
            ref_expected = block.intra.update(ref, ref)
            tokens = block(tokens)
            assert np.array_equal(tokens.data[0], ref_expected.data)

    def test_gradcheck_small_feature_map(self, f64, rng):
        net = MatchingTransformer(rng, channels=8, n_blocks=1, n_heads=2)
        feats = [ad.tensor(rng.standard_normal((8, 4, 5)), requires_grad=True)
                 for _ in range(2)]
        coefs = [ad.tensor(rng.standard_normal((8, 4, 5))) for _ in range(2)]
        def f(a, b):
            outs = net([a, b])
            return ad.sum_(outs[0] * coefs[0]) + ad.sum_(outs[1] * coefs[1])
        assert ad.gradcheck(f, feats, max_entries=8) < 1e-4

    def test_bad_head_split_rejected(self, rng):
        with pytest.raises(ad.DimensionError, match="divisible"):
            MatchingTransformer(rng, channels=10, n_blocks=1, n_heads=4)


class TestSoftmaxBaseline:
    def test_chunked_softmax_matches_direct(self, f64, rng):
        q = rng.standard_normal((50, 8))
        k = rng.standard_normal((50, 8))
        v = rng.standard_normal((50, 8))
        out = softmax_attention(q, k, v, row_block=16)
        scores = q @ k.T
        scores = np.exp(scores - scores.max(axis=1, keepdims=True))
        ref = (scores / scores.sum(axis=1, keepdims=True)) @ v
        np.testing.assert_allclose(out, ref, atol=1e-12)
