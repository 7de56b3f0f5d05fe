"""Matching transformer over flattened multi-view features.

Every view first aggregates context within itself (intra-attention, one
shared set of projections for all views), then each source view queries
the reference (inter-attention). The reference is never updated by the
inter step: it stays the common matching target for all sources. Attention
itself is kernelized linear attention with feature map elu(x)+1, computed
in the factored order so cost grows linearly with token count.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import ContractError, DimensionError, Tensor
from .cameras import pixel_grid
from .nn import Linear, Module

__all__ = [
    "positional_encode", "feature_map", "linear_attention", "attention_oracle",
    "softmax_attention", "AttentionBlock", "MatchingTransformer",
]

NORMALIZER_EPS = 1e-6


def positional_encode(feat: Tensor) -> Tensor:
    """Add a 2D sinusoidal encoding to (..., C, H, W) feature maps.

    Channels split into four groups: sin/cos of x and sin/cos of y at
    geometrically spaced frequencies (base 10000). Depends only on pixel
    position and channel count, so the same map is added to every view.
    """
    c, h, w = feat.shape[-3:]
    if c % 4:
        raise DimensionError(f"positional encoding needs channels divisible by 4, got {c}")
    n_freq = c // 4
    j = np.arange(n_freq, dtype=np.float64)
    omega = 1.0 / (10000.0 ** (j / n_freq))
    xs, ys = np.moveaxis(pixel_grid(h, w), -1, 0)
    xo = xs[None] * omega[:, None, None]
    yo = ys[None] * omega[:, None, None]
    enc = np.concatenate([np.sin(xo), np.cos(xo), np.sin(yo), np.cos(yo)])
    return feat + ad.tensor(enc.astype(feat.dtype))


def feature_map(x: Tensor) -> Tensor:
    """Kernel feature map: elu(x) + 1 (strictly positive)."""
    return ad.elu(x) + 1.0


def _swap(ndim: int, a: int, b: int) -> tuple[int, ...]:
    """Axis permutation exchanging axes ``a`` and ``b``."""
    axes = list(range(ndim))
    axes[a], axes[b] = axes[b], axes[a]
    return tuple(axes)


def _split_heads(x: Tensor, n_heads: int) -> Tensor:
    """(..., L, F) -> (..., H, L, F/H)."""
    *lead, l, f = x.shape
    if f % n_heads:
        raise DimensionError(f"channels {f} not divisible by {n_heads} heads")
    x = ad.reshape(x, (*lead, l, n_heads, f // n_heads))
    return ad.transpose(x, _swap(x.ndim, -3, -2))


def _merge_heads(x: Tensor) -> Tensor:
    """(..., H, L, d) -> (..., L, H * d)."""
    *lead, h, l, d = x.shape
    return ad.reshape(ad.transpose(x, _swap(x.ndim, -3, -2)), (*lead, l, h * d))


def linear_attention(q: Tensor, k: Tensor, v: Tensor, n_heads: int = 1,
                     normalized: bool = True, eps: float = NORMALIZER_EPS) -> Tensor:
    """Kernelized attention in the factored O(L * F^2) order.

    q is (..., L, F); k and v are (..., S, F) with equal shapes, and the
    leading axes broadcast. With Phi = elu + 1:
    out = Phi(q) (Phi(k)^T v) / (Phi(q) (Phi(k)^T 1) + eps). The
    normalizer can be disabled to match the bare factored product.
    """
    if k.shape != v.shape:
        raise DimensionError(f"keys {k.shape} and values {v.shape} must match")
    fq = _split_heads(feature_map(q), n_heads)                    # (..., H, L, d)
    fk = _split_heads(feature_map(k), n_heads)                    # (..., H, S, d)
    vv = _split_heads(v, n_heads)
    kv = ad.matmul(ad.transpose(fk, _swap(fk.ndim, -2, -1)), vv)  # (..., H, d, d)
    num = ad.matmul(fq, kv)                                       # (..., H, L, d)
    if normalized:
        ksum = ad.sum_(fk, axis=-2, keepdims=True)                # (..., H, 1, d)
        den = ad.sum_(fq * ksum, axis=-1, keepdims=True) + eps
        num = num / den
    return _merge_heads(num)


def attention_oracle(q: np.ndarray, k: np.ndarray, v: np.ndarray,
                     n_heads: int = 1, normalized: bool = True,
                     eps: float = NORMALIZER_EPS) -> np.ndarray:
    """Explicit O(L^2) kernel attention used as the equivalence oracle."""
    l, f = q.shape
    d = f // n_heads
    out = np.empty((l, f), dtype=q.dtype)
    for head in range(n_heads):
        sl = slice(head * d, (head + 1) * d)
        fq = np.where(q[:, sl] > 0, q[:, sl], np.expm1(np.minimum(q[:, sl], 0))) + 1.0
        fk = np.where(k[:, sl] > 0, k[:, sl], np.expm1(np.minimum(k[:, sl], 0))) + 1.0
        weights = fq @ fk.T                          # (L, S)
        if normalized:
            weights = weights / (weights.sum(axis=1, keepdims=True) + eps)
        out[:, sl] = weights @ v[:, sl]
    return out


def softmax_attention(q: np.ndarray, k: np.ndarray, v: np.ndarray,
                      row_block: int = 2048) -> np.ndarray:
    """Quadratic softmax attention baseline (numpy only, row-chunked)."""
    l = q.shape[0]
    out = np.empty_like(q)
    for start in range(0, l, row_block):
        stop = min(start + row_block, l)
        scores = q[start:stop] @ k.T
        scores -= scores.max(axis=1, keepdims=True)
        np.exp(scores, out=scores)
        scores /= scores.sum(axis=1, keepdims=True)
        out[start:stop] = scores @ v
    return out


class AttentionUnit(Module):
    """One attention + feed-forward merge with residual update.

    ``update(x, source)`` attends from x's queries onto source's
    keys/values, then merges: concat(x, message) -> two-layer perceptron
    -> added to x. Tokens are normalized before the projections.
    """

    def __init__(self, rng, channels: int, n_heads: int, normalized: bool):
        super().__init__()
        self.n_heads = n_heads
        self.normalized = normalized
        self.q_proj = Linear(rng, channels, channels, bias=False)
        self.k_proj = Linear(rng, channels, channels, bias=False)
        self.v_proj = Linear(rng, channels, channels, bias=False)
        self.merge1 = Linear(rng, 2 * channels, 2 * channels)
        # Small-scale init keeps early blocks near the residual identity
        # while still letting gradients reach the projections.
        self.merge2 = Linear(rng, 2 * channels, channels, scale=0.01)

    def update(self, x: Tensor, source: Tensor) -> Tensor:
        """x is (..., L, C); source is (..., S, C) with broadcasting leading axes."""
        xn = ad.layer_norm(x, axis=-1)
        sn = xn if source is x else ad.layer_norm(source, axis=-1)
        message = linear_attention(self.q_proj(xn), self.k_proj(sn), self.v_proj(sn),
                                   n_heads=self.n_heads, normalized=self.normalized)
        h = ad.concat([x, message], axis=-1)
        return x + self.merge2(ad.relu(self.merge1(h)))


class AttentionBlock(Module):
    """Intra-attention on every view (shared weights), then unidirectional
    inter-attention updating only the source views."""

    def __init__(self, rng, channels: int, n_heads: int, normalized: bool):
        super().__init__()
        self.intra = AttentionUnit(rng, channels, n_heads, normalized)
        self.inter = AttentionUnit(rng, channels, n_heads, normalized)

    def __call__(self, tokens: Tensor) -> Tensor:
        """(V, L, C) tokens, row 0 the reference, to the same shape.

        One intra update runs over all views at once; one inter update runs
        every source against the post-intra reference.
        """
        if tokens.ndim != 3 or tokens.shape[0] < 2:
            raise ContractError("attention block needs (V, L, C) tokens with at least "
                                f"two views (one source), got {tokens.shape}")
        x = self.intra.update(tokens, tokens)
        ref = x[:1]
        return ad.concat([ref, self.inter.update(x[1:], ref)], axis=0)


class MatchingTransformer(Module):
    """Positional encoding, flatten, N sequential attention blocks, unflatten."""

    def __init__(self, rng, channels: int, n_blocks: int = 4, n_heads: int = 8,
                 normalized: bool = True):
        super().__init__()
        if channels % n_heads:
            raise DimensionError(f"channels {channels} not divisible by {n_heads} heads")
        for i in range(n_blocks):
            setattr(self, f"block{i}", AttentionBlock(rng, channels, n_heads, normalized))
        self.n_blocks = n_blocks

    @staticmethod
    def flatten(feat: Tensor) -> Tensor:
        """(..., C, H, W) feature maps to (..., H*W, C) tokens."""
        *lead, c, h, w = feat.shape
        tokens = ad.reshape(feat, (*lead, c, h * w))
        return ad.transpose(tokens, _swap(tokens.ndim, -2, -1))

    @staticmethod
    def unflatten(tokens: Tensor, height: int, width: int) -> Tensor:
        """(..., H*W, C) tokens back to (..., C, H, W) maps."""
        *lead, l, c = tokens.shape
        return ad.reshape(ad.transpose(tokens, _swap(tokens.ndim, -2, -1)),
                          (*lead, c, height, width))

    def __call__(self, feats: list[Tensor]) -> list[Tensor]:
        """First entry is the reference view; all maps share (C, H, W)."""
        shape = feats[0].shape
        for f in feats[1:]:
            if f.shape != shape:
                raise DimensionError(f"all views must share shape {shape}, got {f.shape}")
        c, h, w = shape
        x = self.flatten(positional_encode(ad.stack(feats, axis=0)))
        for i in range(self.n_blocks):
            x = getattr(self, f"block{i}")(x)
        out = self.unflatten(x, h, w)
        return [out[v] for v in range(len(feats))]
