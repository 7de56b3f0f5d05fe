"""Bilinear grid sampling and 2x linear upsampling.

grid_sample_2d is the workhorse behind homography warping and deformable
convolution: it is differentiable w.r.t. both the sampled image and the
sampling coordinates. Out-of-bounds samples contribute exact zeros and are
reported through a validity mask instead of being clamped, so border
pixels cannot fake matches downstream.

Like conv, grid sampling works in cache-sized blocks: a block is at most
``_BLOCK_ENTRIES`` outputs (channels x samples) within one leading index.
Forward gathers each corner of a block into one block-sized buffer and
blends it in place into that block's slice of the output; the grid
gradient walks the same blocks, reducing each gathered corner against the
output gradient over channels. The corner indices, blend fractions and
mask are computed once per call and kept for backward, and the image
gradient scatters the whole call one channel at a time with ``np.bincount``.
Backward keeps the input's values only when the grid requires a gradient;
the homography warps sample along constant grids and keep none.
"""

from __future__ import annotations

import math

import numpy as np

from .tensor import DimensionError, Tensor, as_tensor, make_op

__all__ = ["grid_sample_2d", "upsample_bilinear_2x", "upsample_trilinear_2x"]

_BLOCK_ENTRIES = 1 << 16  # outputs (channels x samples) per gather-and-blend block


def grid_sample_2d(input, grid) -> tuple[Tensor, np.ndarray]:
    """Sample ``input`` [C, H, W] at continuous pixel coordinates.

    ``grid`` has shape [..., H', W', 2] with (x, y) in pixel units of the
    input; arbitrary leading batch dimensions are allowed. Returns the
    sampled tensor of shape [..., C, H', W'] plus a boolean validity mask
    of shape [..., H', W']. Coordinates outside [0, W-1] x [0, H-1] yield
    zeros with mask False.
    """
    x_t = as_tensor(input)
    g_t = as_tensor(grid)
    if x_t.ndim != 3:
        raise DimensionError(f"grid_sample_2d input must be [C,H,W], got {x_t.shape}")
    if g_t.ndim < 3 or g_t.shape[-1] != 2:
        raise DimensionError(f"grid must be [...,H',W',2], got {g_t.shape}")
    c, h, w = x_t.shape
    if h < 2 or w < 2:
        raise DimensionError("grid_sample_2d input must be at least 2x2")

    gx = g_t.data[..., 0]
    gy = g_t.data[..., 1]
    valid = (gx >= 0) & (gx <= w - 1) & (gy >= 0) & (gy <= h - 1)

    i00, wx, wy = _lower_corners(gx, gy, h, w, x_t.dtype)
    offsets = (0, 1, w, w + 1)  # flat offsets of corners 00, 01, 10, 11
    batch_nd = g_t.ndim - 3
    lead, n = math.prod(g_t.shape[:batch_nd]), math.prod(g_t.shape[batch_nd:-1])
    # (leading index, sample) views of what backward always keeps: i00, wx,
    # wy and the mask; blend weights are recomputed there, and corner values
    # gathered again for the grid gradient.
    i00_2d, wx_2d, wy_2d, valid_2d = (a.reshape(lead, n) for a in (i00, wx, wy, valid))
    flat = x_t.data.reshape(c, h * w)
    dtype, grid_shape = x_t.dtype, g_t.shape
    # Only the grid gradient reads the input's values.
    kept = flat if g_t.requires_grad else None
    image_wanted = x_t.requires_grad

    # Blend ((v00*w00 + v01*w01) + v10*w10) + v11*w11 in place, block by
    # block, straight into the output's [C, samples] slices.
    out = np.empty((lead, c, n), dtype=dtype)
    for b, at, corner in _blocks(lead, n, c, dtype):
        i00_b, dst = i00_2d[b, at], out[b, :, at]
        weights = _blend_weights(wx_2d[b, at], wy_2d[b, at], valid_2d[b, at])
        np.multiply(_gather(flat, i00_b + offsets[0], corner), next(weights), out=dst)
        for offset, w_k in zip(offsets[1:], weights):
            dst += np.multiply(_gather(flat, i00_b + offset, corner), w_k, out=corner)
    out = out.reshape(grid_shape[:batch_nd] + (c,) + grid_shape[batch_nd:-1])

    def image_grad(gc):
        # One scatter per channel over all four corners: its [H*W] output
        # stays in cache, where a [C*H*W] one would not.
        idx = np.add.outer(offsets, i00).ravel()
        wgt = np.empty((4,) + i00.shape, dtype=dtype)
        for row, w_k in zip(wgt, _blend_weights(wx, wy, valid)):
            row[...] = w_k
        scaled = np.empty(wgt.shape, dtype=np.float64)
        gx_in = np.empty((c, h * w), dtype=dtype)
        for ch in range(c):
            np.multiply(wgt, gc[ch], out=scaled)
            gx_in[ch] = np.bincount(idx, weights=scaled.ravel(), minlength=h * w)
        return gx_in.reshape(c, h, w)

    def grid_grad(g):
        # The blend is linear in the corners, so each corner is reduced
        # against g over channels first: a_k = sum_c g_c * v_k,c.
        g_3d = g.reshape(lead, c, n)
        grad = np.empty((lead, n, 2), dtype=np.result_type(g, dtype))
        for b, at, corner in _blocks(lead, n, c, dtype):
            a00, a01, a10, a11 = (
                np.einsum("cn,cn->n", g_3d[b, :, at],
                          _gather(kept, i00_2d[b, at] + offset, corner))
                for offset in offsets)
            wx_b, wy_b = wx_2d[b, at], wy_2d[b, at]
            vf = valid_2d[b, at].astype(dtype)
            grad[b, at, 0] = vf * ((1 - wy_b) * (a01 - a00) + wy_b * (a11 - a10))
            grad[b, at, 1] = vf * ((1 - wx_b) * (a10 - a00) + wx_b * (a11 - a01))
        return grad.reshape(grid_shape)

    def backward(g):
        return (image_grad(np.moveaxis(g, batch_nd, 0)) if image_wanted else None,
                grid_grad(g) if kept is not None else None)

    # The caller gets its own mask: backward reads ``valid``, so a caller
    # editing the returned mask in place must not change the gradients.
    return make_op("grid_sample_2d", out, (x_t, g_t), backward), valid.copy()


def _gather(flat: np.ndarray, corners: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Columns ``corners`` of ``flat`` [C, H*W], written into ``out``.

    The indices are in range, so mode="clip" changes no value; it lets
    ``take`` write straight into ``out`` instead of through a buffered copy.
    """
    return flat.take(corners, axis=1, out=out, mode="clip")


def _blocks(lead: int, n: int, c: int, dtype):
    """Yield (leading index, sample slice, corner buffer [C, m]) per block
    of m samples, at most ``_BLOCK_ENTRIES`` outputs (channels x samples;
    one sample if the channels alone exceed it) within one leading index.

    The buffer is a view of one array allocated when the first block is
    drawn and reused by every block, so it lives as long as the pass.
    """
    step = max(1, _BLOCK_ENTRIES // max(c, 1))
    buf = np.empty(c * min(step, n), dtype=dtype)
    for b in range(lead):
        for lo in range(0, n, step):
            m = min(step, n - lo)
            yield b, slice(lo, lo + m), buf[:c * m].reshape(c, m)


def _blend_weights(wx, wy, valid):
    """The weights of corners 00, 01, 10 and 11, computed one at a time."""
    vf = valid.astype(wx.dtype)
    yield (1 - wx) * (1 - wy) * vf
    yield wx * (1 - wy) * vf
    yield (1 - wx) * wy * vf
    yield wx * wy * vf


def _lower_corners(gx, gy, h: int, w: int, dtype):
    """Flat index of each sample's top-left corner in an [H, W] plane, and
    its x and y blend weights.

    Wild coordinates are clipped so arithmetic stays finite (their lanes are
    masked out), and non-finite ones (e.g. from diverged upstream values)
    index as out-of-bounds instead of crashing the gather.
    """
    cx = np.where(np.isfinite(gx), np.clip(gx, -1.0, float(w)), -1.0)
    cy = np.where(np.isfinite(gy), np.clip(gy, -1.0, float(h)), -1.0)
    x0 = np.clip(np.floor(cx), 0, w - 2).astype(np.int64)
    y0 = np.clip(np.floor(cy), 0, h - 2).astype(np.int64)
    return y0 * w + x0, (cx - x0).astype(dtype), (cy - y0).astype(dtype)


def _interp_matrix(n: int, dtype) -> np.ndarray:
    """(2n x n) matrix doubling an axis of extent n by linear interpolation.

    Output sample i reads source coordinate (i + 0.5)/2 - 0.5, clamped to
    [0, n - 1] so edges replicate; column j weighs it by the hat
    max(0, 1 - |source - j|).
    """
    src = np.clip((np.arange(2 * n) + 0.5) / 2.0 - 0.5, 0.0, n - 1.0)
    return np.maximum(0.0, 1.0 - np.abs(src[:, None] - np.arange(n))).astype(dtype)


def _apply_along(data: np.ndarray, mat: np.ndarray, axis: int) -> np.ndarray:
    """Contract axis ``axis`` of ``data`` (extent n) with ``mat`` (m x n)."""
    shape = data.shape
    n = shape[axis]
    if axis == data.ndim - 1:
        out = data.reshape(-1, n) @ mat.T
    else:
        lead, trail = math.prod(shape[:axis]), math.prod(shape[axis + 1:])
        out = np.matmul(mat, data.reshape(lead, n, trail))
    return out.reshape(shape[:axis] + (mat.shape[0],) + shape[axis + 1:])


def _upsample_2x(input, n_spatial: int, op_name: str):
    """Multiply each spatial axis by its interpolation matrix; backward
    multiplies by the transposes in reverse order."""
    x = as_tensor(input)
    if x.ndim < n_spatial + 1:
        raise DimensionError(f"{op_name} expects at least {n_spatial + 1} dims, got {x.shape}")
    axes = range(x.ndim - n_spatial, x.ndim)
    mats = [_interp_matrix(x.shape[axis], x.dtype) for axis in axes]
    data = x.data
    for axis, mat in zip(axes, mats):
        data = _apply_along(data, mat, axis)

    def backward(g):
        for axis, mat in zip(reversed(axes), reversed(mats)):
            g = _apply_along(g, mat.T, axis)
        return (g,)

    return make_op(op_name, data, (x,), backward)


def upsample_bilinear_2x(input):
    """Double the last two (spatial) dimensions, e.g. [C,H,W] -> [C,2H,2W]."""
    return _upsample_2x(input, 2, "upsample_bilinear_2x")


def upsample_trilinear_2x(input):
    """Double the last three dimensions, e.g. [C,D,H,W] -> [C,2D,2H,2W]."""
    return _upsample_2x(input, 3, "upsample_trilinear_2x")
