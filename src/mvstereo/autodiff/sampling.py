"""Bilinear grid sampling and 2x linear upsampling.

grid_sample_2d is the workhorse behind homography warping and deformable
convolution: it is differentiable w.r.t. both the sampled image and the
sampling coordinates. Out-of-bounds samples contribute exact zeros and are
reported through a validity mask instead of being clamped, so border
pixels cannot fake matches downstream.
"""

from __future__ import annotations

import math

import numpy as np

from .tensor import DimensionError, Tensor, as_tensor, make_op

__all__ = ["grid_sample_2d", "upsample_bilinear_2x", "upsample_trilinear_2x"]


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

    # Only i00, wx, wy and the mask are saved for backward; the corner
    # values and blend weights are gathered or recomputed there. The indices
    # are in range, so mode="clip" changes no value; it lets ``take`` write
    # straight into ``out`` instead of through a buffered copy.
    def gather(offset, out=None):
        flat = x_t.data.reshape(c, h * w)
        return np.take(flat, i00 + offset, axis=1, out=out, mode="clip")

    def blend_weights():
        """The weights of corners 00, 01, 10 and 11, computed one at a time."""
        vf = valid.astype(x_t.dtype)
        yield (1 - wx) * (1 - wy) * vf
        yield wx * (1 - wy) * vf
        yield (1 - wx) * wy * vf
        yield wx * wy * vf

    # Blend ((v00*w00 + v01*w01) + v10*w10) + v11*w11 in place, into the
    # output in its final [..., C, H', W'] layout through a channel-first
    # view, with one reused buffer for the gathered corner.
    batch_nd = g_t.ndim - 3
    out = np.empty(g_t.shape[:batch_nd] + (c,) + g_t.shape[batch_nd:-1], dtype=x_t.dtype)
    blend = np.moveaxis(out, batch_nd, 0)  # (C, ...batch..., H', W')
    corner = np.empty(blend.shape, dtype=out.dtype)
    weights = blend_weights()
    np.multiply(gather(offsets[0], corner), next(weights), out=blend)
    for offset, wgt in zip(offsets[1:], weights):
        blend += np.multiply(gather(offset, corner), wgt, out=corner)

    def image_grad(gc):
        # One scatter per channel over all four corners: its [H*W] output
        # stays in cache, where a [C*H*W] one would not.
        idx = np.add.outer(offsets, i00).ravel()
        wgt = np.stack(list(blend_weights()))  # (4, ...)
        scaled = np.empty(wgt.shape, dtype=np.float64)
        gx_in = np.empty((c, h * w), dtype=x_t.dtype)
        for ch in range(c):
            np.multiply(wgt, gc[ch], out=scaled)
            gx_in[ch] = np.bincount(idx, weights=scaled.ravel(), minlength=h * w)
        return gx_in.reshape(c, h, w)

    def grid_grad(gc):
        # The blend is linear in the corners, so each corner is reduced
        # against g over channels first: a_k = sum_c g_c * v_k,c.
        gathered = np.empty(gc.shape, dtype=x_t.dtype)
        a00, a01, a10, a11 = (np.einsum("c...,c...->...", gc, gather(offset, gathered))
                              for offset in offsets)
        vf = valid.astype(x_t.dtype)
        dx = vf * ((1 - wy) * (a01 - a00) + wy * (a11 - a10))
        dy = vf * ((1 - wx) * (a10 - a00) + wx * (a11 - a01))
        return np.stack([dx, dy], axis=-1)

    def backward(g):
        gc = np.moveaxis(g, batch_nd, 0)  # (C, ...)
        return (image_grad(gc) if x_t.requires_grad else None,
                grid_grad(gc) if g_t.requires_grad else None)

    # The caller gets its own mask: backward reads ``valid``, so a caller
    # editing the returned mask in place must not change the gradients.
    return make_op("grid_sample_2d", out, (x_t, g_t), backward), valid.copy()


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
