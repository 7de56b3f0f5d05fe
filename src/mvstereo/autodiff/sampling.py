"""Bilinear grid sampling, deformable convolution, and 2x linear upsampling.

grid_sample_2d is differentiable w.r.t. both the sampled image and the
sampling coordinates. It is the reference that the fused samplers below
are tested against: deformable_conv2d's offset gradient and
sampled_correlation's values and gradients. The plane sweep samples its
constant grids with sampled_correlation. Out-of-bounds samples contribute
exact zeros and are reported through a validity mask instead of being
clamped, so border pixels cannot fake matches downstream.

Both samplers work in cache-sized blocks of at most ``_BLOCK_ENTRIES``
sampled values (channels x samples), built from shared pieces: ``_corners``
(top-left corner index, blend fractions and mask of each sample),
``_gathered`` and ``_blend`` (gather a block's four corners and blend them
in place into that block of the output), ``_coordinate_grad`` (the blend's
derivative in x and y, from each corner reduced against the output
gradient over channels) and ``_scatter`` (the image gradient of a whole
call, one channel at a time with ``np.bincount``, so each scatter's [H*W]
output stays in cache).

grid_sample_2d computes the corner state once per call and keeps it for
backward, plus the input's values only when the grid requires a gradient.

sampled_correlation is the plane sweep's grid sample and channel
correlation in one op, for a constant grid: it blends a block of samples
and reduces it against the reference at once, so neither its forward nor
its node holds the sampled [D, C, H', W'] volume. It keeps both feature
maps and the corner state; backward samples the source again, block by
block, for the reference's gradient, and scatters for the source's. Values
and gradients equal grid_sample_2d, mul and sum_ bit for bit.

deformable_conv2d is one op, not a grid sample followed by a matrix
product. Forward samples the nine taps of a block of pixels into a
[9C, m] patch buffer, tap-major like the kernel's (O, ky, kx, C) layout,
and multiplies it by the kernel at once, so the forward never holds a
[9C, H*W] patch matrix. Block widths are whole multiples of ``_PIXEL_GROUP`` pixels: the
blocked products then meet BLAS's column tiles where one unblocked product
would, and at the model's shapes the outputs equal the unfused composition
bit for bit. Backward keeps the features, the kernel and the offsets, and
rebuilds the corner state from the offsets. Per block it gathers each
corner once and uses it twice: to rebuild the patch block for the kernel
gradient, and for the offset gradient. The rebuilt patches meet the output
gradient in one product over all pixels, so every gradient, too, equals
the composition's bit for bit; the feature gradient is scattered one
channel at a time, as in grid_sample_2d.
"""

from __future__ import annotations

import math

import numpy as np

from .tensor import ContractError, DimensionError, Tensor, as_tensor, make_op

__all__ = ["deformable_conv2d", "grid_sample_2d", "sampled_correlation",
           "upsample_bilinear_2x", "upsample_trilinear_2x"]

_BLOCK_ENTRIES = 1 << 16  # sampled values (channels x samples) per block
_PIXEL_GROUP = 64         # deformable-conv block widths are multiples of this

# Tap t = 3 * ky + kx of a 3x3 kernel reads (x + kx - 1, y + ky - 1).
_TAP_DX = np.tile(np.arange(-1, 2), 3)
_TAP_DY = np.repeat(np.arange(-1, 2), 3)


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

    dtype, grid_shape = x_t.dtype, g_t.shape
    i00, wx, wy, valid = _corners(g_t.data[..., 0], g_t.data[..., 1], h, w, dtype)
    batch_nd = g_t.ndim - 3
    lead, n = math.prod(grid_shape[:batch_nd]), math.prod(grid_shape[batch_nd:-1])
    # (leading index, sample) views of the corner state backward keeps.
    i00_2d, wx_2d, wy_2d, valid_2d = (a.reshape(lead, n) for a in (i00, wx, wy, valid))
    flat = x_t.data.reshape(c, h * w)
    # Only the grid gradient reads the input's values.
    kept = flat if g_t.requires_grad else None
    image_wanted = x_t.requires_grad

    out = np.empty((lead, c, n), dtype=dtype)
    for b, at, corner in _blocks(lead, n, c, dtype):
        _blend(_gathered(flat, i00_2d[b, at], w, corner),
               _blend_weights(wx_2d[b, at], wy_2d[b, at], valid_2d[b, at]), out[b, :, at], corner)
    out = out.reshape(grid_shape[:batch_nd] + (c,) + grid_shape[batch_nd:-1])

    def grid_grad(g):
        g_3d = g.reshape(lead, c, n)
        grad = np.empty((lead, n, 2), dtype=np.result_type(g, dtype))
        for b, at, corner in _blocks(lead, n, c, dtype):
            a = [np.einsum("cn,cn->n", g_3d[b, :, at], v)
                 for v in _gathered(kept, i00_2d[b, at], w, corner)]
            grad[b, at, 0], grad[b, at, 1] = _coordinate_grad(
                a, wx_2d[b, at], wy_2d[b, at], valid_2d[b, at])
        return grad.reshape(grid_shape)

    def backward(g):
        image = None
        if image_wanted:
            gc = np.moveaxis(g, batch_nd, 0)
            weights = _stacked_weights(wx, wy, valid)
            image = _scatter(gc, i00, weights, w, h * w).reshape(c, h, w)
        return image, grid_grad(g) if kept is not None else None

    # The caller gets its own mask: backward reads ``valid``, so a caller
    # editing the returned mask in place must not change the gradients.
    return make_op("grid_sample_2d", out, (x_t, g_t), backward), valid.copy()


def sampled_correlation(reference, source, grid) -> tuple[Tensor, np.ndarray]:
    """Correlate ``reference`` [C, H', W'] with ``source`` [C, H, W] sampled
    along a constant ``grid`` [D, H', W', 2]: out[d, p] is the sum over c of
    reference[c, p] * grid_sample_2d(source, grid)[d, c, p].

    Returns the correlation [D, H', W'] and the samples' validity mask
    [D, H', W'], as grid_sample_2d reports it.
    """
    r_t, x_t, g_t = as_tensor(reference), as_tensor(source), as_tensor(grid)
    if g_t.requires_grad:
        raise ContractError("sampled_correlation takes a constant grid; sample with "
                            "grid_sample_2d to differentiate the grid")
    if r_t.ndim != 3 or x_t.ndim != 3 or g_t.ndim != 4 or g_t.shape[-1] != 2:
        raise DimensionError(f"sampled_correlation expects [C,H',W'], [C,H,W] and "
                             f"[D,H',W',2], got {r_t.shape}, {x_t.shape}, {g_t.shape}")
    if r_t.shape[0] != x_t.shape[0] or r_t.shape[1:] != g_t.shape[1:3]:
        raise DimensionError(f"channel or extent mismatch: reference {r_t.shape} vs "
                             f"source {x_t.shape} sampled on {g_t.shape}")
    c, h, w = x_t.shape
    if h < 2 or w < 2:
        raise DimensionError("sampled_correlation source must be at least 2x2")

    dtype, planes = x_t.dtype, g_t.shape[0]
    n = math.prod(g_t.shape[1:3])
    i00, wx, wy, valid = (a.reshape(planes, n) for a in _corners(
        g_t.data[..., 0], g_t.data[..., 1], h, w, dtype))
    ref, flat = r_t.data.reshape(c, n), x_t.data.reshape(c, h * w)

    def sampled(src):
        """Yield (plane, sample slice, sampled block [C, m]) over the grid;
        every block is a view of one buffer, rewritten for each."""
        buf = None
        for b, at, corner in _blocks(planes, n, c, dtype):
            if buf is None:
                buf = np.empty(corner.size, dtype=dtype)
            block = buf[:corner.size].reshape(corner.shape)
            _blend(_gathered(src, i00[b, at], w, corner),
                   _blend_weights(wx[b, at], wy[b, at], valid[b, at]), block, corner)
            yield b, at, block

    out = np.empty((planes, n), dtype=dtype)
    for b, at, block in sampled(flat):
        block *= ref[:, at]
        block.sum(axis=0, out=out[b, at])

    # The reference's gradient reads the source, the source's the reference.
    kept_src = flat if r_t.requires_grad else None
    kept_ref = ref if x_t.requires_grad else None

    def backward(g):
        g = g.reshape(planes, n)
        g_ref = g_src = None
        if kept_src is not None:
            # Summed over the planes in order from +0, as mul's unbroadcast
            # sums its [D, C, H', W'] product (so signed zeros match, too).
            g_ref = np.zeros((c, n), dtype=dtype)
            for b, at, block in sampled(kept_src):
                block *= g[b, at]
                g_ref[:, at] += block
            g_ref = g_ref.reshape(r_t.shape)
        if kept_ref is not None:
            weights = _stacked_weights(wx, wy, valid)
            g_src = _scatter((g * row for row in kept_ref), i00, weights, w, h * w)
            g_src = g_src.reshape(c, h, w)
        return g_ref, g_src, None

    return (make_op("sampled_correlation", out.reshape(g_t.shape[:3]), (r_t, x_t, g_t),
                    backward),
            valid.reshape(g_t.shape[:3]).copy())


def deformable_conv2d(input, kernel, offsets) -> Tensor:
    """3x3 deformable convolution (v1: offsets only, no modulation).

    ``input`` is [C, H, W] and ``kernel`` [O, C, 3, 3]. ``offsets`` has
    shape (18, H, W): per pixel, (dx, dy) for each of the nine taps in
    row-major tap order. Each tap samples the input bilinearly at (tap
    position + offset); samples falling outside the image contribute zero,
    matching zero padding of a standard conv. Returns [O, H, W].
    """
    x_t, k_t, o_t = as_tensor(input), as_tensor(kernel), as_tensor(offsets)
    if x_t.ndim != 3 or k_t.ndim != 4 or o_t.ndim != 3:
        raise DimensionError(f"deformable_conv2d expects [C,H,W], [O,C,3,3] and [18,H,W], "
                             f"got {x_t.shape}, {k_t.shape}, {o_t.shape}")
    c_out, c, kh, kw = k_t.shape
    if kh != 3 or kw != 3:
        raise DimensionError("deformable_conv2d supports 3x3 kernels")
    if x_t.shape[0] != c:
        raise DimensionError(f"channel mismatch: {x_t.shape[0]} vs kernel {c}")
    if o_t.shape[0] != 18:
        raise DimensionError(f"offsets must have 18 channels, got {o_t.shape[0]}")
    _, h, w = x_t.shape
    if o_t.shape[1:] != (h, w):
        raise DimensionError(f"deformable_conv2d offsets {o_t.shape} do not match "
                             f"features {x_t.shape} in (H, W)")
    if h < 2 or w < 2:
        raise DimensionError("deformable_conv2d input must be at least 2x2")

    n, dtype = h * w, x_t.dtype
    flat = x_t.data.reshape(c, n)
    off = o_t.data.reshape(9, 2, n)
    w_mat = k_t.data.transpose(0, 2, 3, 1).reshape(c_out, 9 * c)  # tap-major columns
    step = min(n, max(1, _BLOCK_ENTRIES // (9 * c * _PIXEL_GROUP)) * _PIXEL_GROUP)

    out = np.empty((c_out, n), dtype=np.result_type(w_mat, dtype))
    patch_buf = np.empty(9 * c * step, dtype=dtype)
    corner_buf = np.empty(9 * c * step, dtype=dtype)
    for lo in range(0, n, step):
        m = min(step, n - lo)
        patch = patch_buf[:9 * c * m].reshape(9, c, m)
        i00, wx, wy, valid = _corners(*_tap_coords(off, lo, lo + m, w), h, w, dtype)
        corner = corner_buf[:9 * c * m].reshape(c, 9, m)
        _blend(_gathered(flat, i00, w, corner), _blend_weights(wx, wy, valid),
               patch.transpose(1, 0, 2), corner)
        np.matmul(w_mat, patch.reshape(9 * c, m), out=out[:, lo:lo + m])

    # The kernel gradient reads the features, the feature gradient the
    # kernel, and the offset gradient both; each is kept only if read.
    x_wanted, kernel_wanted = x_t.requires_grad, k_t.requires_grad
    offsets_wanted = o_t.requires_grad
    kept_feat = flat if kernel_wanted or offsets_wanted else None
    kept_w_mat = w_mat if x_wanted or offsets_wanted else None

    def backward(g):
        g_mat = g.reshape(c_out, n)
        i00, wx, wy, valid = _corners(*_tap_coords(off, 0, n, w), h, w, dtype)
        weights = _stacked_weights(wx, wy, valid)  # shared by the patches and the scatter
        # The patch matrix's gradient, [9, C, pixels] like the patches.
        g_cols = None if kept_w_mat is None else (kept_w_mat.T @ g_mat).reshape(9, c, n)
        gk = go = None
        if kept_feat is not None:  # the kernel or the offsets want a gradient
            # Patches are rebuilt block by block, but multiplied by g once
            # over all pixels: a sum of per-block products would round the
            # kernel gradient differently from one product, and training
            # runs follow every last bit of it.
            patches = np.empty((9, c, n), dtype=dtype) if kernel_wanted else None
            go = np.empty((9, 2, n), dtype=np.result_type(g, dtype)) if offsets_wanted else None
            vals_buf = np.empty(4 * 9 * c * step, dtype=dtype)
            product_buf = np.empty(9 * c * step, dtype=dtype)
            for lo in range(0, n, step):
                m = min(step, n - lo)
                at = slice(lo, lo + m)
                vals = vals_buf[:4 * 9 * c * m].reshape(4, c, 9, m)
                for v, offset in zip(vals, (0, 1, w, w + 1)):
                    _gather(kept_feat, i00[:, at] + offset, v)
                if patches is not None:
                    _blend(vals, weights[:, :, at], patches[:, :, at].transpose(1, 0, 2),
                           product_buf[:9 * c * m].reshape(c, 9, m))
                if go is not None:
                    a = [np.einsum("tcn,ctn->tn", g_cols[:, :, at], v) for v in vals]
                    go[:, 0, at], go[:, 1, at] = _coordinate_grad(
                        a, wx[:, at], wy[:, at], valid[:, at])
            if patches is not None:
                gk = (g_mat @ patches.reshape(9 * c, n).T).reshape(c_out, 3, 3, c)
                gk = gk.transpose(0, 3, 1, 2)
            if go is not None:
                go = go.reshape(18, h, w)
        gx = None
        if x_wanted:
            gc = np.moveaxis(g_cols, 1, 0)  # [C, 9, pixels]
            gx = _scatter(gc, i00, weights, w, n).reshape(c, h, w)
        return gx, gk, go

    return make_op("deformable_conv2d", out.reshape(c_out, h, w), (x_t, k_t, o_t), backward)


def _tap_coords(off: np.ndarray, lo: int, hi: int, w: int):
    """Sample coordinates x and y [9, hi - lo] of flat pixels lo..hi-1 for
    offsets ``off`` [9, 2, H*W]: tap position plus offset."""
    pixels = np.arange(lo, hi)
    gx = (_TAP_DX[:, None] + pixels % w).astype(off.dtype) + off[:, 0, lo:hi]
    gy = (_TAP_DY[:, None] + pixels // w).astype(off.dtype) + off[:, 1, lo:hi]
    return gx, gy


def _gather(flat: np.ndarray, corners: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Columns ``corners`` of ``flat`` [C, H*W], written into ``out``.

    The indices are in range, so mode="clip" changes no value; it lets
    ``take`` write straight into ``out`` instead of through a buffered copy.
    """
    return flat.take(corners, axis=1, out=out, mode="clip")


def _gathered(flat: np.ndarray, i00: np.ndarray, w: int, buf: np.ndarray):
    """Corners 00, 01, 10 and 11 of the samples whose top-left corners in
    ``flat`` [C, H*W] are ``i00``, each gathered into ``buf`` when drawn."""
    return (_gather(flat, i00 + offset, buf) for offset in (0, 1, w, w + 1))


def _blend(corners, weights, out, product):
    """Blend four corners [C, *block] into ``out`` in one fixed order,
    ((v00*w00 + v01*w01) + v10*w10) + v11*w11, forming each product in
    ``product``, which may be the buffer that ``_gathered`` draws into."""
    corners, weights = iter(corners), iter(weights)
    np.multiply(next(corners), next(weights), out=out)
    for v, w_k in zip(corners, weights):
        out += np.multiply(v, w_k, out=product)
    return out


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


def _coordinate_grad(a, wx, wy, valid):
    """Derivatives of the blend in x and y, given a_k = sum_c g_c * v_k,c
    for corners 00, 01, 10 and 11: the blend is linear in the corners, so
    each is reduced against the output gradient over channels first."""
    a00, a01, a10, a11 = a
    vf = valid.astype(wx.dtype)
    return (vf * ((1 - wy) * (a01 - a00) + wy * (a11 - a10)),
            vf * ((1 - wx) * (a10 - a00) + wx * (a11 - a01)))


def _stacked_weights(wx, wy, valid) -> np.ndarray:
    """The four blend weights as one array [4, *samples]."""
    out = np.empty((4,) + wx.shape, dtype=wx.dtype)
    for row, w_k in zip(out, _blend_weights(wx, wy, valid)):
        row[...] = w_k
    return out


def _scatter(gc, i00, weights, w: int, hw: int) -> np.ndarray:
    """The blend's adjoint: the image gradient [C, hw] of samples whose
    output gradient is ``gc``, an array [C, *samples] or any iterable of the
    C channels' [*samples] gradients, with top-left corners ``i00`` and
    blend weights ``weights`` [4, *samples].

    One scatter per channel over all four corners: its [hw] output stays in
    cache, where a [C*hw] one would not.
    """
    idx = np.add.outer((0, 1, w, w + 1), i00).ravel()
    scaled = np.empty(weights.shape, dtype=np.float64)
    return np.array([np.bincount(idx, weights=np.multiply(weights, g_ch, out=scaled).ravel(),
                                 minlength=hw)
                     for g_ch in gc], dtype=weights.dtype)


def _corners(gx, gy, h: int, w: int, dtype):
    """Flat index of each sample's top-left corner in an [H, W] plane, its
    x and y blend weights, and whether it lies inside the plane.

    Wild coordinates are clipped so arithmetic stays finite (their lanes are
    masked out), and non-finite ones (e.g. from diverged upstream values)
    index as out-of-bounds instead of crashing the gather.
    """
    valid = (gx >= 0) & (gx <= w - 1) & (gy >= 0) & (gy <= h - 1)
    cx = np.where(np.isfinite(gx), np.clip(gx, -1.0, float(w)), -1.0)
    cy = np.where(np.isfinite(gy), np.clip(gy, -1.0, float(h)), -1.0)
    x0 = np.clip(np.floor(cx), 0, w - 2).astype(np.int64)
    y0 = np.clip(np.floor(cy), 0, h - 2).astype(np.int64)
    return y0 * w + x0, (cx - x0).astype(dtype), (cy - y0).astype(dtype), valid


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
