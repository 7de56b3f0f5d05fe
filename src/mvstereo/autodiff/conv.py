"""2D and 3D convolution (cross-correlation convention, no kernel flip).

Both are one N-d routine that lowers the input to a channel-major patch
matrix [C_in * k^d, N] (im2col via stride tricks, after Chellapilla et
al. 2006) in blocks of whole output rows. Each block's patch matrix holds
at most ``_BLOCK_ENTRIES`` entries (one row if a row alone is larger) and
is copied into one reused buffer, so no conv allocates the whole patch
matrix; one that fits the budget is a single block and a single matrix
product. Forward, kernel gradient and input gradient all walk this one
block iterator. Padding is per block too: each block copies the input
rows it reads into one reused zero-bordered slab, so no conv makes a
padded copy of its whole input, and every block and patch matrix is the
one a whole padded copy would give. Forward writes ``w_mat @ cols`` into
each block's output columns. The patch matrix is not kept for backward:
the kernel gradient walks the input's blocks again, and only when the
kernel requires a gradient, so the node keeps the input only then (and
the kernel only when the input requires a gradient). There is no col2im:
the input gradient is itself a forward conv, of the output gradient
(padded by k-1-pad on each side, or cropped where that is negative) with
the kernel flipped over its taps and its in and out channels swapped
(Dumoulin & Visin 2016, sec. 4). Every conv has stride 1; the pyramid and
the 3D U-Net subsample by slicing. An input smaller than its kernel
(after padding) raises a DimensionError.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .tensor import DimensionError, as_tensor, make_op

__all__ = ["conv2d", "conv3d"]

_AXES = ("depth", "height", "width")
_KERNEL_SHAPE = {2: "square", 3: "cubic"}
_BLOCK_ENTRIES = 1 << 18  # patch-matrix entries per im2col block


def _out_extent(n: int, k: int, pad: int, what: str) -> int:
    if n + 2 * pad < k:
        raise DimensionError(
            f"{what}: extent {n} with padding {pad} is smaller than kernel {k}")
    return n + 2 * pad - k + 1


def _blocks(data: np.ndarray, k: int, pad: int, out_dims: tuple[int, ...]):
    """Yield (flat output columns, patch matrix [C * k^d, n]) per block of
    the convolution of ``data`` [C, *spatial] with a k^d kernel.

    Blocks cut the outermost output axis on which one index fits the budget
    (the second-to-last axis if none does; never the last one) into runs of
    as many indices as fit, within one index of each axis before it. The
    matrix is a view of one reused buffer, valid until the next block is
    drawn.

    The input is never padded whole. Each block copies the input it reads
    into one reused slab: k indices of each axis before the cut one, the
    block's rows plus k - 1 on the cut axis, and every padded index of the
    axes after it. The slab's borders on those last axes are zeros that no
    copy touches; a block that reaches padding on the cut axes re-zeroes
    the slab before its copy.
    """
    nd = len(out_dims)
    c, *in_dims = data.shape
    rows = c * k ** nd
    for axis in range(nd - 1):
        inner = math.prod(out_dims[axis + 1:])
        if rows * inner <= _BLOCK_ENTRIES:
            break
    step = max(1, min(out_dims[axis], _BLOCK_ENTRIES // (rows * inner)))
    slab = np.zeros((c,) + (k,) * axis + (step + k - 1,)
                    + tuple(n + 2 * pad for n in in_dims[axis + 1:]), dtype=data.dtype)
    inner_at = tuple(slice(pad, pad + n) for n in in_dims[axis + 1:])
    # (C, step, *inner out, *taps): the block's windows, one index of each
    # axis before the cut one.
    windows = sliding_window_view(slab, (k,) * nd, axis=tuple(range(1, nd + 1)))[
        (slice(None),) + (0,) * axis]
    buf = np.empty(rows * inner * step, dtype=data.dtype)
    span = nd - axis  # output axes a block keeps
    taps_first = (0,) + tuple(range(span + 1, span + nd + 1)) + tuple(range(1, span + 1))
    for i, lead in enumerate(np.ndindex(*out_dims[:axis])):
        for lo in range(0, out_dims[axis], step):
            m = min(step, out_dims[axis] - lo)
            src, dst, edge = [slice(None)], [slice(None)], False
            # Output index o reads padded input o .. o + k - 1, which is
            # input o - pad ..; keep the part that exists.
            for start, extent, n in zip(lead + (lo,), (k,) * axis + (m + k - 1,), in_dims):
                first = max(start - pad, 0)
                stop = max(first, min(start - pad + extent, n))
                src.append(slice(first, stop))
                dst.append(slice(first - start + pad, stop - start + pad))
                edge |= stop - first < extent
            if edge:
                slab.fill(0)
            slab[tuple(dst) + inner_at] = data[tuple(src)]
            part = windows[:, :m]
            cols = buf[:rows * m * inner].reshape((c,) + (k,) * nd + part.shape[1:span + 1])
            np.copyto(cols, part.transpose(taps_first))
            begin = (i * out_dims[axis] + lo) * inner
            yield slice(begin, begin + m * inner), cols.reshape(rows, m * inner)


def _forward(w_mat: np.ndarray, data: np.ndarray, k: int, pad: int,
             out_dims: tuple[int, ...]) -> np.ndarray:
    """``w_mat`` [C_out, C * k^d] times each block's patch matrix of ``data``,
    written into the output [C_out, *out_dims]."""
    out = np.empty((w_mat.shape[0], math.prod(out_dims)), dtype=np.result_type(w_mat, data))
    for cols_at, cols in _blocks(data, k, pad, out_dims):
        np.matmul(w_mat, cols, out=out[:, cols_at])
    return out.reshape((-1,) + out_dims)


def _conv(name: str, nd: int, input, kernel, padding: int):
    """Convolve input [C_in, *spatial] with kernel [C_out, C_in, k, ...] over ``nd`` axes."""
    x = as_tensor(input)
    w = as_tensor(kernel)
    if x.ndim != nd + 1 or w.ndim != nd + 2:
        dims = ",".join("DHW"[3 - nd:])
        taps = ",".join("k" * nd)
        raise DimensionError(
            f"{name} expects [C,{dims}] and [O,C,{taps}], got {x.shape}, {w.shape}")
    c_out, c_in, *ks = w.shape
    k = ks[0]
    if any(kk != k for kk in ks) or k % 2 == 0:
        raise DimensionError(f"{name} kernel must be {_KERNEL_SHAPE[nd]} with odd size, "
                             f"got {'x'.join(map(str, ks))}")
    if c_in == 0:
        raise DimensionError(f"{name} kernel must have at least one input channel, "
                             f"got {w.shape}")
    if padding < 0:
        raise DimensionError(f"{name} padding must be >= 0, got {padding}")
    if x.shape[0] != c_in:
        raise DimensionError(f"{name} channel mismatch: input {x.shape} vs kernel {w.shape}")
    p = padding
    spatial = x.shape[1:]
    out_dims = tuple(_out_extent(n, k, p, f"{name} {axis}")
                     for n, axis in zip(spatial, _AXES[3 - nd:]))
    rows = c_in * k ** nd
    out = _forward(w.data.reshape(c_out, rows), x.data, k, p, out_dims)
    # The kernel gradient reads the input and the input gradient reads the
    # kernel; each is kept only when the other side needs its gradient.
    x_data = x.data if w.requires_grad else None
    w_data = w.data if x.requires_grad else None
    w_shape, w_dtype = w.shape, w.dtype

    def backward(g):
        gx = gw = None
        if x_data is not None:
            # Accumulated transposed: cols @ g.T runs about twice as fast in
            # BLAS as g @ cols.T at these block shapes.
            g_mat = g.reshape(c_out, -1)
            gw_t = np.zeros((rows, c_out), dtype=w_dtype)
            for cols_at, cols in _blocks(x_data, k, p, out_dims):
                gw_t += cols @ g_mat[:, cols_at].T
            gw = gw_t.T.reshape(w_shape)
        if w_data is not None:
            # Output o reads input o + tap - p, so input i gets g[o] * w[tap]
            # wherever o + tap = i + p: the correlation of the gradient,
            # padded by k-1-p on each side (cropped where that is negative),
            # with the flipped kernel. That leaves exactly n outputs per axis.
            crop = max(0, p + 1 - k)
            g_in = g[(slice(None),) + tuple(slice(crop, m - crop) for m in g.shape[1:])]
            w_flip = np.flip(w_data, axis=tuple(range(2, nd + 2))).swapaxes(0, 1)
            gx = _forward(w_flip.reshape(c_in, c_out * k ** nd), g_in, k,
                          max(0, k - 1 - p), spatial)
        return gx, gw

    return make_op(name, out, (x, w), backward)


def conv2d(input, kernel, padding: int = 0):
    """Convolve input [C_in, H, W] with kernel [C_out, C_in, k, k]."""
    return _conv("conv2d", 2, input, kernel, padding)


def conv3d(input, kernel, padding: int = 0):
    """Convolve input [C_in, D, H, W] with kernel [C_out, C_in, k, k, k]."""
    return _conv("conv3d", 3, input, kernel, padding)
