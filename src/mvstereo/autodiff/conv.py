"""2D and 3D convolution (cross-correlation convention, no kernel flip).

Both are one N-d routine that lowers the input to a channel-major patch
matrix [C_in * k^d, N] (im2col via stride tricks, after Chellapilla et
al. 2006) in blocks of whole output rows. Each block's patch matrix holds
at most ``_BLOCK_ENTRIES`` entries (one row if a row alone is larger) and
is copied into one reused buffer, so no conv allocates the whole patch
matrix; one that fits the budget is a single block and a single matrix
product. Forward writes ``w_mat @ cols`` into each block's output columns.
The patch matrix is not kept for backward: the kernel gradient walks the
same blocks again from the input buffer, and only when the kernel
requires a gradient. The input gradient scatters columns back (col2im)
with one strided add per kernel tap, forming each tap's columns just
before it is added. Output extents must divide exactly: (n + 2*pad - k)
must be a multiple of the stride, otherwise a DimensionError is raised
rather than silently flooring.
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


def _out_extent(n: int, k: int, stride: int, pad: int, what: str) -> int:
    span = n + 2 * pad - k
    if span < 0 or span % stride != 0:
        raise DimensionError(
            f"{what}: extent {n} with kernel {k}, stride {stride}, padding {pad} "
            f"gives non-integral output size")
    return span // stride + 1


def _conv(name: str, nd: int, input, kernel, stride: int, padding: int):
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
    if padding < 0:
        raise DimensionError(f"{name} padding must be >= 0")
    if x.shape[0] != c_in:
        raise DimensionError(f"{name} channel mismatch: input {x.shape} vs kernel {w.shape}")
    s, p = stride, padding
    spatial = x.shape[1:]
    out_dims = tuple(_out_extent(n, k, s, p, f"{name} {axis}")
                     for n, axis in zip(spatial, _AXES[3 - nd:]))
    n_out = int(np.prod(out_dims))
    every = (slice(None),)
    rows = c_in * k ** nd

    def blocks():
        """Yield (flat output columns, patch matrix [C_in * k^nd, n]) per block.

        Blocks cut the outermost output axis on which one index fits the
        budget (the second-to-last axis if none does; never the last one)
        into runs of as many indices as fit, within one index of each axis
        before it. The matrix is a view of one reused buffer, valid until
        the next block is drawn.
        """
        padded = np.pad(x.data, ((0, 0),) + ((p, p),) * nd) if p else x.data
        windows = sliding_window_view(padded, (k,) * nd, axis=tuple(range(1, nd + 1)))
        windows = windows[every + (slice(None, None, s),) * nd]  # (C, *out, *taps)
        for axis in range(nd - 1):
            inner = math.prod(out_dims[axis + 1:])
            if rows * inner <= _BLOCK_ENTRIES:
                break
        step = max(1, min(out_dims[axis], _BLOCK_ENTRIES // (rows * inner)))
        buf = np.empty(rows * inner * step, dtype=x.dtype)
        span = nd - axis  # output axes a block keeps
        taps_first = (0,) + tuple(range(span + 1, span + nd + 1)) + tuple(range(1, span + 1))
        for i, lead in enumerate(np.ndindex(*out_dims[:axis])):
            for lo in range(0, out_dims[axis], step):
                part = windows[every + lead + (slice(lo, lo + step),)]
                n = part.size // rows
                cols = buf[:rows * n].reshape((c_in,) + (k,) * nd + part.shape[1:span + 1])
                np.copyto(cols, part.transpose(taps_first))
                begin = (i * out_dims[axis] + lo) * inner
                yield slice(begin, begin + n), cols.reshape(rows, n)

    w_mat = w.data.reshape(c_out, rows)
    out = np.empty((c_out, n_out), dtype=np.result_type(w.data, x.data))
    for cols_at, cols in blocks():
        np.matmul(w_mat, cols, out=out[:, cols_at])
    out = out.reshape((c_out,) + out_dims)

    def backward(g):
        g_mat = g.reshape(c_out, n_out)
        gx = gw = None
        if w.requires_grad:
            gw = np.zeros((c_out, rows), dtype=w.dtype)
            for cols_at, cols in blocks():
                gw += g_mat[:, cols_at] @ cols.T
            gw = gw.reshape(w.shape)
        if x.requires_grad:
            # Each tap's slice of the column gradient is formed just before
            # it is added, so the full [C_in * k^nd, N] matrix never exists.
            gpad = np.zeros((c_in,) + tuple(n + 2 * p for n in spatial), dtype=x.dtype)
            for tap in np.ndindex(*(k,) * nd):
                dst = tuple(slice(t, t + s * o, s) for t, o in zip(tap, out_dims))
                w_tap = w.data[(slice(None), slice(None)) + tap]  # (C_out, C_in)
                gpad[every + dst] += (w_tap.T @ g_mat).reshape((c_in,) + out_dims)
            gx = gpad[every + tuple(slice(p, p + n) for n in spatial)] if p else gpad
        return gx, gw

    return make_op(name, out, (x, w), backward)


def conv2d(input, kernel, stride: int = 1, padding: int = 0):
    """Convolve input [C_in, H, W] with kernel [C_out, C_in, k, k]."""
    return _conv("conv2d", 2, input, kernel, stride, padding)


def conv3d(input, kernel, stride: int = 1, padding: int = 0):
    """Convolve input [C_in, D, H, W] with kernel [C_out, C_in, k, k, k]."""
    return _conv("conv3d", 3, input, kernel, stride, padding)
