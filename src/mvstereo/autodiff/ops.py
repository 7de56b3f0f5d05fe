"""Elementwise, reduction, shape, and matrix operations on tensors."""

from __future__ import annotations

import builtins

import numpy as np

from .tensor import (
    DimensionError,
    Tensor,
    as_tensor,
    make_op,
    unbroadcast,
)

__all__ = [
    "add", "sub", "mul", "div", "neg", "pow_const", "exp", "log",
    "relu", "elu", "maximum", "matmul", "reshape", "transpose",
    "getitem", "concat", "stack", "take_along_axis", "sum_", "mean",
    "max_with_argmax", "softmax", "layer_norm",
]


def _binary(op, a, b, fwd, grad_a, grad_b):
    """``grad_a(x, y, out)`` and ``grad_b(x, y, out)`` return each side's
    gradient rule, a function of the output gradient alone. A rule is built
    only for a side that requires grad, so the node keeps only the arrays
    that side's rule closes over."""
    a = as_tensor(a, like=b if isinstance(b, Tensor) else None)
    b = as_tensor(b, like=a)
    out = fwd(a.data, b.data)
    rule_a = grad_a(a.data, b.data, out) if a.requires_grad else None
    rule_b = grad_b(a.data, b.data, out) if b.requires_grad else None
    shape_a, shape_b = a.shape, b.shape

    def backward(g):
        return (unbroadcast(rule_a(g), shape_a) if rule_a else None,
                unbroadcast(rule_b(g), shape_b) if rule_b else None)

    return make_op(op, out, (a, b), backward)


def _identity(x, y, o):
    """The rule of a side that gets the output gradient unchanged."""
    return lambda g: g


def add(a, b):
    return _binary("add", a, b, np.add, _identity, _identity)


def sub(a, b):
    return _binary("sub", a, b, np.subtract, _identity, lambda x, y, o: lambda g: -g)


def mul(a, b):
    return _binary("mul", a, b, np.multiply,
                   lambda x, y, o: lambda g: g * y,
                   lambda x, y, o: lambda g: g * x)


def div(a, b):
    return _binary("div", a, b, np.divide,
                   lambda x, y, o: lambda g: g / y,
                   lambda x, y, o: lambda g: -g * o / y)


def maximum(a, b):
    """Elementwise max; on ties the gradient routes to the first argument."""
    return _binary("maximum", a, b, np.maximum,
                   lambda x, y, o: lambda g: g * (x >= y),
                   lambda x, y, o: lambda g: g * (y > x))


def neg(a):
    a = as_tensor(a)
    return make_op("neg", -a.data, (a,), lambda g: (-g,))


def pow_const(a, exponent):
    """a ** p for a constant exponent p (gradient w.r.t. the base only)."""
    a = as_tensor(a)
    p = float(exponent)
    x = a.data
    out = x ** p

    def backward(g):
        if p == 0.0:
            return (np.zeros_like(x),)
        return (g * p * x ** (p - 1.0),)

    return make_op("pow", out, (a,), backward)


def exp(a):
    a = as_tensor(a)
    out = np.exp(a.data)
    return make_op("exp", out, (a,), lambda g: (g * out,))


def log(a):
    a = as_tensor(a)
    x = a.data
    return make_op("log", np.log(x), (a,), lambda g: (g / x,))


def relu(a):
    """max(a, 0); backward reads only the output, since out > 0 exactly where a > 0."""
    a = as_tensor(a)
    out = np.maximum(a.data, 0)
    return make_op("relu", out, (a,), lambda g: (g * (out > 0),))


def elu(a):
    """Exponential linear unit: x for x > 0, exp(x) - 1 otherwise.

    Backward reads only the output: out > 0 exactly where a > 0, and
    elsewhere out is exp(a) - 1, so its slope there is out + 1. Neither
    branches per element on the data: in the forward one of the two terms
    is an exact zero, and min(out, 0) is exactly 0 where out > 0, so both
    equal the ``np.where`` forms.
    """
    a = as_tensor(a)
    out = np.expm1(np.minimum(a.data, 0)) + np.maximum(a.data, 0)

    def backward(g):
        return (g * (np.minimum(out, 0) + 1),)

    return make_op("elu", out, (a,), backward)


def matmul(a, b):
    """Matrix product with broadcastable batch dimensions."""
    a = as_tensor(a)
    b = as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError(f"matmul needs >=2-d tensors, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"matmul inner extents disagree: {a.shape} vs {b.shape}")
    out = a.data @ b.data
    # Each side keeps the other operand only when it needs a gradient.
    y = b.data if a.requires_grad else None
    x = a.data if b.requires_grad else None
    shape_a, shape_b = a.shape, b.shape

    def backward(g):
        ga = None if y is None else unbroadcast(g @ np.swapaxes(y, -1, -2), shape_a)
        gb = None if x is None else unbroadcast(np.swapaxes(x, -1, -2) @ g, shape_b)
        return ga, gb

    return make_op("matmul", out, (a, b), backward)


def reshape(a, shape):
    a = as_tensor(a)
    out = a.data.reshape(shape)
    source = a.shape
    return make_op("reshape", out, (a,), lambda g: (g.reshape(source),))


def transpose(a, axes=None):
    a = as_tensor(a)
    out = np.transpose(a.data, axes)
    if axes is None:
        inverse = None
    else:
        inverse = np.argsort(axes)
    return make_op("transpose", np.ascontiguousarray(out), (a,),
                   lambda g: (np.transpose(g, inverse),))


def _is_basic_index(key) -> bool:
    """True when ``key`` selects every source element at most once (no index arrays)."""
    items = key if isinstance(key, tuple) else (key,)
    return all(k is None or k is Ellipsis or isinstance(k, slice)
               or (isinstance(k, (int, np.integer)) and not isinstance(k, bool))
               for k in items)


def getitem(a, key):
    """Basic slicing/indexing; gradient scatters back into the source."""
    a = as_tensor(a)
    out = a.data[key]
    basic = _is_basic_index(key)
    shape, dtype = a.shape, a.dtype

    def backward(g):
        full = np.zeros(shape, dtype)
        if basic:
            full[key] = g  # basic keys never repeat an element
        else:
            np.add.at(full, key, g)
        return (full,)

    return make_op("getitem", np.ascontiguousarray(out), (a,), backward)


def concat(tensors, axis=0):
    tensors = [as_tensor(t) for t in tensors]
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        slicer = [builtins.slice(None)] * g.ndim
        grads = []
        for i in range(len(sizes)):
            slicer[axis] = builtins.slice(offsets[i], offsets[i + 1])
            grads.append(g[tuple(slicer)])
        return grads

    return make_op("concat", out, tensors, backward)


def stack(tensors, axis=0):
    tensors = [as_tensor(t) for t in tensors]
    out = np.stack([t.data for t in tensors], axis=axis)
    count = len(tensors)

    def backward(g):
        return [np.take(g, i, axis=axis) for i in range(count)]

    return make_op("stack", out, tensors, backward)


def take_along_axis(a, indices: np.ndarray, axis: int):
    """Differentiable gather of one element per position along ``axis``."""
    a = as_tensor(a)
    idx = np.asarray(indices)
    out = np.take_along_axis(a.data, idx, axis=axis)
    shape, dtype = a.shape, a.dtype

    def backward(g):
        full = np.zeros(shape, dtype)
        np.put_along_axis(full, idx, g, axis=axis)
        return (full,)

    return make_op("take_along_axis", out, (a,), backward)


def _check_axis(axis, ndim):
    if axis is None:
        return None
    if not -ndim <= axis < ndim:
        raise DimensionError(f"axis {axis} out of range for {ndim}-d tensor")
    return axis % ndim


def sum_(a, axis=None, keepdims=False):
    a = as_tensor(a)
    axis = _check_axis(axis, a.ndim)
    out = a.data.sum(axis=axis, keepdims=keepdims)
    shape = a.shape

    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, shape).copy(),)

    return make_op("sum", np.asarray(out), (a,), backward)


def mean(a, axis=None, keepdims=False):
    a = as_tensor(a)
    axis_n = _check_axis(axis, a.ndim)
    count = a.size if axis_n is None else a.shape[axis_n]
    return mul(sum_(a, axis=axis, keepdims=keepdims), 1.0 / count)


def max_with_argmax(a, axis: int):
    """Max along an axis plus the (constant) argmax indices.

    Gradient flows only through the maximal element; ties resolve to the
    smallest index, matching numpy's argmax.
    """
    a = as_tensor(a)
    axis = _check_axis(axis, a.ndim)
    idx = np.argmax(a.data, axis=axis)
    out = np.take_along_axis(a.data, np.expand_dims(idx, axis), axis=axis).squeeze(axis)
    shape, dtype = a.shape, a.dtype

    def backward(g):
        full = np.zeros(shape, dtype)
        np.put_along_axis(full, np.expand_dims(idx, axis),
                          np.expand_dims(g, axis), axis=axis)
        return (full,)

    return make_op("max", out, (a,), backward), idx


def softmax(a, axis: int):
    """Numerically stable softmax; output rows sum to 1 along ``axis``."""
    a = as_tensor(a)
    axis = _check_axis(axis, a.ndim)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        return ((g - dot) * out,)

    return make_op("softmax", out, (a,), backward)


def layer_norm(a, axis: int = -1, eps: float = 1e-5):
    """Zero-mean unit-variance normalization along one axis (no affine)."""
    a = as_tensor(a)
    ax = _check_axis(axis, a.ndim)
    mu = a.data.mean(axis=ax, keepdims=True)
    centered = a.data - mu
    var = (centered * centered).mean(axis=ax, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    out = centered * inv

    def backward(g):
        g_mean = g.mean(axis=ax, keepdims=True)
        gy_mean = (g * out).mean(axis=ax, keepdims=True)
        return ((g - g_mean - out * gy_mean) * inv,)

    return make_op("layer_norm", out, (a,), backward)
