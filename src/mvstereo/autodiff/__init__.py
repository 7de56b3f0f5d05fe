"""Minimal reverse-mode autodiff on dense numpy buffers."""

from .tensor import (
    ContractError,
    DimensionError,
    Node,
    Tape,
    Tensor,
    as_tensor,
    get_default_dtype,
    grad_enabled,
    nan_checks_enabled,
    no_grad,
    precision,
    set_default_dtype,
    set_nan_checks,
    tensor,
)
from .ops import (
    add,
    concat,
    div,
    elu,
    exp,
    getitem,
    layer_norm,
    log,
    matmul,
    max_with_argmax,
    maximum,
    mean,
    mul,
    neg,
    pow_const,
    relu,
    reshape,
    softmax,
    stack,
    sub,
    sum_,
    take_along_axis,
    transpose,
)
from .conv import conv2d, conv3d
from .sampling import (
    deformable_conv2d,
    grid_sample_2d,
    sampled_correlation,
    upsample_bilinear_2x,
    upsample_trilinear_2x,
)
from .gradcheck import gradcheck, max_relative_error

__all__ = [
    "ContractError", "DimensionError", "Node", "Tape", "Tensor",
    "as_tensor", "get_default_dtype", "grad_enabled", "nan_checks_enabled",
    "no_grad", "precision", "set_default_dtype", "set_nan_checks", "tensor",
    "add", "concat", "div", "elu", "exp", "getitem", "layer_norm",
    "log", "matmul", "max_with_argmax", "maximum", "mean", "mul", "neg",
    "pow_const", "relu", "reshape", "softmax", "stack", "sub",
    "sum_", "take_along_axis", "transpose",
    "conv2d", "conv3d",
    "deformable_conv2d", "grid_sample_2d", "sampled_correlation",
    "upsample_bilinear_2x", "upsample_trilinear_2x",
    "gradcheck", "max_relative_error",
]
