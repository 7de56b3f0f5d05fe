"""Dense tensors with a reverse-mode differentiation tape.

The engine is deliberately small: a ``Tensor`` wraps a row-major numpy
buffer, every differentiable operation attaches a ``Node`` describing how
to push gradients to its inputs, and ``Tape.trace`` linearizes the graph
reachable from a scalar loss into topological order for the backward walk.

A node owns only what its gradient rule reads. Its ``inputs`` are edges,
not tensors: the producer ``Node`` of a non-leaf input, the ``Tensor``
itself for a leaf that requires grad, and ``None`` for a constant. Its
``backward_fn`` closure keeps the arrays its formula reads (an operand's
values, its own output, indices) and nothing else, so an intermediate
tensor that no formula reads is freed as soon as the forward drops it.
References point one way only, from an op's output to the nodes and
leaves below it (``Tensor.node`` -> ``Node.inputs``). The graph of a step
is therefore acyclic and owned by its root: dropping the loss frees every
node, saved array and closure by reference counting, without waiting for
the cyclic garbage collector.

The backward walk frees the graph as it goes: it drops each node's closure
once the node has run (or been skipped), so every saved array dies as soon
as the walk has passed its node, and a step's peak is not the whole graph
plus the backward's working set. A graph is therefore backpropagated once;
a second backward through it raises ``ContractError``. Gradients of several
forward passes accumulate in ``.grad``, one backward each.

Element precision (float32 or float64), tape recording and NaN checks are
per-thread switches, so the same code can run finite-difference checks in
64-bit and training in 32-bit.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "Node",
    "Tape",
    "DimensionError",
    "ContractError",
    "tensor",
    "as_tensor",
    "set_default_dtype",
    "get_default_dtype",
    "precision",
    "no_grad",
    "grad_enabled",
    "set_nan_checks",
    "nan_checks_enabled",
]


class DimensionError(ValueError):
    """Shapes or axes do not satisfy an operation's contract."""


class ContractError(RuntimeError):
    """An operation was invoked outside its stated preconditions."""


class _Flags(threading.local):
    """The engine's per-thread switches; the class attributes are the
    defaults a thread starts from."""

    dtype = np.dtype(np.float32)
    grad = True
    nan_checks = False


_state = _Flags()


def set_default_dtype(dtype) -> None:
    """Set the global element precision (np.float32 or np.float64)."""
    dtype = np.dtype(dtype)
    if dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ContractError(f"unsupported element precision: {dtype}")
    _state.dtype = dtype


def get_default_dtype() -> np.dtype:
    return _state.dtype


class precision:
    """Context manager pinning the default dtype, e.g. ``with precision("float64"):``."""

    def __init__(self, dtype):
        self._dtype = np.dtype(dtype)

    def __enter__(self):
        self._saved = get_default_dtype()
        set_default_dtype(self._dtype)
        return self

    def __exit__(self, *exc):
        set_default_dtype(self._saved)
        return False


def grad_enabled() -> bool:
    return _state.grad


class no_grad:
    """Disable tape recording inside the block (inference mode)."""

    def __enter__(self):
        self._saved = grad_enabled()
        _state.grad = False
        return self

    def __exit__(self, *exc):
        _state.grad = self._saved
        return False


def set_nan_checks(enabled: bool) -> None:
    """Debug-mode switch: verify every op output is finite."""
    _state.nan_checks = bool(enabled)


def nan_checks_enabled() -> bool:
    return _state.nan_checks


class Node:
    """One recorded operation: edges to its inputs, its output's shape and
    dtype, and its gradient rule.

    ``inputs`` holds one edge per input: the producer ``Node`` of a
    non-leaf, the ``Tensor`` itself for a leaf that requires grad, or
    ``None`` for a constant. ``backward_fn`` receives the gradient w.r.t.
    the node's output and returns one gradient array (or None) per input,
    already shaped like that input's buffer.

    Ownership: the output tensor owns its node, the node owns its edges and
    its closure, and the closure owns only the arrays its formula reads,
    never the reverse; the root loss owns the whole graph and dropping the
    loss frees it by reference count. ``Tape.backward`` routes gradients by
    producer node, casts each to that node's ``out_dtype``, and sets
    ``backward_fn`` to None once the node is passed, freeing the closure: a
    node runs its gradient rule at most once. A closure may keep an input's
    buffer instead of a copy, so buffers must not be mutated in place
    between forward and backward.
    """

    __slots__ = ("op", "inputs", "out_shape", "out_dtype", "backward_fn")

    def __init__(self, op: str, inputs: Sequence["Tensor"], output: "Tensor",
                 backward_fn: Callable[[np.ndarray], Iterable[np.ndarray | None]]):
        self.op = op
        self.inputs = tuple(t.node if t.node is not None else t if t.requires_grad else None
                            for t in inputs)
        self.out_shape = output.shape
        self.out_dtype = output.dtype
        self.backward_fn = backward_fn

    def __repr__(self):
        return f"Node({self.op}, out={self.out_shape})"


class Tensor:
    """N-dimensional array participating in reverse-mode differentiation."""

    __slots__ = ("data", "grad", "requires_grad", "node")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        self.data = np.asarray(data, dtype=dtype or _state.dtype)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self.node: Node | None = None

    # -- basic introspection -------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        tag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.dtype.name}{tag})"

    # -- gradient plumbing ---------------------------------------------------
    def zero_grad(self) -> None:
        self.grad = None

    def accumulate_grad(self, g: np.ndarray) -> None:
        if g.shape != self.data.shape:
            raise DimensionError(
                f"gradient shape {g.shape} does not match tensor shape {self.data.shape}")
        if self.grad is None:
            self.grad = g.astype(self.data.dtype, copy=True)
        else:
            self.grad += g

    def backward(self) -> None:
        """Accumulate d(self)/d(leaf) into every requires-grad leaf.

        ``self`` must be scalar. The walk consumes the graph below ``self``,
        so a second call on the same loss raises ContractError; a new
        forward and backward without ``zero_grad`` accumulates into
        ``.grad``. A leaf with no graph may be backpropagated again.
        """
        if self.size != 1:
            raise ContractError(f"backward requires a scalar loss, got shape {self.shape}")
        Tape.trace(self).backward(self)

    # -- operator sugar (implementations live in ops.py) ----------------------
    def __add__(self, other):
        return ops.add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return ops.mul(self, other)

    __rmul__ = __mul__

    def __sub__(self, other):
        return ops.sub(self, other)

    def __rsub__(self, other):
        return ops.sub(other, self)

    def __truediv__(self, other):
        return ops.div(self, other)

    def __rtruediv__(self, other):
        return ops.div(other, self)

    def __neg__(self):
        return ops.neg(self)

    def __pow__(self, exponent):
        return ops.pow_const(self, exponent)

    def __matmul__(self, other):
        return ops.matmul(self, other)

    def __getitem__(self, key):
        return ops.getitem(self, key)

    def reshape(self, *shape):
        return ops.reshape(self, shape[0] if len(shape) == 1 and isinstance(shape[0], (tuple, list)) else shape)

    def transpose(self, *axes):
        return ops.transpose(self, axes if axes else None)

    def sum(self, axis=None, keepdims=False):
        return ops.sum_(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return ops.mean(self, axis=axis, keepdims=keepdims)


def tensor(data, requires_grad: bool = False, dtype=None) -> Tensor:
    return Tensor(data, requires_grad=requires_grad, dtype=dtype)


def as_tensor(value, like: Tensor | None = None) -> Tensor:
    """Wrap scalars/arrays as constant tensors; pass tensors through."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value, dtype=like.dtype if like is not None else _state.dtype)


class Tape:
    """Topologically ordered record of the operations below one root.

    Every node's inputs appear before the node itself; the backward walk
    visits each node exactly once, in reverse order, and frees its closure.
    """

    def __init__(self, nodes: list[Node]):
        self.nodes = nodes

    def __len__(self):
        return len(self.nodes)

    @classmethod
    def trace(cls, root: Tensor) -> "Tape":
        """Linearize the graph reachable from ``root`` (iterative postorder DFS).

        Nodes are marked visited at expansion time, not push time: a node
        reachable both directly and through a deeper chain must still be
        appended before everything that consumes its output.
        """
        nodes: list[Node] = []
        visited: set[int] = set()
        stack: list[tuple[Node, bool]] = []
        if root.node is not None:
            stack.append((root.node, False))
        while stack:
            node, expanded = stack.pop()
            if expanded:
                nodes.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for edge in node.inputs:
                if isinstance(edge, Node) and id(edge) not in visited:
                    stack.append((edge, False))
        return cls(nodes)

    def backward(self, root: Tensor, seed: np.ndarray | None = None) -> None:
        if seed is None:
            seed = np.ones_like(root.data)
        seed = np.asarray(seed, dtype=root.dtype)
        if root.node is None:
            if root.requires_grad:
                root.accumulate_grad(seed)
            return
        # Output gradients keyed by producer node; leaves accumulate into .grad.
        pending: dict[int, np.ndarray] = {id(root.node): seed}
        for node in reversed(self.nodes):
            # Taken off the node before it runs: the closure's saved arrays
            # die once this step is done, skipped or not.
            backward_fn, node.backward_fn = node.backward_fn, None
            g_out = pending.pop(id(node), None)
            if g_out is None:
                continue
            if backward_fn is None:
                raise ContractError(
                    f"op '{node.op}' was already backpropagated: a graph runs backward "
                    f"once; run the forward again for another backward")
            grads = backward_fn(g_out)
            for edge, g in zip(node.inputs, grads):
                if g is None or edge is None:
                    continue
                if isinstance(edge, Node):
                    g = np.asarray(g, dtype=edge.out_dtype)
                    key = id(edge)
                    if key in pending:
                        pending[key] = pending[key] + g
                    else:
                        pending[key] = g
                else:
                    edge.accumulate_grad(np.asarray(g, dtype=edge.dtype))
            # Routed: a gradient copied into a leaf's .grad or summed into a
            # new pending array dies now, not when the next rule returns.
            grads = g = None


def make_op(op: str, out_data: np.ndarray, inputs: Sequence[Tensor],
            backward_fn: Callable[[np.ndarray], Iterable[np.ndarray | None]]) -> Tensor:
    """Create an op output, recording a tape node when gradients are live."""
    state = _state
    if state.nan_checks and not np.all(np.isfinite(out_data)):
        raise FloatingPointError(f"non-finite values produced by op '{op}'")
    out = Tensor(out_data, dtype=out_data.dtype)
    if state.grad and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        out.node = Node(op, inputs, out, backward_fn)
    return out


def unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


# The operator methods of ``Tensor`` look ``ops.<name>`` up at call time;
# ops imports this module, so it is bound last.
from . import ops  # noqa: E402
