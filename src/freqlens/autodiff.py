"""Reverse-mode automatic differentiation over dense float64 tensors.

A :class:`Tensor` wraps a NumPy array.  Every operation produces a fresh
tensor; when any input participates in gradient tracking, the output
records its parents and a backward rule.  Because outputs are always
created after their inputs, monotonically increasing node ids double as a
topological order of the implicit tape.  :func:`backward` walks it once,
largest id first, drops each node's gradient once its rule has passed it
on, and returns only the gradients of leaves (tracked tensors with no
backward rule).

Design constraints:
  * float64 everywhere (the attribution exactness checks need it),
  * no in-place mutation of tensors that are on the tape; the optimizer
    updates parameters in place, after ``backward``, when no live tape
    reads them,
  * a single-threaded tape per training run; tensors are immutable after
    creation, so read-only sharing for inference is safe.

Discrete boundary operations (random noise draws, top-k index extraction,
sort permutations) are deliberately untracked: they enter the graph as
constants.  There is no sort op and no indexing op: the diversity
barrier sorts by a constant ``np.argsort`` permutation inside its fused
rule, which scatters each gradient back to its source position, the
almost-everywhere derivative of sorting.

A subgraph that every training step rebuilds is one fused node, built
with :func:`node` from its value, its parents and one backward rule:
``relu_mlp`` here; in ``model`` the bank's frequencies, the bases, the
selection weights and the straight-through weight; in ``training`` the
prediction error, the diversity barrier, the reconstruction term and
the weighted total.  Each rule performs the chain rule's NumPy
operations in the order the op-by-op graph performed them, reusing
``matmul``'s rule through ``_matmul_grads`` and ``gather_rows``' through
``_scatter_rows``, so a fused node's gradients have the bytes of the
graph it replaces.  A rule may write into the arrays it allocated
itself, never into its upstream gradient (``add`` hands the same array
to both parents) or into an array saved from the forward (a tape can be
walked twice).
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "node",
    "backward",
    "add",
    "sub",
    "mul",
    "div",
    "matmul",
    "relu_mlp",
    "einsum",
    "square",
    "sqrt",
    "sigmoid",
    "reshape",
    "transpose",
    "clip",
    "gather_rows",
    "check_gradients",
    "finite_difference",
]

_node_ids = itertools.count()


class Tensor:
    """Dense float64 array, optionally tracked for reverse-mode gradients."""

    __slots__ = ("data", "requires_grad", "node_id", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.node_id = next(_node_ids)
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], tuple] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        """Constant view of this tensor's value, off the tape."""
        return Tensor(self.data)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # -- operator sugar ----------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __matmul__(self, other):
        return matmul(self, other)

    def reshape(self, *shape):
        return reshape(self, shape[0] if len(shape) == 1 and isinstance(shape[0], (tuple, list)) else shape)

    def sum(self, axis=None, keepdims: bool = False):
        return _sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False):
        return _mean(self, axis=axis, keepdims=keepdims)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def node(out_data: np.ndarray, parents: tuple[Tensor, ...], backward_fn) -> Tensor:
    """A tensor of value ``out_data`` computed from ``parents``.

    When any parent is tracked, the output records the parents and
    ``backward_fn``, which maps the output's gradient to one gradient
    per parent (``None`` for a parent that takes none).  Every op below
    is built this way, and so is a fused op: one node whose rule runs
    the chain rule of a whole subgraph.
    """
    out = Tensor(out_data)
    for p in parents:
        if p.requires_grad:
            out.requires_grad = True
            out._parents = parents
            out._backward = backward_fn
            break
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum-reduce ``grad`` down to ``shape`` (inverse of NumPy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _elementwise(kind: str, op, a: Tensor, b: Tensor) -> np.ndarray:
    try:
        return op(a.data, b.data)
    except ValueError:
        raise ValueError(f"{kind}: shapes {a.shape} and {b.shape} are not broadcastable") from None


# ---------------------------------------------------------------------------
# elementwise binary ops
#
# A backward rule returns None for a parent that takes no gradient
# (inputs, targets, constants), so backward never builds one to drop it.
# ---------------------------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out_data = _elementwise("add", np.add, a, b)

    def backward_fn(g):
        return (
            _unbroadcast(g, a.shape) if a.requires_grad else None,
            _unbroadcast(g, b.shape) if b.requires_grad else None,
        )

    return node(out_data, (a, b), backward_fn)


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out_data = _elementwise("sub", np.subtract, a, b)

    def backward_fn(g):
        return (
            _unbroadcast(g, a.shape) if a.requires_grad else None,
            _unbroadcast(-g, b.shape) if b.requires_grad else None,
        )

    return node(out_data, (a, b), backward_fn)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out_data = _elementwise("mul", np.multiply, a, b)

    def backward_fn(g):
        return (
            _unbroadcast(g * b.data, a.shape) if a.requires_grad else None,
            _unbroadcast(g * a.data, b.shape) if b.requires_grad else None,
        )

    return node(out_data, (a, b), backward_fn)


def div(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out_data = _elementwise("div", np.divide, a, b)

    def backward_fn(g):
        return (
            _unbroadcast(g / b.data, a.shape) if a.requires_grad else None,
            _unbroadcast(-g * a.data / (b.data * b.data), b.shape) if b.requires_grad else None,
        )

    return node(out_data, (a, b), backward_fn)


# ---------------------------------------------------------------------------
# contractions
# ---------------------------------------------------------------------------

def matmul(a, b) -> Tensor:
    """Matrix product ``a @ b`` with NumPy batch broadcasting.

    A 2-D operand against a batched one is a weight shared by every
    sample, and its gradient is one GEMM over the flattened batch:
    ``[M, B·n] @ [B·n, K]`` for a 2-D ``a`` (the projection and
    reconstruction bases) and ``a.reshape(-1, K).T @ g.reshape(-1, N)``
    for a 2-D ``b`` (the input projection and the scorer weights).  This
    sums over samples inside the GEMM, in BLAS's order, instead of
    building one product per sample and summing those; the values agree
    to rounding, and the same shapes always give the same bytes.

    Every other operand gradient is the per-sample product, reduced by
    ``_unbroadcast`` where its operand was broadcast.  There a length-1
    contraction is the outer product ``a * b``, the same values; NumPy
    runs ``@`` with inner size 1 without BLAS, slower than the broadcast
    multiply.  The forward takes that shortcut, and so do the backward
    products: ``g @ b^T`` contracts over the output's last size and
    ``a^T @ g`` over its second last, so the ``[1, M] @ [M, 1]`` Grams
    run no length-1 ``@``.  The product is written in C order, the layout
    ``@`` returns, so a batch sum adds the same values in the same order.
    """
    a, b = _as_tensor(a), _as_tensor(b)
    _check_conformable("matmul", a.shape, b.shape)

    def backward_fn(g):
        return _matmul_grads(a.data, b.data, g, a.requires_grad, b.requires_grad)

    return node(_matmul_value(a.data, b.data), (a, b), backward_fn)


def _check_conformable(kind: str, a: tuple[int, ...], b: tuple[int, ...]) -> None:
    if len(a) < 2 or len(b) < 2 or a[-1] != b[-2]:
        raise ValueError(f"{kind}: shapes {a} and {b} are not conformable")


def _matmul_value(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a * b if a.shape[-1] == 1 else a @ b


def _matmul_grads(a: np.ndarray, b: np.ndarray, g: np.ndarray, need_a: bool, need_b: bool):
    """Gradients of ``a @ b`` for upstream ``g``: the rule of ``matmul``, shared by fused ops."""
    ga = gb = None
    if need_a:
        if a.ndim == 2 and b.ndim > 2:
            m, k = a.shape
            rows_first = (g.ndim - 2, *range(g.ndim - 2), g.ndim - 1)  # np.moveaxis(g, -2, 0)
            ga = g.transpose(rows_first).reshape(m, -1) @ b.swapaxes(-1, -2).reshape(-1, k)
        else:
            bt = b.swapaxes(-1, -2)
            ga = _unbroadcast(np.multiply(g, bt, order="C") if g.shape[-1] == 1 else g @ bt, a.shape)
    if need_b:
        if b.ndim == 2 and a.ndim > 2:
            k, n = b.shape
            gb = a.reshape(-1, k).T @ g.reshape(-1, n)
        else:
            at = a.swapaxes(-1, -2)
            gb = _unbroadcast(np.multiply(at, g, order="C") if g.shape[-2] == 1 else at @ g, b.shape)
    return ga, gb


def relu_mlp(x, w1, w2) -> Tensor:
    """Bias-free two-layer perceptron ``relu(x @ w1) @ w2`` as one node.

    Both products and their gradients are ``matmul``'s, shortcuts and
    batch-folded weight gradients included, and the rule runs them in
    the order the three-node graph ran them, so values and gradients
    keep their bytes.  The model's scorer, K heads and residual are
    each one such node.
    """
    x, w1, w2 = _as_tensor(x), _as_tensor(w1), _as_tensor(w2)
    _check_conformable("relu_mlp", x.shape, w1.shape)
    pre = _matmul_value(x.data, w1.data)
    h = np.maximum(pre, 0.0)
    _check_conformable("relu_mlp", h.shape, w2.shape)
    need_h = x.requires_grad or w1.requires_grad

    def backward_fn(g):
        gh, gw2 = _matmul_grads(h, w2.data, g, need_h, w2.requires_grad)
        gx = gw1 = None
        if need_h:
            gh *= pre > 0  # gh is this rule's own fresh product
            gx, gw1 = _matmul_grads(x.data, w1.data, gh, x.requires_grad, w1.requires_grad)
        return gx, gw1, gw2

    return node(_matmul_value(h, w2.data), (x, w1, w2), backward_fn)


def einsum(subscripts: str, a, b) -> Tensor:
    """Two-operand einsum.

    Restricted form: no repeated index within an operand, and every index
    of each operand must appear in the output or in the other operand, so
    the backward pass is itself an einsum with output and operand swapped.
    """
    a, b = _as_tensor(a), _as_tensor(b)
    in_spec, out_spec = subscripts.replace(" ", "").split("->")
    a_spec, b_spec = in_spec.split(",")
    try:
        out_data = np.einsum(subscripts, a.data, b.data)
    except ValueError:
        raise ValueError(
            f"einsum '{subscripts}': shapes {a.shape} and {b.shape} do not match the subscripts"
        ) from None

    def backward_fn(g):
        ga = np.einsum(f"{out_spec},{b_spec}->{a_spec}", g, b.data)
        gb = np.einsum(f"{out_spec},{a_spec}->{b_spec}", g, a.data)
        return ga, gb

    return node(out_data, (a, b), backward_fn)


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------

def _expand_reduced(g: np.ndarray, shape: tuple[int, ...], axis, keepdims: bool) -> np.ndarray:
    if axis is None:
        return np.broadcast_to(g, shape)
    if not keepdims:  # put the reduced axes back as size 1
        axes = {a % len(shape) for a in (axis if isinstance(axis, tuple) else (axis,))}
        g = g.reshape(tuple(1 if i in axes else n for i, n in enumerate(shape)))
    return np.broadcast_to(g, shape)


def _sum(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out_data = x.data.sum(axis=axis, keepdims=keepdims)

    def backward_fn(g):
        return (_expand_reduced(g, x.shape, axis, keepdims),)

    return node(out_data, (x,), backward_fn)


def _mean(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out_data = x.data.mean(axis=axis, keepdims=keepdims)
    count = x.size // max(out_data.size, 1)

    def backward_fn(g):
        return (_expand_reduced(g, x.shape, axis, keepdims) / count,)

    return node(out_data, (x,), backward_fn)


# ---------------------------------------------------------------------------
# elementwise unary ops
# ---------------------------------------------------------------------------

def square(x) -> Tensor:
    x = _as_tensor(x)

    def backward_fn(g):
        return (g * (2.0 * x.data),)

    return node(x.data * x.data, (x,), backward_fn)


def sqrt(x) -> Tensor:
    x = _as_tensor(x)
    if np.any(x.data < 0):
        raise ValueError("sqrt: negative input")
    out_data = np.sqrt(x.data)

    def backward_fn(g):
        return (g * (0.5 / out_data),)

    return node(out_data, (x,), backward_fn)


def _logistic(a: np.ndarray) -> np.ndarray:
    """The value of ``sigmoid`` on a plain array, for fused ops that need it."""
    # overflow-safe two-branch form; identical to 1/(1+exp(-a)) in value
    z = np.exp(-np.abs(a))
    return np.where(a >= 0, 1.0 / (1.0 + z), z / (1.0 + z))


def sigmoid(x) -> Tensor:
    x = _as_tensor(x)
    out_data = _logistic(x.data)

    def backward_fn(g):
        return (g * out_data * (1.0 - out_data),)

    return node(out_data, (x,), backward_fn)


def clip(x, lo: float, hi: float) -> Tensor:
    """Clamp into [lo, hi]; clipped regions receive zero gradient."""
    x = _as_tensor(x)

    def backward_fn(g):
        return (g * ((x.data >= lo) & (x.data <= hi)),)

    return node(np.clip(x.data, lo, hi), (x,), backward_fn)


# ---------------------------------------------------------------------------
# shape ops
# ---------------------------------------------------------------------------

def reshape(x, shape) -> Tensor:
    x = _as_tensor(x)
    shape = tuple(shape) if isinstance(shape, (tuple, list)) else (shape,)
    out_data = x.data.reshape(shape)

    def backward_fn(g):
        return (g.reshape(x.shape),)

    return node(out_data, (x,), backward_fn)


def transpose(x, axes: Sequence[int] | None = None) -> Tensor:
    x = _as_tensor(x)
    out_data = x.data.transpose(axes)
    inv = None
    if axes is not None:  # the inverse permutation, without an array round trip
        inv = [0] * x.ndim
        for i, axis in enumerate(axes):
            inv[axis] = i

    def backward_fn(g):
        return (g.transpose(inv),)

    return node(out_data, (x,), backward_fn)


def gather_rows(x, index) -> Tensor:
    """Per-sample row selection: x[b, index[b, k], ...] -> [B, K, ...]."""
    x = _as_tensor(x)
    idx = np.asarray(index)
    if x.ndim < 2 or idx.ndim != 2 or idx.shape[0] != x.shape[0]:
        raise ValueError(f"gather_rows: shapes {x.shape} and {idx.shape} are not conformable")
    batch = np.arange(x.shape[0])[:, None]
    out_data = x.data[batch, idx]

    def backward_fn(g):
        return (_scatter_rows(g, idx, x.shape),)

    return node(out_data, (x,), backward_fn)


def _scatter_rows(g: np.ndarray, index: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Gradient of ``gather_rows``: ``g`` [B, K, ...] added into zeros of ``shape`` at rows ``index`` [B, K].

    ``np.add.at`` adds one number per slot fastest; a row of numbers per
    slot is one assignment of ``0.0 + g`` (the sum ``np.add.at`` forms,
    which turns -0.0 into +0.0) when each sample's indices are distinct.
    """
    gx = np.zeros(shape)
    batch = np.arange(shape[0])[:, None]
    if g.ndim > 2:
        ordered = np.sort(index, axis=1)
        if (ordered[:, 1:] != ordered[:, :-1]).all():
            gx[batch, index] = g + 0.0
            return gx
    np.add.at(gx, (batch, index), g)
    return gx


# ---------------------------------------------------------------------------
# backward pass
# ---------------------------------------------------------------------------

def backward(loss: Tensor) -> dict[int, np.ndarray]:
    """Accumulate d(loss)/d(leaf) for every tracked leaf reachable from ``loss``.

    Returns a map from node id to gradient array, one entry per leaf (a
    tracked tensor with no backward rule, such as a parameter) the loss
    depends on.  Repeated use of a node sums the gradients from all its
    consumers, in decreasing consumer id.
    """
    if loss.size != 1:
        raise ValueError(f"backward: loss must be scalar, got shape {loss.shape}")
    if not loss.requires_grad:
        return {}

    # a max-heap of node ids: outputs are born after their inputs, so
    # the largest pending id has already received the share of every
    # consumer.  Leaves are never pushed: their gradients stay in ``grads``.
    grads: dict[int, np.ndarray] = {loss.node_id: np.ones_like(loss.data)}
    heap = [] if loss._backward is None else [(-loss.node_id, loss)]
    pop, push, get, take = heapq.heappop, heapq.heappush, grads.get, grads.pop
    while heap:
        t = pop(heap)[1]
        for parent, pg in zip(t._parents, t._backward(take(t.node_id))):
            if pg is None or not parent.requires_grad:
                continue
            pid = parent.node_id
            acc = get(pid)
            if acc is None:
                grads[pid] = pg
                if parent._backward is not None:
                    push(heap, (-pid, parent))
            else:
                grads[pid] = acc + pg
    return grads


# ---------------------------------------------------------------------------
# gradient verification
# ---------------------------------------------------------------------------

def finite_difference(f: Callable[[], float], params: Sequence[Tensor], eps: float = 1e-5) -> list[np.ndarray]:
    """Central-difference gradients of a scalar function of ``params``.

    ``f`` is re-evaluated with each parameter coordinate perturbed in
    place by +/- eps; parameters are restored afterwards.
    """
    grads = []
    for p in params:
        flat = p.data.reshape(-1)
        g = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up = float(f())
            flat[i] = orig - eps
            down = float(f())
            flat[i] = orig
            g[i] = (up - down) / (2.0 * eps)
        grads.append(g.reshape(p.shape))
    return grads


def check_gradients(f: Callable[[Tensor], Tensor], point: Tensor, eps: float = 1e-5) -> float:
    """Max relative error between reverse-mode and central-difference gradients.

    Relative error per coordinate is |analytic - numeric| / max(1, |analytic|);
    ``f`` must be scalar-valued and evaluable at point +/- eps perturbations.
    """
    p = Tensor(np.array(point.data, copy=True), requires_grad=True)
    loss = f(p)
    grads = backward(loss)
    analytic = grads.get(p.node_id, np.zeros_like(p.data))
    numeric = finite_difference(lambda: f(Tensor(p.data)).item(), [p], eps=eps)[0]
    rel = np.abs(analytic - numeric) / np.maximum(1.0, np.abs(analytic))
    return float(rel.max())
