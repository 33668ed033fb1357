"""Minimal fp64 tensor engine with a reverse-mode differentiation tape.

Tensors wrap C-contiguous float64 ndarrays. The closed set of 14
primitives (see PrimitiveKind) holds exactly what the model and its
losses run, and nothing another kind already computes: selection and
gathers are INDEX, the GAT's neighbor sum is NEIGHBOR_SUM (no gather is
held), the fluctuation branch's causal convolution is a broadcast MATMUL
over stacked lags plus a SUM, ReLU is LEAKY_RELU at slope 0, a mean is
SUM then DIV, a difference adds the operand times -1, and dropout is a
MUL by a mask the model draws.
A primitive takes Tensors, and its attributes (a slope, an axis, an
INDEX key) as keyword arguments. INDEX takes any key numpy takes, lets
numpy check it, and scatter-adds its gradient.

A thread has at most one active tape; tapes do not nest.
Differentiation starts from watched leaves: `tape.watch(t)` gives a
tensor a node on the tape, and `train` watches every parameter before
its forward pass. A primitive records a vector-Jacobian closure only
when some input is already on the active tape, a watched leaf or a
recorded output, so an op whose inputs are all constants (masks,
labels, pool matrices, raw features) computes its value and records
nothing. Running a primitive with no active tape just computes the
value, which is how inference runs. A recorded closure holds only the
arrays its VJP reads: a shape or a sign mask stands in for an input
whose values it never reads, and an operand that only a constant's
gradient would read is let go at forward time. `backward` fills
gradients for the watched leaves the loss reaches and drops every
interior gradient once it has been passed on.

Every primitive output passes the Tensor constructor's finiteness check;
NaN or Inf anywhere is an error naming the kind, never a silent state.
"""

from __future__ import annotations

import math
import threading
from enum import Enum
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import NonFiniteError, ShapeError, TapeError

# added to the row variance before LAYER_NORM takes its square root
LAYER_NORM_EPS = 1e-5

# cells of one block of the k-NN build's similarity and keys (one window)
# or of NEIGHBOR_SUM's gathered rows (every window of the batch): 512 KiB
# of float64, whatever B and N are (at least one row)
TOPK_BLOCK_CELLS = 65_536


def row_blocks(rows: int, width: int) -> list[slice]:
    """Successive slices of `rows` rows, each TOPK_BLOCK_CELLS // width
    rows of `width` cells (at least one row)."""
    step = max(1, TOPK_BLOCK_CELLS // max(width, 1))
    return [slice(start, min(start + step, rows)) for start in range(0, rows, step)]


class PrimitiveKind(Enum):
    MATMUL = "matmul"
    ADD = "add"
    MUL = "mul"
    DIV = "div"
    CONCAT_LAST = "concat_last"
    LAYER_NORM = "layer_norm"
    LEAKY_RELU = "leaky_relu"
    SIGMOID = "sigmoid"
    TANH = "tanh"
    SOFTMAX = "softmax"
    SUM = "sum"
    SQRT = "sqrt"
    INDEX = "index"
    NEIGHBOR_SUM = "neighbor_sum"


class Tensor:
    """Dense fp64 array, optionally tracked on a tape via node_id."""

    __slots__ = ("data", "node_id", "_tape_token")

    def __init__(self, data):
        # ascontiguousarray would promote 0-d to 1-d, so only call it when needed
        arr = np.asarray(data, dtype=np.float64)
        if not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)
        if not np.isfinite(arr).all():
            raise NonFiniteError("tensor constructed with non-finite values")
        self.data = arr
        self.node_id = None
        self._tape_token = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, node_id={self.node_id})"


_STATE = threading.local()
_TAPE_COUNTER = [0]


def active_tape() -> "Tape | None":
    return getattr(_STATE, "tape", None)


class _Node:
    __slots__ = ("kind", "input_ids", "vjp")

    def __init__(self, kind, input_ids, vjp):
        self.kind = kind
        self.input_ids = input_ids
        self.vjp = vjp


class Tape:
    """Records primitive applications for reverse-mode differentiation.

    Use as a context manager. A thread has at most one active tape, so
    entering a tape while another is active is a TapeError.
    """

    def __init__(self):
        _TAPE_COUNTER[0] += 1
        self._token = _TAPE_COUNTER[0]
        self._nodes: list[_Node] = []
        self._swept = False
        self.gradients: dict[int, np.ndarray] = {}

    def __enter__(self) -> "Tape":
        if active_tape() is not None:
            raise TapeError("a tape is already active; tapes do not nest")
        _STATE.tape = self
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _STATE.tape = None

    def watch(self, tensor: Tensor) -> int:
        """Make the tensor a leaf of this tape, so that backward() gives it
        a gradient and ops that read it are recorded; return its node id."""
        if tensor._tape_token == self._token and tensor.node_id is not None:
            return tensor.node_id
        tensor.node_id = self._record(None, (), None)
        tensor._tape_token = self._token
        return tensor.node_id

    def _record(self, kind: PrimitiveKind | None, input_ids: tuple[int, ...], vjp) -> int:
        node_id = len(self._nodes)
        self._nodes.append(_Node(kind, input_ids, vjp))
        return node_id

    def grad(self, tensor: Tensor) -> np.ndarray | None:
        """Gradient of a watched tensor after backward(), or None if the
        tensor is not watched or the loss does not reach it."""
        if tensor._tape_token != self._token or tensor.node_id is None:
            return None
        return self.gradients.get(tensor.node_id)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum grad down to `shape`, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    # exp(-|x|) is exp(-x) where x >= 0 and exp(x) elsewhere, so both
    # branches see the same operands as when computed on their own halves
    ex = np.exp(-np.abs(x))
    den = 1.0 + ex
    return np.where(x >= 0, 1.0 / den, ex / den)


# ---------------------------------------------------------------------------
# forward + VJP builders, one per primitive
#
# Each builder takes the input arrays, `needs` (needs[i] is True when
# input i is on the active tape, all False with no tape) and its
# attributes as keyword parameters, and returns (out_array, vjp). vjp(g)
# maps the output cotangent to a list of per-input cotangents, None for
# an input that does not need one. The closure keeps only what vjp reads:
# a shape or a sign mask in place of an input it reads no value of, and
# no operand that only an unneeded cotangent reads.
# ---------------------------------------------------------------------------


def _fw_matmul(inputs, needs):
    a, b = inputs
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError("matmul operands must have at least 2 dimensions")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(
            f"matmul inner dims disagree: {a.shape} vs {b.shape}"
        )
    out = np.matmul(a, b)
    (na, nb), sa, sb = needs, a.shape, b.shape
    # each operand's cotangent reads only the other operand
    a, b = (a if nb else None), (b if na else None)

    def vjp(g):
        return [_unbroadcast(np.matmul(g, np.swapaxes(b, -1, -2)), sa) if na else None,
                _unbroadcast(np.matmul(np.swapaxes(a, -1, -2), g), sb) if nb else None]

    return out, vjp


def _fw_add(inputs, needs):
    a, b = inputs
    out = a + b
    sa, sb = a.shape, b.shape

    def vjp(g):
        return [_unbroadcast(g, sa), _unbroadcast(g, sb)]

    return out, vjp


def _fw_mul(inputs, needs):
    a, b = inputs
    out = a * b
    (na, nb), sa, sb = needs, a.shape, b.shape
    a, b = (a if nb else None), (b if na else None)

    def vjp(g):
        return [_unbroadcast(g * b, sa) if na else None,
                _unbroadcast(g * a, sb) if nb else None]

    return out, vjp


def _fw_div(inputs, needs):
    a, b = inputs
    out = a / b
    (na, nb), sa, sb = needs, a.shape, b.shape
    a = a if nb else None  # only b's cotangent reads a

    def vjp(g):
        return [_unbroadcast(g / b, sa) if na else None,
                _unbroadcast(-g * a / (b * b), sb) if nb else None]

    return out, vjp


def _fw_concat_last(inputs, needs):
    base = inputs[0].shape[:-1]
    for x in inputs[1:]:
        if x.shape[:-1] != base:
            raise ShapeError("concat_last operands disagree on leading dims")
    sizes = [x.shape[-1] for x in inputs]
    out = np.concatenate(inputs, axis=-1)

    def vjp(g):
        grads = []
        ofs = 0
        for n in sizes:
            grads.append(g[..., ofs:ofs + n])
            ofs += n
        return grads

    return out, vjp


def _fw_layer_norm(inputs, needs):
    x, gamma, beta = inputs
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeError("layer_norm gamma/beta must match the last axis")
    xhat = x - x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((xhat * xhat).mean(axis=-1, keepdims=True) + LAYER_NORM_EPS)
    xhat *= inv
    out = gamma * xhat
    out += beta

    def vjp(g):
        dgamma = (g * xhat).reshape(-1, d).sum(axis=0)
        dbeta = g.reshape(-1, d).sum(axis=0)
        dxhat = g * gamma
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        dx = inv * (dxhat - m1 - xhat * m2)
        return [dx, dgamma, dbeta]

    return out, vjp


def _fw_leaky_relu(inputs, needs, slope):
    (x,) = inputs
    # for 0 <= slope < 1 this is where(x > 0, x, slope * x) bit for bit,
    # signed zeros included, in a fraction of the time
    if not 0.0 <= slope < 1.0:
        raise TapeError(f"leaky_relu: slope must be in [0, 1), got {slope!r}")
    out = np.maximum(x, slope * x)
    positive = x > 0

    def vjp(g):
        return [g * np.where(positive, 1.0, slope)]

    return out, vjp


def _fw_sigmoid(inputs, needs):
    (x,) = inputs
    s = _stable_sigmoid(x)

    def vjp(g):
        return [g * s * (1.0 - s)]

    return s, vjp


def _fw_tanh(inputs, needs):
    (x,) = inputs
    t = np.tanh(x)

    def vjp(g):
        return [g * (1.0 - t * t)]

    return t, vjp


def _fw_softmax(inputs, needs, axis):
    (x,) = inputs
    shifted = x - x.max(axis=axis, keepdims=True)
    ex = np.exp(shifted)
    s = ex / ex.sum(axis=axis, keepdims=True)

    def vjp(g):
        dot = (g * s).sum(axis=axis, keepdims=True)
        return [s * (g - dot)]

    return s, vjp


def _fw_sum(inputs, needs, axis=None, keepdims=False):
    (x,) = inputs
    out = x.sum(axis=axis, keepdims=keepdims)
    shape = x.shape

    def vjp(g):
        gg = np.asarray(g)
        if axis is not None and not keepdims:
            gg = np.expand_dims(gg, axis)
        return [np.broadcast_to(gg, shape).copy()]

    return out, vjp


def _fw_sqrt(inputs, needs):
    (x,) = inputs
    out = np.sqrt(x)

    def vjp(g):
        return [g / (2.0 * out)]

    return out, vjp


def _fw_index(inputs, needs, key):
    # numpy checks the key. Every key's VJP scatter-adds, so an element
    # that an integer array or list selects more than once sums its
    # cotangents, in element order
    (x,) = inputs
    out = x[key]
    if np.may_share_memory(out, x):  # a basic key gives a view
        out = out.copy()
    shape, size = x.shape, x.size

    def vjp(g):
        flat = np.arange(size).reshape(shape)[key]
        dx = np.bincount(flat.reshape(-1), weights=g.reshape(-1), minlength=size)
        return [dx.reshape(shape)]

    return out, vjp


def _fw_neighbor_sum(inputs, needs, key):
    # out[..., i, :] = alpha[..., i, None, :] @ x[key][..., i, :, :], a block
    # of rows at a time, and its VJP: neither holds a [..., N, K, d] array
    alpha, x = inputs
    (na, nx), sx, d = needs, x.shape, x.shape[-1]
    row_ids = np.arange(math.prod(sx[:-1])).reshape(sx[:-1])
    ids = row_ids[key]  # numpy checks the key
    if alpha.ndim < 2 or ids.shape != alpha.shape:
        raise ShapeError(f"neighbor_sum key picks {ids.shape} rows of x for alpha {alpha.shape}")
    blocks = row_blocks(alpha.shape[-2], math.prod(alpha.shape[:-2]) * alpha.shape[-1] * d)
    out = np.empty(alpha.shape[:-1] + (d,))
    for rows in blocks:
        gathered = x.reshape(-1, d)[ids[..., rows, :]]
        out[..., rows, :] = np.matmul(alpha[..., rows, None, :], gathered)[..., 0, :]
    alpha, x = (alpha if nx else None), (x if na else None)

    def vjp(g):
        # x's cotangent scatters one column of all rows at a time, so each
        # cell sums its terms in slot order, as INDEX's scatter does
        ids = row_ids[key]  # the closure holds the key, not the [..., N, K] ids
        da, dx = (np.empty(ids.shape) if na else None), (np.empty(sx) if nx else None)
        for rows in blocks if na else ():
            gathered = x.reshape(-1, d)[ids[..., rows, :]].swapaxes(-1, -2)
            da[..., rows, :] = np.matmul(g[..., rows, None, :], gathered)[..., 0, :]
        for c in range(d) if nx else ():
            dx[..., c] = np.bincount(ids.ravel(), weights=(alpha * g[..., c, None]).ravel(),
                                     minlength=row_ids.size).reshape(row_ids.shape)
        return [da, dx]

    return out, vjp


_BUILDERS: dict[PrimitiveKind, Callable] = {
    PrimitiveKind.MATMUL: _fw_matmul,
    PrimitiveKind.ADD: _fw_add,
    PrimitiveKind.MUL: _fw_mul,
    PrimitiveKind.DIV: _fw_div,
    PrimitiveKind.CONCAT_LAST: _fw_concat_last,
    PrimitiveKind.LAYER_NORM: _fw_layer_norm,
    PrimitiveKind.LEAKY_RELU: _fw_leaky_relu,
    PrimitiveKind.SIGMOID: _fw_sigmoid,
    PrimitiveKind.TANH: _fw_tanh,
    PrimitiveKind.SOFTMAX: _fw_softmax,
    PrimitiveKind.SUM: _fw_sum,
    PrimitiveKind.SQRT: _fw_sqrt,
    PrimitiveKind.INDEX: _fw_index,
    PrimitiveKind.NEIGHBOR_SUM: _fw_neighbor_sum,
}


def apply_primitive(kind: PrimitiveKind, inputs: Sequence[Tensor], **attrs) -> Tensor:
    """Run one primitive, recording it on the active tape if any. `attrs`
    go to the kind's builder as keyword arguments, so one it does not
    take, or one it needs and is not given, is a TypeError."""
    tape = active_tape()
    token = None if tape is None else tape._token
    # an input off the active tape is a constant: no gradient flows into it
    input_ids = tuple(t.node_id if t._tape_token == token else None for t in inputs)
    needs = [i is not None for i in input_ids]
    arrays = [t.data for t in inputs]
    # overflow/invalid become NaN or Inf and are caught by the finite check
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out, vjp = _BUILDERS[kind](arrays, needs, **attrs)
    try:
        out = Tensor(out)
    except NonFiniteError:
        raise NonFiniteError(f"{kind.value} produced non-finite values") from None
    if any(needs):
        out.node_id = tape._record(kind, input_ids, vjp)
        out._tape_token = tape._token
    return out


def backward(loss: Tensor) -> None:
    """Reverse sweep from a scalar loss over the active tape.

    Fills tape.gradients (node_id -> ndarray), which tape.grad() reads,
    with a gradient of its own shape for every watched leaf the loss
    reaches. An interior node's gradient and its VJP, with the forward
    arrays the VJP reads, the only ones it holds, are dropped as soon as
    the sweep passes the node, so activations drain as the sweep goes
    and the sweep never holds more than the gradients still to be passed
    on. A tape can therefore be swept once. A VJP takes the cotangent
    alone, as its builder was told at forward time which inputs need one. A gradient may share memory with another
    (an ADD passes its output's gradient to both inputs), so all are
    read-only.
    """
    tape = active_tape()
    if tape is None:
        raise TapeError("backward() needs an active tape")
    if loss._tape_token is None:
        raise TapeError("loss depends on no watched tensor; "
                        "call tape.watch() on the tensors to differentiate")
    if loss._tape_token != tape._token:
        raise TapeError("loss tensor is not on the active tape")
    if loss.data.size != 1:
        raise TapeError(f"loss must be scalar, got shape {loss.shape}")
    if tape._swept:
        raise TapeError("backward() already ran on this tape; record a new one")
    tape._swept = True

    nodes = tape._nodes
    grads: dict[int, np.ndarray] = {loss.node_id: np.ones_like(loss.data)}
    # as in apply_primitive, a non-finite value is named by the check, not warned
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for node_id in range(loss.node_id, -1, -1):
            node = nodes[node_id]
            if node.kind is None:  # a watched leaf keeps its gradient
                continue
            vjp, node.vjp = node.vjp, None
            # every consumer has a larger id, so this gradient is complete
            g = grads.pop(node_id, None)
            if g is None:
                continue
            input_ids = node.input_ids
            input_grads = vjp(g)
            for in_id, ig in zip(input_ids, input_grads):
                if in_id is None:
                    continue
                if not np.isfinite(ig).all():
                    raise NonFiniteError(
                        f"non-finite gradient out of {node.kind.value}"
                    )
                acc = grads.get(in_id)
                grads[in_id] = ig if acc is None else acc + ig

    for g in grads.values():
        if isinstance(g, np.ndarray):  # 0-d results may be immutable scalars
            g.flags.writeable = False
    tape.gradients = grads


# ---------------------------------------------------------------------------
# convenience wrappers
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    return apply_primitive(PrimitiveKind.MATMUL, [a, b])


def add(a: Tensor, b: Tensor) -> Tensor:
    return apply_primitive(PrimitiveKind.ADD, [a, b])


def sub(a: Tensor, b: Tensor) -> Tensor:
    """a - b as a + (-1)·b, bit for bit: where b broadcasts, the -1 takes
    the output's shape, so b's cotangent is negated before it is summed
    down to b's shape (negating the sum would turn an exact +0 into -0)."""
    shape = np.broadcast_shapes(a.shape, b.shape)
    return add(a, mul(b, Tensor(-1.0 if b.shape == shape else np.full(shape, -1.0))))


def mul(a: Tensor, b: Tensor) -> Tensor:
    return apply_primitive(PrimitiveKind.MUL, [a, b])


def div(a: Tensor, b: Tensor) -> Tensor:
    return apply_primitive(PrimitiveKind.DIV, [a, b])


def concat_last(tensors: Iterable[Tensor]) -> Tensor:
    return apply_primitive(PrimitiveKind.CONCAT_LAST, list(tensors))


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    return apply_primitive(PrimitiveKind.LAYER_NORM, [x, gamma, beta])


def leaky_relu(x: Tensor, slope: float = 0.2) -> Tensor:
    return apply_primitive(PrimitiveKind.LEAKY_RELU, [x], slope=slope)


def sigmoid(x: Tensor) -> Tensor:
    return apply_primitive(PrimitiveKind.SIGMOID, [x])


def tanh(x: Tensor) -> Tensor:
    return apply_primitive(PrimitiveKind.TANH, [x])


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    return apply_primitive(PrimitiveKind.SOFTMAX, [x], axis=axis)


def tensor_sum(x: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    return apply_primitive(PrimitiveKind.SUM, [x], axis=axis, keepdims=keepdims)


def sqrt(x: Tensor) -> Tensor:
    return apply_primitive(PrimitiveKind.SQRT, [x])


def index(x: Tensor, key) -> Tensor:
    """x[key] for any key numpy takes, which numpy checks. The gradient
    scatter-adds, so an element the key selects more than once (a
    repeated integer array or list) gets the sum of its cotangents."""
    return apply_primitive(PrimitiveKind.INDEX, [x], key=key)


def neighbor_sum(alpha: Tensor, x: Tensor, key) -> Tensor:
    """Sum over k of alpha[..., i, k] x[key][..., i, k, :], key an INDEX key."""
    return apply_primitive(PrimitiveKind.NEIGHBOR_SUM, [alpha, x], key=key)
