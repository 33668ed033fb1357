"""Minimal fp64 tensor engine with a reverse-mode differentiation tape.

Tensors wrap C-contiguous float64 ndarrays. A closed set of primitives
(see PrimitiveKind) covers everything the model needs; each primitive
records a vector-Jacobian closure on the active tape. Running a primitive
with no active tape just computes the value, which is how inference runs.

Every primitive output is checked for finiteness; NaN or Inf anywhere is
an error, never a silent state.
"""

from __future__ import annotations

import threading
from enum import Enum
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import NonFiniteError, ShapeError, TapeError


class PrimitiveKind(Enum):
    MATMUL = "matmul"
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    DIV = "div"
    CONCAT_LAST = "concat_last"
    CAUSAL_CONV1D = "causal_conv1d"
    LAYER_NORM = "layer_norm"
    LEAKY_RELU = "leaky_relu"
    RELU = "relu"
    SIGMOID = "sigmoid"
    TANH = "tanh"
    SOFTMAX = "softmax"
    DROPOUT = "dropout"
    MEAN = "mean"
    SUM = "sum"
    CLIP = "clip"
    SQRT = "sqrt"
    GATHER_ROWS = "gather_rows"
    MASKED_SELECT = "masked_select"
    SCATTER_ROWS = "scatter_rows"


class Tensor:
    """Dense fp64 array, optionally tracked on a tape via node_id."""

    __slots__ = ("data", "node_id", "_tape_token")

    def __init__(self, data, node_id: int | None = None, _tape_token: int | None = None):
        # ascontiguousarray would promote 0-d to 1-d, so only call it when needed
        arr = np.asarray(data, dtype=np.float64)
        if not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)
        if not np.isfinite(arr).all():
            raise NonFiniteError("tensor constructed with non-finite values")
        self.data = arr
        self.node_id = node_id
        self._tape_token = _tape_token

    @classmethod
    def _wrap_checked(cls, arr: np.ndarray, node_id: int | None = None,
                      tape_token: int | None = None) -> "Tensor":
        """Wrap a C-contiguous float64 array the caller has already found finite."""
        out = cls.__new__(cls)
        out.data = arr
        out.node_id = node_id
        out._tape_token = tape_token
        return out

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, node_id={self.node_id})"


_STATE = threading.local()
_TAPE_COUNTER = [0]


def _tape_stack() -> list:
    stack = getattr(_STATE, "stack", None)
    if stack is None:
        stack = []
        _STATE.stack = stack
    return stack


def active_tape() -> "Tape | None":
    stack = _tape_stack()
    return stack[-1] if stack else None


class _Node:
    __slots__ = ("kind", "input_ids", "vjp")

    def __init__(self, kind, input_ids, vjp):
        self.kind = kind
        self.input_ids = input_ids
        self.vjp = vjp


class Tape:
    """Records primitive applications for reverse-mode differentiation.

    Use as a context manager; the innermost tape is the active one.
    Single-threaded by design (the active stack is thread-local).
    """

    def __init__(self):
        _TAPE_COUNTER[0] += 1
        self._token = _TAPE_COUNTER[0]
        self._nodes: list[_Node] = []
        self.gradients: dict[int, np.ndarray] = {}

    def __enter__(self) -> "Tape":
        _tape_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        stack = _tape_stack()
        if not stack or stack[-1] is not self:
            raise TapeError("tape exited out of order")
        stack.pop()

    def watch(self, tensor: Tensor) -> int:
        """Ensure the tensor has a node on this tape; return its id."""
        if tensor._tape_token == self._token and tensor.node_id is not None:
            return tensor.node_id
        node_id = len(self._nodes)
        self._nodes.append(_Node(None, (), None))
        tensor.node_id = node_id
        tensor._tape_token = self._token
        return node_id

    def _record(self, kind: PrimitiveKind, input_ids: tuple[int, ...], vjp) -> int:
        node_id = len(self._nodes)
        self._nodes.append(_Node(kind, input_ids, vjp))
        return node_id

    def grad(self, tensor: Tensor) -> np.ndarray | None:
        """Gradient for a tensor after backward(), or None if unreached."""
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
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


# ---------------------------------------------------------------------------
# forward + VJP builders, one per primitive
#
# Each builder takes the input arrays and validated attrs and returns
# (out_array, vjp) where vjp maps the output cotangent to a list of
# per-input cotangents (None for non-differentiable inputs).
# ---------------------------------------------------------------------------


def _fw_matmul(inputs, attrs):
    a, b = inputs
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError("matmul operands must have at least 2 dimensions")
    ta = attrs.get("transpose_a", False)
    tb = attrs.get("transpose_b", False)
    ae = np.swapaxes(a, -1, -2) if ta else a
    be = np.swapaxes(b, -1, -2) if tb else b
    if ae.shape[-1] != be.shape[-2]:
        raise ShapeError(
            f"matmul inner dims disagree: {ae.shape} vs {be.shape}"
        )
    out = np.matmul(ae, be)

    def vjp(g):
        da_e = np.matmul(g, np.swapaxes(be, -1, -2))
        db_e = np.matmul(np.swapaxes(ae, -1, -2), g)
        da_e = _unbroadcast(da_e, ae.shape)
        db_e = _unbroadcast(db_e, be.shape)
        da = np.swapaxes(da_e, -1, -2) if ta else da_e
        db = np.swapaxes(db_e, -1, -2) if tb else db_e
        return [da, db]

    return out, vjp


def _fw_add(inputs, attrs):
    a, b = inputs
    out = a + b

    def vjp(g):
        return [_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)]

    return out, vjp


def _fw_sub(inputs, attrs):
    a, b = inputs
    out = a - b

    def vjp(g):
        return [_unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)]

    return out, vjp


def _fw_mul(inputs, attrs):
    a, b = inputs
    out = a * b

    def vjp(g):
        return [_unbroadcast(g * b, a.shape), _unbroadcast(g * a, b.shape)]

    return out, vjp


def _fw_div(inputs, attrs):
    a, b = inputs
    out = a / b

    def vjp(g):
        return [
            _unbroadcast(g / b, a.shape),
            _unbroadcast(-g * a / (b * b), b.shape),
        ]

    return out, vjp


def _fw_concat_last(inputs, attrs):
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


def _fw_causal_conv1d(inputs, attrs):
    # x: [T, N, Cin], w: [K, Cin, Cout], b: [Cout]; left zero padding,
    # stride 1, so out[t] sees x[t-K+1 .. t] only.
    x, w, b = inputs
    if x.ndim != 3 or w.ndim != 3 or b.ndim != 1:
        raise ShapeError("causal_conv1d wants x[T,N,Cin], w[K,Cin,Cout], b[Cout]")
    if w.shape[1] != x.shape[2] or b.shape[0] != w.shape[2]:
        raise ShapeError(
            f"causal_conv1d channel mismatch: x{x.shape} w{w.shape} b{b.shape}"
        )
    T = x.shape[0]
    K = w.shape[0]
    out = np.zeros((T, x.shape[1], w.shape[2]))
    for j in range(K):
        if j >= T:
            break
        out[j:] += np.matmul(x[: T - j], w[j])
    out += b

    def vjp(g):
        dx = np.zeros_like(x)
        dw = np.zeros_like(w)
        for j in range(K):
            if j >= T:
                break
            dx[: T - j] += np.matmul(g[j:], w[j].T)
            dw[j] = np.einsum("tni,tno->io", x[: T - j], g[j:])
        db = g.sum(axis=(0, 1))
        return [dx, dw, db]

    return out, vjp


def _fw_layer_norm(inputs, attrs):
    x, gamma, beta = inputs
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeError("layer_norm gamma/beta must match the last axis")
    eps = attrs.get("eps", 1e-5)
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = gamma * xhat + beta

    def vjp(g):
        dgamma = (g * xhat).reshape(-1, d).sum(axis=0)
        dbeta = g.reshape(-1, d).sum(axis=0)
        dxhat = g * gamma
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        dx = inv * (dxhat - m1 - xhat * m2)
        return [dx, dgamma, dbeta]

    return out, vjp


def _fw_leaky_relu(inputs, attrs):
    (x,) = inputs
    slope = attrs["slope"]
    out = np.where(x > 0, x, slope * x)

    def vjp(g):
        return [g * np.where(x > 0, 1.0, slope)]

    return out, vjp


def _fw_relu(inputs, attrs):
    (x,) = inputs
    out = np.maximum(x, 0.0)

    def vjp(g):
        # subgradient 0 at the kink
        return [g * (x > 0)]

    return out, vjp


def _fw_sigmoid(inputs, attrs):
    (x,) = inputs
    s = _stable_sigmoid(x)

    def vjp(g):
        return [g * s * (1.0 - s)]

    return s, vjp


def _fw_tanh(inputs, attrs):
    (x,) = inputs
    t = np.tanh(x)

    def vjp(g):
        return [g * (1.0 - t * t)]

    return t, vjp


def _fw_softmax(inputs, attrs):
    (x,) = inputs
    axis = attrs["axis"]
    shifted = x - x.max(axis=axis, keepdims=True)
    ex = np.exp(shifted)
    s = ex / ex.sum(axis=axis, keepdims=True)

    def vjp(g):
        dot = (g * s).sum(axis=axis, keepdims=True)
        return [s * (g - dot)]

    return s, vjp


def _fw_dropout(inputs, attrs):
    (x,) = inputs
    rate = attrs["rate"]
    training = attrs.get("training", False)
    if not 0.0 <= rate < 1.0:
        raise ShapeError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        out = x.copy()

        def vjp(g):
            return [g]

        return out, vjp
    rng = attrs.get("rng")
    if rng is None:
        raise TapeError("dropout in training mode needs an rng attr")
    # inverted dropout: scale kept units by 1/(1-rate) at train time
    mask = (rng.random(x.shape) >= rate) / (1.0 - rate)
    out = x * mask

    def vjp(g):
        return [g * mask]

    return out, vjp


def _fw_mean(inputs, attrs):
    (x,) = inputs
    axis = attrs.get("axis")
    keepdims = attrs.get("keepdims", False)
    out = x.mean(axis=axis, keepdims=keepdims)
    n = x.size if axis is None else x.shape[axis]

    def vjp(g):
        gg = np.asarray(g)
        if axis is not None and not keepdims:
            gg = np.expand_dims(gg, axis)
        return [np.broadcast_to(gg, x.shape) / n]

    return out, vjp


def _fw_sum(inputs, attrs):
    (x,) = inputs
    axis = attrs.get("axis")
    keepdims = attrs.get("keepdims", False)
    out = x.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        gg = np.asarray(g)
        if axis is not None and not keepdims:
            gg = np.expand_dims(gg, axis)
        return [np.broadcast_to(gg, x.shape).copy()]

    return out, vjp


def _fw_clip(inputs, attrs):
    (x,) = inputs
    lo = attrs["lo"]
    hi = attrs["hi"]
    if lo > hi:
        raise ShapeError(f"clip bounds inverted: lo={lo} hi={hi}")
    out = np.clip(x, lo, hi)

    def vjp(g):
        # subgradient 0 at and beyond the bounds
        return [g * ((x > lo) & (x < hi))]

    return out, vjp


def _fw_sqrt(inputs, attrs):
    (x,) = inputs
    out = np.sqrt(x)

    def vjp(g):
        return [g / (2.0 * out)]

    return out, vjp


def _fw_gather_rows(inputs, attrs):
    (x,) = inputs
    if "index" in attrs:
        idx = int(attrs["index"])
        if not -x.shape[0] <= idx < x.shape[0]:
            raise ShapeError(f"gather_rows index {idx} out of range for {x.shape}")
        out = x[idx].copy()

        def vjp(g):
            dx = np.zeros_like(x)
            dx[idx] = g
            return [dx]

        return out, vjp
    indices = np.asarray(attrs["indices"], dtype=np.int64)
    if indices.ndim != 1:
        raise ShapeError("gather_rows indices must be a 1-D sequence")
    if indices.size and (indices.min() < -x.shape[0] or indices.max() >= x.shape[0]):
        raise ShapeError("gather_rows indices out of range")
    out = x[indices].copy()

    def vjp(g):
        dx = np.zeros_like(x)
        np.add.at(dx, indices, g)
        return [dx]

    return out, vjp


def _fw_masked_select(inputs, attrs):
    (x,) = inputs
    mask = np.asarray(attrs["mask"], dtype=bool)
    if mask.shape != x.shape:
        raise ShapeError(f"mask shape {mask.shape} != tensor shape {x.shape}")
    out = x[mask].copy()

    def vjp(g):
        dx = np.zeros_like(x)
        dx[mask] = g
        return [dx]

    return out, vjp


def _fw_scatter_rows(inputs, attrs):
    (x,) = inputs
    indices = np.asarray(attrs["indices"], dtype=np.int64)
    num_rows = int(attrs["num_rows"])
    if indices.ndim != 1 or indices.shape[0] != x.shape[0]:
        raise ShapeError("scatter_rows needs one index per input row")
    if indices.size and (indices.min() < 0 or indices.max() >= num_rows):
        raise ShapeError("scatter_rows indices out of range")
    out = np.zeros((num_rows,) + x.shape[1:])
    np.add.at(out, indices, x)

    def vjp(g):
        return [g[indices]]

    return out, vjp


# kind -> (builder, required attr names, optional attr names)
_REGISTRY: dict[PrimitiveKind, tuple[Callable, frozenset, frozenset]] = {
    PrimitiveKind.MATMUL: (_fw_matmul, frozenset(), frozenset({"transpose_a", "transpose_b"})),
    PrimitiveKind.ADD: (_fw_add, frozenset(), frozenset()),
    PrimitiveKind.SUB: (_fw_sub, frozenset(), frozenset()),
    PrimitiveKind.MUL: (_fw_mul, frozenset(), frozenset()),
    PrimitiveKind.DIV: (_fw_div, frozenset(), frozenset()),
    PrimitiveKind.CONCAT_LAST: (_fw_concat_last, frozenset(), frozenset()),
    PrimitiveKind.CAUSAL_CONV1D: (_fw_causal_conv1d, frozenset(), frozenset()),
    PrimitiveKind.LAYER_NORM: (_fw_layer_norm, frozenset(), frozenset({"eps"})),
    PrimitiveKind.LEAKY_RELU: (_fw_leaky_relu, frozenset({"slope"}), frozenset()),
    PrimitiveKind.RELU: (_fw_relu, frozenset(), frozenset()),
    PrimitiveKind.SIGMOID: (_fw_sigmoid, frozenset(), frozenset()),
    PrimitiveKind.TANH: (_fw_tanh, frozenset(), frozenset()),
    PrimitiveKind.SOFTMAX: (_fw_softmax, frozenset({"axis"}), frozenset()),
    PrimitiveKind.DROPOUT: (_fw_dropout, frozenset({"rate"}), frozenset({"training", "rng"})),
    PrimitiveKind.MEAN: (_fw_mean, frozenset(), frozenset({"axis", "keepdims"})),
    PrimitiveKind.SUM: (_fw_sum, frozenset(), frozenset({"axis", "keepdims"})),
    PrimitiveKind.CLIP: (_fw_clip, frozenset({"lo", "hi"}), frozenset()),
    PrimitiveKind.SQRT: (_fw_sqrt, frozenset(), frozenset()),
    PrimitiveKind.GATHER_ROWS: (_fw_gather_rows, frozenset(), frozenset({"index", "indices"})),
    PrimitiveKind.MASKED_SELECT: (_fw_masked_select, frozenset({"mask"}), frozenset()),
    PrimitiveKind.SCATTER_ROWS: (_fw_scatter_rows, frozenset({"indices", "num_rows"}), frozenset()),
}


def apply_primitive(
    kind: PrimitiveKind,
    inputs: Sequence[Tensor],
    attrs: dict | None = None,
) -> Tensor:
    """Run one primitive, recording it on the active tape if any."""
    attrs = dict(attrs) if attrs else {}
    try:
        builder, required, optional = _REGISTRY[kind]
    except KeyError:
        raise TapeError(f"unknown primitive kind: {kind!r}") from None
    allowed = required | optional
    for key in attrs:
        if key not in allowed:
            raise TapeError(f"{kind.value}: unknown attr {key!r}")
    missing = required - attrs.keys()
    if missing:
        raise TapeError(f"{kind.value}: missing attrs {sorted(missing)}")
    if kind is PrimitiveKind.GATHER_ROWS and ("index" in attrs) == ("indices" in attrs):
        raise TapeError("gather_rows takes exactly one of index / indices")

    arrays = [t.data for t in inputs]
    # overflow/invalid become NaN or Inf and are caught by the finite check
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out, vjp = builder(arrays, attrs)
    out = np.asarray(out, dtype=np.float64)
    if not out.flags["C_CONTIGUOUS"]:
        out = np.ascontiguousarray(out)
    if not np.isfinite(out).all():
        raise NonFiniteError(f"{kind.value} produced non-finite values")

    tape = active_tape()
    if tape is None:
        return Tensor._wrap_checked(out)
    input_ids = tuple(tape.watch(t) for t in inputs)
    node_id = tape._record(kind, input_ids, vjp)
    return Tensor._wrap_checked(out, node_id=node_id, tape_token=tape._token)


def backward(loss: Tensor) -> dict[int, Tensor]:
    """Reverse sweep from a scalar loss over the active tape.

    Fills tape.gradients (node_id -> ndarray) and returns the same map
    with Tensor values. Every reachable node gets a gradient of its own
    shape; unreachable nodes are absent.
    """
    tape = active_tape()
    if tape is None:
        raise TapeError("backward() needs an active tape")
    if loss._tape_token != tape._token or loss.node_id is None:
        raise TapeError("loss tensor is not on the active tape")
    if loss.data.size != 1:
        raise TapeError(f"loss must be scalar, got shape {loss.shape}")

    grads: dict[int, np.ndarray] = {loss.node_id: np.ones_like(loss.data)}
    for node_id in range(loss.node_id, -1, -1):
        g = grads.get(node_id)
        if g is None:
            continue
        node = tape._nodes[node_id]
        if node.vjp is None:
            continue
        input_grads = node.vjp(g)
        for in_id, ig in zip(node.input_ids, input_grads):
            if ig is None:
                continue
            if not np.isfinite(ig).all():
                raise NonFiniteError(
                    f"non-finite gradient out of {node.kind.value}"
                )
            acc = grads.get(in_id)
            grads[in_id] = ig.copy() if acc is None else acc + ig

    tape.gradients = grads
    return {nid: Tensor(g) for nid, g in grads.items()}


# ---------------------------------------------------------------------------
# convenience wrappers
# ---------------------------------------------------------------------------


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def matmul(a, b, transpose_a: bool = False, transpose_b: bool = False) -> Tensor:
    attrs = {}
    if transpose_a:
        attrs["transpose_a"] = True
    if transpose_b:
        attrs["transpose_b"] = True
    return apply_primitive(PrimitiveKind.MATMUL, [_as_tensor(a), _as_tensor(b)], attrs)


def add(a, b) -> Tensor:
    return apply_primitive(PrimitiveKind.ADD, [_as_tensor(a), _as_tensor(b)])


def sub(a, b) -> Tensor:
    return apply_primitive(PrimitiveKind.SUB, [_as_tensor(a), _as_tensor(b)])


def mul(a, b) -> Tensor:
    return apply_primitive(PrimitiveKind.MUL, [_as_tensor(a), _as_tensor(b)])


def div(a, b) -> Tensor:
    return apply_primitive(PrimitiveKind.DIV, [_as_tensor(a), _as_tensor(b)])


def concat_last(tensors: Iterable) -> Tensor:
    return apply_primitive(PrimitiveKind.CONCAT_LAST, [_as_tensor(t) for t in tensors])


def causal_conv1d(x, w, b) -> Tensor:
    return apply_primitive(
        PrimitiveKind.CAUSAL_CONV1D, [_as_tensor(x), _as_tensor(w), _as_tensor(b)]
    )


def layer_norm(x, gamma, beta, eps: float = 1e-5) -> Tensor:
    return apply_primitive(
        PrimitiveKind.LAYER_NORM,
        [_as_tensor(x), _as_tensor(gamma), _as_tensor(beta)],
        {"eps": eps},
    )


def leaky_relu(x, slope: float = 0.2) -> Tensor:
    return apply_primitive(PrimitiveKind.LEAKY_RELU, [_as_tensor(x)], {"slope": slope})


def relu(x) -> Tensor:
    return apply_primitive(PrimitiveKind.RELU, [_as_tensor(x)])


def sigmoid(x) -> Tensor:
    return apply_primitive(PrimitiveKind.SIGMOID, [_as_tensor(x)])


def tanh(x) -> Tensor:
    return apply_primitive(PrimitiveKind.TANH, [_as_tensor(x)])


def softmax(x, axis: int = -1) -> Tensor:
    return apply_primitive(PrimitiveKind.SOFTMAX, [_as_tensor(x)], {"axis": axis})


def dropout(x, rate: float, training: bool = False, rng=None) -> Tensor:
    attrs = {"rate": rate, "training": training}
    if rng is not None:
        attrs["rng"] = rng
    return apply_primitive(PrimitiveKind.DROPOUT, [_as_tensor(x)], attrs)


def mean(x, axis: int | None = None, keepdims: bool = False) -> Tensor:
    return apply_primitive(
        PrimitiveKind.MEAN, [_as_tensor(x)], {"axis": axis, "keepdims": keepdims}
    )


def tensor_sum(x, axis: int | None = None, keepdims: bool = False) -> Tensor:
    return apply_primitive(
        PrimitiveKind.SUM, [_as_tensor(x)], {"axis": axis, "keepdims": keepdims}
    )


def clip(x, lo: float, hi: float) -> Tensor:
    return apply_primitive(PrimitiveKind.CLIP, [_as_tensor(x)], {"lo": lo, "hi": hi})


def sqrt(x) -> Tensor:
    return apply_primitive(PrimitiveKind.SQRT, [_as_tensor(x)])


def gather_row(x, index: int) -> Tensor:
    return apply_primitive(PrimitiveKind.GATHER_ROWS, [_as_tensor(x)], {"index": index})


def gather_rows(x, indices) -> Tensor:
    return apply_primitive(
        PrimitiveKind.GATHER_ROWS, [_as_tensor(x)], {"indices": list(indices)}
    )


def masked_select(x, mask) -> Tensor:
    return apply_primitive(PrimitiveKind.MASKED_SELECT, [_as_tensor(x)], {"mask": mask})


def scatter_rows(x, indices, num_rows: int) -> Tensor:
    return apply_primitive(
        PrimitiveKind.SCATTER_ROWS,
        [_as_tensor(x)],
        {"indices": list(indices), "num_rows": num_rows},
    )


# ---------------------------------------------------------------------------
# gradient verification
# ---------------------------------------------------------------------------


def finite_difference_check(f, point: Tensor, step: float = 1e-6) -> float:
    """Max relative error between tape gradients of f and central differences.

    f maps one Tensor to a scalar Tensor and must be deterministic
    (run dropout in eval mode). Relative error per coordinate is
    |analytic - numeric| / max(1, |analytic|).
    """
    with Tape() as tape:
        out = f(point)
        backward(out)
        analytic = tape.grad(point)
    if analytic is None:
        analytic = np.zeros_like(point.data)

    base = point.data.copy()
    flat = base.reshape(-1)
    worst = 0.0
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        hi = f(Tensor(base)).item()
        flat[i] = orig - step
        lo = f(Tensor(base)).item()
        flat[i] = orig
        numeric = (hi - lo) / (2.0 * step)
        a = analytic.reshape(-1)[i]
        err = abs(a - numeric) / max(1.0, abs(a))
        if err > worst:
            worst = err
    return worst


def finite_difference_check_params(
    f, params: Sequence[Tensor], step: float = 1e-6
) -> float:
    """finite_difference_check generalized to a list of parameter tensors.

    f() takes no arguments and reads the params by reference, so central
    differences are taken by perturbing each param in place.
    """
    with Tape() as tape:
        out = f()
        backward(out)
        analytic = [tape.grad(p) for p in params]

    worst = 0.0
    for p, an in zip(params, analytic):
        if an is None:
            an = np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        aflat = an.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            hi = f().item()
            flat[i] = orig - step
            lo = f().item()
            flat[i] = orig
            numeric = (hi - lo) / (2.0 * step)
            err = abs(aflat[i] - numeric) / max(1.0, abs(aflat[i]))
            if err > worst:
                worst = err
    return worst
