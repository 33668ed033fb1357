"""Graph primitives: static-relation GCN, cosine k-NN graphs, masked GAT.

Static relation graphs (industry / region cliques) are plain numpy
adjacency matrices, checked once when a RelationGraphs is built; their
union is built once, on first use. The dynamic k-NN graph is rebuilt
per forward pass from the current representations; its construction is
deliberately outside the tape, so no gradient flows through neighbor
selection.

Every layer acts on leading batch axes: representations are [..., N, d]
and similarity, k-NN and attention masks [..., N, N], one [N, N] slice
per window, each computed exactly as a single window would be. A static
[N, N] relation broadcasts against the batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import tensor as tz
from .errors import ConfigError, DataError
from .tensor import Tensor


@dataclass
class RelationGraphs:
    """Static binary relation graphs over one instrument universe.

    Both graphs are checked once, here, so forward passes skip the
    N x N check. Their propagation matrices are rebuilt per pass, not
    stored: two more N x N arrays would raise peak memory at large N.
    """

    instruments: list[str]
    industry: np.ndarray  # [N, N] binary, symmetric, zero diagonal
    region: np.ndarray
    industry_labels: dict[str, str] = field(default_factory=dict)
    region_labels: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        _check_static_adjacency(self.industry)
        _check_static_adjacency(self.region)

    @cached_property
    def union(self) -> np.ndarray:
        """union_graph of the two relations, built on first use."""
        return union_graph(self.industry, self.region)


@dataclass
class DynamicGraph:
    """Directed k-NN graph: row i holds the k most similar columns."""

    adjacency: np.ndarray  # [..., N, N] of {0.0, 1.0}, zero diagonal
    similarity: np.ndarray  # [..., N, N], -inf on the diagonal


def membership_adjacency(instruments: list[str], labels: dict[str, str]) -> np.ndarray:
    """Clique adjacency: instruments sharing a category are all connected.

    An instrument without a category gets no edges.
    """
    codes: dict[str, int] = {}
    cat = np.array(
        [-1 if labels.get(inst) is None else codes.setdefault(labels[inst], len(codes))
         for inst in instruments],
        dtype=np.intp,
    )
    adj = ((cat[:, None] == cat[None, :]) & (cat[:, None] >= 0)).astype(np.float64)
    np.fill_diagonal(adj, 0.0)
    return adj


def build_relation_graphs(
    instruments: list[str],
    industry_labels: dict[str, str],
    region_labels: dict[str, str],
) -> RelationGraphs:
    return RelationGraphs(
        instruments=list(instruments),
        industry=membership_adjacency(instruments, industry_labels),
        region=membership_adjacency(instruments, region_labels),
        industry_labels=dict(industry_labels),
        region_labels=dict(region_labels),
    )


def _square(mat: np.ndarray, what: str) -> int:
    """N of a [..., N, N] array; anything else is a DataError."""
    if mat.ndim < 2 or mat.shape[-1] != mat.shape[-2]:
        raise DataError(f"{what} must be square, got {mat.shape}")
    return mat.shape[-1]


def _fill_diagonal(mat: np.ndarray, value) -> None:
    """np.fill_diagonal on every [N, N] slice of `mat`."""
    idx = np.arange(mat.shape[-1])
    mat[..., idx, idx] = value


def _check_static_adjacency(adj: np.ndarray) -> np.ndarray:
    adj = np.asarray(adj, dtype=np.float64)
    if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
        raise DataError(f"adjacency must be square, got {adj.shape}")
    if not np.isin(adj, (0.0, 1.0)).all():
        raise DataError("adjacency entries must be 0 or 1")
    if np.diag(adj).any():
        raise DataError("adjacency diagonal must be zero")
    if not np.array_equal(adj, adj.T):
        raise DataError("static adjacency must be symmetric")
    return adj


def normalized_adjacency(adj: np.ndarray) -> np.ndarray:
    """Symmetric propagation matrix with self-loops.

    With At = A + I and Dt its degree, returns Dt^{-1/2} At Dt^{-1/2}.
    An isolated node keeps self-loop weight 1.
    """
    return _propagation(_check_static_adjacency(adj))


def _propagation(adj: np.ndarray) -> np.ndarray:
    """`normalized_adjacency` of an adjacency that passed the check.

    With d_i = 1 / sqrt(deg_i), an edge or diagonal entry is d_i * d_j
    and any other entry is 0: the floats of scaling A + I by rows, then
    columns, written with one N x N array.
    """
    inv_sqrt = 1.0 / np.sqrt(adj.sum(axis=1) + 1.0)
    out = np.outer(inv_sqrt, inv_sqrt)
    out *= adj
    np.fill_diagonal(out, inv_sqrt * inv_sqrt)
    return out


def union_graph(*adjs: np.ndarray) -> np.ndarray:
    """Elementwise OR of relation graphs; isolated rows get a self-edge.

    The self-edge keeps every attention row non-empty when the union is
    used directly as a message-passing graph.
    """
    mats = [_check_static_adjacency(a) for a in adjs]
    if not mats:
        raise ConfigError("union_graph needs at least one graph")
    out = np.zeros_like(mats[0])
    for m in mats:
        if m.shape != out.shape:
            raise DataError("union_graph inputs disagree on shape")
        out = np.maximum(out, m)
    empty = out.sum(axis=1) == 0
    out[empty, empty] = 1.0
    return out


def gcn_layer(x: Tensor, adj: np.ndarray, weight: Tensor, bias: Tensor) -> Tensor:
    """One propagation step on a static relation: Ahat x W + b.

    x is [..., N, d]; Ahat [N, N] broadcasts against its batch axes.
    Ahat is `normalized_adjacency(adj)`; `adj` is not checked again,
    since RelationGraphs checks its graphs when built. The activation is
    applied by the caller. Ahat is a constant for the tape, so gradients
    flow into x, W, and b only.
    """
    ahat = Tensor(_propagation(np.asarray(adj, dtype=np.float64)))
    return tz.add(tz.matmul(ahat, tz.matmul(x, weight)), bias)


def cosine_similarity_matrix(u: np.ndarray) -> np.ndarray:
    """Pairwise cosine similarity with the diagonal set to -inf.

    u is [..., N, d] and the result [..., N, N]. The product of norms is
    floored by 1e-12 so zero rows yield similarity 0 instead of NaN.
    """
    u = np.asarray(u, dtype=np.float64)
    if u.ndim < 2:
        raise DataError(f"expected [..., N, d] representations, got {u.shape}")
    norms = np.sqrt((u * u).sum(axis=-1))
    denom = norms[..., :, None] * norms[..., None, :] + 1e-12
    sim = (u @ np.swapaxes(u, -1, -2)) / denom
    _fill_diagonal(sim, -np.inf)
    return sim


def topk_graph(similarity: np.ndarray, k: int) -> DynamicGraph:
    """Directed graph of each row's k most similar columns.

    `similarity` is [..., N, N]; each [N, N] slice is one graph. Rows are
    ranked by similarity descending, ties break toward the
    lower column index, and a row never picks itself whatever its
    diagonal holds, so construction is fully deterministic. NaN ranks
    below every number. All rows are selected at once: a partition finds
    each row's k-th key, every column strictly above it is kept, and the
    columns tied with it fill the remaining slots in index order.
    """
    sim = np.asarray(similarity, dtype=np.float64)
    n = _square(sim, "similarity")
    if not 1 <= k <= n - 1:
        raise ConfigError(f"k must satisfy 1 <= k <= N-1, got k={k}, N={n}")
    # ascending key; NaN sorts last, so the NaN diagonal is never in the top k
    key = -sim
    _fill_diagonal(key, np.nan)
    kth = np.partition(key, k - 1, axis=-1)[..., k - 1: k]
    nan_key = np.isnan(key)
    above = (key < kth) | (np.isnan(kth) & ~nan_key)
    tied = (key == kth) | (np.isnan(kth) & nan_key)
    _fill_diagonal(tied, False)
    slots = k - above.sum(axis=-1, keepdims=True)
    picked = above | (tied & (np.cumsum(tied, axis=-1) <= slots))
    return DynamicGraph(adjacency=picked.astype(np.float64), similarity=sim)


def gat_layer(
    u: Tensor,
    adjacency: np.ndarray,
    weight: Tensor,
    att_src: Tensor,
    att_dst: Tensor,
    out_weight: Tensor,
    slope: float = 0.2,
    return_attention: bool = False,
):
    """Single-head graph attention over a fixed binary adjacency.

    Row i attends over its out-neighbors j with logits
    e_ij = leaky_relu(att_src . W u_i + att_dst . W u_j), softmax-masked
    to the adjacency, then z_i = leaky_relu(W_o sum_j alpha_ij W u_j).
    u is [..., N, d]; `adjacency` is [..., N, N], one mask per window, or
    one [N, N] mask shared by the batch.
    """
    adj = np.asarray(adjacency, dtype=np.float64)
    _square(adj, "adjacency")
    if (adj.sum(axis=-1) == 0).any():
        raise DataError("gat_layer needs every row to have at least one neighbor")

    wu = tz.matmul(u, weight)  # [..., N, d]
    p = tz.matmul(wu, att_src)  # [..., N, 1] destination term
    q_row = tz.matmul(att_dst, wu, transpose_a=True, transpose_b=True)  # [..., 1, N]
    logits = tz.leaky_relu(tz.add(p, q_row), slope)  # [..., N, N], e[i, j]
    # additive mask: non-edges get -1e30, which underflows to exactly 0
    # after softmax, keeping every tensor finite
    masked = tz.add(tz.mul(logits, Tensor(adj)), Tensor((adj - 1.0) * 1e30))
    alpha = tz.softmax(masked, axis=-1)
    z = tz.leaky_relu(tz.matmul(tz.matmul(alpha, wu), out_weight), slope)
    if return_attention:
        return z, alpha
    return z
