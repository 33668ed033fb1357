"""Graph primitives: static-relation GCN, cosine k-NN graphs, masked GAT.

Static relations (industry, region) come from membership files, so each
is a set of cliques. A relation is stored as one [N] integer category
code per instrument: two instruments are related when their codes are
equal, and an instrument with no category has a code of its own. On a
clique the GCN propagation D^-1/2 (A + I) D^-1/2 is the mean over the
category, so no static [N, N] array is built, apart from the union mask
of the gat_only ablation, built on first use. The dynamic k-NN graph is
rebuilt per forward pass from the current representations; its
construction is deliberately outside the tape, so no gradient flows
through neighbor selection.

Every layer acts on leading batch axes: representations are [..., N, d]
and similarity, k-NN and attention masks [..., N, N], one [N, N] slice
per window, each computed exactly as a single window would be. The
static category means broadcast against the batch.
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
    """Static industry and region relations over one instrument universe.

    `industry` and `region` hold one category code per instrument; equal
    codes share a category. The codes are checked here, in O(N), so
    forward passes skip the check.
    """

    instruments: list[str]
    industry: np.ndarray  # [N] non-negative integer codes
    region: np.ndarray
    industry_labels: dict[str, str] = field(default_factory=dict)
    region_labels: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        n = len(self.instruments)
        for name in ("industry", "region"):
            codes = np.asarray(getattr(self, name))
            if (codes.shape != (n,) or not np.issubdtype(codes.dtype, np.integer)
                    or (codes < 0).any()):
                raise DataError(
                    f"{name} must be {n} non-negative integer codes, one per "
                    f"instrument; got {codes.dtype} {codes.shape}"
                )
            setattr(self, name, codes)

    @cached_property
    def union(self) -> np.ndarray:
        """[N, N] OR of the two relations, built on first use.

        A row with no related instrument gets a self-edge, which keeps
        every attention row non-empty when the union is used directly as
        a message-passing graph; a row with a relative has no self-edge.
        """
        ind, reg = self.industry, self.region
        out = ((ind[:, None] == ind) | (reg[:, None] == reg)).astype(np.float64)
        _fill_diagonal(out, out.sum(axis=1) == 1.0)
        return out


def _category_codes(instruments: list[str], labels: dict[str, str]) -> np.ndarray:
    """[N] codes numbering categories in order of first appearance.

    An instrument missing from `labels` gets a code of its own.
    """
    seen: dict = {}
    # a fresh object() is a key that no other instrument shares
    return np.array(
        [seen.setdefault(labels.get(inst, object()), len(seen)) for inst in instruments],
        dtype=np.intp,
    )


def build_relation_graphs(
    instruments: list[str],
    industry_labels: dict[str, str],
    region_labels: dict[str, str],
) -> RelationGraphs:
    return RelationGraphs(
        instruments=list(instruments),
        industry=_category_codes(instruments, industry_labels),
        region=_category_codes(instruments, region_labels),
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


def gcn_layer(x: Tensor, codes: np.ndarray, weight: Tensor, bias: Tensor) -> Tensor:
    """One propagation step on a static clique relation: Ahat x W + b.

    x is [..., N, d] and `codes` the relation's [N] category codes. With
    Ahat = D^-1/2 (A + I) D^-1/2, every entry of a category of s members
    is 1/s, so Ahat y is the category mean of y: onehot @ (pool @ y), with
    the [C, N] mean-pooling matrix `pool` and the [N, C] membership
    matrix `onehot`, both broadcast against the batch. An instrument
    alone in its category keeps its own row. The activation is applied
    by the caller. Both matrices are constants for the tape, so gradients
    flow into x, W, and b only.
    """
    cats, inverse = np.unique(codes, return_inverse=True)
    member = inverse == np.arange(len(cats))[:, None]  # [C, N]
    pool = Tensor(member / member.sum(axis=1, keepdims=True))
    onehot = Tensor(np.ascontiguousarray(member.T, dtype=np.float64))
    return tz.add(tz.matmul(onehot, tz.matmul(pool, tz.matmul(x, weight))), bias)


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


def topk_graph(similarity: np.ndarray, k: int) -> np.ndarray:
    """Directed graph of each row's k most similar columns.

    `similarity` is [..., N, N]; each [N, N] slice is one graph, and the
    result is the [..., N, N] adjacency of {0.0, 1.0} with k ones per
    row. Rows are ranked by similarity descending, ties break toward the
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
    return picked.astype(np.float64)


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
