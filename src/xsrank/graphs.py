"""Graph primitives: static-relation GCN, cosine k-NN graphs, neighbor-list GAT.

Static relations (industry, region) come from membership files, so each
is a set of cliques. A relation is stored as one [N] integer category
code per instrument: two instruments are related when their codes are
equal, and an instrument with no category has a code of its own. On a
clique the GCN propagation D^-1/2 (A + I) D^-1/2 is the mean over the
category, so no static [N, N] array is built in a forward pass. Only
the codes are kept, and a forward pass builds each relation's
`CategoryMeans` once for its GCN and its category-mean removal. The
dynamic k-NN graph is rebuilt per forward pass from the current
representations, outside the tape, so no gradient flows through
neighbor selection.

Graphs that attention runs over are neighbor lists: an [N, K] integer
array whose row i holds the columns row i attends to, -1 marking a
padded slot. The k-NN graph has exactly k columns per row; the union of
the static relations, used by the gat_only ablation, pads each row to
the largest neighborhood.

Every layer acts on leading batch axes: representations are [..., N, d]
and neighbor lists [..., N, K], one slice per window, each computed
exactly as a single window would be. A similarity is [..., R, N]: a
block of R rows against all N, so `model.knn_lists`, which builds each
window's k-NN lists one `tensor.row_blocks` block at a time, never holds
an [N, N] array. The GAT reads one list per window, so a caller
broadcasts a shared list (the union's) itself.
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
                raise DataError(f"{name} must be {n} non-negative integer codes, one per "
                                f"instrument; got {codes.dtype} {codes.shape}")
            setattr(self, name, codes)

    @cached_property
    def union_neighbors(self) -> np.ndarray:
        """[N, K] neighbor lists of the OR of the two relations, built on
        first use.

        Columns are ascending and padded with -1 up to the largest row. A
        row with no related instrument lists itself, which keeps every
        attention row non-empty; a row with a relative does not.
        """
        ind, reg = self.industry, self.region
        related = (ind[:, None] == ind) | (reg[:, None] == reg)
        lonely = related.sum(axis=1) == 1
        np.fill_diagonal(related, lonely)
        degree = related.sum(axis=1)
        out = np.full((len(ind), degree.max(initial=0)), -1, dtype=np.intp)
        out[np.arange(out.shape[1]) < degree[:, None]] = np.nonzero(related)[1]
        return out


def _category_codes(instruments: list[str], labels: dict[str, str]) -> np.ndarray:
    """[N] codes numbering categories in order of first appearance; an
    instrument missing from `labels` gets a code of its own."""
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


class CategoryMeans:
    """One relation's category-mean map, [..., N, d] -> [..., N, d], from
    its [N] codes: one product by the constant [C, N] pooling matrix, 1/s
    at each of a category's s members, broadcast against the batch, then
    one INDEX. A row alone in its category gets its own row. It is not
    stored, so with no tape the matrix is freed when the pass is done."""

    def __init__(self, codes: np.ndarray):
        _, self.inverse, counts = np.unique(codes, return_inverse=True, return_counts=True)
        pool = np.zeros((len(counts), len(codes)))
        pool[self.inverse, np.arange(len(codes))] = 1.0 / counts[self.inverse]
        self.pool = Tensor(pool)
        self.removal = Tensor(np.where(counts[self.inverse] > 1, -1.0, 0.0)[:, None])

    def __call__(self, x: Tensor) -> Tensor:
        return tz.index(tz.matmul(self.pool, x), (..., self.inverse, slice(None)))

    def remove(self, x: Tensor) -> Tensor:
        """x plus its category means times `removal`: -1, or 0 for a row
        alone in its category, which has no shared mean to remove."""
        return tz.add(x, tz.mul(self(x), self.removal))


def gcn_layer(x: Tensor, codes, weight: Tensor, bias: Tensor) -> Tensor:
    """Ahat x W + b on a static clique relation, given its [N] codes or
    their `CategoryMeans`, for x [..., N, d]: Ahat = D^-1/2 (A + I) D^-1/2
    is 1/s within a category of s members, so Ahat y is its mean. The
    caller applies the activation."""
    means = codes if isinstance(codes, CategoryMeans) else CategoryMeans(codes)
    return tz.add(means(tz.matmul(x, weight)), bias)


def unit_rows(u: np.ndarray) -> np.ndarray:
    """The rows of [..., N, d] `u` scaled to unit norm; a zero row stays 0.

    Each row is first divided by its largest magnitude, so no row's norm
    underflows however small its scale, then by its norm; a zero row is
    divided by 1 both times. The squares are summed one `row_blocks`
    block at a time, and the scaled copy is divided in place, so the
    call holds one copy of `u` and one block beside it.
    """
    u = np.asarray(u, dtype=np.float64)
    if u.ndim < 2:
        raise DataError(f"expected [..., N, d] representations, got {u.shape}")
    scale = np.abs(u).max(axis=-1, keepdims=True, initial=0.0)
    scale[scale == 0] = 1.0
    unit = u / scale
    norm = np.empty(scale.shape)
    rows, flat = unit.reshape(norm.size, unit.shape[-1]), norm.reshape(-1)
    for block in tz.row_blocks(*rows.shape):
        flat[block] = np.square(rows[block]).sum(axis=-1)
    # a nonzero row now has an entry of magnitude 1, so its norm is >= 1
    unit /= np.maximum(np.sqrt(norm, out=norm), 1.0, out=norm)
    return unit


def cosine_similarity_matrix(u: np.ndarray, unit: np.ndarray) -> np.ndarray:
    """Cosine similarity of [..., R, d] unit rows `u` with a window's
    [..., N, d] `unit_rows`: the [..., R, N] GEMM u @ unit^T.

    u is a block of `unit`'s rows, so a caller takes the similarity one
    block at a time. A zero row has similarity 0 with every row. A row's
    own column keeps its cosine; `topk_graph` never picks it.
    """
    return u @ np.swapaxes(unit, -1, -2)


def topk_graph(similarity: np.ndarray, k: int, first: int) -> np.ndarray:
    """Each row's k most similar columns, as [..., R, k] neighbor lists.

    `similarity` is [..., R, N], rows first .. first + R - 1 of each
    window's N, as `cosine_similarity_matrix` builds a block of them. Row
    i of the result holds the k columns row i picked, in ascending column
    order. Rows are ranked by similarity descending, ties break toward
    the lower column index, and a row never picks its own column,
    first + i, whatever it holds, so construction is fully deterministic.
    NaN ranks below every number. A partition finds each row's k-th key
    and every column at or above it is kept. Only when some row's k-th
    key is tied or NaN do the columns tied with it fill the remaining
    slots in index order.
    """
    sim = np.asarray(similarity, dtype=np.float64)
    if sim.ndim < 2:
        raise DataError(f"similarity must be [..., R, N], got {sim.shape}")
    r, n = sim.shape[-2:]
    if not 0 <= first <= n - r:
        raise DataError(f"similarity rows {first} .. {first + r - 1} are not rows of N={n}")
    if not 1 <= k <= n - 1:
        raise ConfigError(f"k must satisfy 1 <= k <= N-1, got k={k}, N={n}")
    own = (..., np.arange(r), first + np.arange(r))
    # ascending key; NaN sorts last, so the NaN own column is never in the top k
    key = np.negative(sim)
    key[own] = np.nan
    key.partition(k - 1, axis=-1)  # in place: only the k-th key is read from it
    kth = key[..., k - 1: k].copy()  # the tie fill below rewrites the key
    picked = sim >= -kth  # key <= kth, as negation is exact
    picked[own] = False
    # a row whose k-th key is a number picks at least k columns, so when
    # no k-th key is NaN, a total of k per row means each row picks k
    if np.isnan(kth).any() or np.count_nonzero(picked) != picked.size // n * k:
        np.negative(sim, out=key)
        key[own] = np.nan
        nan_key = np.isnan(key)
        above = (key < kth) | (np.isnan(kth) & ~nan_key)
        tied = (key == kth) | (np.isnan(kth) & nan_key)
        tied[own] = False
        slots = k - above.sum(axis=-1, keepdims=True)
        picked = above | (tied & (np.cumsum(tied, axis=-1) <= slots))
    return (np.flatnonzero(picked) % n).reshape(sim.shape[:-1] + (k,))


def gat_layer(
    u: Tensor,
    neighbors: np.ndarray,
    weight: Tensor,
    att_src: Tensor,
    att_dst: Tensor,
    out_weight: Tensor,
    slope: float = 0.2,
) -> Tensor:
    """Single-head graph attention over fixed neighbor lists.

    Row i attends over its listed neighbors j with logits
    e_ij = leaky_relu(att_src . W u_i + att_dst . W u_j), softmaxed over
    the list, then z_i = leaky_relu(W_o sum_j alpha_ij W u_j). u is
    [..., N, d] and `neighbors` [..., N, K] with the same leading shape,
    one list per window; a list shared by the batch is broadcast to it
    by the caller. A -1 slot is padding: it gathers the row itself and
    gets no attention. The attention alpha, the layer's one softmax, is
    [..., N, K], aligned with the lists. The neighbor sum is one
    NEIGHBOR_SUM, so the layer holds O(N (K + d)) plus one block.
    """
    nbr = np.asarray(neighbors)
    lead, n = u.shape[:-2], u.shape[-2]
    if (nbr.shape[:-1] != u.shape[:-1] or not np.issubdtype(nbr.dtype, np.integer)
            or ((nbr < -1) | (nbr >= n)).any()):
        raise DataError(f"neighbors must be [{', '.join(map(str, u.shape[:-1]))}, K] "
                        f"columns or -1, one list per window; got {nbr.dtype} {nbr.shape}")
    pad = nbr < 0
    if pad.all(axis=-1).any():
        raise DataError("gat_layer needs every row to have at least one neighbor")
    padded = pad.any()
    if padded:
        nbr = np.where(pad, np.arange(n)[:, None], nbr)
    # INDEX key prefix pairing each window's rows with its own lists: an
    # arange per leading axis that broadcasts against the [..., N, K] lists
    batch = tuple(np.arange(size).reshape((-1,) + (1,) * (len(lead) + 1 - axis))
                  for axis, size in enumerate(lead))

    wu = tz.matmul(u, weight)  # [..., N, d]
    # e[i, j] from the [..., N, 1] destination and [..., N, K] source
    # terms, neither held past the sum
    logits = tz.leaky_relu(tz.add(tz.matmul(wu, att_src),
                                  tz.index(tz.matmul(wu, att_dst), batch + (nbr, 0))), slope)
    if padded:
        # padded slots get -1e30, which underflows to exactly 0 after
        # softmax, keeping every tensor finite
        logits = tz.add(logits, Tensor(np.where(pad, -1e30, 0.0)))
    alpha = tz.softmax(logits, axis=-1)
    return tz.leaky_relu(tz.matmul(tz.neighbor_sum(alpha, wu, batch + (nbr,)), out_weight),
                         slope)
