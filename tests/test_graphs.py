"""Graph primitive tests against dense brute-force oracles."""

import math
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import _oracles as oracle
from xsrank import graphs, model as act_model, tensor as tz
from xsrank.errors import ConfigError, DataError
from xsrank.graphs import (
    RelationGraphs,
    build_relation_graphs,
    cosine_similarity_matrix,
    gat_layer,
    gcn_layer,
    topk_graph,
    unit_rows,
)
from xsrank.model import knn_lists
from xsrank.tensor import Tape, Tensor, backward


def _clique_adjacency(codes):
    """The [N, N] relation that category codes stand for: equal codes are
    related, and nothing is related to itself."""
    adj = (codes[:, None] == codes[None, :]).astype(float)
    np.fill_diagonal(adj, 0.0)
    return adj


def _propagation(codes):
    """Ahat of the GCN on a relation: gcn_layer on x = W = I, b = 0."""
    n = len(codes)
    return gcn_layer(Tensor(np.eye(n)), codes, Tensor(np.eye(n)),
                     Tensor(np.zeros(n))).data


def test_membership_adjacency_cliques():
    insts = ["A", "B", "C", "D"]
    g = build_relation_graphs(insts, {"A": "x", "B": "x", "C": "y", "D": "x"}, {})
    np.testing.assert_array_equal(g.industry, [0, 0, 1, 0])
    want = np.zeros((4, 4))
    for i, j in [(0, 1), (0, 3), (1, 3)]:
        want[i, j] = want[j, i] = 1.0
    np.testing.assert_array_equal(_clique_adjacency(g.industry), want)
    # with no labels every instrument is a category of its own
    np.testing.assert_array_equal(g.region, [0, 1, 2, 3])


def test_membership_adjacency_matches_loop_oracle():
    rng = np.random.default_rng(11)
    for trial in range(60):
        n = int(rng.integers(0, 40))
        insts = [f"S{i:02d}" for i in range(n)]
        n_cats = int(rng.integers(1, 6))
        labels = {s: f"C{rng.integers(n_cats)}" for s in insts
                  if rng.random() < 0.8}
        labels["not_in_universe"] = "C0"
        g = build_relation_graphs(insts, labels, labels)
        assert g.industry.shape == (n,) and g.industry.dtype == np.intp
        want = oracle.membership_adjacency_loop(insts, labels)
        assert np.array_equal(_clique_adjacency(g.industry), want)


def test_relation_graphs_check_once_and_build_union_once():
    insts = [f"S{i}" for i in range(7)]
    g = build_relation_graphs(insts, {s: f"I{i // 3}" for i, s in enumerate(insts)},
                              {s: f"R{i % 2}" for i, s in enumerate(insts[:5])})
    assert "union_neighbors" not in vars(g)
    want = oracle.neighbor_lists(oracle.union_np(*oracle.relation_adjacencies(g)))
    assert np.array_equal(g.union_neighbors, want)
    assert g.union_neighbors is g.union_neighbors
    # no mean matrix is stored on the graphs: a forward pass builds its own
    assert vars(g).keys() == {f.name for f in fields(RelationGraphs)} | {"union_neighbors"}
    # bad codes are refused when the graphs are built, not in a forward pass
    with pytest.raises(DataError):
        RelationGraphs(instruments=insts[:2], industry=np.eye(2),
                       region=np.zeros(2, dtype=int))


def test_build_relation_graphs_symmetric_zero_diag():
    insts = [f"S{i}" for i in range(6)]
    ind = {s: f"I{i // 2}" for i, s in enumerate(insts)}
    reg = {s: f"R{i % 3}" for i, s in enumerate(insts)}
    g = build_relation_graphs(insts, ind, reg)
    for codes in (g.industry, g.region):
        assert codes.shape == (6,) and np.issubdtype(codes.dtype, np.integer)
    # every instrument has a relative, so the union has no self-edge
    union = oracle.adjacency(g.union_neighbors, 6)
    np.testing.assert_array_equal(union, union.T)
    assert np.diag(union).sum() == 0


def test_normalized_adjacency_matches_dense_oracle():
    rng = np.random.default_rng(0)
    for trial in range(20):
        n = int(rng.integers(1, 12))
        codes = rng.integers(0, 4, size=n)
        got = _propagation(codes)

        at = _clique_adjacency(codes) + np.eye(n)
        deg = np.diag(at.sum(axis=1))
        d_inv_sqrt = np.linalg.inv(np.sqrt(deg))
        want = d_inv_sqrt @ at @ d_inv_sqrt
        np.testing.assert_allclose(got, want, atol=1e-12)


def test_normalized_adjacency_isolated_node_keeps_self_loop():
    # S2 has no category, S3 is alone in its own
    g = build_relation_graphs(["S0", "S1", "S2", "S3"],
                              {"S0": "x", "S1": "x", "S3": "y"}, {})
    ahat = _propagation(g.industry)
    for i in (2, 3):
        assert ahat[i, i] == 1.0
        assert np.count_nonzero(ahat[i]) == 1


def test_normalized_adjacency_validation():
    insts = ["a", "b", "c"]
    good = np.array([0, 1, 0])
    for bad in (np.zeros((3, 3), dtype=int), good.astype(float), good > 0,
                np.array([0, -1, 0]), np.array([0, 1])):
        with pytest.raises(DataError):
            RelationGraphs(instruments=insts, industry=bad, region=good)
        with pytest.raises(DataError):
            RelationGraphs(instruments=insts, industry=good, region=bad)
    g = RelationGraphs(instruments=insts, industry=[0, 1, 0], region=good)
    assert isinstance(g.industry, np.ndarray)


def test_static_relations_allocate_no_square_array():
    n = 2000
    insts = [f"S{i:04d}" for i in range(n)]
    labels = {s: f"C{i % 7}" for i, s in enumerate(insts) if i}  # S0000 has none
    x, w, b = Tensor(np.ones((n, 4))), Tensor(np.eye(4)), Tensor(np.zeros(4))
    tracemalloc.start()
    try:
        g = build_relation_graphs(insts, labels, labels)
        gcn_layer(x, g.industry, w, b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * n, peak  # the bytes of one [N, N] bool array


def test_gat_layer_allocates_no_square_array():
    n, d, k = 2000, 4, 10
    rng = np.random.default_rng(15)
    u = Tensor(rng.normal(size=(n, d)))
    lists = np.sort(rng.integers(0, n, size=(n, k)), axis=1)
    params = _gat_params(rng, d)
    tracemalloc.start()
    try:
        gat_layer(u, lists, **params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * n, peak  # the bytes of one [N, N] bool array


def test_gcn_layer_identity_on_empty_graph():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(4, 3))
    out = gcn_layer(Tensor(x), np.arange(4), Tensor(np.eye(3)),
                    Tensor(np.zeros(3)))
    np.testing.assert_allclose(out.data, x, atol=1e-12)


def test_gcn_layer_two_node_clique_equal_features():
    x = np.tile([[1.0, -2.0]], (2, 1))
    rng = np.random.default_rng(2)
    w = rng.normal(size=(2, 2))
    out = gcn_layer(Tensor(x), np.array([0, 0]), Tensor(w),
                    Tensor(np.zeros(2))).data
    np.testing.assert_allclose(out[0], out[1], atol=1e-12)


def test_gcn_layer_matches_dense_oracle_and_is_linear():
    rng = np.random.default_rng(3)
    n, d = 5, 4
    # S1 is alone in its category and S3 has none
    g = build_relation_graphs([f"S{i}" for i in range(n)],
                              {"S0": "a", "S1": "b", "S2": "a", "S4": "a"}, {})
    adj = oracle.membership_adjacency_loop(g.instruments, g.industry_labels)
    x1 = rng.normal(size=(n, d))
    x2 = rng.normal(size=(n, d))
    w = rng.normal(size=(d, d))
    b = rng.normal(size=(d,))

    at = adj + np.eye(n)
    dis = np.diag(1.0 / np.sqrt(at.sum(axis=1)))
    want = dis @ at @ dis @ x1 @ w + b
    got = gcn_layer(Tensor(x1), g.industry, Tensor(w), Tensor(b)).data
    np.testing.assert_allclose(got, want, atol=1e-9)

    # superposition in x with bias removed
    f = lambda x: gcn_layer(Tensor(x), g.industry, Tensor(w),
                             Tensor(np.zeros(d))).data
    np.testing.assert_allclose(f(x1 + x2), f(x1) + f(x2), atol=1e-9)


@st.composite
def relation_codes(draw):
    """[N] category codes, N from 1 to 300: sparse codes such as
    [3, 17, 3], one category per instrument, or one category for all."""
    n = draw(st.integers(1, 300))
    kind = draw(st.sampled_from(["sparse", "singletons", "one"]))
    if kind == "sparse":
        values = draw(st.lists(st.integers(0, 10**6), min_size=1, max_size=12))
        return np.array(draw(st.lists(st.sampled_from(values), min_size=n, max_size=n)))
    if kind == "singletons":
        return np.random.default_rng(n).permutation(n) * 3
    return np.full(n, draw(st.integers(0, 10**6)))


@settings(max_examples=80, deadline=None)
@given(relation_codes(), st.lists(st.integers(1, 3), max_size=2), st.integers(1, 5),
       st.integers(0, 2**32 - 1))
def test_gcn_layer_gathers_what_the_one_hot_product_gave(codes, lead, d, seed):
    # the forward is the one-hot product's bit for bit, with a tape and
    # without. The gradients sum a category's cotangents in another order,
    # so they agree to rounding: x, W and the cotangent are positive there,
    # so that no sum cancels and each cell's relative error stays near
    # N ulp, where a cancelling sum of N = 300 terms can exceed 1e-12
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(*lead, len(codes), d))
    w, b = rng.normal(size=(d, d + 1)), rng.normal(size=d + 1)
    want = oracle.gcn_onehot(Tensor(x), codes, Tensor(w), Tensor(b)).data
    assert gcn_layer(Tensor(x), codes, Tensor(w), Tensor(b)).data.tobytes() == want.tobytes()

    x, w = np.abs(x), np.abs(w)
    g = rng.uniform(0.5, 1.5, size=(*lead, len(codes), d + 1))

    def run(layer):
        with Tape() as tape:
            watched = [Tensor(x), Tensor(w), Tensor(b)]
            for t in watched:
                tape.watch(t)
            out = layer(watched[0], codes, *watched[1:])
            backward(tz.tensor_sum(tz.mul(out, Tensor(g))))
            return out.data, [tape.grad(t) for t in watched]

    got, got_grads = run(gcn_layer)
    want, want_grads = run(oracle.gcn_onehot)
    assert got.tobytes() == want.tobytes()
    for grad, want_grad in zip(got_grads, want_grads, strict=True):
        np.testing.assert_allclose(grad, want_grad, rtol=1e-12)


def test_gcn_layer_holds_one_pooling_matrix():
    # N = 2000 in C = 400 categories: the [C, N] pooling matrix is the
    # call's largest array, and no [N, C] one-hot matrix sits beside it
    n, c, d = 2000, 400, 8
    rng = np.random.default_rng(19)
    codes = rng.permutation(np.arange(n) % c)
    x, w, b = (Tensor(rng.normal(size=s)) for s in ((n, d), (d, d), (d,)))
    tracemalloc.start()
    try:
        gcn_layer(x, codes, w, b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * c * n * 8, peak  # the bytes of one [C, N] float64 matrix


def test_cosine_similarity_parallel_orthogonal_zero():
    u = np.array([
        [1.0, 0.0],
        [2.0, 0.0],   # parallel to row 0
        [0.0, 3.0],   # orthogonal to rows 0, 1
        [0.0, 0.0],   # zero row
    ])
    unit = unit_rows(u)
    s = cosine_similarity_matrix(unit, unit)
    assert s[0, 1] == pytest.approx(1.0, abs=1e-9)
    assert s[0, 2] == pytest.approx(0.0, abs=1e-12)
    assert s[3, 0] == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(s, s.T, atol=1e-12)
    # a block of rows is those rows of the whole square
    np.testing.assert_allclose(cosine_similarity_matrix(unit[1:3], unit), s[1:3], atol=1e-12)


def test_cosine_similarity_of_rows_at_extreme_scales():
    # before: the 1e-12 floor on the product of norms pulled the 1e-8 row's
    # similarity with the unit row, and every similarity of the 1e-200 row,
    # toward 0
    base = np.random.default_rng(4).normal(size=(5, 3))
    scales = np.array([0.0, 1e-200, 1e-8, 1.0, 1e8])
    unit = unit_rows(base * scales[:, None])
    s = cosine_similarity_matrix(unit, unit)
    off = ~np.eye(5, dtype=bool)
    assert np.isfinite(s[off]).all()
    assert (np.abs(s[off]) <= 1 + 1e-12).all()
    assert (s[0, 1:] == 0).all() and (s[1:, 0] == 0).all()
    # cosine does not depend on a row's scale, so the unscaled rows are the reference
    want = oracle.cosine_np(base[1:])
    np.testing.assert_allclose(s[1:, 1:][off[1:, 1:]], want[off[1:, 1:]], rtol=0, atol=1e-12)


def test_topk_graph_counts_and_tie_rule():
    s = np.zeros((4, 4))
    g = topk_graph(s, 2, 0)
    # all-equal similarities: lowest indices win, never the row itself
    np.testing.assert_array_equal(g, [[1, 2], [0, 2], [0, 1], [0, 1]])


def test_topk_graph_matches_sort_oracle():
    rng = np.random.default_rng(4)
    for trial in range(20):
        n = int(rng.integers(3, 9))
        k = int(rng.integers(1, n))
        s = rng.normal(size=(n, n))
        g = topk_graph(s, k, 0)
        for i in range(n):
            order = sorted(
                (j for j in range(n) if j != i),
                key=lambda j: (-s[i, j], j),
            )
            np.testing.assert_array_equal(g[i], sorted(order[:k]))


def test_topk_graph_k_out_of_range():
    s = np.zeros((3, 3))
    with pytest.raises(ConfigError):
        topk_graph(s, 0, 0)
    with pytest.raises(ConfigError):
        topk_graph(s, 3, 0)


def _gat_params(rng, d):
    return dict(
        weight=Tensor(rng.normal(size=(d, d))),
        att_src=Tensor(rng.normal(size=(d, 1))),
        att_dst=Tensor(rng.normal(size=(d, 1))),
        out_weight=Tensor(rng.normal(size=(d, d))),
    )


def _gat_attention(u, neighbors, **params):
    """gat_layer's output and its attention: the output of the layer's one
    SOFTMAX call, recorded as it is made."""
    seen = []
    softmax = tz.softmax

    def record(x, axis):
        seen.append(softmax(x, axis=axis))
        return seen[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tz, "softmax", record)
        z = gat_layer(u, neighbors, **params)
    (alpha,) = seen
    return z, alpha


def test_gat_uniform_attention_for_identical_neighbors():
    rng = np.random.default_rng(5)
    d = 3
    u = np.tile(rng.normal(size=(1, d)), (4, 1))
    others = oracle.neighbor_lists(np.ones((4, 4)) - np.eye(4))
    _, alpha = _gat_attention(Tensor(u), others, **_gat_params(rng, d))
    np.testing.assert_allclose(alpha.data, 1.0 / 3.0, atol=1e-12)
    # a padded slot gets no attention
    padded = np.array([[1, 2, -1], [0, 2, 3], [1, -1, -1], [0, 1, 2]])
    _, alpha = _gat_attention(Tensor(u), padded, **_gat_params(rng, d))
    np.testing.assert_allclose(alpha.data.sum(axis=1), 1.0, atol=1e-12)
    valid = padded >= 0
    want = np.where(valid, 1.0 / valid.sum(axis=1, keepdims=True), 0.0)
    np.testing.assert_allclose(alpha.data, want, atol=1e-12)
    assert (alpha.data[~valid] == 0.0).all()


def test_gat_k1_attention_is_one():
    rng = np.random.default_rng(6)
    d = 4
    u = rng.normal(size=(5, d))
    g = oracle.knn_full(u, 1)
    _, alpha = _gat_attention(Tensor(u), g, **_gat_params(rng, d))
    assert alpha.shape == (5, 1)
    np.testing.assert_allclose(alpha.data, 1.0, atol=1e-12)


def test_gat_matches_dense_mask_oracle():
    """Brute-force per-row attention over the true neighbor subsets."""
    rng = np.random.default_rng(7)
    n, d, k, slope = 4, 3, 2, 0.2
    u = rng.normal(size=(n, d))
    params = _gat_params(rng, d)
    g = oracle.knn_full(u, k)
    got, alpha = _gat_attention(Tensor(u), g, **params)

    w = params["weight"].data
    a1 = params["att_src"].data[:, 0]
    a2 = params["att_dst"].data[:, 0]
    wo = params["out_weight"].data
    wu = u @ w
    lrelu = lambda v: np.where(v > 0, v, slope * v)
    want = np.zeros((n, d))
    want_alpha = np.zeros((n, k))
    for i in range(n):
        nbrs = g[i]
        e = np.array([lrelu(a1 @ wu[i] + a2 @ wu[j]) for j in nbrs])
        e = np.exp(e - e.max())
        al = e / e.sum()
        want_alpha[i] = al
        agg = (al[:, None] * wu[nbrs]).sum(axis=0)
        want[i] = lrelu(agg @ wo)
    np.testing.assert_allclose(got.data, want, atol=1e-9)
    np.testing.assert_allclose(alpha.data, want_alpha, atol=1e-9)


def test_gat_lists_match_dense_oracle_batched_and_padded():
    rng = np.random.default_rng(14)
    b, n, d, k = 3, 9, 4, 3
    u = rng.normal(size=(b, n, d))
    params = _gat_params(rng, d)
    weights = [params[name].data for name in ("weight", "att_src", "att_dst", "out_weight")]
    lists = oracle.knn_full(u, k)
    got, alpha = _gat_attention(Tensor(u), lists, **params)
    assert got.shape == (b, n, d) and alpha.shape == (b, n, k)
    for w in range(b):
        want, want_alpha = oracle.gat_np(u[w], oracle.adjacency(lists[w], n), *weights)
        alone = gat_layer(Tensor(u[w]), lists[w], **params).data
        np.testing.assert_allclose(got.data[w], want, atol=1e-9)
        np.testing.assert_allclose(alone, want, atol=1e-9)
        np.testing.assert_allclose(
            alpha.data[w], np.take_along_axis(want_alpha, lists[w], axis=1), atol=1e-9)

    # the gat_only graph: padded union lists, broadcast to the batch as
    # pspe_forward does; S8 has no relative and attends to itself
    insts = [f"S{i}" for i in range(n)]
    g = build_relation_graphs(insts, {s: f"I{i % 3}" for i, s in enumerate(insts[:7])},
                              {"S0": "R", "S4": "R", "S5": "R", "S6": "R"})
    union = g.union_neighbors
    assert (union < 0).any() and union[8].tolist() == [8] + [-1] * (union.shape[1] - 1)
    dense = oracle.union_np(*oracle.relation_adjacencies(g))
    got = gat_layer(Tensor(u), np.broadcast_to(union, (b,) + union.shape), **params).data
    for w in range(b):
        want, _ = oracle.gat_np(u[w], dense, *weights)
        np.testing.assert_allclose(got[w], want, atol=1e-9)


def test_gat_alpha_rows_sum_to_one():
    rng = np.random.default_rng(8)
    for trial in range(5):
        n, d = 6, 4
        u = rng.normal(size=(n, d))
        g = oracle.knn_full(u, 3)
        _, alpha = _gat_attention(Tensor(u), g, **_gat_params(rng, d))
        assert alpha.shape == (n, 3)
        np.testing.assert_allclose(alpha.data.sum(axis=1), 1.0, atol=1e-12)


def test_gat_rejects_empty_row():
    rng = np.random.default_rng(9)
    nbr = np.array([[1], [-1], [0]])
    with pytest.raises(DataError):
        gat_layer(Tensor(rng.normal(size=(3, 2))), nbr, **_gat_params(rng, 2))


def test_gat_gradients_flow():
    rng = np.random.default_rng(10)
    n, d = 5, 3
    u = rng.normal(size=(n, d))
    params = _gat_params(rng, d)
    g = oracle.knn_full(u, 2)
    with Tape() as tape:
        tu = Tensor(u)
        for t in [tu, *params.values()]:
            tape.watch(t)
        z = gat_layer(tu, g, **params)
        backward(tz.tensor_sum(z))
        for t in [tu, *params.values()]:
            grad = tape.grad(t)
            assert grad is not None and grad.shape == t.shape
            assert np.isfinite(grad).all()


def test_equivariance_under_permutation():
    rng = np.random.default_rng(11)
    n, d, k = 6, 4, 2
    u = rng.normal(size=(n, d))
    params = _gat_params(rng, d)
    perm = rng.permutation(n)

    g = oracle.knn_full(u, k)
    g_p = oracle.knn_full(u[perm], k)
    np.testing.assert_array_equal(oracle.adjacency(g_p, n),
                                  oracle.adjacency(g, n)[perm][:, perm])

    z = gat_layer(Tensor(u), g, **params).data
    z_p = gat_layer(Tensor(u[perm]), g_p, **params).data
    np.testing.assert_allclose(z_p, z[perm], atol=1e-9)

    # gcn side
    codes = rng.integers(0, 3, size=n)
    w = Tensor(rng.normal(size=(d, d)))
    b = Tensor(rng.normal(size=(d,)))
    y = gcn_layer(Tensor(u), codes, w, b).data
    y_p = gcn_layer(Tensor(u[perm]), codes[perm], w, b).data
    np.testing.assert_allclose(y_p, y[perm], atol=1e-9)


def test_union_graph_or_and_self_loop_fallback():
    insts = ["a", "b", "c"]
    # industry relates a and b, region b and c
    u = RelationGraphs(instruments=insts, industry=np.array([0, 0, 1]),
                       region=np.array([0, 1, 1])).union_neighbors
    np.testing.assert_array_equal(u, [[1, -1], [0, 2], [1, -1]])

    lonely = RelationGraphs(instruments=insts[:2], industry=np.array([0, 1]),
                            region=np.array([5, 2])).union_neighbors
    np.testing.assert_array_equal(lonely, [[0], [1]])


def test_dynamic_graph_row_sums():
    rng = np.random.default_rng(12)
    u = rng.normal(size=(7, 3))
    g = oracle.knn_full(u, 4)
    assert g.shape == (7, 4) and np.issubdtype(g.dtype, np.integer)
    assert (np.diff(g, axis=1) > 0).all()
    assert (g != np.arange(7)[:, None]).all()


@st.composite
def tied_similarity(draw):
    # a small value set makes ties dense; -inf may sit off the diagonal,
    # and a row may be all zeros
    n = draw(st.integers(2, 9))
    values = st.sampled_from([0.0, 0.5, -0.5, 1.0, -np.inf])
    sim = np.array(draw(st.lists(values, min_size=n * n, max_size=n * n))).reshape(n, n)
    for i in draw(st.sets(st.integers(0, n - 1), max_size=n)):
        sim[i] = 0.0
    if draw(st.booleans()):
        np.fill_diagonal(sim, -np.inf)
    return sim


@settings(max_examples=200, deadline=None)
@given(tied_similarity())
def test_topk_graph_matches_oracle_on_dense_ties(sim):
    # a batch of two windows: each [N, N] slice is its own graph
    batch = np.stack([sim, sim[::-1, ::-1]])
    n = sim.shape[0]
    for k in range(1, n):
        want = [oracle.neighbor_lists(oracle.topk_np(window, k)) for window in batch]
        assert np.array_equal(topk_graph(sim, k, 0), want[0])
        assert np.array_equal(topk_graph(batch, k, 0), np.stack(want))
        # a block of the later rows skips its own columns, not the block's first
        first = n // 2
        assert np.array_equal(topk_graph(batch[:, first:], k, first),
                              np.stack(want)[:, first:])


def test_knn_lists_of_a_batch_hold_a_few_blocks_beside_the_unit_rows():
    # each window in turn takes blocks of TOPK_BLOCK_CELLS // N of its
    # rows, so the build holds the unit rows (0.61 MB here) and a few
    # blocks of cells (0.52 MB each: the similarity and its keys). It
    # peaks at 1.90 MB, the unit rows and 2.5 blocks. The bound, the unit
    # rows and 3 blocks (2.19 MB), leaves 0.29 MB, under one block.
    # Earlier: 3.60 MB, with a block of TOPK_BLOCK_CELLS // N rows of every
    # window at once and topk_graph's own blocks of keys beside it.
    u = np.random.default_rng(16).normal(size=(4, 300, 64))
    tracemalloc.start()
    try:
        knn_lists(u, 10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    block = tz.TOPK_BLOCK_CELLS * 8
    assert peak <= u.nbytes + 3 * block, (peak, u.nbytes, block)


@st.composite
def tied_rows(draw):
    # rows from a small value set, so that cosines tie exactly and often;
    # some rows are zero and some repeat another row
    n, d = draw(st.integers(2, 11)), draw(st.integers(1, 3))
    values = st.sampled_from([0.0, 1.0, -1.0, 2.0])
    u = np.array(draw(st.lists(values, min_size=n * d, max_size=n * d))).reshape(n, d)
    for i in draw(st.sets(st.integers(0, n - 1), max_size=n // 2)):
        u[i] = 0.0
    for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=3)):
        u[i] = u[j]
    return u


@settings(max_examples=150, deadline=None)
@given(tied_rows(), st.data())
def test_knn_lists_match_a_sort_oracle_over_their_own_similarity_blocks(u, data):
    # the blocked build hands each block's [..., R, N] similarity to
    # topk_graph; its lists are the sort oracle's picks over those rows
    n = len(u)
    k = data.draw(st.integers(1, n - 1))
    batch = np.stack([u, 3.0 * u[::-1]])
    seen = []

    def record(*args):
        seen.append(cosine_similarity_matrix(*args))
        return seen[-1]

    # each window in turn takes blocks of TOPK_BLOCK_CELLS // N of its rows
    # (at least one), here 1, 2, 3 or 6 rows, which need not divide N,
    # whatever the batch
    for cells in (n, 2 * n, 3 * n, 6 * n):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tz, "TOPK_BLOCK_CELLS", cells)
            mp.setattr(act_model, "cosine_similarity_matrix", record)
            for rows in (u, batch):
                seen.clear()
                got = knn_lists(rows, k)
                step = cells // n
                windows = math.prod(rows.shape[:-2])
                assert [block.shape for block in seen] == windows * [
                    (min(step, n - start), n) for start in range(0, n, step)]
                sim = np.concatenate(seen, axis=-2).reshape(-1, n, n)
                want = [oracle.neighbor_lists(oracle.topk_np(window, k)) for window in sim]
                assert np.array_equal(got.reshape(-1, n, k), want)


@pytest.mark.parametrize("n", [257, 300, 500, 800])
def test_knn_lists_equal_the_whole_square_build_on_continuous_rows(n):
    # 257 rows is the first N that takes two blocks. A block's GEMM can
    # differ from the whole square's by an ulp, which moves a pick only
    # between exactly tied columns; continuous rows have none
    rng = np.random.default_rng(n)
    u = rng.normal(size=(n, 64))
    assert len(tz.row_blocks(n, n)) > 1
    for k in (1, 10):
        assert np.array_equal(knn_lists(u, k), oracle.knn_full(u, k))
    batch = rng.normal(size=(2, n, 8))
    assert np.array_equal(knn_lists(batch, 10), oracle.knn_full(batch, 10))


@pytest.mark.parametrize("lead", [(), (2,)])
@pytest.mark.parametrize("blocks", ["one", "two", "many"])
def test_gat_layer_sums_the_same_bits_with_and_without_a_tape(lead, blocks):
    # NEIGHBOR_SUM gathers one block of rows at a time, forward and in
    # alpha's gradient, and scatters x's gradient one column at a time; the
    # INDEX + MATMUL pair over all rows is the reference for the output and
    # every gradient, with a tape and without
    rng = np.random.default_rng(17)
    n, k, d = 37, 6, 5
    u = rng.normal(size=lead + (n, d))
    # drawn with replacement, so rows repeat neighbors; some slots padded
    lists = np.sort(rng.integers(0, n, size=lead + (n, k)), axis=-1)
    lists[..., :3][rng.random(lead + (n, 3)) < 0.4] = -1
    assert (np.diff(lists, axis=-1) == 0).any() and (lists < 0).any()
    params = _gat_params(rng, d)
    w_out = rng.normal(size=lead + (n, d))

    def run():
        with Tape() as tape:
            watched = [Tensor(u), *params.values()]
            for t in watched:
                tape.watch(t)
            out = gat_layer(watched[0], lists, **params)
            backward(tz.tensor_sum(tz.mul(out, Tensor(w_out))))
            grads = [tape.grad(t) for t in watched]
        return [gat_layer(Tensor(u), lists, **params).data, out.data] + grads

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tz, "neighbor_sum", oracle.neighbor_sum_index_matmul)
        want = run()
    width = math.prod(lead) * k * d
    cells = {"one": tz.TOPK_BLOCK_CELLS, "two": width * ((n + 1) // 2), "many": 1}[blocks]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tz, "TOPK_BLOCK_CELLS", cells)
        assert len(tz.row_blocks(n, width)) == {"one": 1, "two": 2, "many": n}[blocks]
        got = run()
    for g, w in zip(got, want, strict=True):
        assert g.tobytes() == w.tobytes()


def test_batched_graph_helpers_keep_their_input_checks():
    rng = np.random.default_rng(13)
    with pytest.raises(DataError):
        unit_rows(rng.normal(size=5))
    unit = unit_rows(rng.normal(size=(2, 4, 3)))
    sim = cosine_similarity_matrix(unit, unit)
    assert sim.shape == (2, 4, 4)

    with pytest.raises(DataError):
        topk_graph(np.zeros(4), 1, 0)
    # a block of rows must be rows of its N columns
    assert topk_graph(np.zeros((2, 3, 4)), 1, first=1).shape == (2, 3, 1)
    for first in (-1, 2):
        with pytest.raises(DataError, match="are not rows of N=4"):
            topk_graph(np.zeros((2, 3, 4)), 1, first=first)
    for k in (0, 4):
        with pytest.raises(ConfigError):
            topk_graph(sim, k, 0)

    u = Tensor(rng.normal(size=(2, 3, 2)))
    params = _gat_params(rng, 2)
    nbr = np.stack([oracle.neighbor_lists(np.ones((3, 3)) - np.eye(3))] * 2)
    gat_layer(u, nbr, **params)
    lonely = nbr.copy()
    lonely[1, 2] = -1
    out_of_range = nbr.copy()
    out_of_range[0, 0, 0] = 3
    for bad in (np.ones((2, 4, 2), dtype=int), np.ones(3, dtype=int), np.ones((3, 3, 2),
                dtype=int), nbr.astype(float), lonely, out_of_range, out_of_range - 5):
        with pytest.raises(DataError):
            gat_layer(u, bad, **params)
    # nbr[0] is one [N, K] list shared by the batch, which a caller broadcasts
    with pytest.raises(DataError, match=r"must be \[2, 3, K\] columns or -1, one list per "
                                        r"window; got int\d+ \(3, 2\)"):
        gat_layer(u, nbr[0], **params)
