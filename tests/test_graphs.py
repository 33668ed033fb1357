"""Graph primitive tests against dense brute-force oracles."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import _oracles as oracle
from xsrank import tensor as tz
from xsrank.errors import ConfigError, DataError
from xsrank.graphs import (
    DynamicGraph,
    build_relation_graphs,
    cosine_similarity_matrix,
    gat_layer,
    gcn_layer,
    membership_adjacency,
    normalized_adjacency,
    topk_graph,
    union_graph,
)
from xsrank.tensor import Tape, Tensor, backward


def test_membership_adjacency_cliques():
    insts = ["A", "B", "C", "D"]
    adj = membership_adjacency(insts, {"A": "x", "B": "x", "C": "y", "D": "x"})
    want = np.zeros((4, 4))
    for i, j in [(0, 1), (0, 3), (1, 3)]:
        want[i, j] = want[j, i] = 1.0
    np.testing.assert_array_equal(adj, want)


def test_build_relation_graphs_symmetric_zero_diag():
    insts = [f"S{i}" for i in range(6)]
    ind = {s: f"I{i // 2}" for i, s in enumerate(insts)}
    reg = {s: f"R{i % 3}" for i, s in enumerate(insts)}
    g = build_relation_graphs(insts, ind, reg)
    for adj in (g.industry, g.region):
        np.testing.assert_array_equal(adj, adj.T)
        assert np.diag(adj).sum() == 0


def test_normalized_adjacency_matches_dense_oracle():
    rng = np.random.default_rng(0)
    n = 5
    raw = rng.random((n, n)) < 0.4
    adj = np.triu(raw, 1).astype(float)
    adj = adj + adj.T
    got = normalized_adjacency(adj)

    at = adj + np.eye(n)
    deg = np.diag(at.sum(axis=1))
    d_inv_sqrt = np.linalg.inv(np.sqrt(deg))
    want = d_inv_sqrt @ at @ d_inv_sqrt
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_normalized_adjacency_isolated_node_keeps_self_loop():
    adj = np.zeros((3, 3))
    adj[0, 1] = adj[1, 0] = 1.0
    ahat = normalized_adjacency(adj)
    assert ahat[2, 2] == 1.0


def test_normalized_adjacency_validation():
    with pytest.raises(DataError):
        normalized_adjacency(np.ones((2, 3)))
    with pytest.raises(DataError):
        normalized_adjacency(np.full((2, 2), 0.5))
    with pytest.raises(DataError):
        normalized_adjacency(np.eye(2))
    asym = np.zeros((3, 3))
    asym[0, 1] = 1.0
    with pytest.raises(DataError):
        normalized_adjacency(asym)


def test_gcn_layer_identity_on_empty_graph():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(4, 3))
    out = gcn_layer(Tensor(x), np.zeros((4, 4)), Tensor(np.eye(3)), Tensor(np.zeros(3)))
    np.testing.assert_allclose(out.data, x, atol=1e-12)


def test_gcn_layer_two_node_clique_equal_features():
    x = np.tile([[1.0, -2.0]], (2, 1))
    adj = np.array([[0.0, 1.0], [1.0, 0.0]])
    rng = np.random.default_rng(2)
    w = rng.normal(size=(2, 2))
    out = gcn_layer(Tensor(x), adj, Tensor(w), Tensor(np.zeros(2))).data
    np.testing.assert_allclose(out[0], out[1], atol=1e-12)


def test_gcn_layer_matches_dense_oracle_and_is_linear():
    rng = np.random.default_rng(3)
    n, d = 5, 4
    raw = rng.random((n, n)) < 0.5
    adj = np.triu(raw, 1).astype(float)
    adj = adj + adj.T
    x1 = rng.normal(size=(n, d))
    x2 = rng.normal(size=(n, d))
    w = rng.normal(size=(d, d))
    b = rng.normal(size=(d,))

    at = adj + np.eye(n)
    dis = np.diag(1.0 / np.sqrt(at.sum(axis=1)))
    want = dis @ at @ dis @ x1 @ w + b
    got = gcn_layer(Tensor(x1), adj, Tensor(w), Tensor(b)).data
    np.testing.assert_allclose(got, want, atol=1e-9)

    # superposition in x with bias removed
    f = lambda x: gcn_layer(Tensor(x), adj, Tensor(w), Tensor(np.zeros(d))).data
    np.testing.assert_allclose(f(x1 + x2), f(x1) + f(x2), atol=1e-9)


def test_cosine_similarity_parallel_orthogonal_zero():
    u = np.array([
        [1.0, 0.0],
        [2.0, 0.0],   # parallel to row 0
        [0.0, 3.0],   # orthogonal to rows 0, 1
        [0.0, 0.0],   # zero row
    ])
    s = cosine_similarity_matrix(u)
    assert s[0, 1] == pytest.approx(1.0, abs=1e-9)
    assert s[0, 2] == pytest.approx(0.0, abs=1e-12)
    assert s[3, 0] == pytest.approx(0.0, abs=1e-12)
    assert np.isneginf(np.diag(s)).all()
    # symmetric off the diagonal
    off = ~np.eye(4, dtype=bool)
    np.testing.assert_allclose(s[off], s.T[off], atol=1e-12)


def test_topk_graph_counts_and_tie_rule():
    s = np.zeros((4, 4))
    np.fill_diagonal(s, -np.inf)
    g = topk_graph(s, 2)
    # all-equal similarities: lowest indices win
    want = np.array([
        [0, 1, 1, 0],
        [1, 0, 1, 0],
        [1, 1, 0, 0],
        [1, 1, 0, 0],
    ], dtype=float)
    np.testing.assert_array_equal(g.adjacency, want)
    assert (g.adjacency.sum(axis=1) == 2).all()
    assert np.diag(g.adjacency).sum() == 0


def test_topk_graph_matches_sort_oracle():
    rng = np.random.default_rng(4)
    for trial in range(20):
        n = int(rng.integers(3, 9))
        k = int(rng.integers(1, n))
        s = rng.normal(size=(n, n))
        np.fill_diagonal(s, -np.inf)
        g = topk_graph(s, k)
        for i in range(n):
            order = sorted(
                (j for j in range(n) if j != i),
                key=lambda j: (-s[i, j], j),
            )
            want = np.zeros(n)
            want[order[:k]] = 1.0
            np.testing.assert_array_equal(g.adjacency[i], want)


def test_topk_graph_k_out_of_range():
    s = np.zeros((3, 3))
    with pytest.raises(ConfigError):
        topk_graph(s, 0)
    with pytest.raises(ConfigError):
        topk_graph(s, 3)


def _gat_params(rng, d):
    return dict(
        weight=Tensor(rng.normal(size=(d, d))),
        att_src=Tensor(rng.normal(size=(d, 1))),
        att_dst=Tensor(rng.normal(size=(d, 1))),
        out_weight=Tensor(rng.normal(size=(d, d))),
    )


def test_gat_uniform_attention_for_identical_neighbors():
    rng = np.random.default_rng(5)
    d = 3
    u = np.tile(rng.normal(size=(1, d)), (4, 1))
    adj = np.ones((4, 4)) - np.eye(4)
    _, alpha = gat_layer(Tensor(u), adj, **_gat_params(rng, d), return_attention=True)
    off = adj.astype(bool)
    np.testing.assert_allclose(alpha.data[off], 1.0 / 3.0, atol=1e-12)
    np.testing.assert_allclose(alpha.data[~off], 0.0, atol=0)


def test_gat_k1_attention_is_one():
    rng = np.random.default_rng(6)
    d = 4
    u = rng.normal(size=(5, d))
    sim = cosine_similarity_matrix(u)
    g = topk_graph(sim, 1)
    _, alpha = gat_layer(Tensor(u), g.adjacency, **_gat_params(rng, d), return_attention=True)
    picked = g.adjacency.astype(bool)
    np.testing.assert_allclose(alpha.data[picked], 1.0, atol=1e-12)
    np.testing.assert_allclose(alpha.data.sum(axis=1), 1.0, atol=1e-12)


def test_gat_matches_dense_mask_oracle():
    """Brute-force per-row attention over the true neighbor subsets."""
    rng = np.random.default_rng(7)
    n, d, k, slope = 4, 3, 2, 0.2
    u = rng.normal(size=(n, d))
    params = _gat_params(rng, d)
    g = topk_graph(cosine_similarity_matrix(u), k)
    got, alpha = gat_layer(Tensor(u), g.adjacency, **params, return_attention=True)

    w = params["weight"].data
    a1 = params["att_src"].data[:, 0]
    a2 = params["att_dst"].data[:, 0]
    wo = params["out_weight"].data
    wu = u @ w
    lrelu = lambda v: np.where(v > 0, v, slope * v)
    want = np.zeros((n, d))
    want_alpha = np.zeros((n, n))
    for i in range(n):
        nbrs = np.flatnonzero(g.adjacency[i])
        e = np.array([lrelu(a1 @ wu[i] + a2 @ wu[j]) for j in nbrs])
        e = np.exp(e - e.max())
        al = e / e.sum()
        want_alpha[i, nbrs] = al
        agg = (al[:, None] * wu[nbrs]).sum(axis=0)
        want[i] = lrelu(agg @ wo)
    np.testing.assert_allclose(got.data, want, atol=1e-9)
    np.testing.assert_allclose(alpha.data, want_alpha, atol=1e-9)


def test_gat_alpha_rows_sum_to_one():
    rng = np.random.default_rng(8)
    for trial in range(5):
        n, d = 6, 4
        u = rng.normal(size=(n, d))
        g = topk_graph(cosine_similarity_matrix(u), 3)
        _, alpha = gat_layer(
            Tensor(u), g.adjacency, **_gat_params(rng, d), return_attention=True
        )
        np.testing.assert_allclose(alpha.data.sum(axis=1), 1.0, atol=1e-12)
        # mass strictly on the neighborhood
        assert (alpha.data[g.adjacency == 0] == 0).all()


def test_gat_rejects_empty_row():
    rng = np.random.default_rng(9)
    adj = np.zeros((3, 3))
    adj[0, 1] = 1.0
    with pytest.raises(DataError):
        gat_layer(Tensor(rng.normal(size=(3, 2))), adj, **_gat_params(rng, 2))


def test_gat_gradients_flow():
    rng = np.random.default_rng(10)
    n, d = 5, 3
    u = rng.normal(size=(n, d))
    params = _gat_params(rng, d)
    g = topk_graph(cosine_similarity_matrix(u), 2)
    with Tape() as tape:
        tu = Tensor(u)
        z = gat_layer(tu, g.adjacency, **params)
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

    g = topk_graph(cosine_similarity_matrix(u), k)
    g_p = topk_graph(cosine_similarity_matrix(u[perm]), k)
    np.testing.assert_array_equal(g_p.adjacency, g.adjacency[perm][:, perm])

    z = gat_layer(Tensor(u), g.adjacency, **params).data
    z_p = gat_layer(Tensor(u[perm]), g_p.adjacency, **params).data
    np.testing.assert_allclose(z_p, z[perm], atol=1e-9)

    # gcn side
    raw = rng.random((n, n)) < 0.5
    adj = np.triu(raw, 1).astype(float)
    adj = adj + adj.T
    w = Tensor(rng.normal(size=(d, d)))
    b = Tensor(rng.normal(size=(d,)))
    y = gcn_layer(Tensor(u), adj, w, b).data
    y_p = gcn_layer(Tensor(u[perm]), adj[perm][:, perm], w, b).data
    np.testing.assert_allclose(y_p, y[perm], atol=1e-9)


def test_union_graph_or_and_self_loop_fallback():
    a = np.zeros((3, 3))
    a[0, 1] = a[1, 0] = 1.0
    b = np.zeros((3, 3))
    b[1, 2] = b[2, 1] = 1.0
    u = union_graph(a, b)
    want = np.array([
        [0, 1, 0],
        [1, 0, 1],
        [0, 1, 0],
    ], dtype=float)
    np.testing.assert_array_equal(u, want)

    lonely = union_graph(np.zeros((2, 2)), np.zeros((2, 2)))
    np.testing.assert_array_equal(lonely, np.eye(2))


def test_dynamic_graph_row_sums():
    rng = np.random.default_rng(12)
    u = rng.normal(size=(7, 3))
    g = topk_graph(cosine_similarity_matrix(u), 4)
    assert isinstance(g, DynamicGraph)
    assert (g.adjacency.sum(axis=1) == 4).all()


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
    for k in range(1, sim.shape[0]):
        assert np.array_equal(topk_graph(sim, k).adjacency, oracle.topk_np(sim, k))
