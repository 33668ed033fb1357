import base64
import itertools
import json
import math
import re
import tempfile
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles as oracle
from _fd import finite_difference_check_params
from _helpers import act_forward
from xsrank import model as model_module
from xsrank import tensor as tz
from xsrank import training
from xsrank.data import SynthConfig, generate_synthetic
from xsrank.decompose import decompose
from xsrank.errors import ConfigError, DataError
from xsrank.graphs import RelationGraphs, build_relation_graphs
from xsrank.model import (
    FCI_MODES,
    PSPE_MODES,
    SCI_MODES,
    ActConfig,
    ActModel,
    _dropout,
    acf_forward,
    act_forward_parts,
    fci_forward,
    knn_lists,
    load_checkpoint,
    parameter_spec,
    pspe_forward,
    save_checkpoint,
    sci_forward,
    steps_read,
)
from xsrank.tensor import Tensor


def small_cfg(**over):
    base = dict(
        n_features=4, window=12, hidden=8, trend_window=5, fluct_window=3,
        shock_window=3, knn=2, dropout_rate=0.1, tcn_kernel=3,
    )
    base.update(over)
    return ActConfig(**base)


def make_graphs(n, rng):
    instruments = [f"S{i:03d}" for i in range(n)]
    # the last instrument has no industry; the first is alone in its region
    ind_labels = {s: f"I{i % 3}" for i, s in enumerate(instruments[:-1])}
    reg_labels = {s: f"R{i // (n // 2 or 1)}" for i, s in enumerate(instruments)}
    reg_labels[instruments[0]] = "R_solo"
    return build_relation_graphs(instruments, ind_labels, reg_labels)


def make_window(cfg, n, rng):
    return rng.normal(size=(cfg.window, n, cfg.n_features))


def parameter_count(cfg):
    return sum(int(np.prod(shape)) for shape in parameter_spec(cfg).values())


def test_config_validation():
    with pytest.raises(ConfigError):
        small_cfg(pspe="both")
    with pytest.raises(ConfigError):
        small_cfg(fci="gru")
    with pytest.raises(ConfigError):
        small_cfg(sci="none")
    with pytest.raises(ConfigError):
        small_cfg(dropout_rate=1.0)
    with pytest.raises(ConfigError):
        small_cfg(loss_mix=1.5)
    with pytest.raises(ConfigError):
        small_cfg(trend_window=0)
    with pytest.raises(ConfigError):
        small_cfg(hidden=0)
    with pytest.raises(ConfigError):
        small_cfg(knn=0)


def test_parameter_spec_shapes():
    cfg = small_cfg()
    spec = parameter_spec(cfg)
    d, f, k = cfg.hidden, cfg.n_features, cfg.tcn_kernel
    assert spec["trend_proj_w"] == (f, d)
    assert spec["static_mix_w"] == (2 * d, d)
    assert spec["conv_p_w"] == (k, d, d)
    assert spec["shock_w1"] == (2 * d, d)
    assert spec["att_w2"] == (d, 1)
    assert spec["out_w"] == (d, 1)


def test_ablations_shrink_parameter_count():
    full = parameter_count(small_cfg())
    assert parameter_count(small_cfg(pspe="gat_only")) < full
    assert parameter_count(small_cfg(fci="mlp")) < full
    assert parameter_count(small_cfg(sci="mlp")) < full
    gat_spec = parameter_spec(small_cfg(pspe="gat_only"))
    assert "gcn_ind_w" not in gat_spec
    assert "gate_w2" not in gat_spec
    assert "gat_w" in gat_spec


def test_model_init_deterministic():
    cfg = small_cfg()
    a = ActModel(cfg, seed=3)
    b = ActModel(cfg, seed=3)
    c = ActModel(cfg, seed=4)
    for name in a.params:
        assert np.array_equal(a[name].data, b[name].data)
    assert any(not np.array_equal(a[name].data, c[name].data) for name in a.params)
    assert np.array_equal(a["trend_in_ln_g"].data, np.ones(cfg.hidden))
    assert np.array_equal(a["gcn_ind_b"].data, np.zeros(cfg.hidden))


def test_act_forward_shapes_and_diagnostics():
    rng = np.random.default_rng(0)
    cfg = small_cfg()
    n = 6
    model = ActModel(cfg, seed=1)
    graphs = make_graphs(n, rng)
    y, diag = act_forward(make_window(cfg, n, rng), graphs, model)
    assert y.shape == (n,)
    assert diag["alpha"].shape == (n, 3)
    assert np.allclose(diag["alpha"].sum(axis=1), 1.0)
    assert diag["neighbors"].shape == (n, cfg.knn)
    assert (np.diff(diag["neighbors"], axis=1) > 0).all()
    assert (diag["neighbors"] != np.arange(n)[:, None]).all()
    assert isinstance(diag["gate_mean"], float)


def test_act_forward_gat_only_diagnostics():
    rng = np.random.default_rng(1)
    cfg = small_cfg(pspe="gat_only")
    n = 6
    model = ActModel(cfg, seed=1)
    graphs = make_graphs(n, rng)
    y, diag = act_forward(make_window(cfg, n, rng), graphs, model)
    assert y.shape == (n,)
    assert diag["gate_mean"] is None
    assert np.array_equal(
        diag["neighbors"],
        oracle.neighbor_lists(oracle.union_np(*oracle.relation_adjacencies(graphs))),
    )


def test_act_forward_does_not_recheck_static_graphs(monkeypatch):
    rng = np.random.default_rng(2)
    n = 6
    graphs = make_graphs(n, rng)
    checked = []
    check = RelationGraphs.__post_init__
    monkeypatch.setattr(RelationGraphs, "__post_init__",
                        lambda self: checked.append(self) or check(self))
    stored = {f.name for f in fields(RelationGraphs)} | {"union_neighbors"}
    cached = []
    for pspe in ("full", "full", "gat_only", "gat_only"):
        cfg = small_cfg(pspe=pspe)
        y, _ = act_forward(make_window(cfg, n, rng), graphs, ActModel(cfg, seed=1))
        assert np.isfinite(y.data).all()
        assert vars(graphs).keys() <= stored
        cached.append({"union_neighbors": vars(graphs).get("union_neighbors")})
    # the codes were checked when the graphs were built; no GCN mean
    # matrix is stored on the graphs, as each full pass builds its own,
    # and the union lists are built once, by the first gat_only pass
    assert checked == []
    assert cached[0]["union_neighbors"] is None and cached[1]["union_neighbors"] is None
    assert cached[2]["union_neighbors"] is not None
    assert cached[3]["union_neighbors"] is cached[2]["union_neighbors"]


def test_pspe_matches_straight_line_oracle():
    rng = np.random.default_rng(7)
    cfg = small_cfg()
    n = 7
    for seed in range(3):
        model = ActModel(cfg, seed=seed)
        graphs = make_graphs(n, rng)
        x_trend = rng.normal(size=(cfg.window, n, cfg.n_features))
        z, dyn, gate_mean = pspe_forward(x_trend, graphs, model, cfg)
        ref = oracle.pspe_np(
            x_trend, *oracle.relation_adjacencies(graphs), model.state_arrays(),
            cfg.leaky_slope, cfg.knn,
        )
        assert np.array_equal(dyn, oracle.neighbor_lists(ref["dyn_adj"]))
        assert np.max(np.abs(z.data - ref["z_trend"])) < 1e-9
        assert abs(gate_mean - ref["gate"].mean()) < 1e-9


def test_pspe_residual_keeps_rows_with_no_relative():
    # a row alone in its industry and in its region has no shared mean, so
    # the purified residual is x0 itself, bit for bit, and the k-NN lists
    # are those of leaky(x0 W); the removal has no weights of its own
    rng = np.random.default_rng(8)
    cfg = small_cfg()
    n = 6
    model = ActModel(cfg, seed=2)
    assert not [name for name in parameter_spec(cfg) if name.startswith("back_head")]
    graphs = build_relation_graphs([f"S{i}" for i in range(n)], {}, {})
    x_trend = rng.normal(size=(cfg.window, n, cfg.n_features))
    z, dyn, _ = pspe_forward(x_trend, graphs, model, cfg)
    x0 = model_module._proj_ln(x_trend[-1], model, "trend_proj", "trend_in_ln")
    u_tilde = tz.leaky_relu(tz.matmul(x0, model["resid_proj_w"]), cfg.leaky_slope)
    assert np.array_equal(dyn, knn_lists(u_tilde.data, cfg.knn))
    ref = oracle.pspe_np(
        x_trend, *oracle.relation_adjacencies(graphs), model.state_arrays(),
        cfg.leaky_slope, cfg.knn,
    )
    assert np.array_equal(ref["u"], ref["x0"])
    assert np.max(np.abs(z.data - ref["z_trend"])) < 1e-9


def test_pspe_gate_bias_shuts_dynamic_path():
    rng = np.random.default_rng(9)
    cfg = small_cfg()
    n = 6
    model = ActModel(cfg, seed=3)
    model.params["gate_b2"] = Tensor(np.full(cfg.hidden, -50.0))
    graphs = make_graphs(n, rng)
    x_trend = rng.normal(size=(cfg.window, n, cfg.n_features))
    z, _, gate_mean = pspe_forward(x_trend, graphs, model, cfg)
    ref = oracle.pspe_np(
        x_trend, *oracle.relation_adjacencies(graphs), model.state_arrays(),
        cfg.leaky_slope, cfg.knn,
    )
    p = model.state_arrays()
    static_only = oracle.layer_norm_rows(
        ref["z_s"], p["trend_out_ln_g"], p["trend_out_ln_b"]
    )
    assert np.max(np.abs(z.data - static_only)) < 1e-9
    assert gate_mean < 1e-9


def test_pspe_ablation_matches_oracle():
    rng = np.random.default_rng(10)
    cfg = small_cfg(pspe="gat_only")
    n = 7
    for seed in range(3):
        model = ActModel(cfg, seed=seed)
        graphs = make_graphs(n, rng)
        x_trend = rng.normal(size=(cfg.window, n, cfg.n_features))
        z, uni, gate_mean = pspe_forward(x_trend, graphs, model, cfg)
        assert gate_mean is None
        ref, ref_uni = oracle.gat_only_np(
            x_trend, *oracle.relation_adjacencies(graphs), model.state_arrays(),
            cfg.leaky_slope,
        )
        assert np.array_equal(uni, oracle.neighbor_lists(ref_uni))
        assert np.max(np.abs(z.data - ref)) < 1e-9


def test_fci_matches_straight_line_oracle():
    rng = np.random.default_rng(11)
    # the default, windows shorter than the kernel, and a one-tap kernel
    shapes = ({}, {"window": 1}, {"window": 2}, {"tcn_kernel": 1})
    for over, seed in itertools.product(shapes, range(3)):
        cfg = small_cfg(**over)
        model = ActModel(cfg, seed=seed)
        x_fluct = rng.normal(size=(cfg.window, 6, cfg.n_features))
        z = fci_forward(x_fluct, model, cfg)
        ref = oracle.fci_np(x_fluct, model.state_arrays())
        assert z.shape == (6, cfg.hidden)
        assert np.max(np.abs(z.data - ref)) < 1e-9


def test_fci_zero_input_fresh_model_is_zero():
    # biases start at zero, layer norm of an all-zero row is zero, the
    # gated conv then produces relu(0 * sigmoid(0) + 0) = 0
    cfg = small_cfg()
    model = ActModel(cfg, seed=5)
    z = fci_forward(np.zeros((cfg.window, 4, cfg.n_features)), model, cfg)
    assert np.array_equal(z.data, np.zeros((4, cfg.hidden)))


def test_fci_per_stock_locality():
    rng = np.random.default_rng(12)
    cfg = small_cfg()
    model = ActModel(cfg, seed=6)
    x = rng.normal(size=(cfg.window, 6, cfg.n_features))
    base = fci_forward(x, model, cfg).data
    bumped = x.copy()
    bumped[:, 2, :] += rng.normal(size=(cfg.window, cfg.n_features))
    out = fci_forward(bumped, model, cfg).data
    keep = [i for i in range(6) if i != 2]
    assert np.array_equal(out[keep], base[keep])
    assert not np.array_equal(out[2], base[2])


def test_sci_matches_straight_line_oracle():
    rng = np.random.default_rng(13)
    cfg = small_cfg()
    for seed in range(3):
        model = ActModel(cfg, seed=seed)
        x_shock = rng.normal(size=(cfg.window, 6, cfg.n_features))
        z = sci_forward(x_shock, model, cfg)
        ref = oracle.sci_np(x_shock, model.state_arrays(), cfg.shock_window,
                            cfg.leaky_slope)
        assert z.shape == (6, cfg.hidden)
        assert np.max(np.abs(z.data - ref)) < 1e-9


def test_sci_window_one_compares_current_to_itself():
    rng = np.random.default_rng(14)
    cfg = small_cfg(shock_window=1)
    model = ActModel(cfg, seed=7)
    x_shock = rng.normal(size=(cfg.window, 5, cfg.n_features))
    z = sci_forward(x_shock, model, cfg)
    p = model.state_arrays()
    x = oracle.layer_norm_rows(
        x_shock[-1] @ p["shock_proj_w"] + p["shock_proj_b"],
        p["shock_ln_g"], p["shock_ln_b"],
    )
    h = oracle.leaky(np.concatenate([x, x], axis=1) @ p["shock_w1"], cfg.leaky_slope)
    assert np.max(np.abs(z.data - h @ p["shock_w2"])) < 1e-9


def test_sci_per_stock_locality():
    rng = np.random.default_rng(15)
    cfg = small_cfg()
    model = ActModel(cfg, seed=8)
    x = rng.normal(size=(cfg.window, 6, cfg.n_features))
    base = sci_forward(x, model, cfg).data
    bumped = x.copy()
    bumped[:, 4, :] -= 0.7
    out = sci_forward(bumped, model, cfg).data
    keep = [i for i in range(6) if i != 4]
    assert np.array_equal(out[keep], base[keep])


def test_mlp_isolation_matches_oracle():
    rng = np.random.default_rng(16)
    for branch, forward, over in (("fluct", fci_forward, {"fci": "mlp"}),
                                  ("shock", sci_forward, {"sci": "mlp"})):
        cfg = small_cfg(**over)
        model = ActModel(cfg, seed=9)
        x = rng.normal(size=(cfg.window, 6, cfg.n_features))
        z = forward(x, model, cfg)
        ref = oracle.mlp_np(x, model.state_arrays(), branch, cfg.leaky_slope)
        assert np.max(np.abs(z.data - ref)) < 1e-9


def test_acf_matches_straight_line_oracle():
    rng = np.random.default_rng(17)
    cfg = small_cfg()
    model = ActModel(cfg, seed=10)
    n = 6
    zs = [Tensor(rng.normal(size=(n, cfg.hidden))) for _ in range(3)]
    y, alpha = acf_forward(zs[0], zs[1], zs[2], model)
    ref_y, ref_alpha = oracle.acf_np(
        zs[0].data, zs[1].data, zs[2].data, model.state_arrays()
    )
    assert y.shape == (n,)
    assert np.max(np.abs(y.data - ref_y)) < 1e-9
    assert np.max(np.abs(alpha.data - ref_alpha)) < 1e-9


def test_acf_identical_components_average_evenly():
    rng = np.random.default_rng(18)
    cfg = small_cfg()
    model = ActModel(cfg, seed=11)
    z = Tensor(rng.normal(size=(5, cfg.hidden)))
    y, alpha = acf_forward(z, z, z, model)
    assert np.array_equal(alpha.data, np.full((5, 3), 1.0 / 3.0))
    direct = (z.data @ model["out_w"].data)[:, 0]
    assert np.max(np.abs(y.data - direct)) < 1e-12


def test_act_forward_matches_oracle_all_modes():
    rng = np.random.default_rng(19)
    combos = [
        {},
        {"pspe": "gat_only"},
        {"fci": "mlp"},
        {"sci": "mlp"},
        {"pspe": "gat_only", "fci": "mlp", "sci": "mlp"},
    ]
    n = 7
    for i, over in enumerate(combos):
        cfg = small_cfg(**over)
        model = ActModel(cfg, seed=20 + i)
        graphs = make_graphs(n, rng)
        window = make_window(cfg, n, rng)
        y, diag = act_forward(window, graphs, model)
        ref_y, ref_alpha = oracle.act_np(
            window, *oracle.relation_adjacencies(graphs), model.state_arrays(),
            cfg.to_dict(),
        )
        assert np.max(np.abs(y.data - ref_y)) < 1e-9, over
        assert np.max(np.abs(diag["alpha"] - ref_alpha)) < 1e-9, over


def test_act_forward_permutation_equivariance():
    rng = np.random.default_rng(21)
    cfg = small_cfg()
    n = 8
    model = ActModel(cfg, seed=12)
    graphs = make_graphs(n, rng)
    window = make_window(cfg, n, rng)
    y, _ = act_forward(window, graphs, model)

    perm = rng.permutation(n)
    graphs_p = RelationGraphs(
        instruments=[graphs.instruments[i] for i in perm],
        industry=graphs.industry[perm],
        region=graphs.region[perm],
    )
    y_p, _ = act_forward(window[:, perm, :], graphs_p, model)
    assert np.max(np.abs(y_p.data - y.data[perm])) < 1e-9


def test_dropout_eval_identity_train_scaling():
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(size=(50, 20)))
    drop_rng = np.random.default_rng(7)
    assert _dropout(x, 0.4, drop_rng, training=False) is x
    assert _dropout(x, 0.0, drop_rng, training=True) is x

    out_train = _dropout(x, 0.4, drop_rng, training=True).data
    kept = out_train != 0
    np.testing.assert_allclose(out_train[kept], x.data[kept] / 0.6)
    # kept fraction near 1 - rate
    assert abs(kept.mean() - 0.6) < 0.05


def test_dropout_is_seeded_and_training_only():
    rng = np.random.default_rng(22)
    cfg = small_cfg(dropout_rate=0.5)
    n = 6
    model = ActModel(cfg, seed=13)
    graphs = make_graphs(n, rng)
    window = make_window(cfg, n, rng)

    eval_a, _ = act_forward(window, graphs, model)
    eval_b, _ = act_forward(window, graphs, model)
    assert np.array_equal(eval_a.data, eval_b.data)

    model.dropout_rng = np.random.default_rng(99)
    train_a, _ = act_forward(window, graphs, model, training=True)
    train_b, _ = act_forward(window, graphs, model, training=True)
    assert not np.array_equal(train_a.data, train_b.data)
    model.dropout_rng = np.random.default_rng(99)
    train_c, _ = act_forward(window, graphs, model, training=True)
    assert np.array_equal(train_a.data, train_c.data)
    assert not np.array_equal(train_a.data, eval_a.data)


def test_end_to_end_gradient_matches_finite_differences():
    rng = np.random.default_rng(23)
    cfg = small_cfg(hidden=6, window=10, knn=2)
    n = 6
    for seed in (31, 32):
        model = ActModel(cfg, seed=seed)
        graphs = make_graphs(n, rng)
        window = make_window(cfg, n, rng)

        def f():
            y, _ = act_forward(window, graphs, model)
            return tz.div(tz.tensor_sum(tz.mul(y, y)), Tensor(float(n)))

        names = sorted(model.params)
        worst = finite_difference_check_params(
            f, [model.params[k] for k in names], step=1e-6
        )
        assert worst < 1e-4, (seed, worst)


@settings(max_examples=30, deadline=None)
@given(
    pspe=st.sampled_from(PSPE_MODES),
    fci=st.sampled_from(FCI_MODES),
    sci=st.sampled_from(SCI_MODES),
    hidden=st.integers(1, 12),
    tcn_kernel=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_checkpoint_round_trip(pspe, fci, sci, hidden, tcn_kernel, seed):
    rng = np.random.default_rng(seed)
    cfg = small_cfg(pspe=pspe, fci=fci, sci=sci, hidden=hidden, tcn_kernel=tcn_kernel)
    n = 6
    model = ActModel(cfg, seed=seed)
    graphs = make_graphs(n, rng)
    window = make_window(cfg, n, rng)
    y, _ = act_forward(window, graphs, model)

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        save_checkpoint(model, path)
        again = Path(tmp) / "model2.json"
        save_checkpoint(model, again)
        assert path.read_bytes() == again.read_bytes()

        loaded = load_checkpoint(path)
        assert loaded.cfg == cfg
        assert loaded.params.keys() == model.params.keys()
        for name in model.params:
            assert loaded[name].data.tobytes() == model[name].data.tobytes()
            assert loaded[name].shape == model[name].shape
        y2, _ = act_forward(window, graphs, loaded)
        assert np.array_equal(y.data, y2.data)

        resaved = Path(tmp) / "model3.json"
        save_checkpoint(loaded, resaved)
        assert resaved.read_bytes() == path.read_bytes()

        # the file is one json.dumps of the payload, each parameter the
        # base64 of its row-major little-endian float64 bytes, and a signed
        # zero, the smallest subnormal, 1e16 and the largest float load
        # back bit for bit
        widest = max(model.params, key=lambda name: model[name].data.size)
        specials = [-0.0, 5e-324, 1e16, np.finfo(np.float64).max]
        count = min(len(specials), model[widest].data.size)
        model[widest].data.flat[:count] = specials[:count]
        save_checkpoint(model, path)
        reference = json.dumps({
            "config": cfg.to_dict(),
            "format_version": 3,
            "params": {name: {"data": base64.b64encode(t.data.astype("<f8").tobytes()).decode(),
                              "shape": list(t.shape)}
                       for name, t in model.params.items()},
            "seed": seed,
        }, sort_keys=True, separators=(",", ":")) + "\n"
        assert path.read_bytes() == reference.encode("utf-8")
        assert load_checkpoint(path)[widest].data.tobytes() == model[widest].data.tobytes()


def test_checkpoint_rejects_bad_files(tmp_path):
    import json

    cfg = small_cfg()
    model = ActModel(cfg, seed=15)
    path = tmp_path / "ck.json"
    save_checkpoint(model, path)
    payload = json.loads(path.read_text())
    payload["format_version"] = 99
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    with pytest.raises(ConfigError, match="bad.json: unsupported checkpoint version 99, not 3; "
                                          "re-run train to write one"):
        load_checkpoint(bad)

    payload = json.loads(path.read_text())
    del payload["params"]["out_w"]
    bad2 = tmp_path / "bad2.json"
    bad2.write_text(json.dumps(payload))
    with pytest.raises(DataError, match="bad2.json: checkpoint field 'params.out_w' is missing"):
        load_checkpoint(bad2)

    notjson = tmp_path / "nope.json"
    notjson.write_text("{broken")
    with pytest.raises(DataError):
        load_checkpoint(notjson)


def test_checkpoint_refuses_an_extra_parameter_and_a_directory(tmp_path):
    path = tmp_path / "ck.json"
    save_checkpoint(ActModel(small_cfg(), seed=15), path)
    payload = json.loads(path.read_text())
    payload["params"]["zz_w"] = payload["params"]["out_w"]
    extra = tmp_path / "extra.json"
    extra.write_text(json.dumps(payload))
    with pytest.raises(DataError, match="^" + re.escape(
            f"{extra}: checkpoint field 'params.zz_w' is not a model parameter") + "$"):
        load_checkpoint(extra)
    with pytest.raises(DataError, match=f"^{re.escape(str(tmp_path))}: "):
        load_checkpoint(tmp_path)


def test_hidden_64_checkpoint_stays_within_its_byte_size(tmp_path):
    # 105,408 float64 values in base64 take 1,126,328 bytes; the 113,600
    # of the model with back heads took about 2,330,000 as decimal text
    model = ActModel(ActConfig(n_features=8, window=16), seed=0)
    assert model.cfg.hidden == 64
    path = tmp_path / "checkpoint.json"
    save_checkpoint(model, path)
    assert path.stat().st_size <= 1_250_000


def test_load_checkpoint_lets_go_of_each_parameter_text_as_it_decodes(tmp_path):
    # the parsed payload's base64 text, 4/3 of the weights' bytes, is let
    # go parameter by parameter as the arrays are decoded, so the load
    # peaks while json parses the file: 2.69 times the weights' bytes
    # (2.27 MB at hidden 64). Before, every text was held to the end: 3.38
    # times (2.93 MB with the two back heads). The bound, 2.9 times,
    # leaves a fifth of the weights' bytes
    cfg = ActConfig(n_features=8, window=16)
    path = tmp_path / "checkpoint.json"
    save_checkpoint(ActModel(cfg, seed=0), path)
    weights = sum(8 * math.prod(shape) for shape in parameter_spec(cfg).values())
    load_checkpoint(path)
    tracemalloc.start()
    try:
        load_checkpoint(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.9 * weights, (peak, weights)


def test_load_checkpoint_draws_no_weights(tmp_path, monkeypatch):
    # before: the loader built ActModel(cfg, seed), drew every weight, and
    # then replaced them all with the file's
    cfg = ActConfig(n_features=8, window=16)
    model = ActModel(cfg, seed=3)
    fresh = ActModel(cfg, seed=3)
    path = tmp_path / "checkpoint.json"
    save_checkpoint(model, path)

    def refuse(*args):
        raise AssertionError("load_checkpoint drew a weight")

    monkeypatch.setattr(model_module, "_init_value", refuse)
    loaded = load_checkpoint(path)
    assert list(loaded.params) == list(model.params)
    for name, t in model.params.items():
        assert loaded[name].data.tobytes() == t.data.tobytes()
        assert loaded[name].data.flags.writeable and loaded[name].data.flags.c_contiguous
    assert loaded.seed == 3
    assert loaded.dropout_rng.random(64).tobytes() == fresh.dropout_rng.random(64).tobytes()


def test_save_checkpoint_refuses_a_non_finite_parameter(tmp_path):
    # before: json wrote NaN, which the loader now refuses
    model = ActModel(small_cfg(), seed=15)
    model["out_w"].data[0, 0] = np.nan
    path = tmp_path / "ck.json"
    with pytest.raises(DataError, match="ck.json: refusing to write non-finite parameter out_w"):
        save_checkpoint(model, path)
    assert not path.exists()


def test_fci_depends_only_on_last_kernel_steps():
    rng = np.random.default_rng(13)
    cfg = small_cfg()
    assert cfg.window > cfg.tcn_kernel
    model = ActModel(cfg, seed=7)
    x = rng.normal(size=(cfg.window, 5, cfg.n_features))
    base = fci_forward(x, model, cfg).data
    trimmed = fci_forward(x[-cfg.tcn_kernel:], model, cfg).data
    assert np.array_equal(base, trimmed)
    # any step older than the receptive field leaves the output untouched
    for step in range(cfg.window - cfg.tcn_kernel):
        changed = x.copy()
        changed[step] = rng.normal(scale=10.0, size=changed[step].shape)
        assert np.array_equal(fci_forward(changed, model, cfg).data, base)
    # the oldest step inside it does not
    changed = x.copy()
    changed[-cfg.tcn_kernel] += 1.0
    assert not np.array_equal(fci_forward(changed, model, cfg).data, base)


VARIANTS = list(itertools.product(PSPE_MODES, FCI_MODES, SCI_MODES))


@pytest.mark.parametrize("pspe,fci,sci", VARIANTS)
def test_forward_on_the_kept_steps_equals_the_whole_decomposition(pspe, fci, sci):
    # a window keeps copies of only the trailing steps its branches read,
    # and scores as the decomposition of all its steps does, bit for bit,
    # in training and in inference, down to windows shorter than the
    # kernel and the shock buffer
    ds, graphs = generate_synthetic(SynthConfig(n_instruments=6, n_features=4, days=12,
                                                seed=3))[:2]
    ends = np.array([7, 11])
    for window in (1, 2, 8):
        cfg = small_cfg(window=window, tcn_kernel=3, shock_window=5,
                        pspe=pspe, fci=fci, sci=sci)
        whole = decompose(np.stack([ds.features[e + 1 - window: e + 1] for e in ends], axis=1),
                          cfg.trend_window, cfg.fluct_window)
        kept = training._decompose_windows(ds, ends, cfg)
        comps = (kept.trend, kept.fluct, kept.shock)
        assert [len(c) for c in comps] == [min(s, window) for s in steps_read(cfg)]
        assert all(c.base is None and c.flags["C_CONTIGUOUS"] for c in comps)
        for train_mode in (False, True):
            got, want = (act_forward_parts(parts, graphs, ActModel(cfg, seed=4),
                                           training=train_mode)[0].data
                         for parts in (kept, whole))
            assert np.array_equal(got, want)


def _windows(cfg, n, b, rng):
    return [make_window(cfg, n, rng) for _ in range(b)]


def _stacked(cfg, windows):
    """One decomposition of the windows stacked on axis 1, as training and
    validation decompose a batch."""
    return decompose(np.stack(windows, axis=1), cfg.trend_window, cfg.fluct_window)


@pytest.mark.parametrize("pspe,fci,sci", VARIANTS)
@settings(max_examples=12, deadline=None)
@given(b=st.integers(1, 5), n=st.integers(3, 8), seed=st.integers(0, 2**16))
def test_batched_forward_equals_per_window_bitwise(pspe, fci, sci, b, n, seed):
    rng = np.random.default_rng(seed)
    cfg = small_cfg(pspe=pspe, fci=fci, sci=sci)
    model = ActModel(cfg, seed=seed)
    graphs = make_graphs(n, rng)
    windows = _windows(cfg, n, b, rng)
    y, diag = act_forward_parts(_stacked(cfg, windows), graphs, model)
    assert y.shape == (b, n) and diag["alpha"].shape == (b, n, 3)
    assert diag["neighbors"].shape[:2] == (b, n)
    for k, window in enumerate(windows):
        y1, diag1 = act_forward_parts(
            decompose(window, cfg.trend_window, cfg.fluct_window), graphs, model)
        assert np.array_equal(y.data[k], y1.data)
        assert np.array_equal(diag["alpha"][k], diag1["alpha"])
        assert np.array_equal(diag["neighbors"][k], diag1["neighbors"])
        if pspe == "full":
            assert diag["gate_mean"][k] == diag1["gate_mean"]
        else:
            assert diag["gate_mean"] is None and diag1["gate_mean"] is None


@settings(max_examples=12, deadline=None)
@given(b=st.integers(1, 4), n=st.integers(129, 300), distinct=st.integers(2, 12),
       k=st.integers(1, 10), seed=st.integers(0, 2**16))
def test_a_window_gets_its_knn_lists_and_scores_alone_in_any_batch(b, n, distinct, k, seed):
    # above N = 128 a window's similarity takes more than one block of
    # rows. Each window takes its own blocks, so its GEMMs are those it
    # runs alone; a block spanning the batch would change their shapes,
    # and an ulp moves a pick among exactly tied columns. Every stock
    # here copies one of a few distinct ones, in every window, exactly or
    # (for the lists) times 2, so ties are everywhere
    rng = np.random.default_rng(seed)
    copy_of = rng.integers(0, distinct, size=n)
    scale = rng.choice([1.0, 2.0], size=(n, 1))
    u = rng.normal(size=(b, distinct, 8))[:, copy_of] * scale
    lists = knn_lists(u, k)
    for w in range(b):
        assert np.array_equal(lists[w], knn_lists(u[w], k))

    # a copy shares its original's categories, so its trend residual ties too
    cfg = small_cfg(knn=k)
    model = ActModel(cfg, seed=seed)
    instruments = [f"S{i:03d}" for i in range(n)]
    graphs = build_relation_graphs(
        instruments, {s: f"I{c % 3}" for s, c in zip(instruments, copy_of)},
        {s: f"R{c % 2}" for s, c in zip(instruments, copy_of)})
    windows = [rng.normal(size=(cfg.window, distinct, cfg.n_features))[:, copy_of]
               for _ in range(b)]
    y, diag = act_forward_parts(_stacked(cfg, windows), graphs, model)
    for w, window in enumerate(windows):
        y1, diag1 = act_forward_parts(
            decompose(window, cfg.trend_window, cfg.fluct_window), graphs, model)
        assert np.array_equal(diag["neighbors"][w], diag1["neighbors"])
        assert np.array_equal(y.data[w], y1.data)


@pytest.mark.parametrize("pspe,fci,sci", VARIANTS)
def test_batched_training_forward_is_deterministic_per_seed(pspe, fci, sci):
    rng = np.random.default_rng(24)
    cfg = small_cfg(pspe=pspe, fci=fci, sci=sci, dropout_rate=0.5)
    n = 6
    model = ActModel(cfg, seed=14)
    graphs = make_graphs(n, rng)
    windows = _windows(cfg, n, 3, rng)
    batch = _stacked(cfg, windows)

    runs = []
    for _ in range(2):
        model.dropout_rng = np.random.default_rng(7)
        runs.append(act_forward_parts(batch, graphs, model, training=True)[0].data)
    assert np.array_equal(runs[0], runs[1])
    # a batch of one draws the same masks as the window alone
    model.dropout_rng = np.random.default_rng(7)
    alone = act_forward_parts(decompose(windows[0], cfg.trend_window, cfg.fluct_window),
                              graphs, model, training=True)[0].data
    model.dropout_rng = np.random.default_rng(7)
    single = act_forward_parts(_stacked(cfg, windows[:1]), graphs, model,
                               training=True)[0].data
    assert np.array_equal(single[0], alone)
    evaluated = act_forward_parts(batch, graphs, model)[0].data
    dropped = fci == "tcn" or sci == "counterfactual"
    assert np.array_equal(runs[0], evaluated) is not dropped


@pytest.mark.parametrize("fci,sci", list(itertools.product(FCI_MODES, SCI_MODES)))
@settings(max_examples=10, deadline=None)
@given(b=st.integers(2, 4), n=st.integers(4, 8), stock=st.integers(0, 7),
       seed=st.integers(0, 2**16))
def test_only_the_trend_branch_mixes_stocks(fci, sci, b, n, stock, seed):
    # the fluctuation and shock branches keep each stock's local patterns:
    # perturbing one stock's window leaves every other stock's embeddings
    # bitwise equal, for one window and for a batch, while the trend
    # branch, which relates stocks, moves
    rng = np.random.default_rng(seed)
    cfg = small_cfg(fci=fci, sci=sci)
    model = ActModel(cfg, seed=seed)
    instruments = [f"S{i:03d}" for i in range(n)]
    # every stock shares a region with another
    graphs = build_relation_graphs(instruments,
                                   {s: f"I{i // 2}" for i, s in enumerate(instruments)},
                                   {s: f"R{i % 2}" for i, s in enumerate(instruments)})
    stock %= n
    windows = _windows(cfg, n, b, rng)
    bumped = [w.copy() for w in windows]
    bumped[-1][:, stock, :] += rng.normal(size=(cfg.window, cfg.n_features))
    others = np.arange(n) != stock
    decomposed = (lambda w: decompose(w, cfg.trend_window, cfg.fluct_window),
                  lambda ws: _stacked(cfg, ws))
    for parts, moved in ((decomposed[0](windows[-1]), decomposed[0](bumped[-1])),
                         (decomposed[1](windows), decomposed[1](bumped))):
        for forward, component in ((fci_forward, "fluct"), (sci_forward, "shock")):
            z = forward(getattr(parts, component), model, cfg).data
            z_moved = forward(getattr(moved, component), model, cfg).data
            assert np.array_equal(z[..., others, :], z_moved[..., others, :]), component
        trend = pspe_forward(parts.trend, graphs, model, cfg)[0].data
        trend_moved = pspe_forward(moved.trend, graphs, model, cfg)[0].data
        assert not np.array_equal(trend[..., others, :], trend_moved[..., others, :])
