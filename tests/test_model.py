import numpy as np
import pytest

import _oracles as oracle
from xsrank import tensor as tz
from xsrank.errors import ConfigError, DataError, NonFiniteError
from xsrank.graphs import RelationGraphs, membership_adjacency
from xsrank.model import (
    ActConfig,
    ActModel,
    acf_forward,
    act_forward,
    fci_forward,
    load_checkpoint,
    mlp_isolation_forward,
    parameter_count,
    parameter_spec,
    pspe_ablation_forward,
    pspe_forward,
    save_checkpoint,
    sci_forward,
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
    ind_labels = {s: f"I{i % 3}" for i, s in enumerate(instruments)}
    reg_labels = {s: f"R{i // (n // 2 or 1)}" for i, s in enumerate(instruments)}
    return RelationGraphs(
        instruments=instruments,
        industry=membership_adjacency(instruments, ind_labels),
        region=membership_adjacency(instruments, reg_labels),
        industry_labels=ind_labels,
        region_labels=reg_labels,
    )


def make_window(cfg, n, rng):
    return rng.normal(size=(cfg.window, n, cfg.n_features))


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
    assert parameter_count(cfg) == sum(int(np.prod(s)) for s in spec.values())


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
    assert diag["dynamic_adjacency"].shape == (n, n)
    assert np.array_equal(diag["dynamic_adjacency"].sum(axis=1), np.full(n, cfg.knn))
    assert isinstance(diag["gate_mean"], float)
    assert np.array_equal(diag["scores"], y.data)


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
        diag["dynamic_adjacency"], oracle.union_np(graphs.industry, graphs.region)
    )


def test_act_forward_input_validation():
    rng = np.random.default_rng(2)
    cfg = small_cfg()
    model = ActModel(cfg, seed=0)
    graphs = make_graphs(6, rng)
    with pytest.raises(DataError):
        act_forward(rng.normal(size=(cfg.window + 1, 6, cfg.n_features)), graphs, model)
    with pytest.raises(DataError):
        act_forward(rng.normal(size=(cfg.window, 6, cfg.n_features + 2)), graphs, model)
    with pytest.raises(DataError):
        act_forward(rng.normal(size=(cfg.window, 5, cfg.n_features)), graphs, model)
    bad = make_window(cfg, 6, rng)
    bad[3, 2, 1] = np.nan
    with pytest.raises(NonFiniteError):
        act_forward(bad, graphs, model)


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
            x_trend, graphs.industry, graphs.region, model.state_arrays(),
            cfg.leaky_slope, cfg.knn,
        )
        assert np.array_equal(dyn.adjacency, ref["dyn_adj"])
        assert np.max(np.abs(z.data - ref["z_trend"])) < 1e-9
        assert abs(gate_mean - ref["gate"].mean()) < 1e-9


def test_pspe_zero_back_heads_keeps_input_residual():
    # with the subtraction heads zeroed the purified residual is x0 itself
    rng = np.random.default_rng(8)
    cfg = small_cfg()
    n = 6
    model = ActModel(cfg, seed=2)
    for rel in ("ind", "reg"):
        model.params[f"back_head_{rel}"] = Tensor(np.zeros((cfg.hidden, cfg.hidden)))
    graphs = make_graphs(n, rng)
    x_trend = rng.normal(size=(cfg.window, n, cfg.n_features))
    z, _, _ = pspe_forward(x_trend, graphs, model, cfg)
    ref = oracle.pspe_np(
        x_trend, graphs.industry, graphs.region, model.state_arrays(),
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
        x_trend, graphs.industry, graphs.region, model.state_arrays(),
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
        z, uni = pspe_ablation_forward(x_trend, graphs, model, cfg)
        ref, ref_uni = oracle.gat_only_np(
            x_trend, graphs.industry, graphs.region, model.state_arrays(),
            cfg.leaky_slope,
        )
        assert np.array_equal(uni, ref_uni)
        assert np.max(np.abs(z.data - ref)) < 1e-9


def test_fci_matches_straight_line_oracle():
    rng = np.random.default_rng(11)
    cfg = small_cfg()
    for seed in range(3):
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
    for branch, over in (("fluct", {"fci": "mlp"}), ("shock", {"sci": "mlp"})):
        cfg = small_cfg(**over)
        model = ActModel(cfg, seed=9)
        x = rng.normal(size=(cfg.window, 6, cfg.n_features))
        z = mlp_isolation_forward(x, model, cfg, branch=branch)
        ref = oracle.mlp_np(x, model.state_arrays(), branch, cfg.leaky_slope)
        assert np.max(np.abs(z.data - ref)) < 1e-9


def test_branch_mode_guards():
    cfg = small_cfg()
    model = ActModel(cfg, seed=0)
    x = np.zeros((cfg.window, 4, cfg.n_features))
    with pytest.raises(ConfigError):
        mlp_isolation_forward(x, model, cfg, branch="fluct")
    with pytest.raises(ConfigError):
        mlp_isolation_forward(x, model, cfg, branch="trend")
    abl = small_cfg(pspe="gat_only")
    model2 = ActModel(abl, seed=0)
    with pytest.raises(ConfigError):
        pspe_forward(x, make_graphs(4, np.random.default_rng(0)), model2, abl)


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
            window, graphs.industry, graphs.region, model.state_arrays(),
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
        industry=graphs.industry[np.ix_(perm, perm)],
        region=graphs.region[np.ix_(perm, perm)],
    )
    y_p, _ = act_forward(window[:, perm, :], graphs_p, model)
    assert np.max(np.abs(y_p.data - y.data[perm])) < 1e-9


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

    model.reseed_dropout(99)
    train_a, _ = act_forward(window, graphs, model, training=True)
    train_b, _ = act_forward(window, graphs, model, training=True)
    assert not np.array_equal(train_a.data, train_b.data)
    model.reseed_dropout(99)
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
            return tz.mean(tz.mul(y, y))

        names = sorted(model.params)
        worst = tz.finite_difference_check_params(
            f, [model.params[k] for k in names], step=1e-6
        )
        assert worst < 1e-4, (seed, worst)


def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(24)
    cfg = small_cfg()
    n = 6
    model = ActModel(cfg, seed=14)
    graphs = make_graphs(n, rng)
    window = make_window(cfg, n, rng)
    y, _ = act_forward(window, graphs, model)

    path = tmp_path / "model.json"
    save_checkpoint(model, path)
    again = tmp_path / "model2.json"
    save_checkpoint(model, again)
    assert path.read_bytes() == again.read_bytes()

    loaded = load_checkpoint(path)
    assert loaded.cfg == cfg
    for name in model.params:
        assert np.array_equal(loaded[name].data, model[name].data)
    y2, _ = act_forward(window, graphs, loaded)
    assert np.array_equal(y.data, y2.data)

    resaved = tmp_path / "model3.json"
    save_checkpoint(loaded, resaved)
    assert resaved.read_bytes() == path.read_bytes()


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
    with pytest.raises(ConfigError):
        load_checkpoint(bad)

    payload = json.loads(path.read_text())
    del payload["params"]["out_w"]
    bad2 = tmp_path / "bad2.json"
    bad2.write_text(json.dumps(payload))
    with pytest.raises(ConfigError):
        load_checkpoint(bad2)

    notjson = tmp_path / "nope.json"
    notjson.write_text("{broken")
    with pytest.raises(DataError):
        load_checkpoint(notjson)


def test_load_state_arrays_validates_shapes():
    cfg = small_cfg()
    model = ActModel(cfg, seed=16)
    state = model.state_arrays()
    state["out_w"] = np.zeros((3, 3))
    with pytest.raises(ConfigError):
        model.load_state_arrays(state)
    state2 = model.state_arrays()
    del state2["att_w1"]
    with pytest.raises(ConfigError):
        model.load_state_arrays(state2)


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
