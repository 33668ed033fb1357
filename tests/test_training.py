import numpy as np
import pytest

import _oracles as oracle
from xsrank import tensor as tz
from xsrank.data import SynthConfig, generate_synthetic
from xsrank.errors import ConfigError, DataError, NonFiniteError
from xsrank.graphs import RelationGraphs, membership_adjacency
from xsrank.model import ActConfig, ActModel, act_forward
from xsrank.tensor import Tape, Tensor, backward
from xsrank.training import (
    Adam,
    EarlyStopper,
    TrainSettings,
    clip_labels,
    ic_loss,
    mse_loss,
    predict_sliding,
    total_loss,
    train,
)


def all_true(n):
    return np.ones(n, dtype=bool)


def test_clip_labels_bounds():
    y = np.array([-0.5, -0.1, 0.0, 0.05, 0.3])
    assert np.array_equal(clip_labels(y), [-0.1, -0.1, 0.0, 0.05, 0.1])


def test_ic_loss_perfect_correlation():
    # the epsilon inside the roots leaves a residual of about eps/Sxx,
    # so the bound needs a cross-section with real variance
    rng = np.random.default_rng(0)
    for _ in range(5):
        y = rng.normal(0, 0.05, size=50)
        loss = ic_loss(Tensor(clip_labels(y)), y, all_true(50))
        assert loss.item() < 1e-6


def test_ic_loss_perfect_anticorrelation():
    rng = np.random.default_rng(1)
    for _ in range(5):
        y = rng.normal(0, 0.05, size=50)
        loss = ic_loss(Tensor(-clip_labels(y)), y, all_true(50))
        assert 1.999 <= loss.item() <= 2.001


def test_ic_loss_constant_scores_is_one():
    y = np.array([0.01, -0.02, 0.03, 0.0])
    loss = ic_loss(Tensor(np.full(4, 0.7)), y, all_true(4))
    assert abs(loss.item() - 1.0) < 1e-12


def test_ic_loss_needs_two_observed():
    y = np.array([0.01, 0.02, 0.03])
    mask = np.array([True, False, False])
    with pytest.raises(DataError):
        ic_loss(Tensor(y), y, mask)


def test_ic_loss_uses_clipped_labels():
    # raw labels are decorrelated from scores, clipped ones are equal
    y = np.array([0.5, -0.6, 0.05, -0.03, 0.2])
    scores = clip_labels(y)
    loss = ic_loss(Tensor(scores), y, all_true(5))
    assert loss.item() < 1e-6


def test_ic_loss_masked_entries_ignored():
    rng = np.random.default_rng(2)
    y = rng.normal(0, 0.05, size=10)
    mask = np.zeros(10, dtype=bool)
    mask[:6] = True
    scores = rng.normal(size=10)
    with_garbage = scores.copy()
    with_garbage[6:] = 1e6
    a = ic_loss(Tensor(scores), y, mask).item()
    b = ic_loss(Tensor(with_garbage), y, mask).item()
    assert a == b


def test_ic_loss_affine_invariance():
    rng = np.random.default_rng(3)
    for _ in range(5):
        y = rng.normal(0, 0.05, size=24)
        s = rng.normal(0, 3.0, size=24)
        base = ic_loss(Tensor(s), y, all_true(24)).item()
        moved = ic_loss(Tensor(2.5 * s + 7.0), y, all_true(24)).item()
        assert abs(base - moved) < 1e-10


def test_ic_loss_gradient_matches_finite_differences():
    rng = np.random.default_rng(4)
    y = rng.normal(0, 0.05, size=12)
    mask = all_true(12)
    mask[3] = False
    point = Tensor(rng.normal(size=12))
    err = tz.finite_difference_check(lambda s: ic_loss(s, y, mask), point)
    assert err < 1e-5


def test_mse_loss_examples():
    y = np.array([0.02, -0.05, 0.01, 0.04])
    assert mse_loss(Tensor(clip_labels(y)), y, all_true(4)).item() == 0.0
    off = mse_loss(Tensor(clip_labels(y) + 0.1), y, all_true(4)).item()
    assert abs(off - 0.01) < 1e-15
    # clip applies before the squared error
    big = np.array([0.5, 0.5, 0.5])
    got = mse_loss(Tensor(np.zeros(3)), big, all_true(3)).item()
    assert abs(got - 0.01) < 1e-15


def test_mse_loss_needs_one_observed():
    with pytest.raises(DataError):
        mse_loss(Tensor(np.zeros(3)), np.zeros(3), np.zeros(3, dtype=bool))


def test_total_loss_mix():
    rng = np.random.default_rng(5)
    y = rng.normal(0, 0.05, size=10)
    s = Tensor(rng.normal(size=10))
    mask = all_true(10)
    assert total_loss(s, y, mask, 0.0).item() == ic_loss(s, y, mask).item()
    combined = total_loss(s, y, mask, 1.0).item()
    want = ic_loss(s, y, mask).item() + mse_loss(s, y, mask).item()
    assert abs(combined - want) < 1e-12
    with pytest.raises(ConfigError):
        total_loss(s, y, mask, 1.5)


def make_graphs(n):
    instruments = [f"S{i:03d}" for i in range(n)]
    ind = {s: f"I{i % 3}" for i, s in enumerate(instruments)}
    reg = {s: f"R{i % 2}" for i, s in enumerate(instruments)}
    return RelationGraphs(
        instruments=instruments,
        industry=membership_adjacency(instruments, ind),
        region=membership_adjacency(instruments, reg),
        industry_labels=ind,
        region_labels=reg,
    )


def test_total_loss_gradient_is_sum_of_term_gradients():
    rng = np.random.default_rng(6)
    cfg = ActConfig(n_features=4, window=10, hidden=6, trend_window=4,
                    fluct_window=3, shock_window=3, knn=2)
    model = ActModel(cfg, seed=7)
    graphs = make_graphs(6)
    window = rng.normal(size=(cfg.window, 6, cfg.n_features))
    labels = rng.normal(0, 0.05, size=6)
    mask = all_true(6)
    lam = 0.3

    probes = ["out_w", "att_w1", "trend_proj_w"]
    grads = {}
    for kind in ("total", "ic", "mse"):
        with Tape() as tape:
            y_hat, _ = act_forward(window, graphs, model)
            if kind == "total":
                loss = total_loss(y_hat, labels, mask, lam)
            elif kind == "ic":
                loss = ic_loss(y_hat, labels, mask)
            else:
                loss = mse_loss(y_hat, labels, mask)
            backward(loss)
            grads[kind] = {name: tape.grad(model[name]) for name in probes}
    for name in probes:
        want = grads["ic"][name] + lam * grads["mse"][name]
        assert np.max(np.abs(grads["total"][name] - want)) < 1e-10


def test_adam_matches_reference_loop():
    rng = np.random.default_rng(7)
    p0 = rng.normal(size=(3, 2))
    param = Tensor(p0.copy())
    opt = Adam({"w": param}, lr=0.01)
    gs = [rng.normal(size=(3, 2)) for _ in range(5)]

    ref = p0.copy()
    m = np.zeros_like(ref)
    v = np.zeros_like(ref)
    for t, g in enumerate(gs, start=1):
        opt.step({"w": g})
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        m_hat = m / (1 - 0.9 ** t)
        v_hat = v / (1 - 0.999 ** t)
        ref -= 0.01 * m_hat / (np.sqrt(v_hat) + 1e-8)
        assert np.max(np.abs(param.data - ref)) < 1e-15


def test_adam_first_step_size_is_lr():
    param = Tensor(np.zeros(4))
    opt = Adam({"w": param}, lr=0.01)
    opt.step({"w": np.array([3.0, -1.0, 0.5, 10.0])})
    assert np.max(np.abs(np.abs(param.data) - 0.01)) < 1e-9
    assert np.array_equal(np.sign(param.data), [-1, 1, -1, -1])


def test_adam_missing_grad_leaves_param():
    param = Tensor(np.ones(3))
    other = Tensor(np.ones(3))
    opt = Adam({"a": param, "b": other}, lr=0.1)
    opt.step({"a": np.ones(3), "b": None})
    assert np.array_equal(other.data, np.ones(3))
    assert not np.array_equal(param.data, np.ones(3))


def test_early_stopper_rules():
    s = EarlyStopper(patience=1)
    assert s.update(0.5) is True
    assert s.update(0.4) is False
    assert s.should_stop and s.n_evals == 2 and s.best_index == 0

    s = EarlyStopper(patience=2)
    for value in (0.1, 0.2, 0.15, 0.18):
        s.update(value)
    assert s.should_stop and s.best_index == 1

    # a plateau never counts as improvement
    s = EarlyStopper(patience=2)
    s.update(0.3)
    s.update(0.3)
    s.update(0.3)
    assert s.should_stop and s.best_index == 0

    improving = EarlyStopper(patience=1)
    for value in (0.1, 0.2, 0.3, 0.4):
        improving.update(value)
    assert not improving.should_stop and improving.best_index == 3

    with pytest.raises(ConfigError):
        EarlyStopper(0)


def test_train_settings_validation():
    with pytest.raises(ConfigError):
        TrainSettings(valid_start="2015-06-01", lr=0.0)
    with pytest.raises(ConfigError):
        TrainSettings(valid_start="2015-06-01", batch_size=0)
    with pytest.raises(ConfigError):
        TrainSettings(valid_start="2015-06-01", test_start="2015-01-01")


def small_panel(days=70, n=8, noise=0.02, seed=5):
    ds, graphs, _ = generate_synthetic(
        SynthConfig(n_instruments=n, n_features=4, days=days, noise=noise,
                    seed=seed, block_size=4, n_regions=2)
    )
    return ds, graphs


def small_cfg(**over):
    base = dict(n_features=4, window=10, hidden=6, trend_window=5,
                fluct_window=3, shock_window=3, knn=2, dropout_rate=0.1)
    base.update(over)
    return ActConfig(**base)


def test_train_is_deterministic():
    ds, graphs = small_panel()
    cfg = small_cfg()
    settings = TrainSettings(valid_start=ds.dates[50], epochs=2, seed=11)
    model_a, hist_a = train(ds, graphs, cfg, settings)
    model_b, hist_b = train(ds, graphs, cfg, settings)
    assert hist_a.to_dict() == hist_b.to_dict()
    for name in model_a.params:
        assert np.array_equal(model_a[name].data, model_b[name].data)


def test_train_split_errors():
    ds, graphs = small_panel()
    cfg = small_cfg()
    with pytest.raises(ConfigError):
        train(ds, graphs, cfg, TrainSettings(valid_start=ds.dates[0], epochs=1))
    late = ds.dates[-1] + "z"
    with pytest.raises(ConfigError):
        train(ds, graphs, cfg, TrainSettings(valid_start=late, epochs=1))


def test_train_restores_best_validation_epoch():
    ds, graphs = small_panel(days=80)
    cfg = small_cfg()
    settings = TrainSettings(valid_start=ds.dates[55], epochs=4, patience=4,
                             seed=3)
    model, hist = train(ds, graphs, cfg, settings)
    assert hist.selected_epoch == int(np.argmax(hist.valid_ic))
    assert len(hist.train_loss) == len(hist.valid_ic)

    # the returned weights reproduce the best recorded validation IC
    from xsrank.data import make_windows
    from xsrank.training import _daily_ic

    samples = [s for s in make_windows(ds, cfg.window)
               if s.date >= settings.valid_start]
    ics = []
    for s in samples:
        y, _ = act_forward(s.features, graphs, model)
        ic = _daily_ic(y.data, s.labels, s.mask)
        if ic is not None:
            ics.append(ic)
    assert abs(float(np.mean(ics)) - max(hist.valid_ic)) < 1e-12


def test_train_overfits_noise_free_panel():
    ds, graphs = small_panel(days=90, n=10, noise=0.0, seed=3)
    cfg = small_cfg(hidden=8, knn=3, dropout_rate=0.0)
    settings = TrainSettings(valid_start=ds.dates[78], epochs=60, patience=60,
                             lr=3e-3, batch_size=8, seed=1)
    model, hist = train(ds, graphs, cfg, settings)
    assert 1.0 - hist.train_ic_term[-1] > 0.95


def test_train_diverges_with_context():
    ds, graphs = small_panel()
    cfg = small_cfg(dropout_rate=0.0)
    settings = TrainSettings(valid_start=ds.dates[50], epochs=1, lr=1e150)
    with pytest.raises(NonFiniteError) as info:
        train(ds, graphs, cfg, settings)
    assert "epoch" in str(info.value)


def test_predict_sliding_window_count():
    ds, graphs = small_panel(days=42)
    cfg = small_cfg(window=40)
    model = ActModel(cfg, seed=0)
    preds = predict_sliding(model, ds, graphs)
    assert preds.dates() == ds.dates[39:]
    assert len(preds.dates()) == 3
    by_date = preds.by_date()
    for d in preds.dates():
        assert len(by_date[d]) == len(ds.instruments)


def test_predict_sliding_start_date_filter():
    ds, graphs = small_panel(days=50)
    cfg = small_cfg(window=10)
    model = ActModel(cfg, seed=1)
    start = ds.dates[30]
    preds = predict_sliding(model, ds, graphs, start_date=start)
    assert preds.dates() == ds.dates[30:]
    # history for the first kept window reaches back before start_date
    full = predict_sliding(model, ds, graphs)
    assert preds.by_date()[start] == full.by_date()[start]


def test_predict_sliding_skips_missing_instruments():
    ds, graphs = small_panel(days=30)
    cfg = small_cfg(window=10)
    model = ActModel(cfg, seed=2)
    ds.present_mask[20, 3] = False
    preds = predict_sliding(model, ds, graphs)
    date = ds.dates[20]
    assert ds.instruments[3] not in preds.by_date()[date]
    other = ds.dates[21]
    assert ds.instruments[3] in preds.by_date()[other]


def test_predict_sliding_errors():
    ds, graphs = small_panel(days=30)
    cfg = small_cfg(window=31)
    with pytest.raises(DataError):
        predict_sliding(ActModel(cfg, seed=0), ds, graphs)
    cfg = small_cfg(window=10)
    with pytest.raises(DataError):
        predict_sliding(ActModel(cfg, seed=0), ds, graphs,
                        start_date=ds.dates[-1] + "z")


def test_predict_sliding_deterministic_csv(tmp_path):
    ds, graphs = small_panel(days=30)
    cfg = small_cfg(window=10)
    model = ActModel(cfg, seed=3)
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    predict_sliding(model, ds, graphs).write_csv(a)
    predict_sliding(model, ds, graphs).write_csv(b)
    assert a.read_bytes() == b.read_bytes()


def test_train_rejects_knn_above_universe_before_windows(monkeypatch):
    ds, graphs = small_panel(n=8)
    cfg = small_cfg(knn=8)

    def no_windows(*args, **kwargs):
        raise AssertionError("windows were built before the knn check")

    monkeypatch.setattr("xsrank.training.make_windows", no_windows)
    settings = TrainSettings(valid_start=ds.dates[50], epochs=1)
    with pytest.raises(ConfigError, match=r"knn=8.*N=8"):
        train(ds, graphs, cfg, settings)


def test_predict_sliding_rejects_knn_above_universe_before_windows(monkeypatch):
    ds, graphs = small_panel(days=30, n=8)
    model = ActModel(small_cfg(knn=8), seed=0)

    def no_forward(*args, **kwargs):
        raise AssertionError("a window was scored before the knn check")

    monkeypatch.setattr("xsrank.training.act_forward", no_forward)
    with pytest.raises(ConfigError, match=r"knn=8.*N=8"):
        predict_sliding(model, ds, graphs)


def test_knn_check_accepts_n_minus_one_and_ignores_gat_only():
    ds, graphs = small_panel(days=30, n=8)
    for cfg in (small_cfg(knn=7), small_cfg(knn=8, pspe="gat_only")):
        preds = predict_sliding(ActModel(cfg, seed=0), ds, graphs)
        assert len(preds.dates()) == 21
