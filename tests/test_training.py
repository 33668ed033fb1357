import hashlib
import itertools
import json
import re
import sys
import tempfile
from dataclasses import replace
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import _oracles as oracle
from _fd import finite_difference_check
from _helpers import act_forward, item
from xsrank.data import (
    PanelDataset,
    PredictionSeries,
    SynthConfig,
    generate_synthetic,
    load_panel,
    make_windows,
    standardize_features,
    write_panel,
)
from xsrank import tensor as tz
from xsrank.errors import ConfigError, DataError, NonFiniteError, ShapeError
from xsrank.evaluate import summarize
from xsrank.graphs import build_relation_graphs
from xsrank.decompose import decompose
from xsrank.model import (
    FCI_MODES,
    PSPE_MODES,
    SCI_MODES,
    ActConfig,
    ActModel,
    act_forward_parts,
)
from xsrank.tensor import PrimitiveKind, Tape, Tensor, backward
from xsrank.training import (
    Adam,
    TrainSettings,
    _score_windows,
    clip_labels,
    ic_loss,
    mix_losses,
    mse_loss,
    predict_sliding,
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
        assert item(loss) < 1e-6


def test_ic_loss_perfect_anticorrelation():
    rng = np.random.default_rng(1)
    for _ in range(5):
        y = rng.normal(0, 0.05, size=50)
        loss = ic_loss(Tensor(-clip_labels(y)), y, all_true(50))
        assert 1.999 <= item(loss) <= 2.001


def test_ic_loss_constant_scores_is_one():
    y = np.array([0.01, -0.02, 0.03, 0.0])
    loss = ic_loss(Tensor(np.full(4, 0.7)), y, all_true(4))
    assert abs(item(loss) - 1.0) < 1e-12


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
    assert item(loss) < 1e-6


def test_ic_loss_masked_entries_ignored():
    rng = np.random.default_rng(2)
    y = rng.normal(0, 0.05, size=10)
    mask = np.zeros(10, dtype=bool)
    mask[:6] = True
    scores = rng.normal(size=10)
    with_garbage = scores.copy()
    with_garbage[6:] = 1e6
    a = item(ic_loss(Tensor(scores), y, mask))
    b = item(ic_loss(Tensor(with_garbage), y, mask))
    assert a == b


def test_ic_loss_affine_invariance():
    rng = np.random.default_rng(3)
    for _ in range(5):
        y = rng.normal(0, 0.05, size=24)
        s = rng.normal(0, 3.0, size=24)
        base = item(ic_loss(Tensor(s), y, all_true(24)))
        moved = item(ic_loss(Tensor(2.5 * s + 7.0), y, all_true(24)))
        assert abs(base - moved) < 1e-10


def test_ic_loss_gradient_matches_finite_differences():
    rng = np.random.default_rng(4)
    y = rng.normal(0, 0.05, size=12)
    mask = all_true(12)
    mask[3] = False
    point = Tensor(rng.normal(size=12))
    err = finite_difference_check(lambda s: ic_loss(s, y, mask), point)
    assert err < 1e-5


def test_mse_loss_examples():
    y = np.array([0.02, -0.05, 0.01, 0.04])
    assert item(mse_loss(Tensor(clip_labels(y)), y, all_true(4))) == 0.0
    off = item(mse_loss(Tensor(clip_labels(y) + 0.1), y, all_true(4)))
    assert abs(off - 0.01) < 1e-15
    # clip applies before the squared error
    big = np.array([0.5, 0.5, 0.5])
    got = item(mse_loss(Tensor(np.zeros(3)), big, all_true(3)))
    assert abs(got - 0.01) < 1e-15


def test_mse_loss_needs_one_observed():
    with pytest.raises(DataError):
        mse_loss(Tensor(np.zeros(3)), np.zeros(3), np.zeros(3, dtype=bool))


def test_total_loss_mix():
    rng = np.random.default_rng(5)
    y = rng.normal(0, 0.05, size=10)
    s = Tensor(rng.normal(size=10))
    mask = all_true(10)
    ic, mse = ic_loss(s, y, mask), mse_loss(s, y, mask)
    assert item(mix_losses(ic, mse, 0.0)) == item(ic)
    combined = item(mix_losses(ic, mse, 1.0))
    assert abs(combined - (item(ic) + item(mse))) < 1e-12
    assert item(mix_losses(None, mse, 0.5)) == 0.5 * item(mse)


def make_graphs(n):
    instruments = [f"S{i:03d}" for i in range(n)]
    ind = {s: f"I{i % 3}" for i, s in enumerate(instruments)}
    reg = {s: f"R{i % 2}" for i, s in enumerate(instruments)}
    return build_relation_graphs(instruments, ind, reg)


def test_every_primitive_kind_is_run_by_a_training_step(monkeypatch):
    # a kind that no variant's forward or loss reaches is dead tape code
    seen = set()
    apply = tz.apply_primitive
    monkeypatch.setattr(tz, "apply_primitive",
                        lambda kind, *args, **attrs: seen.add(kind) or apply(kind, *args, **attrs))
    rng = np.random.default_rng(40)
    n, batch = 6, 2
    graphs = make_graphs(n)
    for pspe, fci, sci in itertools.product(PSPE_MODES, FCI_MODES, SCI_MODES):
        cfg = ActConfig(n_features=4, window=10, hidden=6, trend_window=4,
                        fluct_window=3, shock_window=3, knn=2,
                        pspe=pspe, fci=fci, sci=sci)
        model = ActModel(cfg, seed=0)
        parts = decompose(
            np.stack([rng.normal(size=(cfg.window, n, cfg.n_features))
                      for _ in range(batch)], axis=1),
            cfg.trend_window, cfg.fluct_window)
        labels = rng.normal(0.0, 0.02, size=(batch, n))
        mask = np.ones((batch, n), dtype=bool)
        with Tape() as tape:
            for p in model.params.values():
                tape.watch(p)
            y, _ = act_forward_parts(parts, graphs, model, training=True)
            terms = tz.add(ic_loss(y, labels, mask), mse_loss(y, labels, mask))
            backward(tz.div(tz.tensor_sum(terms), Tensor(float(batch))))
    assert seen == set(PrimitiveKind), set(PrimitiveKind) - seen


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
            for name in probes:
                tape.watch(model[name])
            y_hat, _ = act_forward(window, graphs, model)
            if kind == "total":
                loss = mix_losses(ic_loss(y_hat, labels, mask),
                                  mse_loss(y_hat, labels, mask), lam)
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


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_an_adam_step_that_overflows_is_named_not_warned():
    # before: the step ran without an errstate, so its second step raised
    # numpy's "overflow encountered in subtract" RuntimeWarning instead
    param = Tensor(np.array([1.0, -1.0]))
    opt = Adam({"w": param}, lr=sys.float_info.max)
    opt.step({"w": np.ones(2)})
    with pytest.raises(NonFiniteError, match="^parameter w became non-finite$"):
        opt.step({"w": np.ones(2)})


def test_train_settings_validation():
    with pytest.raises(ConfigError):
        TrainSettings(valid_start="2015-06-01", lr=0.0)
    with pytest.raises(ConfigError):
        TrainSettings(valid_start="2015-06-01", batch_size=0)
    # the one check of the patience that early stopping runs down
    with pytest.raises(ConfigError, match="^patience must be >= 1$"):
        TrainSettings(valid_start="2015-06-01", patience=0)
    with pytest.raises(ConfigError):
        TrainSettings(valid_start="2015-06-01", test_start="2015-01-01")
    # before: numpy's "expected non-negative integer" ValueError escaped
    # train, after every input was hashed
    with pytest.raises(ConfigError, match="^seed must be >= 0$"):
        TrainSettings(valid_start="2015-06-01", seed=-2)


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


def test_early_stopper_rules(monkeypatch):
    # one validation window, so each epoch's validation IC is one scripted
    # `_correlations` value; the 0.9s after the script would be improvements
    ds, graphs = small_panel(days=30)
    cfg = small_cfg()
    start = ActModel(cfg, seed=0).state_arrays()
    cases = [
        (1, [0.5, 0.4], 0),
        (2, [0.1, 0.2, 0.15, 0.18], 1),
        # a plateau never counts as improvement
        (2, [0.3, 0.3, 0.3], 0),
        # with no IC nothing is selected, and the start weights are kept
        (2, [np.nan, np.nan], -1),
    ]
    for patience, ics, selected in cases:
        script = iter(ics + [0.9, 0.9])
        monkeypatch.setattr("xsrank.training._correlations",
                            lambda pairs: (np.array([next(script)]),) * 2)
        settings = TrainSettings(valid_start=ds.dates[20], test_start=ds.dates[21],
                                 epochs=len(ics) + 2, patience=patience)
        model, hist = train(ds, graphs, cfg, settings)
        assert hist.n_valid_windows == 1
        assert len(hist.valid_ic) == len(ics) and hist.selected_epoch == selected
        if selected == -1:
            assert all(np.array_equal(model[name].data, start[name]) for name in start)

    improving = iter([0.1, 0.2, 0.3, 0.4])
    monkeypatch.setattr("xsrank.training._correlations",
                        lambda pairs: (np.array([next(improving)]),) * 2)
    settings = TrainSettings(valid_start=ds.dates[20], test_start=ds.dates[21],
                             epochs=4, patience=1)
    _, hist = train(ds, graphs, cfg, settings)
    assert hist.valid_ic == [0.1, 0.2, 0.3, 0.4] and hist.selected_epoch == 3


def test_ic_loss_refuses_a_nan_label_inside_the_mask():
    labels = np.array([0.01, np.nan, 0.02])
    with pytest.raises(DataError, match="^labels contain NaN inside the observed mask$"):
        ic_loss(Tensor(np.zeros(3)), labels, np.ones(3, dtype=bool))
    # off the mask a NaN label is never read
    ic_loss(Tensor(np.array([0.0, 1.0, 2.0])), labels, np.array([True, False, True]))


def test_train_refuses_a_validation_span_with_no_window():
    ds, graphs = small_panel(days=30)
    # the final date's window has no label and is dropped, so no window
    # ends in a span that starts there
    with pytest.raises(ConfigError, match="^no validation windows in the validation span$"):
        train(ds, graphs, small_cfg(), TrainSettings(valid_start=ds.dates[-1], epochs=1))


def test_train_skips_and_counts_a_drawn_batch_with_no_observed_stock():
    ds, graphs = small_panel(days=30)
    labels = ds.labels.copy()
    labels[[12, 15]] = np.nan  # two training windows end on unlabelled dates
    ds = replace(ds, labels=labels)
    settings = TrainSettings(valid_start=ds.dates[20], epochs=1, batch_size=1)
    _, hist = train(ds, graphs, small_cfg(), settings)
    assert hist.skipped_ic_days == 2
    assert np.isfinite(hist.train_loss[0]) and np.isfinite(hist.valid_ic[0])


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

    # the returned weights reproduce the best recorded validation IC, bit
    # for bit, as the `ic` evaluate reports when prediction, which scores
    # one window per pass, rescores those dates
    preds = predict_sliding(model, ds, graphs, start_date=settings.valid_start)
    assert preds.instruments == ds.instruments
    report = summarize(preds, ds)
    assert report.n_days == hist.n_valid_windows
    assert report.ic == max(hist.valid_ic)


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
    assert preds.dates == ds.dates[39:]
    assert len(preds.dates) == 3
    assert preds.instruments == ds.instruments
    assert np.isfinite(preds.scores).all()


def test_predict_sliding_start_date_filter():
    ds, graphs = small_panel(days=50)
    cfg = small_cfg(window=10)
    model = ActModel(cfg, seed=1)
    start = ds.dates[30]
    preds = predict_sliding(model, ds, graphs, start_date=start)
    assert preds.dates == ds.dates[30:]
    # history for the first kept window reaches back before start_date
    full = predict_sliding(model, ds, graphs)
    assert np.array_equal(preds.scores[0], full.scores[full.dates.index(start)])


def test_predict_sliding_skips_missing_instruments():
    ds, graphs = small_panel(days=30)
    cfg = small_cfg(window=10)
    model = ActModel(cfg, seed=2)
    ds.vwap[20, 3] = np.nan
    preds = predict_sliding(model, ds, graphs)
    t = preds.dates.index(ds.dates[20])
    k = preds.instruments.index(ds.instruments[3])
    assert np.isnan(preds.scores[t, k])
    assert np.isfinite(preds.scores[t + 1, k])


def _rows_path(model, ds, graphs, start_date=None):
    """The same window scores as (date, instrument, score) rows, one per
    present cell in panel order, through PredictionSeries(rows)."""
    ends = make_windows(ds, model.cfg.window)
    if start_date is not None:
        ends = ends[ends >= ds.dates.index(start_date)]
    present = ds.present_mask
    return PredictionSeries([(ds.dates[t], inst, score)
                             for t, scores in _score_windows(ds, ends, graphs, model, 1)
                             for inst, here, score in zip(ds.instruments, present[t],
                                                          scores.tolist()) if here])


def _outcome(fn, *args, **kwargs):
    try:
        preds = fn(*args, **kwargs)
    except DataError as exc:
        return f"DataError: {exc}"
    return preds.dates, preds.instruments, preds.scores.shape, preds.scores.tobytes()


def _shuffled_panel(ds, graphs, seed):
    """A hand-built panel of ds with its instruments in a random order,
    their names unsorted, and relation graphs in that order."""
    order = np.random.default_rng(seed).permutation(len(ds.instruments))
    names = [ds.instruments[k] for k in order]
    assert names != sorted(names)
    hand = PanelDataset(dates=list(ds.dates), instruments=names,
                        features=ds.features[:, order], labels=ds.labels[:, order],
                        vwap=ds.vwap[:, order], volume=ds.volume[:, order])
    return hand, build_relation_graphs(names, graphs.industry_labels, graphs.region_labels)


def test_predict_sliding_grid_equals_the_rows_path_bit_for_bit():
    ds, graphs = small_panel(days=24)
    model = ActModel(small_cfg(window=10), seed=3)
    holes = replace(ds, vwap=np.where(np.random.default_rng(4).random(ds.vwap.shape) < 0.3,
                                      np.nan, ds.vwap))
    holes.vwap[:, 5] = np.nan  # an instrument never priced drops out
    unpriced_final = replace(ds, vwap=ds.vwap.copy())
    unpriced_final.vwap[-1] = np.nan
    cases = [(ds, graphs, None), (holes, graphs, None), (unpriced_final, graphs, None),
             (*_shuffled_panel(holes, graphs, 6), None), (ds, graphs, ds.dates[15]),
             (*_shuffled_panel(holes, graphs, 7), ds.dates[12])]
    for panel, relations, start in cases:
        got = _outcome(predict_sliding, model, panel, relations, start_date=start)
        assert got == _outcome(_rows_path, model, panel, relations, start)
        assert got[1] == sorted(got[1])
    assert len(_outcome(predict_sliding, model, holes, graphs)[1]) == len(ds.instruments) - 1
    assert _outcome(predict_sliding, model, unpriced_final, graphs)[0][-1] == ds.dates[-2]


def test_predict_sliding_names_a_non_day_date_as_the_rows_path_does():
    ds, graphs = small_panel(days=24)
    model = ActModel(small_cfg(window=10), seed=3)
    # "<day>x" sorts between its day and the next, so the dates stay
    # increasing; the first present instrument in panel order is named
    dates, vwap = list(ds.dates), ds.vwap.copy()
    dates[15] += "x"
    hand, relations = _shuffled_panel(replace(ds, dates=dates, vwap=vwap), graphs, 8)
    hand.vwap[15, 0] = np.nan
    got = _outcome(predict_sliding, model, hand, relations)
    assert got == _outcome(_rows_path, model, hand, relations)
    assert got == (f"DataError: row ({hand.dates[15]}, {hand.instruments[1]}): date "
                   f"{hand.dates[15]!r} is not a YYYY-MM-DD day")


def test_predict_sliding_errors():
    ds, graphs = small_panel(days=30)
    cfg = small_cfg(window=31)
    with pytest.raises(DataError):
        predict_sliding(ActModel(cfg, seed=0), ds, graphs)
    cfg = small_cfg(window=10)
    after_last = (date.fromisoformat(ds.dates[-1]) + timedelta(days=1)).isoformat()
    with pytest.raises(DataError, match=re.escape(
            f"no instrument is priced on a window-end date at or after start_date {after_last}")):
        predict_sliding(ActModel(cfg, seed=0), ds, graphs, start_date=after_last)
    # a panel priced on no window-end date names no start_date it was not given
    unpriced = replace(ds, vwap=np.where(np.arange(len(ds.dates))[:, None] < 9, ds.vwap, np.nan))
    with pytest.raises(DataError, match="^no instrument is priced on a window-end date$"):
        predict_sliding(ActModel(cfg, seed=0), unpriced, graphs)


@pytest.mark.parametrize("day", ["2015-01-32", "2015-1-20"])
def test_predict_sliding_refuses_a_start_date_that_is_not_a_day(day):
    # before: compared as strings, 2015-01-32 scored the February windows
    ds, graphs = small_panel(days=30)
    with pytest.raises(ConfigError, match="is not a YYYY-MM-DD day"):
        predict_sliding(ActModel(small_cfg(window=10), seed=0), ds, graphs,
                        start_date=day)


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

    def no_windows(*args, **kwargs):
        raise AssertionError("windows were built before the knn check")

    monkeypatch.setattr("xsrank.training.make_windows", no_windows)
    with pytest.raises(ConfigError, match=r"knn=8.*N=8"):
        predict_sliding(model, ds, graphs)


def test_panel_checks_run_before_any_window(monkeypatch):
    ds, graphs = small_panel(days=30, n=8)
    settings = TrainSettings(valid_start=ds.dates[20], epochs=1)
    cases = [
        (small_cfg(n_features=ds.n_features + 2), graphs, r"takes 6 features.* has 4"),
        (small_cfg(), make_graphs(7), r"cover 7 instruments.*N=8"),
    ]

    def no_windows(*args, **kwargs):
        raise AssertionError("windows were built before the panel checks")

    with monkeypatch.context() as patch:
        patch.setattr("xsrank.training.make_windows", no_windows)
        for cfg, bad_graphs, match in cases:
            with pytest.raises(DataError, match=match):
                train(ds, bad_graphs, cfg, settings)
            with pytest.raises(DataError, match=match):
                predict_sliding(ActModel(cfg, seed=0), ds, bad_graphs)

    # finiteness is checked by decompose, on the windows that are read:
    # training never reads a date from test_start on, prediction does
    ds.features[25, 3, 1] = np.nan
    cfg = small_cfg()
    train(ds, graphs, cfg, TrainSettings(valid_start=ds.dates[15],
                                         test_start=ds.dates[25], epochs=1))
    with pytest.raises(NonFiniteError):
        predict_sliding(ActModel(cfg, seed=0), ds, graphs)


def test_knn_check_accepts_n_minus_one_and_ignores_gat_only():
    ds, graphs = small_panel(days=30, n=8)
    for cfg in (small_cfg(knn=7), small_cfg(knn=8, pspe="gat_only")):
        preds = predict_sliding(ActModel(cfg, seed=0), ds, graphs)
        assert len(preds.dates) == 21


def test_batched_losses_are_the_per_window_losses():
    rng = np.random.default_rng(8)
    n = 9
    labels = rng.normal(0, 0.05, size=(4, n))
    labels[2, 5] = np.nan  # off the mask, so ignored
    mask = np.ones((4, n), dtype=bool)
    mask[1, ::2] = False
    mask[2, 5] = False
    y_hat = Tensor(rng.normal(size=(4, n)))
    ic = ic_loss(y_hat, labels, mask)
    mse = mse_loss(y_hat, labels, mask)
    assert ic.shape == mse.shape == (4,)
    for b in range(4):
        row = Tensor(y_hat.data[b])
        want_ic = item(ic_loss(row, labels[b], mask[b]))
        want_mse = item(mse_loss(row, labels[b], mask[b]))
        if mask[b].all():
            assert ic.data[b] == want_ic and mse.data[b] == want_mse
        assert abs(ic.data[b] - want_ic) < 1e-12
        assert abs(mse.data[b] - want_mse) < 1e-13

    # one observed stock: no IC term; none: no term at all
    mask[1] = False
    mask[1, 4] = True
    mask[3] = False
    ic = ic_loss(y_hat, labels, mask)
    mse = mse_loss(y_hat, labels, mask)
    assert ic.data[1] == 0.0 and ic.data[3] == 0.0 and mse.data[3] == 0.0
    assert mse.data[1] == (y_hat.data[1, 4] - clip_labels(labels[1, 4])) ** 2
    with Tape() as tape:
        tape.watch(y_hat)
        loss = tz.tensor_sum(ic_loss(y_hat, labels, mask))
        backward(loss)
        grad = tape.grad(y_hat)
    assert not grad[1].any() and not grad[3].any() and grad[0].any()

    with pytest.raises(DataError):
        ic_loss(y_hat, labels, mask & (np.arange(4) % 2 == 1)[:, None])
    with pytest.raises(DataError):
        mse_loss(y_hat, labels, np.zeros((4, n), dtype=bool))
    with pytest.raises(ShapeError):
        ic_loss(y_hat, labels[0], mask[0])


def test_batched_ic_loss_gradient_matches_finite_differences():
    rng = np.random.default_rng(9)
    labels = rng.normal(0, 0.05, size=(3, 7))
    mask = rng.random((3, 7)) < 0.7
    mask[:, :2] = True
    weights = rng.normal(size=3)
    err = finite_difference_check(
        lambda s: tz.tensor_sum(tz.mul(ic_loss(s, labels, mask), Tensor(weights))),
        Tensor(rng.normal(size=(3, 7))),
    )
    assert err < 1e-5


def _train_peak_mb(n_windows: int, window: int = 16) -> float:
    """tracemalloc peak of one epoch of `train` on an N = 200 synth panel
    with `n_windows` labelled windows, a quarter of them for validation."""
    import tracemalloc

    n_valid = n_windows // 4
    ds, graphs = generate_synthetic(SynthConfig(
        n_instruments=200, days=window + n_windows + 1, block_size=20, seed=0))[:2]
    cfg = ActConfig(n_features=ds.n_features, window=window, hidden=8, knn=10)
    first = window - 1 + n_windows - n_valid
    settings = TrainSettings(valid_start=ds.dates[first],
                             test_start=ds.dates[first + n_valid],
                             epochs=1, patience=1, seed=0)
    tracemalloc.start()
    try:
        train(ds, graphs, cfg, settings)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_train_memory_does_not_grow_with_the_panel():
    # a step holds one batch's decomposition, activations and parameter
    # gradients, so more windows mean more steps, not more memory
    short, long = _train_peak_mb(64), _train_peak_mb(144)
    assert long - short < 2.0, (short, long)


def _n800_window_peak(pspe: str) -> float:
    """tracemalloc peak, in bytes, of one N = 800 `predict_sliding` window
    of the default `ActConfig` with the given trend branch, traced after a
    warm-up window so that what the first one leaves behind counts as held."""
    import tracemalloc

    ds, graphs = generate_synthetic(SynthConfig(n_instruments=800, days=16, seed=5))[:2]
    model = ActModel(ActConfig(n_features=ds.n_features, pspe=pspe), seed=5)
    tracemalloc.start()
    try:
        predict_sliding(model, ds, graphs, start_date=ds.dates[-1])
        tracemalloc.reset_peak()
        predict_sliding(model, ds, graphs, start_date=ds.dates[-1])
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_one_n800_scoring_window_holds_a_few_activations():
    # The k-NN lists are built one block of TOPK_BLOCK_CELLS // N rows at a
    # time, so no [N, N] similarity (5.12 MB) is held. The window peaks at
    # 5.16 MB, about 12.6 [N, d] activations, in the fluctuation branch's
    # stacked lags. The bound, 13.5 activations (5.53 MB), leaves 0.37 MB,
    # less than one activation (0.41 MB). Before: 7.31 MB with the whole
    # similarity, and 14.3 MB before that with the whole decomposition.
    activation = 800 * 64 * 8
    peak = _n800_window_peak("full")
    assert peak <= 13.5 * activation, (peak, activation)


def test_one_n800_gat_only_scoring_window_holds_no_neighbor_gather():
    # gat_only attends over the union lists, K = 203 wide on this market.
    # NEIGHBOR_SUM sums the neighbors one block of rows at a time, with a
    # tape or without, so no [N, K, d] gather (83 MB) is held. The window
    # peaks at 9.39 MB, a few [N, K] arrays (1.30 MB each: the lists, the
    # source terms, the logits and the attention) beside the [N, d]
    # activations. The bound, 8 [N, K] arrays (10.39 MB), leaves 1.0 MB,
    # less than one of them. Before: 102.9 MB.
    lists = 800 * 203 * 8
    peak = _n800_window_peak("gat_only")
    assert peak <= 8 * lists, (peak, lists)


def _n300_epoch_peak(pspe: str) -> float:
    """tracemalloc peak, in bytes, of one epoch of `train` at CSI 300 size
    with the given trend branch: 16 training windows in batches of 4 and
    8 validation windows."""
    import tracemalloc

    window, n_windows, n_valid = 16, 24, 8
    ds, graphs = generate_synthetic(SynthConfig(
        n_instruments=300, days=window + n_windows + 1, block_size=30, seed=5))[:2]
    cfg = ActConfig(n_features=ds.n_features, window=window, hidden=64, pspe=pspe)
    first = window - 1 + n_windows - n_valid
    settings = TrainSettings(valid_start=ds.dates[first],
                             test_start=ds.dates[first + n_valid],
                             epochs=1, patience=1, seed=5)
    tracemalloc.start()
    try:
        train(ds, graphs, cfg, settings)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_one_n300_training_epoch_holds_its_step_and_little_else():
    # The step's tape holds the batch's activations, [4, 300, 64] each
    # (0.61 MB), no [4, 300, 10, 64] GAT gather, no input a VJP reads no
    # values of, nor the last step's gradients. The epoch peaks at
    # 31.79 MB, about 51.7 activations, in the step's backward. The bound,
    # 54 activations (33.18 MB), leaves 1.39 MB, under three activations.
    # Before: 38.84 MB with the taped GAT gather, 67.6 MB with every input
    # of a recorded op kept.
    activation = 4 * 300 * 64 * 8
    peak = _n300_epoch_peak("full")
    assert peak <= 54 * activation, (peak, activation)


def test_one_n300_gat_only_training_epoch_holds_no_neighbor_gather():
    # gat_only's GAT attends over the union lists, K = 97 wide on this
    # market, so a taped [4, 300, 97, 64] gather would be 59.6 MB, and its
    # INDEX gradient's flat indices and weights as much again each. The
    # epoch peaks at 25.72 MB, about 41.9 [4, 300, 64] activations, in the
    # step's backward. The bound, 42.5 activations (26.11 MB), leaves
    # 0.39 MB, under one activation. Before: 136.5 MB.
    activation = 4 * 300 * 64 * 8
    peak = _n300_epoch_peak("gat_only")
    assert peak <= 42.5 * activation, (peak, activation)


def test_train_batch_loss_is_the_mean_over_contributing_windows(monkeypatch):
    from xsrank import training

    ds, graphs = small_panel()
    cfg = small_cfg()
    one, none = 20, 21  # training dates: one observed stock, none
    ds.labels[one, np.arange(len(ds.instruments)) != 3] = np.nan
    ds.labels[none] = np.nan
    settings = TrainSettings(valid_start=ds.dates[50], epochs=2, batch_size=4,
                             seed=2)
    steps = []
    real_mse, real_backward = training.mse_loss, training.backward

    def spy_mse(y_hat, labels, mask):
        steps.append([y_hat.data.copy(), labels.copy(), mask.copy()])
        return real_mse(y_hat, labels, mask)

    def spy_backward(loss):
        steps[-1].append(item(loss))
        real_backward(loss)

    monkeypatch.setattr(training, "mse_loss", spy_mse)
    monkeypatch.setattr(training, "backward", spy_backward)
    _, hist = train(ds, graphs, cfg, settings)

    assert hist.skipped_ic_days == 2 * settings.epochs
    # every training window but the unobserved one, once per epoch
    n_rows = sum(y.shape[0] for y, _, _, _ in steps)
    assert n_rows == settings.epochs * (hist.n_train_windows - 1)
    saw_single = False
    for y, labels, mask, loss in steps:
        assert mask.any(axis=1).all()
        terms = []
        for b in range(y.shape[0]):
            row = Tensor(y[b])
            term = cfg.loss_mix * item(real_mse(row, labels[b], mask[b]))
            if mask[b].sum() >= 2:
                term += item(ic_loss(row, labels[b], mask[b]))
            else:
                saw_single = True
            terms.append(term)
        assert abs(loss - np.mean(terms)) < 1e-12
    assert saw_single


def test_predictions_do_not_depend_on_blas_thread_count(tmp_path):
    import os
    import subprocess
    import sys
    from pathlib import Path

    script = (
        "import sys\n"
        "from xsrank.data import SynthConfig, generate_synthetic, standardize_features\n"
        "from xsrank.model import ActConfig\n"
        "from xsrank.training import TrainSettings, predict_sliding, train\n"
        "ds, graphs, _ = generate_synthetic(SynthConfig(n_instruments=96, n_features=4,\n"
        "    days=24, block_size=8, seed=4))\n"
        "ds = standardize_features(ds)\n"
        "cfg = ActConfig(n_features=4, window=8, hidden=32, trend_window=5,\n"
        "    fluct_window=3, shock_window=3, knn=5)\n"
        "model, _ = train(ds, graphs, cfg, TrainSettings(valid_start=ds.dates[16],\n"
        "    epochs=1, batch_size=4, seed=1))\n"
        "predict_sliding(model, ds, graphs).write_csv(sys.argv[1])\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = tmp_path / f"threads{threads}.csv"
        subprocess.run([sys.executable, "-c", script, str(out)], env=env,
                       check=True, timeout=300)
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_work_ledger_is_exact_across_runs_and_blas_thread_counts():
    import os
    import subprocess
    import sys

    from _ledger import work_ledger

    ledger = work_ledger()
    assert work_ledger() == ledger
    train_rows, predict_rows = ledger["train"], ledger["predict"]
    assert set(train_rows) <= {k.name for k in PrimitiveKind}
    assert train_rows["MATMUL"]["madds"] > 0 and train_rows["ADD"]["vjp_calls"] > 0
    assert all(row["vjp_calls"] == 0 for row in predict_rows.values())  # no tape
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join([str(tests.parent / "src"), str(tests),
                            os.environ.get("PYTHONPATH", "")])
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
        done = subprocess.run([sys.executable, str(tests / "_ledger.py")], env=env,
                              check=True, capture_output=True, text=True, timeout=300)
        assert json.loads(done.stdout) == ledger, threads


# (calls, VJP calls) per primitive kind of the tiny work ledger at seed 5:
# a change in the tape work a train or a predict asks for shows here, as
# a change in outputs shows in the pinned digests
TINY_LEDGER_CALLS = {
    "train": {"ADD": (46, 34), "CONCAT_LAST": (12, 8), "DIV": (8, 8), "INDEX": (27, 18),
              "LAYER_NORM": (15, 10), "LEAKY_RELU": (30, 20), "MATMUL": (96, 64),
              "MUL": (47, 38), "NEIGHBOR_SUM": (3, 2), "SIGMOID": (6, 4), "SOFTMAX": (6, 4),
              "SQRT": (2, 2), "SUM": (19, 16), "TANH": (9, 6)},
    "predict": {"ADD": (36, 0), "CONCAT_LAST": (12, 0), "INDEX": (27, 0),
                "LAYER_NORM": (15, 0), "LEAKY_RELU": (30, 0), "MATMUL": (96, 0),
                "MUL": (21, 0), "NEIGHBOR_SUM": (3, 0), "SIGMOID": (6, 0), "SOFTMAX": (6, 0),
                "SUM": (9, 0), "TANH": (9, 0)},
}


def test_tiny_work_ledger_is_pinned():
    from _ledger import work_ledger

    calls = {run: {kind: (row["calls"], row["vjp_calls"]) for kind, row in rows.items()}
             for run, rows in work_ledger().items()}
    assert calls == TINY_LEDGER_CALLS


# sha256 of the trained weights (sorted by name) and of the predict_sliding
# rows, for each variant of demos/ablation_study.py after one epoch on a
# tiny synth. No benchmark workload runs the gat_only or mlp branches, so
# these pin their outputs bit for bit.
VARIANT_DIGESTS = {
    "fci=mlp": ("fb2ecba15e4cdba0af8971d0a631d4ba511fd10c52a23fac54c7cd880493fcc1",
                "3fdc947f0c19a60116d7808c8eff390c64eb02f9314e12a710d8181b05bfb223"),
    "full": ("3a30f7184b54bbf1e0ae7dec9155e6848d2094712ab35000e745fb86412820cf",
             "1189176b8a81f7296db168df59cef9083088ba6041c1745d89af84a2ccf96554"),
    "pspe=gat_only": ("f1e2d7269166b89b4621ad6ea1a770c635368311c037ad1820e928e376890631",
                      "69cc5ee4889d61026b8eec1fee50f842f17b53603d0014c1b52b131e70f42e06"),
    "sci=mlp": ("035158e2998ee643faa5d6a44fdc231c1cf986cdda4579f1b9c803b96b9b3d81",
                "d5c6b9617b8a3b77d793890b12635759e137909ad146bb618d80ec3cd8b6b8e0"),
}


@pytest.mark.parametrize("variant", sorted(VARIANT_DIGESTS))
def test_ablation_variants_are_bitwise_pinned(variant):
    ds, graphs, _ = generate_synthetic(
        SynthConfig(n_instruments=12, n_features=4, days=40, seed=7))
    overrides = {} if variant == "full" else dict([variant.split("=")])
    cfg = ActConfig(n_features=4, window=8, hidden=8, knn=4, **overrides)
    settings = TrainSettings(valid_start=ds.dates[23], test_start=ds.dates[31],
                             epochs=1, patience=1, seed=0)
    model, _ = train(ds, graphs, cfg, settings)
    weights = hashlib.sha256()
    for name, arr in sorted(model.state_arrays().items()):
        weights.update(name.encode())
        weights.update(arr.tobytes())
    preds = predict_sliding(model, ds, graphs, start_date=settings.test_start)
    scores = hashlib.sha256("".join(f"{d},{s},{v!r}\n" for d, s, v in preds.rows).encode())
    assert (weights.hexdigest(), scores.hexdigest()) == VARIANT_DIGESTS[variant]


# sha256 of the history, the weights (sorted by name) and every
# predict_sliding row of two gat_only epochs in batches of three windows,
# so the GAT reads the union lists broadcast to [3, N, K]. The lists are
# padded, and S011 has no relative and attends to itself. VARIANT_DIGESTS
# pins gat_only on the synth's own relations, where no row is lonely.
GAT_ONLY_DIGEST = "b214699a568eeabd70fe56f9a3df46a6567095fecb299a8133959174e3ab724c"


def test_gat_only_train_and_predict_are_bitwise_pinned():
    ds, _, _ = generate_synthetic(SynthConfig(n_instruments=12, n_features=4, days=40, seed=9))
    insts = ds.instruments
    graphs = build_relation_graphs(insts, {s: f"I{i % 3}" for i, s in enumerate(insts[:11])},
                                   {s: "R" for s in insts[:4]})
    union = graphs.union_neighbors
    assert union[11].tolist() == [11] + [-1] * (union.shape[1] - 1)
    cfg = ActConfig(n_features=4, window=8, hidden=8, knn=4, pspe="gat_only")
    settings = TrainSettings(valid_start=ds.dates[23], test_start=ds.dates[31],
                             epochs=2, patience=2, batch_size=3, seed=2)
    model, history = train(ds, graphs, cfg, settings)
    h = hashlib.sha256(json.dumps(history.to_dict(), sort_keys=True).encode())
    for name, arr in sorted(model.state_arrays().items()):
        h.update(name.encode())
        h.update(arr.tobytes())
    for d, s, v in predict_sliding(model, ds, graphs).rows:
        h.update(f"{d},{s},{v!r}\n".encode())
    assert h.hexdigest() == GAT_ONLY_DIGEST


# ---------------------------------------------------------------------------
# no lookahead through the loader
# ---------------------------------------------------------------------------

CUT_WINDOW, CUT_DAYS = 4, 14
# (file, drop or redraw, row among those after the cut, number cell, value)
CUT_EDITS = st.lists(st.tuples(st.sampled_from(["features.csv", "prices.csv"]),
                               st.sampled_from(["drop", "redraw"]),
                               st.integers(0, 10**6), st.integers(0, 10**6),
                               st.floats(0.5, 2.0)), max_size=4)


def _scores(texts, graphs, model):
    """Every predict_sliding row of the panel in `texts`, its score as hex,
    after loading and standardizing as `predict` does; None when the load
    is refused."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: Path(tmp, name) for name in texts}
        for name, text in texts.items():
            paths[name].write_text(text, encoding="utf-8")
        try:
            ds = standardize_features(load_panel(paths["features.csv"], paths["prices.csv"]))
        except DataError:
            return None
    graphs = build_relation_graphs(ds.instruments, graphs.industry_labels, graphs.region_labels)
    return [(d, s, v.hex()) for d, s, v in predict_sliding(model, ds, graphs).rows]


@pytest.fixture(scope="module")
def cut_market():
    """The files of a small synth, its relations, a fixed seeded model and
    the model's scores on the unedited files."""
    ds, graphs, _ = generate_synthetic(SynthConfig(n_instruments=6, n_features=3,
                                                   days=CUT_DAYS, seed=4, block_size=3,
                                                   n_regions=2))
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp, "features.csv"), Path(tmp, "prices.csv")]
        write_panel(ds, *paths)
        texts = {path.name: path.read_text() for path in paths}
    cfg = ActConfig(n_features=3, window=CUT_WINDOW, hidden=4, trend_window=3,
                    fluct_window=2, shock_window=2, knn=2)
    model = ActModel(cfg, seed=0)
    return ds.dates, texts, graphs, model, _scores(texts, graphs, model)


def _edit_after(text, cut, kind, a, b, value):
    """`text` with one data row dated after `cut` dropped, or with one of
    its number cells set to `value`."""
    header, *rows = text.splitlines()
    later = [k for k, row in enumerate(rows) if row.split(",", 1)[0] > cut]
    if later:
        k = later[a % len(later)]
        cells = rows[k].split(",")
        cells[2 + b % (len(cells) - 2)] = repr(value)
        rows[k: k + 1] = [] if kind == "drop" else [",".join(cells)]
    return "\n".join([header, *rows]) + "\n"


@settings(max_examples=60, deadline=None)
@given(cut=st.integers(CUT_WINDOW - 1, CUT_DAYS - 2), edits=CUT_EDITS)
# the last date loses one features row
@example(cut=CUT_DAYS - 2, edits=[("features.csv", "drop", 3, 0, 1.0)])
# edits to prices.csv alone, and a redrawn feature, load
@example(cut=CUT_WINDOW, edits=[("prices.csv", "drop", 0, 0, 1.0),
                                ("prices.csv", "redraw", 7, 1, 0.5)])
@example(cut=CUT_DAYS - 2, edits=[("features.csv", "redraw", 3, 2, 2.0)])
def test_scores_up_to_a_cut_date_ignore_every_later_row(cut_market, cut, edits):
    # before: a features row missing after the cut dropped its instrument
    # from the whole panel, so scores up to the cut lost it and moved
    dates, texts, graphs, model, unedited = cut_market
    for name, *edit in edits:
        texts = {**texts, name: _edit_after(texts[name], dates[cut], *edit)}
    got = _scores(texts, graphs, model)
    if got is None:
        # only a missing features row may refuse the load
        assert ("features.csv", "drop") in {(name, kind) for name, kind, *_ in edits}
        return
    assert ([row for row in got if row[0] <= dates[cut]]
            == [row for row in unedited if row[0] <= dates[cut]])
