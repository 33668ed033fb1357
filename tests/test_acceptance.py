"""Acceptance gate: eight criteria, one test and one printed verdict each.

Each test computes its measurements, prints a single PASS/FAIL line with
the observed numbers against the pinned tolerance, and then asserts.
Run with -s (or read captured output on failure) to see the lines.
"""

import hashlib
import json
import time

import numpy as np

import _oracles as oracle
from _fd import finite_difference_check, finite_difference_check_params
from _helpers import act_forward, item
from xsrank import cli
from xsrank import tensor as tz
from xsrank.backtest import StrategyConfig, portfolio_metrics, run_backtest
from xsrank.data import (
    PanelDataset,
    PredictionSeries,
    SynthConfig,
    FACTOR_NAMES,
    FactorSeries,
    generate_synthetic,
    standardize_features,
    trading_dates,
)
from xsrank.decompose import decompose
from xsrank.evaluate import summarize
from xsrank.factor_reg import ff_regression, newey_west_se, ols
from xsrank.graphs import (
    build_relation_graphs,
    gat_layer,
    gcn_layer,
)
from xsrank.model import ActConfig, ActModel, knn_lists, pspe_forward, \
    fci_forward, sci_forward, acf_forward
from xsrank.tensor import PrimitiveKind, Tensor
from xsrank.training import TrainSettings, clip_labels, ic_loss, \
    mix_losses, mse_loss, predict_sliding, train


def verdict(num, ok, detail):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} -- {detail}"
    print(line)
    assert ok, line


def _scalarize(out, w):
    return tz.tensor_sum(tz.mul(out, Tensor(w)))


# ---------------------------------------------------------------------------
# 1. gradient integrity
# ---------------------------------------------------------------------------


def _primitive_cases(rng):
    """One finite-difference case per primitive kind, one for MATMUL's
    bias input and one for the composite tz.sub, kinks avoided."""
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(3, 4))
    pos = 0.5 + np.abs(rng.normal(size=(3, 4)))
    off_kink = a + 0.25 * np.sign(a)
    w34 = rng.normal(size=(3, 4))
    w38 = rng.normal(size=(3, 8))
    w3 = rng.normal(size=3)
    mm_b = rng.normal(size=(4, 4))
    gamma, beta = np.ones(4), np.zeros(4)

    return [
        ("matmul", lambda t: _scalarize(tz.matmul(t, Tensor(mm_b)), w34), a),
        # the bias input of a biased MATMUL, a [4] row broadcast over [3, 4]
        ("matmul_bias", lambda t: _scalarize(tz.matmul(Tensor(a), Tensor(mm_b), t), w34),
         b[0].copy()),
        ("add", lambda t: _scalarize(tz.add(t, Tensor(b)), w34), a),
        ("sub", lambda t: _scalarize(tz.sub(t, Tensor(b)), w34), a),
        ("mul", lambda t: _scalarize(tz.mul(t, Tensor(b)), w34), a),
        ("div", lambda t: _scalarize(tz.div(Tensor(a), t), w34), pos),
        ("concat_last",
         lambda t: _scalarize(tz.concat_last([t, Tensor(b)]), w38), a),
        ("layer_norm",
         lambda t: _scalarize(tz.layer_norm(t, Tensor(gamma), Tensor(beta)),
                              w34), a),
        ("leaky_relu",
         lambda t: _scalarize(tz.leaky_relu(t, 0.2), w34), off_kink),
        ("sigmoid", lambda t: _scalarize(tz.sigmoid(t), w34), a),
        ("tanh", lambda t: _scalarize(tz.tanh(t), w34), a),
        ("softmax", lambda t: _scalarize(tz.softmax(t, axis=1), w34), a),
        ("sum", lambda t: _scalarize(tz.tensor_sum(t, axis=1), w3), a),
        ("sqrt", lambda t: _scalarize(tz.sqrt(t), w34), pos),
        ("index",
         lambda t: _scalarize(tz.index(t, (slice(None), 2)), w3), a),
        # t is both the [3, 4] weights and the rows, so both cotangents count
        ("neighbor_sum",
         lambda t: _scalarize(tz.neighbor_sum(t, t, np.array([[0, 2, 2, 1]] * 3)), w34), a),
    ]


def test_criterion_1_gradient_integrity():
    started = time.monotonic()
    rng = np.random.default_rng(101)
    worst_prim, worst_name = 0.0, ""
    cases = _primitive_cases(rng)
    # tz.sub keeps its case but is ADD of MUL by -1, no kind of its own;
    # MATMUL's bias input is a case of that kind
    covered = {name for name, _, _ in cases} - {"sub", "matmul_bias"}
    assert covered == {k.value for k in PrimitiveKind}, covered
    for name, fn, point in cases:
        err = finite_difference_check(fn, Tensor(point), step=1e-6)
        if err > worst_prim:
            worst_prim, worst_name = err, name

    # end to end: full forward plus the combined ranking/magnitude loss
    cfg = ActConfig(n_features=4, window=16, hidden=8, trend_window=5,
                    fluct_window=3, shock_window=3, knn=3)
    model = ActModel(cfg, seed=0)
    n = 8
    instruments = [f"S{i:03d}" for i in range(n)]
    graphs = build_relation_graphs(
        instruments,
        {s: f"I{i % 3}" for i, s in enumerate(instruments)},
        {s: f"R{i // 4}" for i, s in enumerate(instruments)},
    )
    window = rng.normal(size=(cfg.window, n, cfg.n_features))
    labels = rng.normal(0.0, 0.02, size=n)
    mask = np.ones(n, dtype=bool)
    names = sorted(model.params)
    params = [model.params[k] for k in names]

    def f():
        y, _ = act_forward(window, graphs, model, training=False)
        return mix_losses(ic_loss(y, labels, mask), mse_loss(y, labels, mask),
                          cfg.loss_mix)

    e2e = finite_difference_check_params(f, params, step=1e-6)
    elapsed = time.monotonic() - started
    verdict(1, worst_prim < 1e-5 and e2e < 1e-4 and elapsed < 60.0,
            f"primitive max rel err {worst_prim:.2e} (worst: {worst_name}) "
            f"< 1e-5; end-to-end {e2e:.2e} < 1e-4; {elapsed:.1f}s < 60s")


# ---------------------------------------------------------------------------
# 2. decomposition identity
# ---------------------------------------------------------------------------


def test_criterion_2_decomposition_identity():
    rng = np.random.default_rng(102)
    worst = 0.0
    loop_exact = True
    for trial in range(100):
        t = int(rng.integers(1, 25))
        n = int(rng.integers(1, 7))
        f = int(rng.integers(1, 5))
        tw = int(rng.integers(1, 9))
        fw = int(rng.integers(1, 6))
        x = rng.normal(size=(t, n, f)) * 10.0 ** rng.integers(-2, 3)
        parts = decompose(x, trend_window=tw, fluct_window=fw)
        err = np.max(np.abs(parts.trend + parts.fluct + parts.shock - x))
        worst = max(worst, err)
        ref_t, ref_f, ref_s = oracle.decompose_loop(x, tw, fw)
        loop_exact = loop_exact and (
            np.array_equal(parts.trend, ref_t)
            and np.array_equal(parts.fluct, ref_f)
            and np.array_equal(parts.shock, ref_s))
    verdict(2, worst <= 1e-12 and loop_exact,
            f"reconstruction max err {worst:.2e} <= 1e-12 on 100 tensors; "
            f"loop oracle exact: {loop_exact}")


# ---------------------------------------------------------------------------
# 3. module-oracle equivalence
# ---------------------------------------------------------------------------


def test_criterion_3_module_oracles():
    rng = np.random.default_rng(103)
    tol = 1e-9
    n = 7
    cfg = ActConfig(n_features=3, window=9, hidden=6, trend_window=4,
                    fluct_window=3, shock_window=2, knn=2)
    instruments = [f"S{i:03d}" for i in range(n)]
    # the last instrument has no industry; the first is alone in its region
    ind_labels = {s: f"I{i % 2}" for i, s in enumerate(instruments[:-1])}
    reg_labels = {s: f"R{i % 3}" for i, s in enumerate(instruments)}
    reg_labels[instruments[0]] = "R_solo"
    graphs = build_relation_graphs(instruments, ind_labels, reg_labels)
    ind_adj, reg_adj = oracle.relation_adjacencies(graphs)
    errs = {}

    # graph primitives
    x = rng.normal(size=(n, 4))
    w = rng.normal(size=(4, 4))
    b = rng.normal(size=4)
    errs["gcn"] = max(
        np.max(np.abs(gcn_layer(Tensor(x), codes, Tensor(w), Tensor(b)).data
                      - oracle.gcn_np(x, adj, w, b)))
        for codes, adj in ((graphs.industry, ind_adj), (graphs.region, reg_adj)))
    want_adj = oracle.topk_np(oracle.cosine_np(x), 2)
    errs["topk"] = float(
        not np.array_equal(knn_lists(x, 2), oracle.neighbor_lists(want_adj)))
    adj = want_adj.copy()
    a_src = rng.normal(size=(4, 1))
    a_dst = rng.normal(size=(4, 1))
    w_out = rng.normal(size=(4, 4))
    got_gat = gat_layer(Tensor(x), oracle.neighbor_lists(adj), Tensor(w), Tensor(a_src),
                        Tensor(a_dst), Tensor(w_out))
    ref_gat, _ = oracle.gat_np(x, adj, w, a_src, a_dst, w_out)
    errs["gat"] = np.max(np.abs(got_gat.data - ref_gat))

    # model branches against straight-line transcriptions
    for seed in range(2):
        model = ActModel(cfg, seed=seed)
        p = model.state_arrays()
        x_trend = rng.normal(size=(cfg.window, n, cfg.n_features))
        z, dyn, _ = pspe_forward(x_trend, graphs, model, cfg)
        ref = oracle.pspe_np(x_trend, ind_adj, reg_adj, p,
                             cfg.leaky_slope, cfg.knn)
        errs[f"pspe[{seed}]"] = max(
            np.max(np.abs(z.data - ref["z_trend"])),
            float(not np.array_equal(dyn, oracle.neighbor_lists(ref["dyn_adj"]))))

        x_fluct = rng.normal(size=(cfg.window, n, cfg.n_features))
        got = fci_forward(x_fluct, model, cfg, training=False)
        errs[f"fci[{seed}]"] = np.max(np.abs(
            got.data - oracle.fci_np(x_fluct, p)))

        x_shock = rng.normal(size=(cfg.window, n, cfg.n_features))
        got = sci_forward(x_shock, model, cfg, training=False)
        errs[f"sci[{seed}]"] = np.max(np.abs(
            got.data - oracle.sci_np(x_shock, p, cfg.shock_window,
                                     cfg.leaky_slope)))

        zs = [Tensor(rng.normal(size=(n, cfg.hidden))) for _ in range(3)]
        y, alpha = acf_forward(zs[0], zs[1], zs[2], model)
        ref_y, ref_a = oracle.acf_np(zs[0].data, zs[1].data, zs[2].data, p)
        errs[f"acf[{seed}]"] = max(np.max(np.abs(y.data - ref_y)),
                                   np.max(np.abs(alpha.data - ref_a)))

    worst = max(errs.values())
    worst_name = max(errs, key=errs.get)
    verdict(3, worst < tol,
            f"max oracle deviation {worst:.2e} ({worst_name}) < 1e-9 "
            f"across {len(errs)} checks")


# ---------------------------------------------------------------------------
# 4. planted-signal recovery
# ---------------------------------------------------------------------------


def test_criterion_4_planted_signal_recovery():
    started = time.monotonic()
    ds, graphs, _ = generate_synthetic(SynthConfig())
    ds = standardize_features(ds)
    valid_start, test_start = ds.dates[440], ds.dates[500]
    settings = TrainSettings(valid_start=valid_start, test_start=test_start,
                             lr=1e-3, epochs=10, patience=3, seed=0)

    def fit(pspe):
        cfg = ActConfig(n_features=ds.n_features, window=12, hidden=24,
                        knn=6, pspe=pspe)
        model, _ = train(ds, graphs, cfg, settings)
        preds = predict_sliding(model, ds, graphs, start_date=test_start)
        return summarize(preds, ds)

    full = fit("full")
    ablated = fit("gat_only")
    elapsed = time.monotonic() - started
    ok = (full.ic >= 0.15 and full.rank_ic >= 0.15
          and full.ic > ablated.ic and elapsed < 600.0)
    verdict(4, ok,
            f"OOS ic {full.ic:.4f} >= 0.15, rank_ic {full.rank_ic:.4f} >= "
            f"0.15, full > gat-only ablation ({ablated.ic:.4f}); "
            f"{elapsed:.0f}s < 600s")


# ---------------------------------------------------------------------------
# 5. loss semantics
# ---------------------------------------------------------------------------


def test_criterion_5_loss_semantics():
    rng = np.random.default_rng(105)
    labels = rng.normal(0.0, 0.05, size=50)
    mask = np.ones(50, dtype=bool)
    yc = clip_labels(labels)

    aligned = item(ic_loss(Tensor(yc), labels, mask))
    flipped = item(ic_loss(Tensor(-yc), labels, mask))
    # invariance is probed on well-dispersed scores; near-zero variance
    # would let the epsilon guard inside the loss dominate the comparison
    scores = 3.0 * rng.normal(size=50)
    base = item(ic_loss(Tensor(scores), labels, mask))
    affine = abs(
        item(ic_loss(Tensor(2.5 * scores + 7.0), labels, mask)) - base)
    ok = aligned < 1e-6 and 1.999 <= flipped <= 2.001 and affine < 1e-10
    verdict(5, ok,
            f"ic_loss(clipped labels) {aligned:.2e} < 1e-6; anticorrelated "
            f"{flipped:.6f} in [1.999, 2.001]; affine shift {affine:.2e} "
            f"< 1e-10")


# ---------------------------------------------------------------------------
# 6. backtest oracle
# ---------------------------------------------------------------------------


def _hand_panel():
    dates = ["2020-01-01", "2020-01-02", "2020-01-03", "2020-01-04",
             "2020-01-05"]
    instruments = ["A", "B", "C", "D"]
    labels = np.array([
        [0.01, 0.02, -0.01, 0.03],
        [0.02, -0.02, 0.01, 0.04],
        [-0.01, 0.03, 0.02, -0.02],
        [0.01, 0.01, -0.03, 0.02],
        [np.nan, np.nan, np.nan, np.nan],
    ])
    d, n = labels.shape
    ds = PanelDataset(
        dates=dates, instruments=instruments,
        features=np.zeros((d, n, 1)), labels=labels,
        vwap=np.ones((d, n)), volume=np.ones((d, n)))
    scores = {
        "2020-01-01": {"A": 4.0, "B": 3.0, "C": 2.0, "D": 1.0},
        "2020-01-02": {"D": 10.0, "A": 3.0, "B": 2.0, "C": 1.0},
        "2020-01-03": {"C": 10.0, "D": 9.0, "A": 8.0, "B": 1.0},
        "2020-01-04": {"A": 5.0, "B": 5.0, "C": 5.0, "D": 5.0},
        "2020-01-05": {"A": 1.0, "B": 2.0, "C": 3.0, "D": 4.0},
    }
    preds = PredictionSeries(
        [(d_, i, s) for d_, m in scores.items() for i, s in m.items()])
    return ds, preds, labels


def _random_backtest_inputs(seed):
    rng = np.random.default_rng(seed)
    d, n = int(rng.integers(6, 14)), int(rng.integers(4, 9))
    dates = trading_dates("2021-01-01", d)
    instruments = [f"S{i:02d}" for i in range(n)]
    labels = rng.normal(0.0, 0.02, size=(d, n))
    labels[-1] = np.nan
    drop = rng.random((d, n)) < 0.1
    labels[drop] = np.nan
    ds = PanelDataset(
        dates=dates, instruments=instruments,
        features=np.zeros((d, n, 1)), labels=labels,
        vwap=np.ones((d, n)), volume=np.ones((d, n)))
    rows = []
    for t in range(d):
        for i, inst in enumerate(instruments):
            if rng.random() < 0.85:
                rows.append((dates[t], inst, float(rng.normal())))
    return ds, PredictionSeries(rows)


def test_criterion_6_backtest_oracle():
    ds, preds, labels = _hand_panel()
    result = run_backtest(preds, ds, StrategyConfig(k=3, n_drop=1))

    want_ledger = [
        ("2020-01-01", ("A", "B", "C")),
        ("2020-01-02", ("A", "B", "D")),
        ("2020-01-03", ("A", "C", "D")),
        ("2020-01-04", ("A", "B", "C")),
    ]
    held = [[0, 1, 2], [0, 1, 3], [0, 2, 3], [0, 1, 2]]
    # hand arithmetic: equal weights accumulated name by name in id order
    want_port = np.array([
        sum((1.0 / 3.0) * labels[t, i] for i in idx)
        for t, idx in enumerate(held)
    ])
    want_bench = np.array([float(labels[t].mean()) for t in range(4)])
    want_excess = want_port - want_bench
    exact = (result.holdings_ledger == want_ledger
             and np.array_equal(result.portfolio, want_port)
             and np.array_equal(result.benchmark, want_bench)
             and np.array_equal(result.excess, want_excess))

    metrics = portfolio_metrics(result.excess, result.portfolio)
    want_ar = float(want_excess.mean()) * 252
    want_ir = float(want_excess.mean()) / float(
        want_excess.std(ddof=1)) * np.sqrt(252)
    curve = np.cumprod(1.0 + want_excess)
    peak = np.maximum.accumulate(np.concatenate(([1.0], curve)))[1:]
    want_md = float(np.min(curve / peak - 1.0))
    want_cr = float(np.prod(1.0 + want_port) - 1.0)
    metrics_exact = (metrics.ar == want_ar and metrics.ir == want_ir
                     and metrics.md == want_md and metrics.cr == want_cr
                     and metrics.calmar == want_ar / abs(want_md))

    # no-lookahead: truncating the future never changes the visible prefix
    lookahead_ok = True
    cfg = StrategyConfig(k=3, n_drop=1)
    for seed in range(50):
        full_ds, full_preds = _random_backtest_inputs(200 + seed)
        full = run_backtest(full_preds, full_ds, cfg)
        cut = int(np.random.default_rng(seed).integers(
            3, len(full_ds.dates)))
        kept_dates = full_ds.dates[:cut]
        trunc_ds = PanelDataset(
            dates=kept_dates, instruments=full_ds.instruments,
            features=full_ds.features[:cut],
            labels=full_ds.labels[:cut],
            vwap=full_ds.vwap[:cut], volume=full_ds.volume[:cut])
        trunc_preds = PredictionSeries(
            [r for r in full_preds.rows if r[0] in set(kept_dates)])
        trunc = run_backtest(trunc_preds, trunc_ds, cfg)
        m = len(trunc.dates)
        lookahead_ok = lookahead_ok and (
            trunc.dates == full.dates[:m]
            and np.array_equal(trunc.portfolio, full.portfolio[:m])
            and trunc.holdings_ledger == full.holdings_ledger[:m])

    verdict(6, exact and metrics_exact and lookahead_ok,
            f"hand ledger and daily returns exact: {exact}; AR/IR/MD/CR/"
            f"Calmar exact: {metrics_exact}; no-lookahead on 50 series: "
            f"{lookahead_ok}")


# ---------------------------------------------------------------------------
# 7. econometrics oracle
# ---------------------------------------------------------------------------


def test_criterion_7_econometrics_oracle():
    rng = np.random.default_rng(107)

    worst_ols = 0.0
    for _ in range(20):
        x = np.column_stack([np.ones(20), rng.normal(size=(20, 3))])
        y = rng.normal(size=20)
        want = np.linalg.inv(x.T @ x) @ x.T @ y
        worst_ols = max(worst_ols,
                        float(np.max(np.abs(ols(y, x).coefficients - want))))

    worst_white = 0.0
    for _ in range(10):
        x = np.column_stack([np.ones(40), rng.normal(size=(40, 2))])
        y = rng.normal(size=40)
        fit = ols(y, x)
        got = newey_west_se(x, fit.residuals, lags=0)
        meat = sum(fit.residuals[t] ** 2 * np.outer(x[t], x[t])
                   for t in range(40))
        bread = np.linalg.inv(x.T @ x)
        want = np.sqrt(np.diag(bread @ meat @ bread))
        worst_white = max(worst_white, float(np.max(np.abs(got - want))))

    t_len = 700
    dates = trading_dates("2015-01-01", t_len)
    factors = FactorSeries(
        dates=dates, risk_free=np.full(t_len, 1e-4),
        factors={name: rng.normal(0, 0.01, size=t_len)
                 for name in FACTOR_NAMES})
    alpha = 0.002
    port = factors.risk_free + alpha + rng.normal(0, 0.01, size=t_len)
    res5 = ff_regression(dates, port, factors, model="ff5", lags=5)
    alpha_err_se = abs(res5.alpha - alpha) / res5.std_errors[0]

    base = (0.0012 + 0.6 * factors.factors["mktrf"]
            + rng.normal(0, 0.005, size=t_len))
    ff3 = ff_regression(dates, base, factors, model="ff3")
    ff5 = ff_regression(dates, base, factors, model="ff5")
    agree = abs(ff3.alpha - ff5.alpha) <= max(ff3.std_errors[0],
                                              ff5.std_errors[0])

    ok = (worst_ols < 1e-10 and worst_white < 1e-10
          and alpha_err_se < 3.0 and agree)
    verdict(7, ok,
            f"ols vs normal equations {worst_ols:.2e} < 1e-10; lag-0 HAC vs "
            f"White {worst_white:.2e} < 1e-10; planted alpha off by "
            f"{alpha_err_se:.2f} se < 3; ff3/ff5 alpha agreement: {agree}")


# ---------------------------------------------------------------------------
# 8. determinism of the CLI pipeline
# ---------------------------------------------------------------------------


def _run_pipeline(root):
    data, model = root / "data", root / "model"
    rc = cli.main(["synth", "--out", str(data), "--n-instruments", "8",
                   "--n-features", "4", "--days", "60", "--block-size", "4",
                   "--n-regions", "2", "--seed", "3"])
    assert rc == 0
    panel = ["--features", str(data / "features.csv"),
             "--prices", str(data / "prices.csv")]
    graphs = ["--industry", str(data / "industry.csv"),
              "--region", str(data / "region.csv")]
    assert cli.main(["train", "--out", str(model)] + panel + graphs
                    + ["--window", "8", "--hidden", "8", "--knn", "3",
                       "--epochs", "2", "--valid-start", "2015-03-01",
                       "--seed", "1"]) == 0
    assert cli.main(["predict", "--out", str(root / "preds"),
                     "--checkpoint", str(model / "checkpoint.json")]
                    + panel + graphs) == 0
    preds = str(root / "preds" / "predictions.csv")
    assert cli.main(["evaluate", "--out", str(root / "eval"),
                     "--predictions", preds] + panel) == 0
    assert cli.main(["backtest", "--out", str(root / "bt"),
                     "--predictions", preds] + panel
                    + ["--k", "3", "--n-drop", "1"]) == 0
    assert cli.main(["regress", "--out", str(root / "reg"),
                     "--backtest", str(root / "bt" / "backtest.csv"),
                     "--factors", str(data / "factors.csv")]) == 0

    digests = {}
    for path in sorted(root.rglob("*")):
        if path.is_file() and path.name != "manifest.json":
            rel = str(path.relative_to(root))
            digests[rel] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def test_criterion_8_cli_determinism(tmp_path):
    first = _run_pipeline(tmp_path / "run1")
    second = _run_pipeline(tmp_path / "run2")
    same = first == second
    verdict(8, same and len(first) >= 14,
            f"two pipeline runs, {len(first)} artifacts each, byte-identical:"
            f" {same}")
