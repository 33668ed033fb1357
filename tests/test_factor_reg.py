import numpy as np
import pytest

from xsrank.data import FACTOR_NAMES, FactorSeries
from xsrank.errors import ConfigError, DataError
from xsrank.factor_reg import (
    bartlett_weights,
    ff_regression,
    newey_west_se,
    ols,
    stars_for,
    write_regression_csv,
)


def test_ols_exact_fit():
    rng = np.random.default_rng(0)
    x = np.column_stack([np.ones(30), rng.normal(size=(30, 2))])
    beta = np.array([0.5, -1.2, 2.0])
    fit = ols(x @ beta, x)
    assert np.max(np.abs(fit.coefficients - beta)) < 1e-12
    assert np.max(np.abs(fit.residuals)) < 1e-12
    assert abs(fit.r2 - 1.0) < 1e-12


def test_ols_intercept_only_is_mean():
    y = np.array([1.0, 2.0, 4.0, 9.0])
    fit = ols(y, np.ones((4, 1)))
    assert abs(fit.coefficients[0] - y.mean()) < 1e-14


def test_ols_matches_normal_equations():
    rng = np.random.default_rng(1)
    for _ in range(20):
        x = np.column_stack([np.ones(20), rng.normal(size=(20, 3))])
        y = rng.normal(size=20)
        want = np.linalg.inv(x.T @ x) @ x.T @ y
        fit = ols(y, x)
        assert np.max(np.abs(fit.coefficients - want)) < 1e-10


def test_ols_residuals_orthogonal_to_design():
    rng = np.random.default_rng(2)
    x = np.column_stack([np.ones(50), rng.normal(size=(50, 4))])
    y = rng.normal(size=50)
    fit = ols(y, x)
    assert np.max(np.abs(x.T @ fit.residuals)) < 1e-8


def test_ols_rank_deficiency_raises():
    rng = np.random.default_rng(3)
    col = rng.normal(size=20)
    x = np.column_stack([np.ones(20), col, 2.0 * col])
    with pytest.raises(DataError):
        ols(rng.normal(size=20), x)


def test_ols_shape_errors():
    with pytest.raises(DataError):
        ols(np.zeros(3), np.ones((4, 1)))
    with pytest.raises(DataError):
        ols(np.zeros(2), np.ones((2, 3)))


def test_bartlett_weights_five_lags():
    assert np.allclose(bartlett_weights(5), [5 / 6, 4 / 6, 3 / 6, 2 / 6, 1 / 6])
    assert bartlett_weights(0).size == 0
    with pytest.raises(ConfigError):
        bartlett_weights(-1)


def test_newey_west_zero_lags_is_white():
    rng = np.random.default_rng(4)
    for _ in range(10):
        x = np.column_stack([np.ones(40), rng.normal(size=(40, 2))])
        y = rng.normal(size=40)
        fit = ols(y, x)
        got = newey_west_se(x, fit.residuals, lags=0)

        # brute-force White estimator
        u = fit.residuals
        meat = sum(
            u[t] ** 2 * np.outer(x[t], x[t]) for t in range(40)
        )
        bread = np.linalg.inv(x.T @ x)
        want = np.sqrt(np.diag(bread @ meat @ bread))
        assert np.max(np.abs(got - want)) < 1e-10


def test_newey_west_matches_direct_sandwich():
    rng = np.random.default_rng(5)
    t_len, lags = 60, 3
    x = np.column_stack([np.ones(t_len), rng.normal(size=(t_len, 2))])
    y = rng.normal(size=t_len)
    fit = ols(y, x)
    got = newey_west_se(x, fit.residuals, lags=lags)

    u = fit.residuals
    scores = x * u[:, None]
    s = np.zeros((3, 3))
    for t in range(t_len):
        s += np.outer(scores[t], scores[t]) / t_len
    for l in range(1, lags + 1):
        w = 1.0 - l / (lags + 1.0)
        gamma = np.zeros((3, 3))
        for t in range(l, t_len):
            gamma += np.outer(scores[t], scores[t - l]) / t_len
        s += w * (gamma + gamma.T)
    bread = np.linalg.inv(x.T @ x)
    want = np.sqrt(np.diag(t_len * bread @ s @ bread))
    assert np.max(np.abs(got - want)) < 1e-12


def test_newey_west_close_to_classical_when_iid():
    rng = np.random.default_rng(6)
    t_len = 2000
    x = np.column_stack([np.ones(t_len), rng.normal(size=(t_len, 2))])
    y = x @ np.array([0.1, 0.5, -0.3]) + rng.normal(0, 0.02, size=t_len)
    fit = ols(y, x)
    nw = newey_west_se(x, fit.residuals, lags=5)
    sigma2 = (fit.residuals ** 2).sum() / (t_len - 3)
    classical = np.sqrt(np.diag(sigma2 * np.linalg.inv(x.T @ x)))
    assert np.max(np.abs(nw / classical - 1.0)) < 0.15


def test_newey_west_dof_correction_scales():
    rng = np.random.default_rng(7)
    x = np.column_stack([np.ones(30), rng.normal(size=(30, 2))])
    y = rng.normal(size=30)
    fit = ols(y, x)
    plain = newey_west_se(x, fit.residuals, lags=2)
    corrected = newey_west_se(x, fit.residuals, lags=2, dof_correction=True)
    assert np.allclose(corrected, plain * np.sqrt(30 / 27))


def test_newey_west_needs_enough_observations():
    x = np.ones((5, 2))
    with pytest.raises(DataError):
        newey_west_se(x, np.zeros(5), lags=3)


def test_stars_thresholds():
    assert stars_for(0.5) == ""
    assert stars_for(1.7) == "*"
    assert stars_for(-1.7) == "*"
    assert stars_for(2.0) == "**"
    assert stars_for(-2.6) == "***"
    assert stars_for(1.645) == "*"
    assert stars_for(1.960) == "**"
    assert stars_for(2.576) == "***"


def make_factors(t_len, seed, rf=0.0):
    rng = np.random.default_rng(seed)
    dates = [f"2020-{1 + d // 28:02d}-{1 + d % 28:02d}" for d in range(t_len)]
    factors = {name: rng.normal(0, 0.01, size=t_len) for name in FACTOR_NAMES}
    return FactorSeries(
        dates=dates,
        risk_free=np.full(t_len, rf),
        factors=factors,
    ), dates


def test_ff_regression_constant_target():
    factors, dates = make_factors(100, seed=8, rf=0.0)
    c = 0.0015
    res = ff_regression(dates, np.full(100, c), factors, model="ff3")
    assert abs(res.alpha - c) < 1e-12
    for name in ("mktrf", "smb", "hml"):
        assert abs(res.beta(name)) < 1e-10
    assert res.n_obs == 100
    assert res.coef_names == ["alpha", "mktrf", "smb", "hml"]


def test_ff_regression_subtracts_risk_free():
    factors, dates = make_factors(80, seed=9, rf=2e-4)
    res = ff_regression(dates, np.full(80, 0.001), factors, model="ff3")
    assert abs(res.alpha - (0.001 - 2e-4)) < 1e-10


def test_ff_regression_recovers_planted_alpha():
    factors, dates = make_factors(700, seed=10, rf=1e-4)
    rng = np.random.default_rng(11)
    alpha = 0.002
    port = factors.risk_free + alpha + rng.normal(0, 0.01, size=700)
    res = ff_regression(dates, port, factors, model="ff5", lags=5)
    se = res.std_errors[0]
    assert abs(res.alpha - alpha) < 3 * se
    assert res.alpha_t == res.alpha / se
    assert res.stars[0] == "***"


def test_ff_regression_recovers_planted_betas():
    factors, dates = make_factors(900, seed=12, rf=0.0)
    rng = np.random.default_rng(13)
    want = {"mktrf": 0.8, "smb": -0.4, "hml": 0.2, "rmw": 0.0, "cma": 0.0}
    y = sum(want[n] * factors.factors[n] for n in FACTOR_NAMES)
    y = y + 0.001 + rng.normal(0, 0.004, size=900)
    res = ff_regression(dates, y, factors, model="ff5")
    for i, name in enumerate(res.coef_names[1:], start=1):
        assert abs(res.coefficients[i] - want[name]) < 3 * res.std_errors[i]


def test_ff3_and_ff5_alpha_agree_when_extra_factors_irrelevant():
    factors, dates = make_factors(800, seed=14, rf=0.0)
    rng = np.random.default_rng(15)
    y = 0.0012 + 0.6 * factors.factors["mktrf"] + rng.normal(0, 0.005, size=800)
    ff3 = ff_regression(dates, y, factors, model="ff3")
    ff5 = ff_regression(dates, y, factors, model="ff5")
    assert abs(ff3.alpha - ff5.alpha) <= max(ff3.std_errors[0],
                                             ff5.std_errors[0])


def test_ff_regression_t_stats_scale_invariant():
    factors, dates = make_factors(300, seed=16, rf=0.0)
    rng = np.random.default_rng(17)
    y = 0.001 + 0.5 * factors.factors["mktrf"] + rng.normal(0, 0.01, size=300)
    a = ff_regression(dates, y, factors, model="ff3")
    b = ff_regression(dates, 10.0 * y, factors, model="ff3")
    assert np.max(np.abs(b.coefficients - 10.0 * a.coefficients)) < 1e-10
    assert np.max(np.abs(b.std_errors - 10.0 * a.std_errors)) < 1e-10
    assert np.max(np.abs(b.t_stats - a.t_stats)) < 1e-8


def test_ff_regression_alignment_and_errors():
    factors, dates = make_factors(50, seed=18)
    rng = np.random.default_rng(19)
    y = rng.normal(0, 0.01, size=50)
    # factor days without a return are ignored
    assert ff_regression(dates[10:], y[10:], factors, model="ff3").n_obs == 40
    # a return day without a factor row is refused, not dropped
    shifted = dates[:20] + ["2021-01-01"] * 10 + dates[30:]
    with pytest.raises(DataError, match="10 of 50 return days have no factor row; "
                                        "the first is 2021-01-01"):
        ff_regression(shifted, y, factors, model="ff3")
    with pytest.raises(DataError):
        ff_regression(["1999-01-01"] * 50, y, factors, model="ff3")
    with pytest.raises(ConfigError):
        ff_regression(dates, y, factors, model="ff4")
    with pytest.raises(DataError):
        ff_regression(dates[:10], y, factors, model="ff3")


def test_regression_csv_layout(tmp_path):
    factors, dates = make_factors(200, seed=20)
    rng = np.random.default_rng(21)
    y = 0.001 + rng.normal(0, 0.01, size=200)
    ff3 = ff_regression(dates, y, factors, model="ff3")
    ff5 = ff_regression(dates, y, factors, model="ff5")
    path = tmp_path / "reg.csv"
    write_regression_csv([ff3, ff5], path)
    lines = path.read_text().splitlines()
    assert lines[0] == ("model,alpha,t_alpha,beta_m,beta_s,beta_h,"
                        "beta_r,beta_c,r2,obs")
    row3 = lines[1].split(",")
    row5 = lines[2].split(",")
    assert row3[0] == "ff3"
    assert row3[6] == "" and row3[7] == ""
    assert row5[6] != "" and row5[7] != ""
    assert row3[9] == "200"
    assert float(row3[1]) == ff3.alpha
