"""Alpha regressions of strategy returns on daily risk factors.

Ordinary least squares with Newey-West (Bartlett kernel) HAC standard
errors; three-factor and five-factor specifications share one code
path. The dependent variable is the portfolio return minus the
risk-free rate from the factor file.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import FACTOR_NAMES, FactorSeries, _positions, _write_rows
from .errors import ConfigError, DataError, check_kinds

FF3_FACTORS = ["mktrf", "smb", "hml"]
FF5_FACTORS = list(FACTOR_NAMES)

STAR_LEVELS = [(2.576, "***"), (1.960, "**"), (1.645, "*")]


@dataclass
class RegressSettings:
    """Models to fit (ff3, ff5 or both) and their Newey-West settings."""

    model: str = "both"
    lags: int = 5
    dof_correction: bool = False

    def __post_init__(self):
        check_kinds(self)
        if self.model not in ("ff3", "ff5", "both"):
            raise ConfigError("model must be ff3, ff5, or both")
        if self.lags < 0:
            raise ConfigError("lags must be >= 0")


@dataclass
class OlsFit:
    coefficients: np.ndarray
    residuals: np.ndarray
    r2: float


def ols(y: np.ndarray, x: np.ndarray) -> OlsFit:
    """Least squares through an orthogonal decomposition (lstsq/SVD).

    Expects an explicit intercept column in x. R-squared is centered;
    a constant target that is fit exactly reports 1.0.
    """
    y = np.asarray(y, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if y.ndim != 1 or x.ndim != 2 or x.shape[0] != y.size:
        raise DataError(f"bad regression shapes y={y.shape} x={x.shape}")
    t, p = x.shape
    if t <= p:
        raise DataError(f"need more observations ({t}) than columns ({p})")
    coef, _, rank, _ = np.linalg.lstsq(x, y, rcond=None)
    if rank < p:
        raise DataError(f"design matrix is rank deficient ({rank} < {p})")
    with np.errstate(over="ignore", invalid="ignore"):
        residuals = y - x @ coef
        sst = float(((y - y.mean()) ** 2).sum())
        ssr = float((residuals ** 2).sum())
    if not (np.isfinite(coef).all() and np.isfinite(sst) and np.isfinite(ssr)):
        raise DataError("the regression overflows: its coefficients or sums of "
                        "squares are not finite")
    r2 = 1.0 - ssr / sst if sst > 0.0 else 1.0
    return OlsFit(coefficients=coef, residuals=residuals, r2=r2)


def bartlett_weights(lags: int) -> np.ndarray:
    """Kernel weights for lag 1..lags: 1 - l/(lags+1)."""
    if lags < 0:
        raise ConfigError("lags must be >= 0")
    return np.array([1.0 - l / (lags + 1.0) for l in range(1, lags + 1)])


def newey_west_se(
    x: np.ndarray,
    residuals: np.ndarray,
    lags: int = 0,
    dof_correction: bool = False,
) -> np.ndarray:
    """HAC standard errors; lags=0 reduces to White's estimator.

    Sandwich: T (X'X)^-1 S (X'X)^-1 with S built from Bartlett-weighted
    autocovariances of the score series e_t * x_t. A numerically
    negative diagonal entry yields NaN in that slot rather than a
    crash; callers should flag it.
    """
    weights = bartlett_weights(lags)
    x = np.asarray(x, dtype=np.float64)
    u = np.asarray(residuals, dtype=np.float64)
    t, p = x.shape
    if t <= p + lags:
        raise DataError(f"need T > p + lags, got T={t} p={p} lags={lags}")

    scores = x * u[:, None]
    s = scores.T @ scores / t
    for l, w in zip(range(1, lags + 1), weights):
        gamma = scores[l:].T @ scores[:-l] / t
        s += w * (gamma + gamma.T)

    xtx_inv = np.linalg.inv(x.T @ x)
    cov = t * xtx_inv @ s @ xtx_inv
    if dof_correction:
        cov *= t / (t - p)
    diag = np.diag(cov).copy()
    out = np.full(p, np.nan)
    ok = diag >= 0.0
    out[ok] = np.sqrt(diag[ok])
    return out


def stars_for(t_stat: float) -> str:
    a = abs(t_stat)
    for cutoff, mark in STAR_LEVELS:
        if a >= cutoff:
            return mark
    return ""


@dataclass
class RegressionResult:
    """One fitted specification, Table-style."""

    model: str
    coef_names: list[str]
    coefficients: np.ndarray
    std_errors: np.ndarray
    t_stats: np.ndarray
    stars: list[str]
    r2: float
    n_obs: int
    lags: int
    dof_correction: bool

    @property
    def alpha(self) -> float:
        return float(self.coefficients[0])

    @property
    def alpha_t(self) -> float:
        return float(self.t_stats[0])

    def beta(self, name: str) -> float:
        return float(self.coefficients[self.coef_names.index(name)])


def ff_regression(
    dates: list[str],
    returns: np.ndarray,
    factors: FactorSeries,
    model: str = "ff3",
    lags: int = 5,
    dof_correction: bool = False,
) -> RegressionResult:
    """Regress (portfolio return - risk-free) on the named factor set.

    Every return date needs a factor row; a missing one is refused
    rather than skipped, since the Newey-West lags would then run across
    the gap. Factor days without a return are ignored. `model` picks the
    three- or five-factor column set.
    """
    if model == "ff3":
        names = FF3_FACTORS
    elif model == "ff5":
        names = FF5_FACTORS
    else:
        raise ConfigError(f"model must be ff3 or ff5, got {model!r}")
    returns = np.asarray(returns, dtype=np.float64)
    if len(dates) != returns.size:
        raise DataError("dates and returns length mismatch")

    rows = _positions(dates, factors.dates)
    missing = np.flatnonzero(rows < 0)
    if missing.size:
        raise DataError(f"{missing.size} of {len(dates)} return days have no "
                        f"factor row; the first is {dates[missing[0]]}")
    p = len(names) + 1
    if len(dates) < p + lags + 2:
        raise DataError(
            f"need at least {p + lags + 2} aligned dates, got {len(dates)}"
        )
    y = returns - factors.risk_free[rows]
    x = np.column_stack(
        [np.ones(len(rows))] + [factors.factors[n][rows] for n in names]
    )

    fit = ols(y, x)
    se = newey_west_se(x, fit.residuals, lags=lags, dof_correction=dof_correction)
    with np.errstate(divide="ignore", invalid="ignore"):
        t_stats = fit.coefficients / se
    return RegressionResult(
        model=model,
        coef_names=["alpha"] + names,
        coefficients=fit.coefficients,
        std_errors=se,
        t_stats=t_stats,
        stars=[stars_for(t) if np.isfinite(t) else "" for t in t_stats],
        r2=fit.r2,
        n_obs=len(rows),
        lags=lags,
        dof_correction=dof_correction,
    )


REGRESSION_HEADER = [
    "model", "alpha", "t_alpha", "beta_m", "beta_s", "beta_h", "beta_r",
    "beta_c", "r2", "obs",
]

def write_regression_csv(results: list[RegressionResult], path) -> None:
    """One row per fitted model; absent factor columns stay empty."""
    _write_rows(path, REGRESSION_HEADER, (
        [res.model, res.alpha, res.alpha_t,
         *(res.beta(name) if name in res.coef_names else None for name in FF5_FACTORS),
         res.r2, res.n_obs]
        for res in results))
