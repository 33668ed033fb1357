"""Split stock sequences into trend, fluctuation, and shock components.

The split is a chain of causal moving averages: a long window extracts
the trend, a short window over the detrended series extracts the
fluctuation, and the remainder is the shock. All three components at
step t depend only on inputs at steps <= t, and they sum back to the
input exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, NonFiniteError


def causal_moving_average(x: np.ndarray, window: int) -> np.ndarray:
    """Trailing mean over the last `window` steps along axis 0.

    At the left edge the divisor shrinks to the number of available
    steps, i.e. out[t] = mean(x[max(0, t-window+1) .. t]).

    Summation is sequential in ascending time so results are bit-identical
    to the textbook loop.
    """
    if not isinstance(window, (int, np.integer)) or window < 1:
        raise ConfigError(f"moving-average window must be an int >= 1, got {window!r}")
    x = np.asarray(x, dtype=np.float64)
    if x.ndim < 1 or x.shape[0] == 0:
        raise ConfigError("input must have a non-empty leading time axis")
    if not np.isfinite(x).all():
        raise NonFiniteError("causal_moving_average input contains NaN or Inf")
    if window == 1:
        return x.copy()
    T = x.shape[0]
    out = np.empty_like(x)
    for t in range(T):
        start = max(0, t - window + 1)
        acc = x[start].copy()
        for s in range(start + 1, t + 1):
            acc += x[s]
        out[t] = acc / (t + 1 - start)
    return out


@dataclass
class Decomposition:
    """Additive trend / fluctuation / shock split of one input tensor."""

    trend: np.ndarray
    fluct: np.ndarray
    shock: np.ndarray


def decompose(x: np.ndarray, trend_window: int = 20, fluct_window: int = 5) -> Decomposition:
    """Chain two causal moving averages into an exact additive split.

    trend = CMA(x, trend_window); fluct = CMA(x - trend, fluct_window);
    shock = x - trend - fluct.
    """
    x = np.asarray(x, dtype=np.float64)
    trend = causal_moving_average(x, trend_window)
    detrended = x - trend
    fluct = causal_moving_average(detrended, fluct_window)
    shock = x - trend - fluct
    return Decomposition(trend=trend, fluct=fluct, shock=shock)


def stack_decompositions(parts: Sequence[Decomposition]) -> Decomposition:
    """Stack decompositions of same-shape [T, ...] windows on a new axis 1.

    B windows of [T, N, F] give one [T, B, N, F] batch; the split is per
    step and per element, so this equals decomposing the stacked windows.
    """
    return Decomposition(
        trend=np.stack([p.trend for p in parts], axis=1),
        fluct=np.stack([p.fluct for p in parts], axis=1),
        shock=np.stack([p.shock for p in parts], axis=1),
    )
