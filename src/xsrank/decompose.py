"""Split stock sequences into trend, fluctuation, and shock components.

The split is a chain of causal moving averages: a long window extracts
the trend, a short window over the detrended series extracts the
fluctuation, and the remainder is the shock. All three components at
step t depend only on inputs at steps <= t, and they sum back to the
input exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NonFiniteError


def causal_moving_average(x: np.ndarray, window: int) -> np.ndarray:
    """Trailing mean over the last `window` steps along axis 0.

    At the left edge the divisor shrinks to the number of available
    steps, i.e. out[t] = mean(x[max(0, t-window+1) .. t]).

    Each cell is summed in ascending time, as the textbook loop sums it,
    so results are bit-identical to that loop: the first `window` rows
    are running sums, each row its predecessor plus x[t] in one
    whole-row add, and every later row adds the window's `window` offsets
    in order, one whole-slice add per offset.
    """
    if not isinstance(window, (int, np.integer)) or window < 1:
        raise ConfigError(f"moving-average window must be an int >= 1, got {window!r}")
    x = np.asarray(x, dtype=np.float64)
    if x.ndim < 1 or x.shape[0] == 0:
        raise ConfigError("input must have a non-empty leading time axis")
    if not np.isfinite(x).all():
        raise NonFiniteError("causal_moving_average input contains NaN or Inf")
    T = x.shape[0]
    w = min(int(window), T)
    out = np.empty_like(x)
    head, tail = out[:w], out[w:]
    head[0] = x[0]
    for t in range(1, w):
        np.add(head[t - 1:t], x[t:t + 1], out=head[t:t + 1])
    head /= np.arange(1, w + 1, dtype=np.float64).reshape((w,) + (1,) * (x.ndim - 1))
    if T > w:
        # row t >= w sums x[t - w + 1], ..., x[t]
        tail[...] = x[1:T - w + 1]
        for j in range(1, w):
            tail += x[1 + j:T - w + 1 + j]
        tail /= w
    return out


@dataclass
class Decomposition:
    """Additive trend / fluctuation / shock split of one input tensor."""

    trend: np.ndarray
    fluct: np.ndarray
    shock: np.ndarray


def decompose(x: np.ndarray, trend_window: int, fluct_window: int) -> Decomposition:
    """Chain two causal moving averages into an exact additive split.

    trend = CMA(x, trend_window); fluct = CMA(x - trend, fluct_window);
    shock = (x - trend) - fluct, bit for bit x - trend - fluct, written
    over the x - trend array, which is not kept.
    """
    x = np.asarray(x, dtype=np.float64)
    trend = causal_moving_average(x, trend_window)
    detrended = x - trend
    fluct = causal_moving_average(detrended, fluct_window)
    shock = np.subtract(detrended, fluct, out=detrended)
    return Decomposition(trend=trend, fluct=fluct, shock=shock)
