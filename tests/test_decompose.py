"""Decomposition: brute-force oracle, reconstruction identity, causality."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import _oracles as oracle
from xsrank.decompose import Decomposition, causal_moving_average, decompose
from xsrank.errors import ConfigError, NonFiniteError


def test_cma_window_one_is_identity():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(9, 3, 2))
    out = causal_moving_average(x, 1)
    np.testing.assert_array_equal(out, x)
    assert out is not x


def test_cma_window_geq_length_is_running_mean():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(6, 4))
    out = causal_moving_average(x, 10)
    for t in range(6):
        np.testing.assert_allclose(out[t], x[: t + 1].mean(axis=0), atol=1e-12)
    np.testing.assert_allclose(out[-1], x.mean(axis=0), atol=1e-12)


def test_cma_matches_loop_oracle_bitwise():
    rng = np.random.default_rng(2)
    for trial in range(20):
        T = int(rng.integers(1, 30))
        x = rng.normal(size=(T, 3, 2)) * 10.0
        w = int(rng.integers(1, 12))
        got = causal_moving_average(x, w)
        want = oracle.cma_loop(x, w)
        np.testing.assert_array_equal(got, want)


@settings(max_examples=200, deadline=None)
@given(st.tuples(st.integers(1, 40), st.integers(0, 3)).flatmap(
           lambda tn: arrays(np.float64, (tn[0],) + (2,) * tn[1],
                             elements=st.floats(-1e6, 1e6, allow_nan=False,
                                                allow_infinity=False))),
       st.integers(1, 45))
def test_cma_equals_textbook_loop_bitwise_over_random_shapes(x, window):
    got = causal_moving_average(x, window)
    want = oracle.cma_loop(x, window)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# signed zeros, the smallest subnormal, a mid subnormal and the largest
_TINY = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 2.225073858507201e-308]


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(1, 20), st.integers(1, 3), st.integers(1, 8),
       st.integers(0, 2 ** 32 - 1))
def test_cma_and_decompose_equal_the_loop_bitwise_on_wide_steps(data, T, B, F, seed):
    # [T, B, N, F] with at least 64 cells per step, as a window stack is;
    # the head is built row by row, so a wide row must add as one cell does
    least = -(-64 // (B * F))
    N = data.draw(st.integers(least, least + 40), label="N")
    window = data.draw(st.one_of(st.integers(1, T), st.just(T), st.integers(T, T + 8)),
                       label="window")
    fluct_window = data.draw(st.integers(1, T + 2), label="fluct_window")
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(T, B, N, F)) * 10.0 ** rng.integers(-300, 300)
    # a drawn share of the cells, and some whole steps, become tiny or zero
    share = data.draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]), label="share")
    cells = rng.random(x.shape) < share
    x[cells] = rng.choice(_TINY, size=int(cells.sum()))
    x[rng.random(T) < share] = -0.0
    got = causal_moving_average(x, window)
    assert got.tobytes() == oracle.cma_loop(x, window).tobytes()
    parts = decompose(x, window, fluct_window)
    want = oracle.decompose_loop(x, window, fluct_window)
    for comp, expected in zip((parts.trend, parts.fluct, parts.shock), want):
        assert comp.shape == x.shape
        assert comp.tobytes() == expected.tobytes()


def test_cma_left_edge_divisor():
    x = np.array([[2.0], [4.0], [6.0], [8.0]])
    out = causal_moving_average(x, 3)
    np.testing.assert_array_equal(out[:, 0], [2.0, 3.0, 4.0, (4 + 6 + 8) / 3])


def test_cma_rejects_bad_inputs():
    with pytest.raises(ConfigError):
        causal_moving_average(np.zeros((4, 2)), 0)
    with pytest.raises(ConfigError):
        causal_moving_average(np.zeros((4, 2)), 2.5)
    with pytest.raises(ConfigError):
        causal_moving_average(np.zeros((0, 2)), 2)
    with pytest.raises(NonFiniteError):
        causal_moving_average(np.array([1.0, np.nan]), 2)


def test_decompose_constant_sequence():
    x = np.full((12, 2, 3), 7.5)
    d = decompose(x, trend_window=4, fluct_window=2)
    np.testing.assert_allclose(d.trend, x, atol=1e-12)
    np.testing.assert_allclose(d.fluct, 0.0, atol=1e-12)
    np.testing.assert_allclose(d.shock, 0.0, atol=1e-12)


def test_decompose_step_matches_chain_oracle():
    # pure step at t=5, tau=3, sigma=2: follow the chain by hand
    T = 10
    x = np.zeros((T, 1, 1))
    x[5:] = 1.0
    d = decompose(x, trend_window=3, fluct_window=2)
    trend = oracle.cma_loop(x, 3)
    det = x - trend
    fluct = oracle.cma_loop(det, 2)
    shock = x - trend - fluct
    np.testing.assert_array_equal(d.trend, trend)
    np.testing.assert_array_equal(d.fluct, fluct)
    np.testing.assert_array_equal(d.shock, shock)


def panels(max_t=40):
    """[T, N, F] float panels with |x| <= 100, NaN and Inf excluded."""
    shapes = st.tuples(st.integers(1, max_t), st.integers(1, 5), st.integers(1, 4))
    values = st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False)
    return shapes.flatmap(lambda shape: arrays(np.float64, shape, elements=values))


@settings(max_examples=100, deadline=None)
@given(panels(), st.integers(1, 25), st.integers(1, 10))
def test_reconstruction_identity_100_random_tensors(x, tau, sigma):
    d = decompose(x, tau, sigma)
    err = np.abs(d.trend + d.fluct + d.shock - x).max()
    assert err <= 1e-12


@settings(max_examples=100, deadline=None)
@given(panels(), st.integers(1, 25), st.integers(1, 10), st.data())
def test_causality_prepending_history_shifts_cleanly(x, tau, sigma, data):
    """Appending future values never changes past components."""
    cut = data.draw(st.integers(1, x.shape[0]), label="cut")
    d_full = decompose(x, tau, sigma)
    d_head = decompose(x[:cut], tau, sigma)
    np.testing.assert_array_equal(d_full.trend[:cut], d_head.trend)
    np.testing.assert_array_equal(d_full.fluct[:cut], d_head.fluct)
    np.testing.assert_array_equal(d_full.shock[:cut], d_head.shock)


def test_causality_prepend_constant_warmup():
    """Prepending history only disturbs a bounded warmup region.

    The trend average reaches back tau-1 steps and the fluctuation average
    another sigma-1 on top, so components agree exactly from aligned index
    (tau-1)+(sigma-1) onward, and strictly before that they differ.
    """
    rng = np.random.default_rng(5)
    tau, sigma = 5, 3
    x = rng.normal(size=(25, 2, 2))
    pad = np.zeros((4, 2, 2))
    padded = np.concatenate([pad, x], axis=0)
    d_plain = decompose(x, tau, sigma)
    d_padded = decompose(padded, tau, sigma)
    warm = (tau - 1) + (sigma - 1)
    P = pad.shape[0]
    for comp in ("trend", "fluct", "shock"):
        a = getattr(d_padded, comp)[P + warm:]
        b = getattr(d_plain, comp)[warm:]
        np.testing.assert_array_equal(a, b)
    assert np.abs(d_padded.shock[P + warm - 1] - d_plain.shock[warm - 1]).max() > 0


def test_decomposition_dataclass_fields():
    x = np.zeros((4, 1, 1))
    d = decompose(x, 2, 2)
    assert isinstance(d, Decomposition)
    assert d.trend.shape == d.fluct.shape == d.shock.shape == x.shape
