"""Tape and primitive tests: shapes, closed-form gradients, FD oracles."""

import re
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import _oracles as oracle
from _fd import finite_difference_check
from xsrank import tensor as tz
from xsrank.errors import ConfigError, NonFiniteError, ShapeError, TapeError
from xsrank.model import ActConfig
from xsrank.tensor import PrimitiveKind, Tape, Tensor, apply_primitive, backward


def _scalarize(t, weights):
    """Dot the op output with fixed weights so the loss is a scalar."""
    return tz.tensor_sum(tz.mul(t, Tensor(weights)))


def test_tensor_basics():
    t = Tensor([[1.0, 2.0], [3.0, 4.0]])
    assert t.shape == (2, 2)
    assert t.data.dtype == np.float64
    assert t.data.flags["C_CONTIGUOUS"]
    assert t.node_id is None


def test_tensor_rejects_non_finite():
    with pytest.raises(NonFiniteError):
        Tensor([1.0, np.nan])
    with pytest.raises(NonFiniteError):
        Tensor([np.inf])


def test_matmul_shapes():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(2, 3))
    b = rng.normal(size=(3, 4))
    out = tz.matmul(Tensor(a), Tensor(b))
    assert out.shape == (2, 4)
    np.testing.assert_allclose(out.data, a @ b, rtol=0, atol=0)

    with pytest.raises(ShapeError):
        tz.matmul(Tensor(a), Tensor(a))
    with pytest.raises(ShapeError):
        tz.matmul(Tensor(np.ones(3)), Tensor(b))


def test_matmul_batched_broadcast():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(5, 2, 3))
    b = rng.normal(size=(3, 4))
    out = tz.matmul(Tensor(a), Tensor(b))
    assert out.shape == (5, 2, 4)
    np.testing.assert_allclose(out.data, a @ b)

    with Tape() as tape:
        ta, tb = Tensor(a), Tensor(b)
        tape.watch(ta)
        tape.watch(tb)
        loss = tz.tensor_sum(tz.matmul(ta, tb))
        backward(loss)
        ga = tape.grad(ta)
        gb = tape.grad(tb)
    assert ga.shape == a.shape
    assert gb.shape == b.shape
    # d/db of sum(a @ b) collapses the batch axis
    np.testing.assert_allclose(gb, a.sum(axis=0).T @ np.ones((2, 4)))

    # a stack of per-lag weights: a [B, K, N, d] @ b [K, d, e], so the
    # gradient of b[j] sums over the batch and the rows of lag j
    a = rng.normal(size=(3, 2, 5, 4))
    b = rng.normal(size=(2, 4, 6))
    g = rng.normal(size=(3, 2, 5, 6))
    with Tape() as tape:
        tb = Tensor(b)
        tape.watch(tb)
        out = tz.matmul(Tensor(a), tb)
        backward(tz.tensor_sum(tz.mul(out, Tensor(g))))
        gb = tape.grad(tb)
    np.testing.assert_allclose(out.data, np.einsum("bkni,kio->bkno", a, b),
                               rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(gb, np.einsum("bkni,bkno->kio", a, g),
                               rtol=1e-12, atol=1e-12)


def test_softmax_gradient_closed_form():
    # loss = softmax(x)[0] at x = [0, 0] has gradient [0.25, -0.25]
    with Tape() as tape:
        x = Tensor([0.0, 0.0])
        tape.watch(x)
        s = tz.softmax(x, axis=0)
        loss = tz.index(s, 0)
        backward(loss)
        g = tape.grad(x)
    np.testing.assert_allclose(g, [0.25, -0.25], atol=1e-12)


def test_relu_subgradient_zero_at_kink():
    # ReLU is leaky_relu at slope 0
    with Tape() as tape:
        x = Tensor([-1.0, 0.0, 2.0])
        tape.watch(x)
        loss = tz.tensor_sum(tz.leaky_relu(x, 0.0))
        backward(loss)
        g = tape.grad(x)
    np.testing.assert_array_equal(g, [0.0, 0.0, 1.0])


def test_layer_norm_output_standardized():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(7, 16)) * 3.0 + 1.5
    out = tz.layer_norm(Tensor(x), Tensor(np.ones(16)), Tensor(np.zeros(16))).data
    np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-10)
    np.testing.assert_allclose(out.var(axis=-1), 1.0, atol=1e-4)
    # epsilon is a constant, not an attr: no caller ever set another
    with pytest.raises(TypeError, match="eps"):
        apply_primitive(PrimitiveKind.LAYER_NORM,
                        [Tensor(x), Tensor(np.ones(16)), Tensor(np.zeros(16))], eps=1e-3)


def test_layer_norm_constant_row_grad_near_zero():
    with Tape() as tape:
        x = Tensor(np.full((1, 8), 3.0))
        tape.watch(x)
        out = tz.layer_norm(x, Tensor(np.ones(8)), Tensor(np.zeros(8)))
        backward(tz.tensor_sum(out))
        g = tape.grad(x)
    assert np.abs(g).max() < 1e-6


def test_index_refuses_out_of_range_and_float_keys():
    # numpy checks the key
    x = Tensor(np.arange(12, dtype=float).reshape(4, 3))
    for key in (4, -5, (slice(None), 3), (0, 0, 0), (None, 0, 0, 0), [0, 4],
                np.array([0, 4]), np.array([-5]), (slice(None), np.array([[0], [3]])),
                np.array([True, False, True]), 1.5, [0.5], np.array([0.0, 1.0])):
        with pytest.raises(IndexError):
            tz.index(x, key)


def test_index_integer_arrays_and_none():
    rng = np.random.default_rng(22)
    x = rng.normal(size=(2, 5, 3))
    nbr = np.array([[1, 1, 4], [0, 2, 2], [3, 3, 3], [4, 0, 1], [2, 2, 0]])
    batch = np.arange(2)[:, None, None]
    keys = [
        (slice(None), nbr),  # rows shared by the batch, repeated
        (batch, np.stack([nbr, nbr[::-1]])),  # one list per batch entry
        (slice(None), nbr, 0),
        (slice(None), None, slice(None)),
        (slice(None), slice(None), None),
        (np.array([-1, -1]), 3),
    ]
    for key in keys:
        np.testing.assert_array_equal(tz.index(Tensor(x), key).data, x[key])
        w = rng.normal(size=x[key].shape)
        err = _fd_case(lambda t, key=key, w=w: _scalarize(tz.index(t, key), w), x)
        assert err < FD_TOL, key
        # the scatter-add VJP sums repeats in the order np.add.at does
        g = rng.normal(size=x[key].shape)
        with Tape() as tape:
            t = Tensor(x)
            tape.watch(t)
            backward(_scalarize(tz.index(t, key), g))
            got = tape.grad(t)
        want = np.zeros_like(x)
        np.add.at(want, key, g)
        assert np.array_equal(got, want), key


@pytest.mark.parametrize("cells", [tz.TOPK_BLOCK_CELLS, 60, 1])
def test_neighbor_sum_is_the_index_matmul_pair_bit_for_bit(cells, monkeypatch):
    # one, several and one-row blocks of rows; repeated and shared rows, a
    # key that broadcasts a shared list, negative indices, and cotangents
    # with signed zeros, which INDEX's scatter makes +0
    rng = np.random.default_rng(23)
    n, k, d = 5, 3, 4
    alpha = rng.uniform(0.0, 1.0, size=(2, n, k))
    alpha[:, :, 0] = 0.0
    x = -np.abs(rng.normal(size=(2, n, d)))
    x[1, 2] = 0.0
    nbr = np.array([[1, 1, 4], [0, 2, 2], [3, 3, 3], [4, 0, -1], [2, 2, 0]])
    batch = np.arange(2)[:, None, None]
    w = rng.normal(size=(2, n, d))
    w[:, 1], w[0, 3, :2] = -0.0, 0.0
    monkeypatch.setattr(tz, "TOPK_BLOCK_CELLS", cells)
    assert len(tz.row_blocks(n, 2 * k * d)) == {60: 3, 1: n}.get(cells, 1)
    for key in ((batch, np.stack([nbr, nbr[::-1]])), (batch, nbr)):
        got, want = [], []
        for f, out in ((tz.neighbor_sum, got), (oracle.neighbor_sum_index_matmul, want)):
            with Tape() as tape:
                ta, tx = Tensor(alpha), Tensor(x)
                tape.watch(ta)
                tape.watch(tx)
                y = f(ta, tx, key)
                backward(_scalarize(y, w))
                out += [y.data, tape.grad(ta), tape.grad(tx)]
        for g, want_g in zip(got, want, strict=True):
            assert g.tobytes() == want_g.tobytes()
    with pytest.raises(ShapeError):
        tz.neighbor_sum(Tensor(alpha), Tensor(x), (batch, nbr[:, :2]))
    with pytest.raises(IndexError):
        tz.neighbor_sum(Tensor(alpha), Tensor(x), (batch, nbr + 1))


# signed zeros and subnormals, and for the operands large values whose
# differences stay finite; a cotangent of at most 1 keeps the loss finite
_TINY_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.0 ** -1030, -(2.0 ** -1030)]
_LARGE_VALUES = [1e300, -1e300, 2.0 ** 1022, -(2.0 ** 1022)]
_SUB_VALUES = st.one_of(st.sampled_from(_TINY_VALUES + _LARGE_VALUES), st.floats(-1e3, 1e3))
_COTANGENTS = st.one_of(st.sampled_from(_TINY_VALUES), st.floats(-1.0, 1.0))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([(3, 4), (4,), (3, 1), ()]), st.booleans(),
       st.sampled_from([(1, 1), (1, 0), (0, 1)]), st.data())
def test_sub_is_the_removed_sub_primitive_bit_for_bit(other, swap, watched, data):
    # a [3, 4] operand against an equal one, a [d] bias, a [B, 1] column or
    # a 0-d scalar, on either side, with a constant on either side
    shapes = [(3, 4), other][::-1 if swap else 1]
    a, b = (data.draw(arrays(np.float64, s, elements=_SUB_VALUES)) for s in shapes)
    g = data.draw(arrays(np.float64, np.broadcast_shapes(*shapes), elements=_COTANGENTS))
    want = oracle.sub_primitive(a, b, g)
    with np.errstate(over="ignore", invalid="ignore"):
        assume(np.isfinite(np.sum(want[0] * g)))  # the scalarized loss
    with Tape() as tape:
        ta, tb = Tensor(a), Tensor(b)
        for t, w in zip((ta, tb), watched):
            if w:
                tape.watch(t)
        y = tz.sub(ta, tb)
        backward(_scalarize(y, g))
        got = [y.data, tape.grad(ta), tape.grad(tb)]
    for x, want_x, w in zip(got, want, (1, *watched)):
        if not w:
            assert x is None
            continue
        x, want_x = np.asarray(x), np.asarray(want_x)
        assert x.shape == want_x.shape and x.tobytes() == want_x.tobytes()


_SIGNED_ZEROS = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-10.0, 10.0))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([((4, 3), (3, 2)), ((2, 4, 3), (3, 2)), ((2, 4, 3), (2, 3, 2))]),
       st.sampled_from([lambda n, k: (k,), lambda n, k: (1, k), lambda n, k: (n, k)]),
       st.data())
def test_a_biased_matmul_is_matmul_then_add_bit_for_bit(shapes, bias_shape, data):
    # an [N, k] product, and a [B, N, k] one with a shared [d, k] or a
    # batched [B, d, k] right operand; a [k], [1, k] or [N, k] bias
    (sa, sb), shape = shapes, np.broadcast_shapes(shapes[0][:-2], shapes[1][:-2])
    a = data.draw(arrays(np.float64, sa, elements=_SIGNED_ZEROS))
    b = data.draw(arrays(np.float64, sb, elements=st.floats(-10.0, 10.0)))
    c = data.draw(arrays(np.float64, bias_shape(sa[-2], sb[-1]), elements=_SIGNED_ZEROS))
    g = data.draw(arrays(np.float64, shape + (sa[-2], sb[-1]), elements=_COTANGENTS))

    def run(f):
        with Tape() as tape:
            ts = [Tensor(x) for x in (a, b, c)]
            for t in ts:
                tape.watch(t)
            y = f(*ts)
            backward(_scalarize(y, g))
            return [y.data] + [tape.grad(t) for t in ts]

    want = run(lambda ta, tb, tc: tz.add(tz.matmul(ta, tb), tc))
    for got, want_x in zip(run(tz.matmul), want, strict=True):
        assert got.shape == want_x.shape and got.tobytes() == want_x.tobytes()


@pytest.mark.parametrize("shape", [(3,), (2, 4, 2), (1, 4, 2), (4, 3)])
def test_a_matmul_bias_that_would_grow_the_product_is_a_shape_error(shape):
    # ADD would broadcast the product up to the bias; a bias must fit into it
    a, b = Tensor(np.ones((4, 3))), Tensor(np.ones((3, 2)))
    with pytest.raises(ShapeError, match=re.escape(
            f"matmul bias {shape} does not broadcast into (4, 2)")):
        tz.matmul(a, b, Tensor(np.ones(shape)))


def test_gradients_are_read_only():
    # an ADD hands its output's gradient to both inputs unchanged, so the
    # two may share memory; writing to either must fail, not alias
    with Tape() as tape:
        a, b = Tensor(np.ones(3)), Tensor(np.zeros(3))
        tape.watch(a)
        tape.watch(b)
        backward(tz.tensor_sum(tz.add(a, b)))
        ga, gb = tape.grad(a), tape.grad(b)
    np.testing.assert_array_equal(ga, np.ones(3))
    for g in (ga, gb):
        with pytest.raises(ValueError):
            g[0] = 2.0


def test_sigmoid_equals_masked_formula_bitwise():
    rng = np.random.default_rng(23)
    x = np.concatenate([rng.normal(size=500) * 10.0, [0.0, -0.0, 700.0, -700.0, 1e-300]])
    got = tz.sigmoid(Tensor(x)).data
    assert np.array_equal(got, oracle.sigmoid_masked(x))
    assert np.array_equal(np.signbit(got), np.signbit(oracle.sigmoid_masked(x)))


# signed zeros; either side of where 1 + exp(-|x|) rounds to 1 (36, 37);
# where exp(-|x|) is a tiny normal (700.5, 708), a subnormal (745) and 0
# (746); huge and subnormal values
_SIGMOID_EDGES = [0.0, -0.0, 36.0, -36.0, 37.0, -37.0, 700.5, -700.5, 708.0, -708.0,
                  745.0, -745.0, 746.0, -746.0, 1e308, -1e308, 5e-324, -5e-324,
                  2.0 ** -1030, -(2.0 ** -1030)]


@settings(max_examples=300, deadline=None)
@given(arrays(np.float64, st.integers(0, 40), elements=st.one_of(
    st.sampled_from(_SIGMOID_EDGES), st.floats(-800.0, 800.0),
    st.floats(allow_nan=False, allow_infinity=False))))
def test_sigmoid_divides_once_as_the_two_quotients_did(x):
    assert tz.sigmoid(Tensor(x)).data.tobytes() == oracle.sigmoid_two_quotients(x).tobytes()


# around where exp(-|x|) leaves the normals (708.4) and reaches 0
# (745.1), plus magnitudes up to 1e300
_FORWARD_EDGES = _SIGMOID_EDGES + [709.0, -709.0, 709.78, -709.78, 745.13, -745.13,
                                   745.14, -745.14, 1e300, -1e300]
_forward_values = st.one_of(st.sampled_from(_FORWARD_EDGES), st.floats(-750.0, 750.0),
                            st.floats(-1e300, 1e300), st.floats(-1e-300, 1e-300))


@settings(max_examples=300, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(0, 3), st.integers(0, 24)),
              elements=_forward_values))
def test_sigmoid_forward_is_the_where_numerator_bit_for_bit(x):
    # the in-place forward against the expression it replaced
    ex = np.exp(-np.abs(x))
    want = np.divide(np.where(x >= 0, 1.0, ex), 1.0 + ex)
    assert tz._stable_sigmoid(x).tobytes() == want.tobytes()


@settings(max_examples=300, deadline=None)
@given(st.tuples(st.integers(0, 3), st.integers(1, 12)).flatmap(lambda shape: st.tuples(
    arrays(np.float64, shape, elements=_forward_values),
    *[arrays(np.float64, shape[-1], elements=_forward_values) for _ in range(2)])))
def test_layer_norm_forward_reuses_the_square_bit_for_bit(xgb):
    # the forward writes gamma * xhat over xhat * xhat; against the plain
    # expressions, overflow to inf and nan included
    x, gamma, beta = xgb
    with np.errstate(all="ignore"):
        xhat = x - x.mean(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt((xhat * xhat).mean(axis=-1, keepdims=True) + tz.LAYER_NORM_EPS)
        xhat *= inv
        want = gamma * xhat
        want += beta
        got, _ = tz._fw_layer_norm([x, gamma, beta], [False] * 3)
    assert got.tobytes() == want.tobytes()


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 40).flatmap(lambda n: st.tuples(*[arrays(
    np.float64, n, elements=st.one_of(st.sampled_from(_SIGMOID_EDGES),
                                      st.floats(allow_nan=False, allow_infinity=False)))
    for _ in range(2)])))
def test_tanh_and_sigmoid_gradients_are_the_plain_expressions_bit_for_bit(xg):
    # both VJPs form their product in place, in the order of the plain
    # expressions g * (1 - t * t) and (g * s) * (1 - s)
    x, g = xg
    with np.errstate(all="ignore"):
        for builder, plain in ((tz._fw_tanh, lambda t: g * (1.0 - t * t)),
                               (tz._fw_sigmoid, lambda s: g * s * (1.0 - s))):
            out, vjp = builder([x], [True])
            assert vjp(g)[0].tobytes() == plain(out).tobytes()


@pytest.mark.parametrize("slope", [0.0, 0.2])
def test_leaky_relu_equals_where_formula_bitwise(slope):
    # the forward is maximum(x, slope * x), equal to the where form only
    # for 0 <= slope < 1
    rng = np.random.default_rng(24)
    x = np.concatenate([rng.normal(size=500) * 10.0,
                        [0.0, -0.0, 1e-300, -1e-300, 1e308, -1e308]])
    got = tz.leaky_relu(Tensor(x), slope).data
    want = np.where(x > 0, x, slope * x)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("slope", [1.0, 1.5, -0.1])
def test_leaky_relu_refuses_a_slope_outside_0_1(slope):
    with pytest.raises(TapeError, match="slope must be in"):
        tz.leaky_relu(Tensor([1.0, -1.0]), slope)
    with pytest.raises(ConfigError, match="leaky_slope"):
        ActConfig(n_features=1, window=1, leaky_slope=slope)


def test_non_finite_output_raises():
    with pytest.raises(NonFiniteError):
        tz.div(Tensor([1.0]), Tensor([0.0]))
    with pytest.raises(NonFiniteError):
        tz.sqrt(Tensor([-1.0]))


def test_a_non_finite_value_names_where_it_came_from():
    # a primitive's output goes through the constructor, whose error is
    # re-raised with the primitive's name, taped or not
    with pytest.raises(NonFiniteError, match="^div produced non-finite values$"):
        tz.div(Tensor([1.0]), Tensor([0.0]))
    with Tape() as tape:
        x = Tensor([-1.0])
        tape.watch(x)
        with pytest.raises(NonFiniteError, match="^sqrt produced non-finite values$"):
            tz.sqrt(x)
    with pytest.raises(NonFiniteError, match="^tensor constructed with non-finite values$"):
        Tensor([1.0, np.nan])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_gradient_that_divides_by_zero_is_named_not_warned():
    # before: the sweep ran outside apply_primitive's errstate, so sqrt's
    # VJP at 0 raised numpy's divide-by-zero RuntimeWarning instead
    with Tape() as tape:
        x = Tensor([0.0, 4.0])
        tape.watch(x)
        loss = tz.tensor_sum(tz.sqrt(x))
        with pytest.raises(NonFiniteError, match="^non-finite gradient out of sqrt$"):
            backward(loss)


def test_shape_errors_of_concat_last_and_layer_norm():
    with pytest.raises(ShapeError, match="^concat_last operands disagree on leading dims$"):
        tz.concat_last([Tensor(np.ones((2, 3))), Tensor(np.ones((3, 3)))])
    with pytest.raises(ShapeError, match="^layer_norm gamma/beta must match the last axis$"):
        tz.layer_norm(Tensor(np.ones((2, 4))), Tensor(np.ones(3)), Tensor(np.zeros(4)))


def test_unknown_attr_and_missing_attr_raise():
    with pytest.raises(TypeError, match="bogus"):
        apply_primitive(PrimitiveKind.ADD, [Tensor([1.0]), Tensor([1.0])], bogus=1)
    with pytest.raises(TypeError, match="slope"):
        apply_primitive(PrimitiveKind.LEAKY_RELU, [Tensor([1.0])])
    with pytest.raises(TypeError, match="key"):
        apply_primitive(PrimitiveKind.INDEX, [Tensor([1.0, 2.0])])


def test_every_kind_has_a_builder_and_the_readme_counts_them():
    assert set(tz._BUILDERS) == set(PrimitiveKind)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    count = re.search(r"with\s+(\d+)\s+primitives", readme)
    assert count is not None and int(count.group(1)) == len(PrimitiveKind)


def test_backward_preconditions():
    with Tape() as tape:
        x = Tensor([1.0, 2.0])
        tape.watch(x)
        y = tz.mul(x, x)
        with pytest.raises(TapeError, match="scalar"):
            backward(y)  # not scalar

    with Tape() as tape:
        x = Tensor([1.0])
        tape.watch(x)
        loose = Tensor([2.0])
        tz.mul(x, x)
        with pytest.raises(TapeError, match="no watched tensor"):
            backward(loose)  # never touched the tape

    x = Tensor([1.0])
    with Tape() as tape:
        tape.watch(x)
        y = tz.tensor_sum(tz.mul(x, x))
    with pytest.raises(TapeError, match="active tape"):
        backward(y)  # tape no longer active

    with Tape():
        with pytest.raises(TapeError, match="already active"):
            with Tape():  # tapes do not nest
                pass
        assert tz.active_tape() is not None  # the refusal left the outer one
    assert tz.active_tape() is None

    with Tape() as first:
        first.watch(x)
        y = tz.tensor_sum(tz.mul(x, x))
    with Tape():
        with pytest.raises(TapeError, match="not on the active tape"):
            backward(y)  # recorded on the first tape


def test_constants_record_nothing_and_only_watched_leaves_keep_gradients():
    rng = np.random.default_rng(6)
    mask, labels = Tensor(rng.random((4, 3)) >= 0.5), Tensor(rng.normal(size=(4, 3)))
    with Tape() as tape:
        w, unused = Tensor(rng.normal(size=(3, 3))), Tensor(np.ones(3))
        tape.watch(w)
        tape.watch(unused)
        const = tz.tanh(tz.mul(mask, labels))  # constants only
        assert const.node_id is None and len(tape._nodes) == 2
        h = tz.matmul(const, w)
        loss = tz.tensor_sum(tz.mul(h, h))
        backward(loss)
        assert set(tape.gradients) == {w.node_id}
        assert tape.grad(unused) is None and tape.grad(const) is None
        assert tape.grad(h) is None  # interior gradients are dropped
        want = 2.0 * const.data.T @ (const.data @ w.data)
        np.testing.assert_allclose(tape.grad(w), want, rtol=1e-12)

        with pytest.raises(TapeError, match="no watched tensor"):
            backward(tz.tensor_sum(const))


def test_gradient_accumulates_over_reuse():
    with Tape() as tape:
        x = Tensor([3.0])
        tape.watch(x)
        y = tz.add(tz.mul(x, x), x)  # x^2 + x
        backward(tz.tensor_sum(y))
        g = tape.grad(x)
    np.testing.assert_allclose(g, [7.0])


def test_a_tensor_watched_twice_keeps_one_node_and_sums_every_use():
    with Tape() as tape:
        x = Tensor([3.0, -1.0])
        first = tape.watch(x)
        y = tz.mul(x, x)
        assert tape.watch(x) == first and len(tape._nodes) == 2
        backward(tz.tensor_sum(tz.add(y, x)))  # d/dx (x^2 + x) = 2x + 1
        np.testing.assert_array_equal(tape.grad(x), [7.0, -1.0])


def test_backward_passes_over_an_op_the_loss_does_not_reach_and_frees_it():
    with Tape() as tape:
        x = Tensor([0.5, -2.0])
        tape.watch(x)
        h = tz.tanh(x)
        tz.mul(h, h)  # recorded, but no path leads from it to the loss
        activation = weakref.ref(h.data)
        del h
        assert activation() is not None  # the TANH and MUL VJPs hold it
        backward(tz.tensor_sum(x))
        assert activation() is None
        assert all(node.vjp is None for node in tape._nodes)
        np.testing.assert_array_equal(tape.grad(x), [1.0, 1.0])


def test_no_tape_runs_untracked():
    x = Tensor([1.0, 2.0])
    y = tz.mul(x, x)
    assert y.node_id is None
    np.testing.assert_array_equal(y.data, [1.0, 4.0])


def test_backward_frees_each_vjp_and_sweeps_a_tape_once():
    rng = np.random.default_rng(8)
    x, w0 = rng.normal(size=(4, 3)), rng.normal(size=(3, 3))
    with Tape() as tape:
        w = Tensor(w0)
        tape.watch(w)
        h = tz.tanh(tz.matmul(Tensor(x), w))
        activation = weakref.ref(h.data)
        loss = tz.tensor_sum(tz.mul(h, h))
        del h
        assert activation() is not None  # the TANH and MUL VJPs hold it
        backward(loss)
        # the sweep let go of every closure, and with them the activation
        assert activation() is None
        th = np.tanh(x @ w0)
        np.testing.assert_allclose(tape.grad(w), x.T @ (2.0 * th * (1.0 - th * th)),
                                   rtol=1e-12)
        with pytest.raises(TapeError, match="already ran on this tape"):
            backward(loss)
        with pytest.raises(TapeError, match="already ran on this tape"):
            backward(tz.tensor_sum(w))


# (kind, input shapes, attributes, which inputs are watched, which inputs
# the VJP reads the values of). A constant operand's cotangent is never
# taken, so what only that cotangent would read is not held either
_K = PrimitiveKind
_HOLD_CASES = [
    (_K.MATMUL, [(3, 4), (4, 2)], {}, (1, 1), {0, 1}),
    (_K.MATMUL, [(3, 4), (4, 2)], {}, (1, 0), {1}),
    (_K.MATMUL, [(3, 4), (4, 2)], {}, (0, 1), {0}),
    (_K.MATMUL, [(3, 4), (4, 2), (2,)], {}, (1, 1, 1), {0, 1}),
    (_K.ADD, [(3, 4), (4,)], {}, (1, 1), set()),
    (_K.MUL, [(3, 4), (3, 4)], {}, (1, 1), {0, 1}),
    (_K.MUL, [(3, 4), (3, 4)], {}, (1, 0), {1}),
    (_K.MUL, [(3, 4), (3, 4)], {}, (0, 1), {0}),
    (_K.DIV, [(3, 4), (3, 4)], {}, (1, 1), {0, 1}),
    (_K.DIV, [(3, 4), (3, 4)], {}, (1, 0), {1}),
    (_K.DIV, [(3, 4), (3, 4)], {}, (0, 1), {0, 1}),
    (_K.CONCAT_LAST, [(3, 2), (3, 4)], {}, (1, 1), set()),
    (_K.LAYER_NORM, [(3, 4), (4,), (4,)], {}, (1, 1, 1), {1}),
    (_K.LEAKY_RELU, [(3, 4)], {"slope": 0.2}, (1,), set()),
    (_K.SIGMOID, [(3, 4)], {}, (1,), set()),
    (_K.TANH, [(3, 4)], {}, (1,), set()),
    (_K.SOFTMAX, [(3, 4)], {"axis": -1}, (1,), set()),
    (_K.SUM, [(3, 4)], {"axis": 0}, (1,), set()),
    (_K.SQRT, [(3, 4)], {}, (1,), set()),
    (_K.INDEX, [(3, 4)], {"key": (np.array([0, 2, 0]),)}, (1,), set()),
    (_K.NEIGHBOR_SUM, [(3, 2), (3, 4)], {"key": np.array([[0, 2], [1, 1], [2, 0]])}, (1, 1),
     {0, 1}),
    (_K.NEIGHBOR_SUM, [(3, 2), (3, 4)], {"key": np.array([[0, 2], [1, 1], [2, 0]])}, (1, 0),
     {1}),
    (_K.NEIGHBOR_SUM, [(3, 2), (3, 4)], {"key": np.array([[0, 2], [1, 1], [2, 0]])}, (0, 1),
     {0}),
]


@pytest.mark.parametrize("kind,shapes,attrs,watched,read", _HOLD_CASES,
                         ids=[f"{c[0].value}-{''.join(map(str, c[3]))}" for c in _HOLD_CASES])
def test_a_recorded_primitive_holds_only_the_inputs_its_vjp_reads(kind, shapes, attrs,
                                                                  watched, read):
    # the tape holds a closure per op until backward passes it, so an input
    # the closure keeps past the caller's last reference stays alive; a
    # shape or a sign mask in its place does not keep it
    assert {case[0] for case in _HOLD_CASES} == set(PrimitiveKind)
    rng = np.random.default_rng(41)
    arrays = [rng.uniform(0.5, 2.0, size=shape) for shape in shapes]

    def run(drop):
        with Tape() as tape:
            inputs = [Tensor(a.copy()) for a in arrays]
            refs = [weakref.ref(t.data) for t in inputs]
            for i in np.flatnonzero(watched):
                tape.watch(inputs[i])
            out = apply_primitive(kind, inputs, **attrs)
            if drop:
                del inputs
            alive = {i for i, ref in enumerate(refs) if ref() is not None}
            backward(_scalarize(out, rng.normal(size=out.shape)))
            grads = [tape.gradients[i] for i in range(sum(watched))]
        return alive, grads

    rng_state = rng.bit_generator.state
    alive, grads = run(drop=True)
    assert alive == read
    # what the closure kept is all its VJP needs: the gradients are those
    # of a run whose caller kept every input
    rng.bit_generator.state = rng_state
    for got, want in zip(grads, run(drop=False)[1], strict=True):
        assert np.array_equal(got, want)


def test_replay_bitwise_deterministic():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(6, 4))
    w = rng.normal(size=(4, 4))

    def run(seed):
        mask = (np.random.default_rng(seed).random((6, 4)) >= 0.3) / 0.7
        with Tape() as tape:
            tx, tw = Tensor(x), Tensor(w)
            tape.watch(tw)
            h = tz.mul(tz.tanh(tz.matmul(tx, tw)), Tensor(mask))
            loss = tz.tensor_sum(tz.mul(h, h))
            backward(loss)
            return loss.data.tobytes(), tape.grad(tw).tobytes()

    assert run(11) == run(11)
    assert run(11) != run(12)


# ---------------------------------------------------------------------------
# finite-difference oracle over every primitive, 10 random points each
# ---------------------------------------------------------------------------

FD_TOL = 1e-5


def _fd_case(make_loss, point):
    return finite_difference_check(make_loss, Tensor(point), step=1e-6)


def _away_from(x, bad, margin=1e-3):
    """Nudge values off kink locations so central differences are valid."""
    x = x.copy()
    close = np.abs(x - bad) < margin
    x[close] = bad + margin * np.where(x[close] >= bad, 1.0, -1.0) * 2
    return x


def test_fd_elementwise_binary_ops():
    rng = np.random.default_rng(10)
    for trial in range(10):
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(3, 4))
        bpos = 0.5 + np.abs(rng.normal(size=(3, 4)))
        w = rng.normal(size=(3, 4))
        const_b = Tensor(b)
        const_bpos = Tensor(bpos)
        for op, other in ((tz.add, const_b), (tz.sub, const_b),
                          (tz.mul, const_b), (tz.div, const_bpos)):
            err = _fd_case(lambda t, op=op, o=other: _scalarize(op(t, o), w), a)
            assert err < FD_TOL, op
        # second operand of div
        anum = Tensor(a)
        err = _fd_case(lambda t: _scalarize(tz.div(anum, t), w), bpos)
        assert err < FD_TOL


def test_fd_broadcast_add():
    rng = np.random.default_rng(11)
    for trial in range(10):
        a = rng.normal(size=(3, 4))
        bias = rng.normal(size=(4,))
        w = rng.normal(size=(3, 4))
        err = _fd_case(lambda t: _scalarize(tz.add(Tensor(a), t), w), bias)
        assert err < FD_TOL


def test_fd_matmul():
    rng = np.random.default_rng(12)
    for trial in range(10):
        w = rng.normal(size=(2, 4))
        a = rng.normal(size=(2, 3))
        b = rng.normal(size=(3, 4))
        err = _fd_case(lambda t, b=b: _scalarize(tz.matmul(t, Tensor(b)), w), a)
        assert err < FD_TOL
        err = _fd_case(lambda t, a=a: _scalarize(tz.matmul(Tensor(a), t), w), b)
        assert err < FD_TOL


def test_fd_concat_last():
    rng = np.random.default_rng(13)
    for trial in range(10):
        a = rng.normal(size=(2, 3))
        b = rng.normal(size=(2, 2))
        w = rng.normal(size=(2, 5))
        err = _fd_case(
            lambda t: _scalarize(tz.concat_last([t, Tensor(b)]), w), a
        )
        assert err < FD_TOL
        err = _fd_case(
            lambda t: _scalarize(tz.concat_last([Tensor(a), t]), w), b
        )
        assert err < FD_TOL


def test_fd_layer_norm():
    rng = np.random.default_rng(15)
    for trial in range(10):
        x = rng.normal(size=(4, 6)) * 2.0
        gamma = 0.5 + rng.random(6)
        beta = rng.normal(size=(6,))
        w = rng.normal(size=(4, 6))
        err = _fd_case(
            lambda t: _scalarize(tz.layer_norm(t, Tensor(gamma), Tensor(beta)), w), x
        )
        assert err < FD_TOL
        err = _fd_case(
            lambda t: _scalarize(tz.layer_norm(Tensor(x), t, Tensor(beta)), w), gamma
        )
        assert err < FD_TOL
        err = _fd_case(
            lambda t: _scalarize(tz.layer_norm(Tensor(x), Tensor(gamma), t), w), beta
        )
        assert err < FD_TOL


def test_fd_unary_activations():
    rng = np.random.default_rng(16)
    for trial in range(10):
        w = rng.normal(size=(3, 5))
        smooth = rng.normal(size=(3, 5)) * 2.0
        kinked = _away_from(rng.normal(size=(3, 5)), 0.0)
        cases = [
            (tz.sigmoid, smooth),
            (tz.tanh, smooth),
            (lambda t: tz.leaky_relu(t, slope=0.0), kinked),
            (lambda t: tz.leaky_relu(t, slope=0.2), kinked),
        ]
        for op, point in cases:
            err = _fd_case(lambda t, op=op: _scalarize(op(t), w), point)
            assert err < FD_TOL


def test_fd_softmax_both_axes():
    rng = np.random.default_rng(17)
    for trial in range(10):
        x = rng.normal(size=(3, 4))
        w = rng.normal(size=(3, 4))
        for axis in (0, 1, -1):
            err = _fd_case(
                lambda t, axis=axis: _scalarize(tz.softmax(t, axis=axis), w), x
            )
            assert err < FD_TOL


def test_fd_reductions():
    rng = np.random.default_rng(18)
    for trial in range(10):
        x = rng.normal(size=(3, 4))
        for axis, wshape in ((None, ()), (0, (4,)), (1, (3,))):
            w = rng.normal(size=wshape)
            err = _fd_case(
                lambda t, axis=axis: _scalarize(tz.tensor_sum(t, axis=axis), w), x
            )
            assert err < FD_TOL


def test_fd_sqrt():
    rng = np.random.default_rng(19)
    for trial in range(10):
        w = rng.normal(size=(3, 4))
        pos = 0.1 + np.abs(rng.normal(size=(3, 4)))
        err = _fd_case(lambda t: _scalarize(tz.sqrt(t), w), pos)
        assert err < FD_TOL


def test_fd_index():
    rng = np.random.default_rng(20)
    for trial in range(10):
        x = rng.normal(size=(4, 3))
        # a repeated integer list sums the cotangents of each repeat
        keys = (2, (slice(None), slice(1, 3)), (slice(None), 0), [0, 2, 2, 0, 2],
                rng.random((4, 3)) < 0.5)
        for key in keys:
            w = rng.normal(size=x[key].shape)
            err = _fd_case(lambda t, key=key, w=w: _scalarize(tz.index(t, key), w), x)
            assert err < FD_TOL, key


def test_fd_composite_chain():
    """A small multi-op chain exercises accumulation across shared nodes."""
    rng = np.random.default_rng(21)
    for trial in range(5):
        x = rng.normal(size=(4, 3))
        w1 = Tensor(rng.normal(size=(3, 5)))
        w2 = Tensor(rng.normal(size=(5, 1)))
        gamma = Tensor(np.ones(5))
        beta = Tensor(np.zeros(5))

        def f(t):
            h = tz.layer_norm(tz.matmul(t, w1), gamma, beta)
            h = tz.leaky_relu(h, 0.2)
            out = tz.matmul(h, w2)
            return tz.div(tz.tensor_sum(out), Tensor(float(out.data.size)))

        assert _fd_case(f, x) < FD_TOL
