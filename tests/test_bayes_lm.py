import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqbvs.bayes_lm import (
    GramStats,
    log_bf_null,
    model_r_squared,
    model_sweep,
    posterior_from_imputations,
    posterior_model_probs,
)
from seqbvs.errors import DataError, InsufficientDataError, ShapeError
from seqbvs.model_space import MAX_P, ModelVector, enumerate_models

from oracles import gprior_log_bf_quadrature, model_bits


def _random_dataset(rng, n, p):
    x = rng.standard_normal((n, p))
    y = x @ rng.standard_normal(p) + rng.standard_normal(n)
    return x, y


def test_nan_input_rejected():
    with pytest.raises(DataError):
        GramStats.from_data(np.array([[np.inf, 0.0]]), np.array([1.0]))


@pytest.mark.parametrize("scale", [(1e200, 1.0), (1.0, 1e160)], ids=["huge_y", "huge_x"])
def test_overflowing_cross_products_rejected(scale):
    # finite data whose z'z overflows would read as a constant y; refused without a
    # RuntimeWarning, which this suite turns into an error, for one set and a stack
    rng = np.random.default_rng(3)
    x, y = _random_dataset(rng, 25, 3)
    for x_mat in (x * scale[1], np.stack([x, x * scale[1]])):
        with pytest.raises(DataError, match="cross-products of the observations overflow"):
            GramStats.from_data(x_mat, y * scale[0])


def test_log_bf_null_model_is_zero():
    rng = np.random.default_rng(2)
    x, y = _random_dataset(rng, 20, 3)
    stats = GramStats.from_data(x, y)
    assert log_bf_null(stats, ModelVector((0, 0, 0))) == 0.0


def test_log_bf_r2_zero_formula():
    # x orthogonal to y in-sample: R^2 = 0, so log BF = -(k/2) log(1+g)
    x = np.array([1.0, -1.0] * 5)[:, None]
    y = np.array([1.0, 1.0, -1.0, -1.0, 1.0, 1.0, -1.0, -1.0, 0.0, 0.0])
    assert abs(float(x[:, 0] @ y)) < 1e-15 and abs(x.sum()) < 1e-15 and abs(y.sum()) < 1e-15
    stats = GramStats.from_data(x, y)
    assert abs(model_r_squared(stats, ModelVector((1,)))) < 1e-12
    got = log_bf_null(stats, ModelVector((1,)), g=10.0)
    assert abs(got - (-0.5 * math.log(11.0))) < 1e-12
    assert abs(got - (-1.19896)) < 1e-4


def test_insufficient_data_for_model():
    rng = np.random.default_rng(3)
    x, y = _random_dataset(rng, 3, 2)
    stats = GramStats.from_data(x, y)
    with pytest.raises(InsufficientDataError):
        log_bf_null(stats, ModelVector((1, 1)))


def test_quadrature_oracle_small_handmade():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((6, 1))
    y = 1.5 * x[:, 0] + rng.standard_normal(6)
    stats = GramStats.from_data(x, y)
    g = 6.0
    got = log_bf_null(stats, ModelVector((1,)), g=g)
    want = gprior_log_bf_quadrature(y, x, g)
    assert abs(got - want) < 1e-5


def _per_model(stats, space, g=None, indices=None):
    indices = range(space.m) if indices is None else indices
    return np.array([log_bf_null(stats, space.model(int(i)), g=g) for i in indices])


def test_model_sweep_matches_per_model():
    rng = np.random.default_rng(5)
    x, y = _random_dataset(rng, 30, 6)
    stats = GramStats.from_data(x, y)
    space = enumerate_models(6)
    swept = model_sweep(stats, space, g=30.0)
    np.testing.assert_allclose(swept, _per_model(stats, space, g=30.0), atol=1e-10)


def test_model_sweep_matches_per_model_past_256_rows():
    # n - 1 - k in the closed form must not wrap when the sizes are uint8
    rng = np.random.default_rng(17)
    x, y = _random_dataset(rng, 300, 5)
    stats = GramStats.from_data(x, y)
    space = enumerate_models(5)
    np.testing.assert_allclose(model_sweep(stats, space), _per_model(stats, space), atol=1e-8)


def _degenerate_design(kind, scale=1.0):
    rng = np.random.default_rng(11)
    x, _ = _random_dataset(rng, 30, 4)
    if kind == "constant":
        x[:, 2] = 3.7
    elif kind == "duplicate":
        x[:, 2] = x[:, 0]
    elif kind == "sum":
        x[:, 3] = scale * (x[:, 0] + x[:, 1])
    y = x[:, 0] - 0.5 * x[:, 1] + rng.standard_normal(30)
    return GramStats.from_data(x, y)


@pytest.mark.parametrize(
    "kind, scale",
    [("duplicate", 1.0), ("sum", 1.0), ("sum", 1e-9), ("sum", 1e9)],
    ids=["duplicate", "sum", "sum-1e-9", "sum-1e9"],
)
def test_degenerate_pivot_adds_no_fit(kind, scale):
    # a collinear column contributes no SSR, at any scale of the column; the
    # per-model least-squares reference reaches the same values
    stats = _degenerate_design(kind, scale)
    space = enumerate_models(4)
    swept = model_sweep(stats, space)
    assert np.all(np.isfinite(swept))
    np.testing.assert_allclose(swept, _per_model(stats, space), rtol=0, atol=1e-12)


def test_constant_column_adds_no_fit():
    stats = _degenerate_design("constant")
    space = enumerate_models(4)
    swept = model_sweep(stats, space)
    assert np.all(np.isfinite(swept))
    # with covariate 3 a model pays one more prior penalty and gains no fit
    with_c = model_bits(4)[:, 2] == 1
    np.testing.assert_allclose(swept[with_c], swept[~with_c] - 0.5 * math.log1p(stats.n), atol=1e-12)
    # the reference agrees on every model, the constant column alone (model 4)
    # included: no fit, R^2 = 0
    np.testing.assert_allclose(swept, _per_model(stats, space), rtol=0, atol=1e-12)
    assert model_r_squared(stats, space.model(4)) == 0.0


def test_tiny_scale_column_is_not_dropped():
    rng = np.random.default_rng(12)
    x, y = _random_dataset(rng, 30, 4)
    x[:, 1] *= 1e-9
    stats = GramStats.from_data(x, y)
    space = enumerate_models(4)
    swept = model_sweep(stats, space)
    np.testing.assert_allclose(swept, _per_model(stats, space), atol=1e-10)
    # the pivot rule is relative to the column's own scale
    x[:, 1] *= 1e9
    np.testing.assert_allclose(swept, model_sweep(GramStats.from_data(x, y), space), atol=1e-10)


def test_model_sweep_at_max_p():
    rng = np.random.default_rng(13)
    x, y = _random_dataset(rng, 40, MAX_P)
    stats = GramStats.from_data(x, y)
    space = enumerate_models(MAX_P)
    swept = model_sweep(stats, space)
    assert swept.shape == (space.m,) and swept[0] == 0.0
    sample = [0, space.m - 1] + [1 << k for k in range(MAX_P)]
    sample += rng.integers(1, space.m, 40).tolist()
    np.testing.assert_allclose(swept[sample], _per_model(stats, space, indices=sample), atol=1e-8)


def test_batched_sweep_equals_single_sweeps():
    # one lattice pass over a stack of M completions gives each completion's
    # own sweep bit for bit, including the pivot rule applied per completion.
    # A stack shares y, so a constant y is a stack of its own, where R^2 = 0
    # leaves every model its complexity penalty
    rng = np.random.default_rng(15)
    space = enumerate_models(5)
    n = 26
    x, y = _random_dataset(rng, n, 5)
    stack = np.stack([x] + [rng.standard_normal((n, 5)) for _ in range(3)])
    stack[1, :, 2] = 3.7
    stack[2, :, 4] = stack[2, :, 0] + stack[2, :, 1]
    for resp in (y, np.full(n, 2.0)):
        table = model_sweep(GramStats.from_data(stack, resp), space, g=20.0)
        assert table.shape == (4, space.m) and table.flags.c_contiguous
        for c, x_c in enumerate(stack):
            stats = GramStats.from_data(x_c, resp)
            np.testing.assert_array_equal(table[c], model_sweep(stats, space, g=20.0))
            np.testing.assert_allclose(table[c], _per_model(stats, space, g=20.0), atol=1e-8)
    # the last stack's y is constant
    np.testing.assert_allclose(table, np.broadcast_to(-0.5 * space.sizes * math.log1p(20.0), table.shape), atol=1e-12)
    # g defaults to the shared n
    default = model_sweep(GramStats.from_data(stack, y), space)
    for c, x_c in enumerate(stack):
        np.testing.assert_array_equal(default[c], model_sweep(GramStats.from_data(x_c, y), space, g=float(n)))


def test_chunked_lattice_equals_one_pass(monkeypatch):
    # a budget that takes one completion, or three, per lattice pass splits
    # the stack into chunks; the completions never mix in the pass, so the
    # table is the one-pass table bit for bit, constant and collinear
    # columns included
    from seqbvs import bayes_lm

    rng = np.random.default_rng(17)
    space = enumerate_models(10)
    n = 30
    x, y = _random_dataset(rng, n, 10)
    stack = np.stack([x] + [rng.standard_normal((n, 10)) for _ in range(9)])
    stack[1, :, 2] = 3.7
    stack[2, :, 4] = stack[2, :, 0] + stack[2, :, 1]
    stats = GramStats.from_data(stack, y)
    assert bayes_lm._lattice_chunk(10) >= 10  # the desk stack is one pass
    one_pass = model_sweep(stats, space)
    # the widest level at p = 10 is level 8: 3 * 3 * 2**8 values per completion
    for per_pass in (1, 3):
        monkeypatch.setattr(bayes_lm, "CELL_BUDGET", per_pass * 9 * 2**8)
        assert bayes_lm._lattice_chunk(10) == per_pass
        chunked = model_sweep(stats, space)
        assert chunked.flags.c_contiguous
        np.testing.assert_array_equal(chunked, one_pass)


def test_sweep_at_max_p_in_bounded_memory():
    # at p = MAX_P the (M, m) table of ten completions is 84 MB itself; the
    # lattice runs one completion at a time next to it (one pass over all
    # ten peaked at 425 MB)
    import tracemalloc

    rng = np.random.default_rng(18)
    space = enumerate_models(MAX_P)
    n = 30
    y = rng.standard_normal(n)
    stack = rng.standard_normal((10, n, MAX_P))
    stats = GramStats.from_data(stack, y)
    tracemalloc.start()
    try:
        table = model_sweep(stats, space)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.shape == (10, space.m) and table.flags.c_contiguous
    assert peak < 180e6, f"model_sweep peaked at {peak / 1e6:.0f} MB"
    for c in (0, 9):
        single = GramStats.from_data(stack[c], y)
        for i in (0, 1, 2**19 + 5, space.m - 1):
            assert table[c, i] == pytest.approx(log_bf_null(single, space.model(i)), abs=1e-8)


def test_stacked_gram_equals_per_completion_gram():
    rng = np.random.default_rng(16)
    stack = rng.standard_normal((6, 30, 4)) * [1.0, 1e3, 1.0, 1.0] + [0.0, 0.0, 1e5, 0.0]
    y = rng.standard_normal(30)
    stacked = GramStats.from_data(stack, y)
    assert stacked.n == 30 and stacked.p == 4 and stacked.szz.shape == (6, 6, 6)
    for c, x_c in enumerate(stack):
        alone = GramStats.from_data(x_c, y)
        np.testing.assert_allclose(stacked.szz[c], alone.szz, rtol=1e-12, atol=0)
    # one non-finite cell anywhere in the stack rejects it
    stack[4, 17, 1] = np.nan
    with pytest.raises(DataError):
        GramStats.from_data(stack, y)


def test_log_bf_null_refuses_a_stack():
    rng = np.random.default_rng(16)
    stacked = GramStats.from_data(rng.standard_normal((3, 30, 4)), rng.standard_normal(30))
    with pytest.raises(ShapeError, match="not a stack of 3"):
        log_bf_null(stacked, enumerate_models(4).model(5))


def test_batched_sweep_needs_a_completion():
    with pytest.raises(ShapeError):
        GramStats.from_data(np.empty((0, 30, 3)), np.zeros(30))
    with pytest.raises(ShapeError):
        GramStats.from_data(np.zeros((2, 30, 3)), np.zeros(29))


def test_model_sweep_rejects_mismatched_space():
    rng = np.random.default_rng(14)
    x, y = _random_dataset(rng, 30, 4)
    with pytest.raises(ShapeError):
        model_sweep(GramStats.from_data(x, y), enumerate_models(5))


@pytest.mark.parametrize("g", [-2.0, 0.0, np.inf, np.nan])
def test_g_not_finite_and_positive_rejected(g):
    rng = np.random.default_rng(14)
    x, y = _random_dataset(rng, 30, 4)
    stats = GramStats.from_data(x, y)
    with pytest.raises(DataError, match="g must be finite and > 0"):
        model_sweep(stats, enumerate_models(4), g=g)
    with pytest.raises(DataError, match="g must be finite and > 0"):
        log_bf_null(stats, enumerate_models(4).model(5), g=g)


def test_model_sweep_null_entry_and_penalty():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((25, 1))
    y = rng.standard_normal(25)  # unrelated to x
    stats = GramStats.from_data(x, y)
    space = enumerate_models(1)
    swept = model_sweep(stats, space)
    assert swept[0] == 0.0
    assert swept[1] < 0.0  # complexity penalty dominates when R^2 ~ 0


def test_shift_scale_invariance():
    rng = np.random.default_rng(7)
    x, y = _random_dataset(rng, 40, 4)
    space = enumerate_models(4)
    base = model_sweep(GramStats.from_data(x, y), space, g=17.0)
    shifted = model_sweep(GramStats.from_data(x, 3.0 * y + 11.0), space, g=17.0)
    np.testing.assert_allclose(base, shifted, atol=1e-9)


def test_r_squared_nesting_monotone():
    rng = np.random.default_rng(8)
    x, y = _random_dataset(rng, 50, 5)
    stats = GramStats.from_data(x, y)
    space = enumerate_models(5)
    r2 = {i: model_r_squared(stats, space.model(i)) for i in range(space.m)}
    for i in range(space.m):
        for k in range(5):
            sup = i | (1 << k)
            if sup != i:
                assert r2[sup] >= r2[i] - 1e-12


def _pooled(tables):
    tables = np.asarray(tables, dtype=float)
    space = enumerate_models(tables.shape[-1].bit_length() - 1)
    return posterior_from_imputations(tables, space)[0]


def test_average_over_imputations_identity_and_exact_zero():
    v = np.array([0.4, -1.2, 3.0, 0.0])
    np.testing.assert_array_equal(_pooled(v[None, :]), v)
    two = np.zeros((2, 4))
    out = _pooled(two)
    assert np.all(out == 0.0)


def test_average_shape_mismatch():
    with pytest.raises(ShapeError):
        posterior_from_imputations(np.zeros((2, 3, 4)), enumerate_models(2))


def test_pool_log_bf_rules():
    tables = np.array([[0.0, 2.0], [0.0, 4.0]])
    np.testing.assert_allclose(_pooled(tables), [0.0, 3.0])


def test_posterior_uniform_examples():
    space = enumerate_models(1)
    np.testing.assert_allclose(posterior_model_probs(np.zeros(2), space), [0.5, 0.5])
    got = posterior_model_probs(np.array([0.0, math.log(3.0)]), space)
    np.testing.assert_allclose(got, [0.25, 0.75], atol=1e-12)


def test_posterior_scott_berger_prior_masses():
    space = enumerate_models(2)
    got = posterior_model_probs(np.zeros(4), space, prior="scott-berger")
    np.testing.assert_allclose(got, [1 / 3, 1 / 6, 1 / 6, 1 / 3], atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(p=st.integers(min_value=1, max_value=4), data=st.data())
def test_posterior_is_simplex(p, data):
    space = enumerate_models(p)
    log_bf = data.draw(
        st.lists(st.floats(min_value=-30, max_value=30), min_size=space.m, max_size=space.m)
    )
    for prior in ("uniform", "scott-berger"):
        probs = posterior_model_probs(np.array(log_bf), space, prior=prior)
        assert np.all(probs >= 0.0)
        assert abs(probs.sum() - 1.0) < 1e-12
        # a stacked table softmaxes each row along the last axis, bit for bit
        stacked = posterior_model_probs(np.stack([log_bf, log_bf[::-1]]), space, prior=prior)
        np.testing.assert_array_equal(stacked[0], probs)
        np.testing.assert_array_equal(stacked[1], posterior_model_probs(np.array(log_bf[::-1]), space, prior=prior))

