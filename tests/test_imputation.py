import numpy as np
import pytest

from seqbvs.data_gen import MissingDataset, apply_missingness
from seqbvs.errors import ConfigError, InsufficientDataError, ShapeError
from seqbvs.imputation import _EIG_FLOOR, _SIGMA_PRIOR_WEIGHT, ImputationConfig, _floor_binds, _floored_fit, impute

from oracles import chained_imputation_per_chain


def impute_all_rows(ds, config, rng):
    """The completions of every row of ds: a stack of one sample size."""
    return impute(ds, config, {len(ds.y): rng})[0]


def make_masked(rng, n=60, p=4, rate=0.3, rho=0.5):
    cov = np.full((p, p), rho)
    np.fill_diagonal(cov, 1.0)
    x = rng.standard_normal((n, p)) @ np.linalg.cholesky(cov).T
    y = x[:, 0] + rng.standard_normal(n)
    return x, apply_missingness(x, rate, "mcar", rng, y=y)


def test_no_missingness_gives_identical_completions():
    rng = np.random.default_rng(0)
    x, _ = make_masked(rng, rate=0.0)
    y = x[:, 0]
    ds = MissingDataset(y=y, X=x, mask=np.ones_like(x, dtype=bool))
    out = impute_all_rows(ds, ImputationConfig(M=5), np.random.default_rng(1))
    assert out.shape == (5, 60, 4)
    for j in range(5):
        np.testing.assert_array_equal(out[j], x)


def test_observed_cells_preserved_exactly():
    rng = np.random.default_rng(2)
    _, ds = make_masked(rng)
    out = impute_all_rows(ds, ImputationConfig(M=4, sweeps=3), np.random.default_rng(3))
    for j in range(4):
        np.testing.assert_array_equal(out[j][ds.mask], ds.X[ds.mask])
        assert np.all(np.isfinite(out[j]))


def test_min_n_guard():
    rng = np.random.default_rng(4)
    _, ds = make_masked(rng, n=18, p=4)
    with pytest.raises(InsufficientDataError):
        impute_all_rows(ds, ImputationConfig(M=2, min_n=19), np.random.default_rng(0))
    with pytest.raises(ShapeError):
        impute(ds, ImputationConfig(M=2, min_n=17), {19: np.random.default_rng(0)})


def test_no_sample_size_is_a_shape_error():
    _, ds = make_masked(np.random.default_rng(29))
    with pytest.raises(ShapeError, match="at least one sample size"):
        impute(ds, ImputationConfig(M=2), {})


def test_min_n_must_exceed_p_plus_two():
    rng = np.random.default_rng(5)
    _, ds = make_masked(rng, n=30, p=10, rate=0.2)
    with pytest.raises(ConfigError):
        impute_all_rows(ds, ImputationConfig(M=1, min_n=12), np.random.default_rng(0))


def test_column_with_too_few_observations():
    rng = np.random.default_rng(6)
    x, ds = make_masked(rng, n=30, p=3, rate=0.0)
    mask = ds.mask.copy()
    mask[:, 1] = False
    mask[0, 1] = True  # a single observed value in column 2
    x_masked = x.copy()
    x_masked[~mask] = np.nan
    ds_bad = MissingDataset(y=ds.y, X=x_masked, mask=mask)
    with pytest.raises(InsufficientDataError):
        impute_all_rows(ds_bad, ImputationConfig(M=1), np.random.default_rng(0))


def test_determinism_and_distinct_completions():
    rng = np.random.default_rng(7)
    _, ds = make_masked(rng)
    a = impute_all_rows(ds, ImputationConfig(M=3), np.random.default_rng(42))
    b = impute_all_rows(ds, ImputationConfig(M=3), np.random.default_rng(42))
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a[0], a[1])


def test_single_masked_cell_tracks_oracle_regression():
    # strongly correlated columns, small noise: the imputed draws should
    # concentrate near the oracle regression prediction from complete data
    rng = np.random.default_rng(8)
    n = 80
    z = rng.standard_normal(n)
    x = np.column_stack([z + 0.05 * rng.standard_normal(n), z + 0.05 * rng.standard_normal(n)])
    y = x[:, 0] + 0.1 * rng.standard_normal(n)
    mask = np.ones((n, 2), dtype=bool)
    mask[5, 0] = False
    x_masked = x.copy()
    x_masked[5, 0] = np.nan
    ds = MissingDataset(y=y, X=x_masked, mask=mask)

    m_draws = 40
    out = impute_all_rows(ds, ImputationConfig(M=m_draws, sweeps=5), np.random.default_rng(9))
    draws = out[:, 5, 0]

    # oracle: same conditional regression fit on the complete data; the
    # imputer draws from p(x_mis | x_obs), so the response is no predictor
    design = np.column_stack([np.ones(n), x[:, 1]])
    keep = np.ones(n, dtype=bool)
    keep[5] = False
    coef, *_ = np.linalg.lstsq(design[keep], x[keep, 0], rcond=None)
    resid = x[keep, 0] - design[keep] @ coef
    sigma = np.sqrt(resid @ resid / (keep.sum() - design.shape[1]))
    pred = design[5] @ coef
    lev = design[5] @ np.linalg.inv(design[keep].T @ design[keep]) @ design[5]
    band = 3.0 * sigma * np.sqrt(1.0 + lev)
    assert abs(draws.mean() - pred) < band


def _default_dgp(seed, n=19, mechanism="mcar"):
    from seqbvs.data_gen import DGPConfig, gen_covariates, gen_responses

    rng = np.random.default_rng(seed)
    cfg = DGPConfig()
    x = gen_covariates(n, cfg.cov, rng)
    y = gen_responses(x, cfg, rng)
    return apply_missingness(x, 0.4, mechanism, rng, y=y)


def _with_fully_observed_column():
    rng = np.random.default_rng(17)
    x, ds = make_masked(rng, n=40, p=4, rate=0.3)
    mask = ds.mask.copy()
    mask[:, 1] = True
    x_masked = np.where(mask, x, np.nan)
    return MissingDataset(y=ds.y, X=x_masked, mask=mask)


REFERENCE_CASES = {
    "desk_at_min_n": (lambda: _default_dgp(20), ImputationConfig(M=10)),
    "desk_n60": (lambda: _default_dgp(21, n=60), ImputationConfig(M=10)),
    "fully_observed_column": (_with_fully_observed_column, ImputationConfig(M=4)),
    "single_chain": (lambda: _default_dgp(22, n=30), ImputationConfig(M=1)),
    "point_fit": (lambda: _default_dgp(23), ImputationConfig(M=6, coef_draw=False)),
    "mar_y": (lambda: _default_dgp(24, n=40, mechanism="mar_y"), ImputationConfig(M=5)),
}


@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
def test_lockstep_matches_per_chain_reference(case):
    # the chains advance together, each on its own stream; stacked sums add
    # in another order than one chain's, so they agree up to roundoff
    make_data, config = REFERENCE_CASES[case]
    ds = make_data()
    assert not ds.mask.all()
    out = impute_all_rows(ds, config, np.random.default_rng(31))
    want = chained_imputation_per_chain(
        ds.X, ds.mask, config.M, config.sweeps, np.random.default_rng(31),
        _EIG_FLOOR, _SIGMA_PRIOR_WEIGHT, coef_draw=config.coef_draw,
    )
    np.testing.assert_allclose(out, want, rtol=0, atol=1e-10)


@pytest.mark.parametrize("n", [19, 40, 100])
def test_shifted_and_scaled_columns_match_per_chain_reference(n):
    # sigma_hat comes from the raw cross-products, which carry a column's
    # offset; it must still agree with the row-by-row residuals of the
    # reference, to roundoff of each column's magnitude
    from seqbvs.data_gen import DGPConfig, gen_covariates, gen_responses

    rng = np.random.default_rng(30 + n)
    cfg = DGPConfig()
    x = gen_covariates(n, cfg.cov, rng)
    y = gen_responses(x, cfg, rng)
    x[:, 2] += 1e5
    x[:, 5] *= 1e3
    ds = apply_missingness(x, 0.4, "mcar", rng, y=y)
    config = ImputationConfig(M=10)
    out = impute_all_rows(ds, config, np.random.default_rng(n))
    want = chained_imputation_per_chain(
        ds.X, ds.mask, config.M, config.sweeps, np.random.default_rng(n), _EIG_FLOOR, _SIGMA_PRIOR_WEIGHT
    )
    scale = np.nanmax(np.abs(ds.X), axis=0)
    assert np.all(np.abs(out - want) <= 1e-9 * scale)


def _gram_with_spectrum(rng, eigvals):
    basis, _ = np.linalg.qr(rng.standard_normal((len(eigvals), len(eigvals))))
    gram = (basis * eigvals) @ basis.T
    return (gram + gram.T) / 2.0


@pytest.mark.parametrize("q", [1, 4, 10])
def test_floor_test_matches_eigenvalues(q):
    # binding and clear chains mixed in one (q, q, B) stack: a smallest
    # eigenvalue just below or just above the floor, and singular Gram
    # matrices of fewer rows than columns
    rng = np.random.default_rng(40 + q)
    grams, floors = [], []
    for b in range(24):
        floor = rng.uniform(0.1, 5.0)
        eigvals = floor * rng.uniform(1.5, 20.0, q)
        eigvals[rng.integers(q)] = floor * (1.0 + 1e-6 if b % 2 else 1.0 - 1e-6)
        grams.append(_gram_with_spectrum(rng, eigvals))
        floors.append(floor)
    for _ in range(4):
        rows = rng.standard_normal((q - 1, q))
        grams.append(rows.T @ rows)
        floors.append(rng.uniform(1e-3, 1.0))
    order = rng.permutation(len(grams))
    gram, floor = np.stack(grams)[order], np.array(floors)[order]
    want = np.linalg.eigvalsh(gram).min(axis=1) <= floor
    assert 4 < want.sum() < len(want)
    got = _floor_binds(np.ascontiguousarray(gram.transpose(1, 2, 0)), floor)
    np.testing.assert_array_equal(got, want)


def test_chains_do_not_depend_on_chain_count():
    ds = _default_dgp(25, n=40)
    five = impute_all_rows(ds, ImputationConfig(M=5), np.random.default_rng(32))
    three = impute_all_rows(ds, ImputationConfig(M=3), np.random.default_rng(32))
    np.testing.assert_array_equal(five[:3], three)
    # the same holds in a stack of sizes, size by size
    five = impute(ds, ImputationConfig(M=5), {n: np.random.default_rng([32, n]) for n in (22, 31, 40)})
    three = impute(ds, ImputationConfig(M=3), {n: np.random.default_rng([32, n]) for n in (22, 31, 40)})
    for five_n, three_n in zip(five, three):
        np.testing.assert_array_equal(five_n[:3], three_n)


def test_imputed_values_have_sane_scale():
    # the coefficient draw must not explode in the saturated small-n regime
    out = impute_all_rows(_default_dgp(10), ImputationConfig(M=10), np.random.default_rng(11))
    assert np.abs(out).max() < 15.0

    # nor may the point fit under it: at n = 19 each column has 8-16 observed
    # rows for 10 predictors, where unstabilised least squares explodes
    for seed in range(20):
        out = impute_all_rows(
            _default_dgp(seed),
            ImputationConfig(M=10, coef_draw=False),
            np.random.default_rng(seed + 1),
        )
        worst = np.abs(out).max()
        assert worst < 15.0, f"seed {seed}: point-fit completions reach {worst:.1f}"


def test_point_fit_is_least_squares_once_well_determined():
    # the eigenvalue floor is for near-saturated fits: at large n it must not
    # bind, not even on a low-variance column next to unit-variance ones
    rng = np.random.default_rng(14)
    n = 2000
    x = rng.standard_normal((n, 3)) * np.sqrt([1.0, 1.0, 0.1])
    design = np.column_stack([np.ones(n), x])
    target = design @ np.array([0.3, 1.0, -0.5, 2.0]) + rng.standard_normal(n)
    obs = rng.random(n) < 0.6
    d_obs, z_obs = design[obs], target[obs]
    beta, _ = _floored_fit((d_obs.T @ d_obs)[None], (d_obs.T @ z_obs)[None], np.array([obs.sum()]))
    ols, *_ = np.linalg.lstsq(d_obs, z_obs, rcond=None)
    np.testing.assert_allclose(beta[0], ols, rtol=1e-10, atol=1e-12)


def test_completions_do_not_depend_on_response():
    # the imputer draws from p(x_mis | x_obs); y only selects the mask (mar_y)
    rng = np.random.default_rng(15)
    x, _ = make_masked(rng)
    y = x[:, 0] + rng.standard_normal(len(x))
    ds = apply_missingness(x, 0.3, "mar_y", rng, y=y)
    other = MissingDataset(y=rng.permutation(ds.y), X=ds.X, mask=ds.mask)
    a = impute_all_rows(ds, ImputationConfig(M=3), np.random.default_rng(16))
    b = impute_all_rows(other, ImputationConfig(M=3), np.random.default_rng(16))
    np.testing.assert_array_equal(a, b)


def test_config_validation():
    with pytest.raises(ConfigError):
        ImputationConfig(M=0)
    with pytest.raises(ConfigError):
        ImputationConfig(sweeps=0)
    with pytest.raises(ConfigError):
        ImputationConfig(min_col_obs=1)


@pytest.mark.parametrize("n", [19, 25, 35, 60])
def test_completions_are_stable_under_roundoff(n):
    # the coefficient draw is a continuous function of the data: a relative
    # change of 1e-15 in the observed cells (sums added in another order
    # change no more) must not move a completion, whatever the eigenvectors
    for seed in range(4):
        ds = _default_dgp(seed, n=n)
        bumped = MissingDataset(y=ds.y, X=np.where(ds.mask, ds.X * (1.0 + 1e-15), ds.X), mask=ds.mask)
        a = impute_all_rows(ds, ImputationConfig(M=10), np.random.default_rng(seed + 100))
        b = impute_all_rows(bumped, ImputationConfig(M=10), np.random.default_rng(seed + 100))
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-9, err_msg=f"seed {seed}")


def test_size_does_not_depend_on_its_stack():
    # a size's completions come from its own stream and its own rows,
    # whichever other sizes share the stack; only roundoff differs
    ds = _default_dgp(26, n=40)
    config = ImputationConfig(M=4)

    def stream(n):
        return np.random.default_rng([26, n])

    sizes = range(19, 41)
    stacked = impute(ds, config, {n: stream(n) for n in sizes})
    pair = impute(ds, config, {40: stream(40), 25: stream(25)})
    for n, completions in zip(sizes, stacked):
        assert completions.shape == (4, n, ds.X.shape[1])
        alone = impute(ds, config, {n: stream(n)})[0]
        np.testing.assert_allclose(completions, alone, rtol=0, atol=1e-10, err_msg=f"n={n}")
    np.testing.assert_allclose(pair[0], stacked[40 - 19], rtol=0, atol=1e-10)
    np.testing.assert_allclose(pair[1], stacked[25 - 19], rtol=0, atol=1e-10)


def test_chunked_gathers_change_no_bit(monkeypatch):
    # the observed rows of a fit are gathered a bounded chunk of chains at a
    # time; each chain's cross-products are its own, so one chain per chunk,
    # or uneven chunks of a few, give the completions of a single gather
    from seqbvs import imputation

    ds = _default_dgp(29, n=40)
    config = ImputationConfig(M=4)

    def run():
        return impute(ds, config, {n: np.random.default_rng([29, n]) for n in (19, 30, 40)})

    monkeypatch.setattr(imputation, "_GATHER_CELLS", 1 << 40)
    whole = run()
    for cells in (1, 3 * 40 * 11):
        monkeypatch.setattr(imputation, "_GATHER_CELLS", cells)
        for chunked, single in zip(run(), whole):
            np.testing.assert_array_equal(chunked, single)


def test_pinned_completions_at_min_n():
    # frozen per-chain column sums of one small case; a change to the draw
    # (its order, its distribution) has to update them on purpose
    out = impute_all_rows(_default_dgp(27), ImputationConfig(M=2), np.random.default_rng(33))
    want = np.array(
        [
            [8.514318605807, -5.189240692881, 1.375126190528, -1.94125654265, 4.503962451874,
             1.306292039886, 11.0676509627, 6.233330028892, 3.657077762486, -1.967009495585],
            [4.31321470969, -2.159607989814, 2.271086993441, -7.171139908464, -4.843907348453,
             -3.404554731006, -1.897782963711, -0.119883795493, -4.60971436965, -4.462246781763],
        ]
    )
    np.testing.assert_allclose(out.sum(axis=1), want, rtol=0, atol=1e-9)


def test_desk_stream_imputes_in_little_memory():
    # the stacks of one desk replication (n = 19..100, M = 10, p = 10) stay
    # small next to the ~44 MB the desk benchmark peaks at
    import tracemalloc

    from seqbvs.data_gen import gen_covariates, gen_responses
    from seqbvs.experiment import _imputed_stream, default_config

    config = default_config("desk")
    rng = np.random.default_rng(28)
    x = gen_covariates(config.n_max, config.dgp.cov, rng)
    data = apply_missingness(x, config.missing.rate, "mcar", rng, y=gen_responses(x, config.dgp, rng))
    tracemalloc.start()
    try:
        sizes = [n for n, _ in _imputed_stream(data, config, 0)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sizes == list(range(config.n_min, config.n_max + 1))
    assert peak < 4e6, f"imputation peaked at {peak / 1e6:.2f} MB"


def test_full_profile_stream_imputes_in_little_memory():
    # M = 50 stacks fewer sizes per call under the same cell budget, so the
    # paper-scale stream stays inside the desk stream's 4 MB.  Stacks grow
    # with n, so the last 20 sizes hold the largest ones; the sizes below
    # would only make the test slower
    import dataclasses
    import tracemalloc

    from seqbvs.data_gen import gen_covariates, gen_responses
    from seqbvs.experiment import _imputed_stream, default_config

    config = dataclasses.replace(default_config("full"), n_min=81)
    assert config.imp.M == 50
    rng = np.random.default_rng(28)
    x = gen_covariates(config.n_max, config.dgp.cov, rng)
    data = apply_missingness(x, config.missing.rate, "mcar", rng, y=gen_responses(x, config.dgp, rng))
    tracemalloc.start()
    try:
        sizes = [n for n, _ in _imputed_stream(data, config, 0)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sizes == list(range(config.n_min, config.n_max + 1))
    assert peak < 4e6, f"imputation peaked at {peak / 1e6:.2f} MB"
