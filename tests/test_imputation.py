import numpy as np
import pytest

from seqbvs.data_gen import MissingDataset, apply_missingness
from seqbvs.errors import ConfigError, InsufficientDataError, ShapeError
from seqbvs.imputation import (
    _RIDGE,
    _SIGMA_PRIOR_WEIGHT,
    MIN_COL_OBS,
    ImputationConfig,
    _ridge_fit,
    impute,
    min_size,
)

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
        impute_all_rows(ds, ImputationConfig(M=2), np.random.default_rng(0))
    with pytest.raises(ShapeError):
        impute(ds, ImputationConfig(M=2), {19: np.random.default_rng(0)})


def test_no_sample_size_is_a_shape_error():
    _, ds = make_masked(np.random.default_rng(29))
    with pytest.raises(ShapeError, match="at least one sample size"):
        impute(ds, ImputationConfig(M=2), {})


def test_floor_at_p_17():
    # min_size(p) = max(MIN_N, p + 3): 19 up to p = 16, then p + 3
    assert [min_size(p) for p in (1, 10, 16, 17, 20)] == [19, 19, 19, 20, 23]
    _, ds = make_masked(np.random.default_rng(5), n=20, p=17, rate=0.1)
    with pytest.raises(InsufficientDataError, match="minimum 20 at p=17"):
        impute(ds, ImputationConfig(M=1, sweeps=1), {19: np.random.default_rng(0)})
    out = impute(ds, ImputationConfig(M=1, sweeps=1), {20: np.random.default_rng(0)})[0]
    assert out.shape == (1, 20, 17) and np.all(np.isfinite(out))


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
        ds.X, ds.mask, config.M, config.sweeps, np.random.default_rng(31), _RIDGE, _SIGMA_PRIOR_WEIGHT
    )
    np.testing.assert_allclose(out, want, rtol=0, atol=1e-10)


@pytest.mark.parametrize("n", [19, 40, 100])
def test_shifted_and_scaled_columns_match_per_chain_reference(n):
    # a column far from 0 and one of a large scale: the fit centres and
    # scales from cross-products, and must still agree with the reference's
    # row-by-row standardisation, to roundoff of each column's magnitude
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
        ds.X, ds.mask, config.M, config.sweeps, np.random.default_rng(n), _RIDGE, _SIGMA_PRIOR_WEIGHT
    )
    scale = np.nanmax(np.abs(ds.X), axis=0)
    assert np.all(np.abs(out - want) <= 1e-9 * scale)


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
    # neither the coefficient draw nor the point fit under it may explode in
    # the saturated small-n regime: at n = 19 each column has 8-16 observed
    # rows for 10 predictors, where unstabilised least squares explodes.  The
    # imputer always draws; the per-chain reference, tied to it by the draw
    # cases above, keeps the point fit with the imputer's ridge and prior
    for seed in range(20):
        ds = _default_dgp(seed)
        out = impute_all_rows(ds, ImputationConfig(M=10), np.random.default_rng(seed + 1))
        worst = np.abs(out).max()
        assert worst < 15.0, f"seed {seed}: completions reach {worst:.1f}"
        out = chained_imputation_per_chain(
            ds.X, ds.mask, 10, ImputationConfig().sweeps, np.random.default_rng(seed + 1),
            _RIDGE, _SIGMA_PRIOR_WEIGHT, coef_draw=False,
        )
        worst = np.abs(out).max()
        assert worst < 15.0, f"seed {seed}: point-fit completions reach {worst:.1f}"


def _fit_one(design, z, noise):
    """_ridge_fit of one design and column z, their augmented product stacked once per column of noise."""
    aug = np.column_stack([design, z])
    return _ridge_fit(np.repeat((aug.T @ aug)[:, :, None], noise.shape[1], axis=2), noise)


def _penalised(design, q):
    """G + P for the design [1, X]: f = _RIDGE * q pseudo-rows on each standardised slope, as a penalty on the raw ones."""
    centred = design[:, 1:] - design[:, 1:].mean(axis=0)
    return design.T @ design + np.diag(np.r_[0.0, _RIDGE * q * (centred**2).mean(axis=0)])


@pytest.mark.parametrize("n_obs", [12, 40, 2000])
def test_ridge_fit_matches_closed_form(n_obs):
    # with a free intercept, f pseudo-rows on the standardised slopes are the
    # penalty P = diag(0, f S_jj / n_obs) on the raw ones, S the centred
    # X'X: the point fit solves (G + P) beta = D'z, the draw directions of
    # the q unit normals are a square root of (G + P)^-1, and rss is the
    # point fit's residual sum of squares
    rng = np.random.default_rng(n_obs)
    x = rng.standard_normal((n_obs, 3)) * [1.0, 30.0, 0.1] + [0.0, -5.0, 3.0]
    design = np.column_stack([np.ones(n_obs), x])
    z = design @ np.array([0.3, 1.0, -0.05, 2.0]) + rng.standard_normal(n_obs)
    q = design.shape[1]
    penalised = _penalised(design, q)
    want = np.linalg.solve(penalised, design.T @ z)
    beta_t, spread_t, rss, s_zz = _fit_one(design, z, np.eye(q))
    np.testing.assert_allclose(beta_t, np.repeat(want[:, None], q, axis=1), rtol=1e-10)
    cov = np.linalg.inv(penalised)
    np.testing.assert_allclose(spread_t @ spread_t.T, cov, rtol=1e-9, atol=1e-12 * np.abs(cov).max())
    np.testing.assert_allclose(rss, ((z - design @ want) ** 2).sum(), rtol=1e-10)
    np.testing.assert_allclose(s_zz, ((z - z.mean()) ** 2).sum(), rtol=1e-10)


@pytest.mark.parametrize("value", [0.0, 0.3, 1e5 + 0.3])
def test_constant_design_column_gets_no_slope(value):
    # a design column constant on the fit's rows has sd 0: its slope and its
    # draw are 0, and the other coefficients are the fit without it (the
    # ridge still counts it in q)
    rng = np.random.default_rng(18)
    n_obs, q = 15, 4
    design = np.column_stack([np.ones(n_obs), rng.standard_normal(n_obs), np.full(n_obs, value), rng.standard_normal(n_obs)])
    z = design @ np.array([0.2, 1.0, 2.0, -1.0]) + rng.standard_normal(n_obs)
    beta_t, spread_t, rss, _ = _fit_one(design, z, rng.standard_normal((q, 1)))
    assert np.isfinite(beta_t).all() and np.isfinite(spread_t).all() and np.isfinite(rss).all()
    assert beta_t[2, 0] == 0.0 and spread_t[2, 0] == 0.0
    rest = design[:, [0, 1, 3]]
    np.testing.assert_allclose(beta_t[[0, 1, 3], 0], np.linalg.solve(_penalised(rest, q), rest.T @ z), rtol=1e-10)

    # the same column in a dataset: constant where column 1 is observed,
    # varying elsewhere
    x, ds = make_masked(rng, n=30, p=3, rate=0.0)
    mask = ds.mask.copy()
    mask[::3, 0] = False
    x[mask[:, 0], 1] = value
    data = MissingDataset(y=ds.y, X=np.where(mask, x, np.nan), mask=mask)
    out = impute_all_rows(data, ImputationConfig(M=4), np.random.default_rng(19))
    assert np.isfinite(out).all()
    assert np.abs(out[:, ~mask[:, 0], 0]).max() < 10.0


def _assert_fit_matches_closed_form(design, z, fit):
    # the point fit, the draw directions' covariance (q unit normals), rss
    # and S_zz of the closed form, to roundoff of z's and the fit's sizes
    beta_t, spread_t, rss, s_zz = fit
    assert all(np.isfinite(part).all() for part in fit)
    assert np.all(rss >= 0.0) and np.all(s_zz >= 0.0)
    penalised = _penalised(design, design.shape[1])
    want = np.linalg.solve(penalised, design.T @ z)
    np.testing.assert_allclose(beta_t, np.repeat(want[:, None], design.shape[1], axis=1), rtol=1e-10, atol=1e-12 * np.abs(want).max())
    cov = np.linalg.inv(penalised)
    np.testing.assert_allclose(spread_t @ spread_t.T, cov, rtol=1e-9, atol=1e-12 * np.abs(cov).max())
    np.testing.assert_allclose(rss, ((z - design @ want) ** 2).sum(), rtol=1e-10, atol=1e-12 * (z @ z))
    np.testing.assert_allclose(s_zz, ((z - z.mean()) ** 2).sum(), rtol=1e-10, atol=1e-12 * (z @ z))


@pytest.mark.parametrize("beta", [(0.5, 0.0, 0.0, 0.0), (0.25, 1.0, -2.0, 0.5)], ids=["intercept", "slopes"])
def test_fit_of_a_column_in_the_span_of_its_design(beta):
    # z = D beta exactly.  The ridge shrinks every slope, so the residual is
    # 0 only along the intercept, where S_zz - |h|^2 is roundoff of either
    # sign: rss clamps at 0, and the factor's last pivot is kept definite
    # by the margin in its corner alone
    rng = np.random.default_rng(40)
    n_obs, q = 40, len(beta)
    design = np.column_stack([np.ones(n_obs), rng.standard_normal((n_obs, q - 1))])
    z = design @ np.array(beta)
    fit = _fit_one(design, z, np.eye(q))
    _assert_fit_matches_closed_form(design, z, fit)
    if not any(beta[1:]):
        assert fit[2][0] == 0.0


@pytest.mark.parametrize("value", [0.0, 0.3, 1e5 + 0.3, 1e15 + 3.0])
def test_fit_of_a_constant_column(value):
    # S_zz = 0: the fit is the constant, with no slope and no residual
    rng = np.random.default_rng(41)
    n_obs, q = 15, 4
    design = np.column_stack([np.ones(n_obs), rng.standard_normal((n_obs, q - 1))])
    z = np.full(n_obs, value)
    _assert_fit_matches_closed_form(design, z, _fit_one(design, z, np.eye(q)))

    # and in a dataset: a column constant on its observed rows is completed
    # with that constant, give or take the sigma prior's floor of 1e-6 and
    # the constant's own roundoff
    x, ds = make_masked(rng, n=30, p=3, rate=0.3)
    x[:, 0] = value
    data = MissingDataset(y=ds.y, X=np.where(ds.mask, x, np.nan), mask=ds.mask)
    out = impute_all_rows(data, ImputationConfig(M=4), np.random.default_rng(42))
    assert np.isfinite(out).all()
    assert np.abs(out[..., 0] - value).max() < 1e-5 * max(1.0, value)


def test_fit_at_the_observed_cell_floor():
    # q = 10 from two observed rows: the centred design has rank 1 and the
    # ridge alone makes the slopes' system definite.  A column with
    # MIN_COL_OBS observed cells at n = min_size(p) fits exactly this
    rng = np.random.default_rng(43)
    q = 10
    design = np.column_stack([np.ones(MIN_COL_OBS), rng.standard_normal((MIN_COL_OBS, q - 1))])
    z = rng.standard_normal(MIN_COL_OBS)
    _assert_fit_matches_closed_form(design, z, _fit_one(design, z, np.eye(q)))

    ds = _default_dgp(44, n=min_size(q))
    mask = ds.mask.copy()
    mask[np.flatnonzero(mask[:, 2])[MIN_COL_OBS:], 2] = False
    assert mask[:, 2].sum() == MIN_COL_OBS
    data = MissingDataset(y=ds.y, X=np.where(mask, ds.X, np.nan), mask=mask)
    out = impute_all_rows(data, ImputationConfig(M=10), np.random.default_rng(45))
    assert np.isfinite(out).all()
    np.testing.assert_array_equal(out[:, mask], np.broadcast_to(ds.X[mask], (10, mask.sum())))


@pytest.mark.parametrize("n", [19, 100])
def test_completions_follow_an_affine_map_of_a_column(n):
    # the ridge sits on standardised columns, so rescaling or shifting x4
    # maps its completions the same way and leaves every other column's
    # alone, to roundoff of each column's sd
    ds = _default_dgp(34, n=n)
    config = ImputationConfig(M=10)
    base = impute_all_rows(ds, config, np.random.default_rng(35))
    sd = np.nanstd(ds.X, axis=0)
    for scale, shift in ((100.0, 50.0), (1.0, 50.0)):
        x = ds.X.copy()
        x[:, 3] = scale * x[:, 3] + shift
        mapped = impute_all_rows(MissingDataset(y=ds.y, X=x, mask=ds.mask), config, np.random.default_rng(35))
        mapped[..., 3] = (mapped[..., 3] - shift) / scale
        worst = (np.abs(mapped - base) / sd).max()
        assert worst <= 1e-9, f"x4 -> {scale} x4 + {shift}: completions move by {worst:.2g} sd"


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
            [8.163299017787, -5.59745787503, 8.154989385921, -2.39069469428, 0.8933458120285,
             1.300021996531, 9.778228129777, 4.902928845633, 0.01809229180281, -3.866632912873],
            [3.352138187034, -2.995420820576, 1.778468397793, -3.304982466941, -4.872278798429,
             -4.48815453662, -5.096805748318, -1.284695617873, -5.306735332418, -6.322607233369],
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
