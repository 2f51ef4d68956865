import numpy as np
import pytest

from seqbvs.data_gen import (
    MECHANISMS,
    DGPConfig,
    MissingDataset,
    apply_missingness,
    equicorrelated_cov,
    gen_covariates,
    gen_responses,
)
from seqbvs.errors import ConfigError, DataError, ShapeError


def test_default_config_matches_replication_setting():
    cfg = DGPConfig()
    assert cfg.p == 10
    assert cfg.sigma2 == 2.5
    np.testing.assert_array_equal(cfg.beta, [1, 2, 0, 0, 0, 1, 2, 0, 0, 0])
    assert cfg.true_model.bits == (1, 1, 0, 0, 0, 1, 1, 0, 0, 0)
    np.testing.assert_allclose(np.diag(cfg.cov), 1.0)


def test_identity_cov_moments():
    rng = np.random.default_rng(11)
    x = gen_covariates(100_000, np.eye(4), rng)
    sample_cov = np.cov(x.T)
    assert np.max(np.abs(sample_cov - np.eye(4))) < 0.05


def test_equicorrelated_cov_moments():
    rng = np.random.default_rng(12)
    x = gen_covariates(100_000, equicorrelated_cov(5, 0.5), rng)
    corr = np.corrcoef(x.T)
    off = corr[~np.eye(5, dtype=bool)]
    assert np.max(np.abs(off - 0.5)) < 0.05


def test_degenerate_cov_rejected():
    with pytest.raises(np.linalg.LinAlgError):
        gen_covariates(10, np.zeros((3, 3)), np.random.default_rng(0))


@pytest.mark.parametrize(
    "p, rho",
    [(3, 1.0), (3, -0.5), (3, np.nan), (3, np.inf), (10, np.nextafter(1.0, 0.0))],
    ids=["one", "lower_bound", "nan", "inf", "below_one_at_p10"],
)
def test_bad_rho_rejected(p, rho):
    # below_one_at_p10 passes the range check; only the Cholesky refuses it
    with pytest.raises(ConfigError, match=rf"rho={rho} .* p={p}$"):
        DGPConfig(p=p, beta=np.ones(p), rho=rho)


def test_zero_noise_unit_vector_gives_beta2():
    cfg = DGPConfig(sigma2=1e-300)
    x = np.zeros((1, 10))
    x[0, 1] = 1.0  # covariate 2
    y = gen_responses(x, cfg, np.random.default_rng(0))
    assert abs(y[0] - 2.0) < 1e-9


def test_zero_noise_all_ones_gives_six():
    cfg = DGPConfig(sigma2=1e-300)
    y = gen_responses(np.ones((1, 10)), cfg, np.random.default_rng(0))
    assert abs(y[0] - 6.0) < 1e-9


def test_noise_variance_monte_carlo():
    cfg = DGPConfig()
    rng = np.random.default_rng(13)
    x = gen_covariates(100_000, cfg.cov, rng)
    y = gen_responses(x, cfg, rng)
    resid = y - x @ cfg.beta
    assert abs(np.var(resid) - 2.5) < 0.1


def test_response_linearity_in_beta():
    cfg1 = DGPConfig(sigma2=1e-300)
    cfg2 = DGPConfig(beta=2 * np.asarray(cfg1.beta), sigma2=1e-300)
    x = gen_covariates(50, cfg1.cov, np.random.default_rng(3))
    y1 = gen_responses(x, cfg1, np.random.default_rng(4))
    y2 = gen_responses(x, cfg2, np.random.default_rng(4))
    np.testing.assert_allclose(y2, 2 * y1, atol=1e-8)


def test_shape_mismatch_rejected():
    cfg = DGPConfig()
    with pytest.raises(ShapeError):
        gen_responses(np.ones((5, 3)), cfg, np.random.default_rng(0))


def test_missingness_rate_zero_is_identity():
    rng = np.random.default_rng(20)
    x = rng.standard_normal((30, 4))
    y = rng.standard_normal(30)
    ds = apply_missingness(x, 0.0, "mcar", rng, y=y)
    assert ds.mask.all()
    np.testing.assert_array_equal(ds.X, x)


def test_mcar_rate_concentration():
    rng = np.random.default_rng(21)
    x = rng.standard_normal((10_000, 10))
    y = rng.standard_normal(10_000)
    ds = apply_missingness(x, 0.4, "mcar", rng, y=y)
    frac_missing = 1.0 - ds.mask.mean()
    assert abs(frac_missing - 0.4) < 0.01
    assert np.all(np.isnan(ds.X[~ds.mask]))
    np.testing.assert_array_equal(ds.X[ds.mask], x[ds.mask])


def test_mar_on_y_rate_and_dependence():
    rng = np.random.default_rng(22)
    n, p = 5_000, 10
    x = rng.standard_normal((n, p))
    y = x.sum(axis=1) + rng.standard_normal(n)
    ds = apply_missingness(x, 0.4, "mar_y", rng, y=y)
    frac_missing = 1.0 - ds.mask.mean()
    assert abs(frac_missing - 0.4) < 0.02
    # point-biserial correlation between missingness and y, nonzero at 3 sigma
    miss = (~ds.mask).astype(float).ravel()
    y_cells = np.repeat(y, p)
    r = np.corrcoef(miss, y_cells)[0, 1]
    assert abs(r) > 3.0 / np.sqrt(miss.size)


def test_rate_one_rejected():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((5, 2))
    with pytest.raises(ConfigError):
        apply_missingness(x, 1.0, "mcar", rng, y=np.zeros(5))


def test_unknown_mechanism_rejected():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((5, 2))
    with pytest.raises(ConfigError):
        apply_missingness(x, 0.2, "mnar", rng, y=np.zeros(5))


def test_missingness_determinism():
    x = np.random.default_rng(5).standard_normal((50, 3))
    y = np.random.default_rng(6).standard_normal(50)
    a = apply_missingness(x, 0.3, "mcar", np.random.default_rng(99), y=y)
    b = apply_missingness(x, 0.3, "mcar", np.random.default_rng(99), y=y)
    np.testing.assert_array_equal(a.mask, b.mask)


def test_responses_never_masked():
    rng = np.random.default_rng(30)
    x = rng.standard_normal((40, 3))
    y = rng.standard_normal(40)
    ds = apply_missingness(x, 0.5, "mcar", rng, y=y)
    assert np.all(np.isfinite(ds.y))
    assert ds.mask.shape == ds.X.shape


def test_dataset_validation():
    with pytest.raises(ShapeError):
        MissingDataset(np.zeros(3), np.zeros((3, 2)), np.ones((2, 2), dtype=bool))
    with pytest.raises(DataError):
        MissingDataset(np.array([1.0, np.nan]), np.zeros((2, 2)), np.ones((2, 2), dtype=bool))


@pytest.mark.parametrize(
    "x, mask, error",
    [
        (np.zeros((3, 2)), np.ones((3, 2), dtype=np.int64), ShapeError),
        (np.zeros(3), np.ones(3, dtype=bool), ShapeError),
        (np.array([[0.0, np.nan], [1.0, 2.0], [3.0, 4.0]]), np.ones((3, 2), dtype=bool), DataError),
        (np.array([[0.0, np.inf], [1.0, 2.0], [3.0, 4.0]]), np.ones((3, 2), dtype=bool), DataError),
    ],
    ids=["integer_mask", "one_dimensional_x", "nan_observed", "inf_observed"],
)
def test_dataset_refuses_a_broken_contract(x, mask, error):
    with pytest.raises(error):
        MissingDataset(np.zeros(3), x, mask)


@pytest.mark.parametrize("mechanism", MECHANISMS)
def test_response_of_another_length_rejected(mechanism):
    rng = np.random.default_rng(0)
    x = rng.standard_normal((5, 2))
    with pytest.raises(ShapeError, match="one row per response"):
        apply_missingness(x, 0.2, mechanism, rng, y=np.zeros(4))
