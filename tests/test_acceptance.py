"""Acceptance gate: every criterion asserted at its stated tolerance.

The desk-profile experiment (20 replications, 10 imputations) is run once
per session by the `desk_run` fixture and shared by the criteria that need
it.  Each test prints a pass/fail line via the conftest summary hook.
"""

import filecmp
import time

import numpy as np
import pytest

from seqbvs.bayes_lm import GramStats, log_bf_null, posterior_model_probs
from seqbvs.cli import main
from seqbvs.data_gen import MissingDataset, apply_missingness
from seqbvs.errors import InsufficientDataError
from seqbvs.imputation import MIN_COL_OBS, ImputationConfig, impute
from seqbvs.inclusion import METHODS, bvs_inclusion, mixed_inclusion, smcs_inclusion, zero_out
from seqbvs.model_space import enumerate_models
from seqbvs.smcs import EProcessState, SmcsConfig, loss_from_log_marginals, step

from oracles import crossing_events_reference, gprior_log_bf_quadrature, literal_log_e, literal_log_e_pairwise

pytestmark = pytest.mark.acceptance

INACTIVE = [2, 3, 4, 7, 8, 9]  # 0-based indices of the six inactive covariates
WEAK = [0, 5]
STRONG = [1, 6]


def test_criterion_01_bayes_factor_quadrature_equivalence():
    """log_bf_null matches the brute-force quadrature oracle within 1e-5."""
    started = time.time()
    rng = np.random.default_rng(101)
    checked = 0
    for _ in range(50):
        n = int(rng.integers(5, 9))
        p = int(rng.integers(1, 3))
        x = rng.standard_normal((n, p))
        beta = rng.standard_normal(p)
        y = x @ beta + rng.standard_normal(n)
        stats = GramStats.from_data(x, y)
        space = enumerate_models(p)
        g = float(n)
        for i in range(1, space.m):
            gamma = space.model(i)
            cols = np.nonzero(np.array(gamma.bits))[0]
            want = gprior_log_bf_quadrature(y, x[:, cols], g)
            got = log_bf_null(stats, gamma, g=g)
            assert abs(got - want) < 1e-5, f"n={n} p={p} model={gamma.bits}: {got} vs {want}"
            checked += 1
    elapsed = time.time() - started
    assert checked >= 50
    assert elapsed < 60.0, f"quadrature comparison took {elapsed:.1f}s"


def test_criterion_02_eprocess_equivalence():
    """Optimized step vs literal formula vs pairwise formula, within 1e-9."""
    started = time.time()
    rng = np.random.default_rng(202)
    for _ in range(100):
        m = int(rng.integers(2, 17))
        t_max = int(rng.integers(2, 31))
        losses = rng.standard_normal((t_max, m)) * rng.uniform(0.2, 3.0)
        cfg = SmcsConfig(alpha=0.1, varsigma=float(rng.uniform(0.3, 1.2)))
        literal = literal_log_e(losses, cfg.lam)
        state_fast = EProcessState.fresh(m)
        for t in range(t_max):
            state_fast = step(state_fast, losses[t], cfg)
        d_steps = losses[:, :, None] - losses[:, None, :]
        np.testing.assert_allclose(state_fast.log_sup, literal[-1], atol=1e-9)
        np.testing.assert_allclose(state_fast.log_sup, literal_log_e_pairwise(d_steps, cfg.lam)[-1], atol=1e-9)
    elapsed = time.time() - started
    assert elapsed < 60.0, f"equivalence suite took {elapsed:.1f}s"


def test_criterion_03_nestedness(desk_run):
    """Confidence sets only shrink: set sizes non-increasing in every rep."""
    _, results, _ = desk_run
    violations = sum(int(np.any(np.diff(r.set_sizes) > 0)) for r in results)
    assert violations == 0


def test_criterion_04_ville_coverage():
    """Ever-exclusion rate of the loss-optimal model stays within the bound.

    Gaussian per-step losses with pairwise-difference variance varsigma^2
    and lam = 1/(8 varsigma^2); all models exchangeable, model 0 designated
    as the (tied) loss-optimal truth.
    """
    started = time.time()
    varsigma = 0.65
    cfg = SmcsConfig(alpha=0.1, varsigma=varsigma)
    m, t_max, n_traj = 8, 200, 500
    rng = np.random.default_rng(404)
    excluded = 0
    for _ in range(n_traj):
        state = EProcessState.fresh(m)
        losses = rng.standard_normal((t_max, m)) * (varsigma / np.sqrt(2.0))
        for t in range(t_max):
            state = step(state, losses[t], cfg)
            if not state.member[0]:
                excluded += 1
                break
    rate = excluded / n_traj
    bound = 0.1 + 3.0 * np.sqrt(0.1 * 0.9 / n_traj)
    elapsed = time.time() - started
    print(f"\n  ville: empirical ever-exclusion rate {rate:.4f} (bound {bound:.4f})")
    assert rate <= bound
    assert elapsed < 300.0, f"ville simulation took {elapsed:.1f}s"


def test_criterion_05_crossing_stability_pattern(desk_run):
    """Mean inactive-covariate crossings: bvs at least 1.5x mixed and smcs."""
    _, results, stats = desk_run
    bvs = stats.mean_crossings["bvs"][INACTIVE].mean()
    mixed = stats.mean_crossings["mixed"][INACTIVE].mean()
    smcs = stats.mean_crossings["smcs"][INACTIVE].mean()
    print(f"\n  inactive mean crossings: bvs={bvs:.2f} mixed={mixed:.2f} smcs={smcs:.2f}")
    assert bvs >= 1.5 * mixed, f"bvs {bvs:.2f} < 1.5 x mixed {mixed:.2f}"
    assert bvs >= 1.5 * smcs, f"bvs {bvs:.2f} < 1.5 x smcs {smcs:.2f}"


def test_criterion_06_final_inclusion_pattern(desk_run):
    """Final-time inclusion frequencies follow the strong/weak/inactive split."""
    _, _, stats = desk_run
    for meth in METHODS:
        freq = stats.final_freq[meth]
        assert freq[STRONG].min() >= 0.95, f"{meth}: strong actives {freq[STRONG]}"
        assert freq[INACTIVE].max() <= 0.35, f"{meth}: inactives {freq[INACTIVE]}"
    assert stats.final_freq["bvs"][WEAK].min() >= 0.7, f"bvs weak {stats.final_freq['bvs'][WEAK]}"
    assert stats.final_freq["mixed"][WEAK].min() >= 0.6, f"mixed weak {stats.final_freq['mixed'][WEAK]}"


def test_criterion_07_crossing_variance(desk_run):
    """Across-rep variance of total crossings: mixed below bvs."""
    _, _, stats = desk_run
    print(f"\n  total-crossing variance: mixed={stats.total_var['mixed']:.1f} bvs={stats.total_var['bvs']:.1f}")
    assert stats.total_var["mixed"] < stats.total_var["bvs"]


def test_criterion_08_imputer_contracts():
    """Observed-cell preservation on 1000 random datasets plus the guards."""
    rng = np.random.default_rng(808)
    cfg = ImputationConfig(M=2, sweeps=2)
    for _ in range(1000):
        n = int(rng.integers(20, 41))
        p = int(rng.integers(2, 6))
        x = rng.standard_normal((n, p))
        y = x[:, 0] + rng.standard_normal(n)
        rate = float(rng.uniform(0.0, 0.5))
        ds = apply_missingness(x, rate, "mcar", rng, y=y)
        if ds.mask.sum(axis=0).min() < MIN_COL_OBS:
            continue
        out = impute(ds, cfg, {n: rng})[0]
        for j in range(cfg.M):
            assert np.array_equal(out[j][ds.mask], ds.X[ds.mask])

    # n = 18, below the floor of 19 at p = 3, raises insufficient-data
    x = rng.standard_normal((18, 3))
    y = x[:, 0] + rng.standard_normal(18)
    ds = apply_missingness(x, 0.2, "mcar", rng, y=y)
    with pytest.raises(InsufficientDataError):
        impute(ds, ImputationConfig(M=2), {18: rng})

    # no missingness: M identical completions
    x = rng.standard_normal((30, 3))
    ds = MissingDataset(y=x[:, 0].copy(), X=x, mask=np.ones_like(x, dtype=bool))
    out = impute(ds, ImputationConfig(M=4), {30: rng})[0]
    for j in range(4):
        np.testing.assert_array_equal(out[j], x)


def test_criterion_09_simulate_determinism(tmp_path):
    """Two simulate runs with the same config and seed: byte-identical CSV."""
    cfg_text = (
        "run.reps=2\nrun.n_min=19\nrun.n_max=28\nrun.base_seed=5\n"
        "dgp.p=3\ndgp.beta=2,0,1\ndgp.sigma2=1.0\ndgp.rho=0.4\n"
        "missing.rate=0.3\nimp.M=3\nimp.sweeps=2\n"
    )
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(cfg_text)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out_a), "--no-plots"]) == 0
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out_b), "--no-plots"]) == 0
    assert filecmp.cmp(out_a / "trajectories.csv", out_b / "trajectories.csv", shallow=False)


def test_criterion_10_algebraic_identities():
    """Loss-difference identity, posterior normalisation, inclusion ranges."""
    rng = np.random.default_rng(1010)
    for _ in range(1000):
        m = int(rng.integers(2, 17))
        log_bf = rng.standard_normal(m) * rng.uniform(0.5, 10.0)
        losses = loss_from_log_marginals(log_bf)
        diffs = losses[:, None] - losses[None, :]
        want = (m / (m - 1)) * (log_bf[None, :] - log_bf[:, None])
        assert np.max(np.abs(diffs - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))

    for p in (1, 2, 3, 4, 5):
        space = enumerate_models(p)
        for _ in range(200):
            log_bf = rng.standard_normal(space.m) * 5.0
            log_bf[0] = 0.0
            for prior in ("uniform", "scott-berger"):
                post = posterior_model_probs(log_bf, space, prior)
                assert abs(post.sum() - 1.0) <= 1e-12
                p_bvs = bvs_inclusion(post, space)
                assert np.all(p_bvs >= 0.0) and np.all(p_bvs <= 1.0)
            member = np.zeros(space.m, dtype=bool)
            member[rng.choice(space.m, size=int(rng.integers(0, space.m + 1)), replace=False)] = True
            p_smcs = smcs_inclusion(member, space)
            finite = p_smcs[np.isfinite(p_smcs)]
            assert np.all(finite >= 0.0) and np.all(finite <= 1.0)
            zo = zero_out(post, member, space)
            assert np.all(zo.probs >= -1e-15) and np.all(zo.probs <= 1.0 + 1e-15)
            mix = mixed_inclusion(p_bvs, p_smcs, int(member.sum()), space.m)
            assert np.all(mix >= -1e-15) and np.all(mix <= 1.0 + 1e-15)


def test_zero_out_bvs_final_time_alignment(desk_run):
    """zero_out and bvs agree at final time on most covariates (measured)."""
    _, results, _ = desk_run
    agreements = [
        np.mean((r.trajectories["zero_out"].probs[-1] >= 0.5) == (r.trajectories["bvs"].probs[-1] >= 0.5))
        for r in results
    ]
    observed = float(np.mean(agreements))
    print(f"\n  zero_out/bvs final-time agreement: {observed:.3f} (per-rep min {min(agreements):.2f})")
    assert observed >= 0.9


def test_crossing_counts_consistent_with_trajectories(desk_run):
    """The run's mean crossing counts equal the mean of the scalar reference walk over the stored trajectories."""
    _, results, stats = desk_run
    for meth in METHODS:
        recomputed = [
            [crossing_events_reference(r.trajectories[meth].probs[:, k]).sum() for k in range(stats.p)] for r in results
        ]
        np.testing.assert_array_equal(stats.mean_crossings[meth], np.mean(recomputed, axis=0))
