import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqbvs.bayes_lm import POOLING_RULES
from seqbvs.data_gen import DGPConfig, equicorrelated_cov
from seqbvs.errors import ConfigError, DataError
from seqbvs.experiment import (
    CrossingStats,
    ExperimentConfig,
    MissingnessConfig,
    ReplicationResult,
    aggregate,
    count_crossings,
    crossing_events,
    default_config,
    g_for_n,
    run_experiment,
    run_replication,
)
from seqbvs.imputation import ImputationConfig
from seqbvs.inclusion import METHODS, InclusionTrajectory

from oracles import crossing_events_reference, sequential_reference


def tiny_config(**overrides):
    """Small p=4 setup so a replication takes well under a second."""
    base = dict(
        reps=2,
        n_min=19,
        n_max=30,
        dgp=DGPConfig(p=4, beta=np.array([1.5, 0.0, 0.0, 2.0]), sigma2=1.0, cov=equicorrelated_cov(4, 0.3)),
        imp=ImputationConfig(M=3, sweeps=2),
        missing=MissingnessConfig(rate=0.3),
        base_seed=7,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestCrossings:
    def test_two_side_changes(self):
        assert count_crossings(np.array([0.6, 0.4, 0.6])) == 2

    def test_constant_series(self):
        assert count_crossings(np.array([0.7, 0.7, 0.7])) == 0

    def test_tie_counts_as_active(self):
        assert count_crossings(np.array([0.5, 0.4])) == 1
        assert count_crossings(np.array([0.5, 0.5, 0.6])) == 0

    def test_empty_series_rejected(self):
        with pytest.raises(DataError):
            count_crossings(np.array([]))

    def test_nan_spans_dropped(self):
        assert count_crossings(np.array([0.6, np.nan, 0.4])) == 1
        assert count_crossings(np.array([np.nan, 0.6, np.nan, 0.6])) == 0

    def test_events_sum_to_count(self):
        rng = np.random.default_rng(0)
        series = rng.random(50)
        assert crossing_events(series).sum() == count_crossings(series)

    def test_scalar_for_series_counts_for_matrix(self):
        mat = np.array([[0.6, 0.2], [0.4, np.nan], [0.6, 0.7]])
        assert type(count_crossings(mat[:, 0])) is int
        counts = count_crossings(mat)
        assert counts.dtype == np.int64
        np.testing.assert_array_equal(counts, [2, 1])

    def test_empty_matrix_rejected(self):
        with pytest.raises(DataError):
            crossing_events(np.empty((0, 3)))

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 12),
        st.integers(1, 5),
        st.lists(
            st.one_of(st.just(0.5), st.just(np.nan), st.floats(0.0, 1.0)), min_size=60, max_size=60
        ),
        st.integers(0, 4),
    )
    def test_matrix_kernel_matches_reference_per_column(self, t_count, p, values, all_nan_col):
        # exact 0.5 ties and NaN are drawn as often as general values, so
        # NaN spans and ties are common; T=1 and an all-NaN column occur too
        mat = np.array(values[: t_count * p]).reshape(t_count, p)
        if all_nan_col < p:
            mat[:, all_nan_col] = np.nan
        events = crossing_events(mat)
        assert events.shape == mat.shape and events.dtype == np.int64
        for k in range(p):
            want = crossing_events_reference(mat[:, k])
            np.testing.assert_array_equal(events[:, k], want)
            np.testing.assert_array_equal(crossing_events(mat[:, k]), want)
            assert count_crossings(mat[:, k]) == int(want.sum())
        np.testing.assert_array_equal(count_crossings(mat), events.sum(axis=0))


class TestConfig:
    def test_profiles(self):
        desk = default_config("desk")
        assert (desk.reps, desk.imp.M) == (20, 10)
        full = default_config("full")
        assert (full.reps, full.imp.M) == (100, 50)
        with pytest.raises(ConfigError):
            default_config("huge")

    def test_validation(self):
        with pytest.raises(ConfigError):
            tiny_config(reps=0)
        with pytest.raises(ConfigError):
            tiny_config(n_min=30, n_max=30)
        with pytest.raises(ConfigError):
            tiny_config(loss_mode="other")
        with pytest.raises(ConfigError):
            tiny_config(pooling="median")
        with pytest.raises(ConfigError):
            tiny_config(missing=MissingnessConfig(rate=1.5))
        with pytest.raises(ConfigError):
            tiny_config(missing=MissingnessConfig(mechanism="foo"))
        with pytest.raises(ConfigError):
            tiny_config(imp=ImputationConfig(min_n=6))  # p + 2 = 6

    def test_g_rules(self):
        assert g_for_n("unit-info", 25) == 25.0
        assert g_for_n("fixed:6", 25) == 6.0
        with pytest.raises(ConfigError):
            g_for_n("fixed:-1", 25)
        with pytest.raises(ConfigError):
            g_for_n("bayes", 25)


class TestRunReplication:
    def test_determinism(self):
        cfg = tiny_config()
        a = run_replication(cfg, 1)
        b = run_replication(cfg, 1)
        assert np.array_equal(a.set_sizes, b.set_sizes)
        for meth in METHODS:
            np.testing.assert_array_equal(
                a.trajectories[meth].probs, b.trajectories[meth].probs
            )
            np.testing.assert_array_equal(a.crossings[meth], b.crossings[meth])

    def test_shapes_and_invariants(self):
        cfg = tiny_config()
        res = run_replication(cfg, 0)
        t_count = cfg.n_max - cfg.n_min + 1
        assert res.set_sizes.shape == (t_count,)
        assert np.all(np.diff(res.set_sizes) <= 0)  # nestedness
        for meth in METHODS:
            mat = res.trajectories[meth].probs
            assert mat.shape == (t_count, 4)
            finite = mat[np.isfinite(mat)]
            assert finite.min() >= 0.0 and finite.max() <= 1.0
            assert res.crossings[meth].shape == (4,)
            np.testing.assert_array_equal(
                res.crossings[meth],
                [crossing_events_reference(mat[:, k]).sum() for k in range(4)],
            )
            np.testing.assert_array_equal(res.final_included[meth], mat[-1] >= 0.5)

    def test_seed_changes_values_not_structure(self):
        a = run_replication(tiny_config(), 0)
        b = run_replication(tiny_config(base_seed=8), 0)
        assert a.set_sizes.shape == b.set_sizes.shape
        assert not np.array_equal(
            a.trajectories["bvs"].probs, b.trajectories["bvs"].probs
        )

    def test_noiseless_identifies_true_model(self):
        # sigma^2 -> 0, no missingness: bvs classifies every covariate
        # correctly.  With the R^2 of every true-containing model clamped at
        # the ceiling, only the dimension penalty 0.5*log(1+g) separates
        # nested models, so the posterior concentrates fully only as g grows;
        # the > 0.99 mass check therefore uses a large fixed g.
        from seqbvs.bayes_lm import GramStats, model_sweep, posterior_model_probs
        from seqbvs.model_space import enumerate_models

        cfg = tiny_config(
            dgp=DGPConfig(p=4, beta=np.array([1.5, 0.0, 0.0, 2.0]), sigma2=1e-300,
                          cov=equicorrelated_cov(4, 0.3)),
            missing=MissingnessConfig(rate=0.0),
            imp=ImputationConfig(M=1, sweeps=1),
            n_max=40,
        )
        res = run_replication(cfg, 0)
        want = np.array([True, False, False, True])
        np.testing.assert_array_equal(res.final_included["bvs"], want)

        from seqbvs.data_gen import gen_covariates, gen_responses
        from seqbvs.experiment import _STREAM_COVARIATES, _STREAM_NOISE, stream_rng

        x = gen_covariates(cfg.n_max, cfg.dgp.cov, stream_rng(cfg.base_seed, 0, _STREAM_COVARIATES))
        y = gen_responses(x, cfg.dgp, stream_rng(cfg.base_seed, 0, _STREAM_NOISE))
        space = enumerate_models(4)
        stats = GramStats.from_data(x, y)
        post = posterior_model_probs(model_sweep(stats, space, g=1e6), space)
        assert post[cfg.dgp.true_model.index] > 0.99
        # the true model also tops the posterior under the default g rule
        post_default = posterior_model_probs(
            model_sweep(stats, space, g_for_n(cfg.g_rule, cfg.n_max)), space
        )
        assert int(np.argmax(post_default)) == cfg.dgp.true_model.index

    def test_infeasible_n_min_raises_config_error(self):
        # an n_min below the imputation minimum is refused while the config is built
        with pytest.raises(ConfigError, match="imputation minimum"):
            tiny_config(imp=ImputationConfig(M=2, min_n=25), n_min=19)
        # too few observed cells in a column at n_min shows only once the data exist
        cfg = tiny_config(imp=ImputationConfig(M=2, min_col_obs=19))
        with pytest.raises(ConfigError, match="infeasible at n_min=19"):
            run_replication(cfg, 0)


@pytest.fixture(scope="module")
def tiny_tables():
    """The per-step (M, m) log-BF tables of tiny_config's replication 0."""
    from seqbvs.bayes_lm import GramStats, model_sweep
    from seqbvs.data_gen import apply_missingness, gen_covariates, gen_responses
    from seqbvs.experiment import _STREAM_COVARIATES, _STREAM_MASK, _STREAM_NOISE, _imputed_stream, stream_rng
    from seqbvs.model_space import enumerate_models

    cfg = tiny_config()
    x = gen_covariates(cfg.n_max, cfg.dgp.cov, stream_rng(cfg.base_seed, 0, _STREAM_COVARIATES))
    y = gen_responses(x, cfg.dgp, stream_rng(cfg.base_seed, 0, _STREAM_NOISE))
    mask_rng = stream_rng(cfg.base_seed, 0, _STREAM_MASK)
    data = apply_missingness(x, cfg.missing.rate, cfg.missing.mechanism, mask_rng, y=y)
    space = enumerate_models(cfg.dgp.p)
    return [
        model_sweep(GramStats.from_data(completions, y[:n]), space, g_for_n(cfg.g_rule, n))
        for n, completions in _imputed_stream(data, cfg, 0)
    ]


@pytest.mark.parametrize("prior", ["uniform", "scott-berger"])
@pytest.mark.parametrize("loss_mode", ["cumulative", "increment"])
@pytest.mark.parametrize("pooling", ["geometric", "arithmetic", "mixture"])
def test_replication_matches_literal_steps(tiny_tables, pooling, loss_mode, prior):
    # every pooling rule, loss mode and model prior through run_replication,
    # against the steps evaluated literally from the same sweep tables
    cfg = tiny_config(pooling=pooling, loss_mode=loss_mode, model_prior=prior)
    res = run_replication(cfg, 0)
    probs, set_sizes, fallbacks = sequential_reference(
        tiny_tables, pooling, loss_mode, prior, cfg.smcs.lam, cfg.smcs.alpha
    )
    np.testing.assert_array_equal(res.set_sizes, set_sizes)
    assert res.zero_out_fallbacks == fallbacks
    for meth in METHODS:
        np.testing.assert_allclose(res.trajectories[meth].probs, probs[meth], rtol=0, atol=1e-10)


@pytest.mark.parametrize("pooling", POOLING_RULES)
def test_replication_at_max_p_in_bounded_memory(pooling):
    # p = MAX_P = 20: 2^20 models, a (10, m) table of 84 MB per step.  The
    # whole replication, three steps, stays under 220 MB under every pooling
    # rule (179 MB measured under each): one table is live at a time, and
    # the non-geometric rules pool it row by row
    import tracemalloc

    from seqbvs.model_space import MAX_P

    beta = np.zeros(MAX_P)
    beta[[0, 1, 5, 6]] = [1.0, 2.0, 1.0, 2.0]
    cfg = ExperimentConfig(
        reps=1,
        n_min=23,
        n_max=25,
        pooling=pooling,
        dgp=DGPConfig(p=MAX_P, beta=beta),
        imp=ImputationConfig(M=10, min_n=23),
    )
    tracemalloc.start()
    try:
        res = run_replication(cfg, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 220e6, f"a p = {MAX_P} {pooling} replication peaked at {peak / 1e6:.0f} MB"
    assert res.set_sizes.shape == (cfg.t_max,)
    assert 1 <= res.set_sizes[-1] <= res.set_sizes[0] <= 1 << MAX_P
    for meth in METHODS:
        probs = res.trajectories[meth].probs
        assert probs.shape == (cfg.t_max, MAX_P)
        assert np.all((probs >= 0.0) & (probs <= 1.0))


def test_benchmark_tracer_finds_every_layer(monkeypatch):
    # the benchmark's tracer wraps the layer functions by the names bound in
    # seqbvs.experiment and skips a name that is not bound, so a renamed
    # call would read zero for its layer without failing
    from pathlib import Path

    from seqbvs import experiment

    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    import spans

    served = {name for attr, name, _ in spans.EXPERIMENT_CALLS if callable(getattr(experiment, attr, None))}
    assert served == {name for _, name, _ in spans.EXPERIMENT_CALLS}
    assert callable(experiment.GramStats.from_data)


class TestAggregate:
    def _fake_result(self, rep, crossings_by_method, final, t_count=5, p=2):
        trajs = {}
        for meth in METHODS:
            mat = np.full((t_count, p), 0.4)
            trajs[meth] = InclusionTrajectory(meth, mat)
        return ReplicationResult(
            rep=rep,
            n_min=19,
            n_max=19 + t_count - 1,
            trajectories=trajs,
            set_sizes=np.full(t_count, 4, dtype=np.int64),
            crossings={m: np.array(crossings_by_method[m]) for m in METHODS},
            final_included={m: np.array(final) for m in METHODS},
            had_nan={m: False for m in METHODS},
        )

    def test_single_rep_means_equal_counts(self):
        counts = {m: [1, 3] for m in METHODS}
        stats = aggregate([self._fake_result(0, counts, [True, False])])
        np.testing.assert_array_equal(stats.mean_crossings["bvs"], [1, 3])
        np.testing.assert_array_equal(stats.final_freq["bvs"], [1.0, 0.0])
        assert stats.total_mean["bvs"] == 4.0
        assert stats.total_var["bvs"] == 0.0

    def test_two_reps_mean(self):
        a = self._fake_result(0, {m: [1, 1] for m in METHODS}, [True, True])
        b = self._fake_result(1, {m: [3, 3] for m in METHODS}, [True, False])
        stats = aggregate([a, b])
        np.testing.assert_array_equal(stats.mean_crossings["mixed"], [2.0, 2.0])
        np.testing.assert_array_equal(stats.final_freq["mixed"], [1.0, 0.5])
        assert stats.total_var["mixed"] == pytest.approx(np.var([2, 6], ddof=1))

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            aggregate([])

    def test_cumulative_totals_from_real_run(self):
        cfg = tiny_config()
        results = [run_replication(cfg, r) for r in range(2)]
        stats = aggregate(results)
        for meth in METHODS:
            cum = stats.cum_mean[meth]
            assert cum.shape == (cfg.t_max,)
            assert np.all(np.diff(cum) >= -1e-12)  # cumulative means non-decreasing
            want_final = np.mean([r.crossings[meth].sum() for r in results])
            assert cum[-1] == pytest.approx(want_final)


class TestRunExperiment:
    def test_serial_matches_parallel(self, caplog):
        cfg = tiny_config(reps=3)
        with caplog.at_level(logging.INFO, logger="seqbvs.experiment"):
            serial = run_experiment(cfg, workers=1)
            parallel = run_experiment(cfg, workers=2)
        # one line per replication in rep order, from the pool as from the serial loop
        assert caplog.messages == [f"replication {r}/3 done" for r in (1, 2, 3)] * 2
        assert [r.rep for r in serial] == [0, 1, 2]
        assert [r.rep for r in parallel] == [0, 1, 2]
        for a, b in zip(serial, parallel):
            for meth in METHODS:
                np.testing.assert_array_equal(
                    a.trajectories[meth].probs, b.trajectories[meth].probs
                )

    def test_aggregate_type(self):
        cfg = tiny_config()
        stats = aggregate(run_experiment(cfg))
        assert isinstance(stats, CrossingStats)
        assert stats.reps == 2
        assert stats.p == 4
