import concurrent.futures
import dataclasses
import logging
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqbvs import experiment
from seqbvs.bayes_lm import POOLING_RULES
from seqbvs.data_gen import DGPConfig
from seqbvs.errors import ConfigError, DataError
from seqbvs.experiment import (
    CrossingStats,
    ExperimentConfig,
    PROFILES,
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
from seqbvs.smcs import SmcsConfig

from oracles import crossing_events_reference, sequential_reference


def tiny_config(**overrides):
    """Small p=4 setup so a replication takes well under a second."""
    base = dict(
        reps=2,
        n_min=19,
        n_max=30,
        dgp=DGPConfig(p=4, beta=np.array([1.5, 0.0, 0.0, 2.0]), sigma2=1.0, rho=0.3),
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

    def test_nan_may_only_end_a_series(self):
        # an emptied confidence set stays empty: a trailing NaN run hosts no
        # event, and a probability after a NaN is refused
        assert count_crossings(np.array([0.6, 0.4, np.nan, np.nan])) == 1
        mat = np.array([[0.6, 0.2], [np.nan, 0.3], [0.4, 0.7]])
        for probs in (np.array([0.6, np.nan, 0.4]), np.array([np.nan, 0.6]), mat):
            with pytest.raises(DataError, match="follows a NaN"):
                count_crossings(probs)

    def test_events_sum_to_count(self):
        rng = np.random.default_rng(0)
        series = rng.random(50)
        assert crossing_events(series).sum() == count_crossings(series)

    def test_scalar_for_series_counts_for_matrix(self):
        mat = np.array([[0.6, 0.2], [0.4, 0.7], [0.6, np.nan]])
        assert type(count_crossings(mat[:, 0])) is int
        counts = count_crossings(mat)
        assert counts.dtype == np.int64
        np.testing.assert_array_equal(counts, [2, 1])

    def test_empty_matrix_rejected(self):
        with pytest.raises(DataError):
            crossing_events(np.empty((0, 3)))

    def test_scalar_rejected(self):
        for counter in (count_crossings, crossing_events):
            with pytest.raises(DataError, match="^a series needs a time axis$"):
                counter(0.3)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 12),
        st.integers(1, 5),
        st.lists(st.one_of(st.just(0.5), st.floats(0.0, 1.0)), min_size=60, max_size=60),
        st.lists(st.integers(0, 12), min_size=5, max_size=5),
    )
    def test_matrix_kernel_matches_reference_per_column(self, t_count, p, values, nan_from):
        # exact 0.5 ties are drawn as often as general values; each column
        # turns NaN from a drawn row on, as an emptied set's smcs column
        # does, so columns with no, some and only NaN all occur, as does T=1
        mat = np.array(values[: t_count * p]).reshape(t_count, p)
        for k in range(p):
            mat[nan_from[k] :, k] = np.nan
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

    def test_default_config_has_desk_sizes(self):
        cfg = ExperimentConfig()
        assert (cfg.reps, cfg.imp.M) == (PROFILES["desk"]["reps"], PROFILES["desk"]["M"]) == (20, 10)

    def test_g_rules(self):
        # g = n is a constant of the config, not an argument of it
        assert g_for_n("unit-info", 25) == 25.0
        assert tiny_config().g_rule == "unit-info"
        for rule in ("fixed:6", "scaled:4", "bayes"):
            with pytest.raises(ConfigError, match="unit-info"):
                g_for_n(rule, 25)
            with pytest.raises(TypeError, match="g_rule"):
                tiny_config(g_rule=rule)


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

    def test_shapes_and_invariants(self):
        cfg = tiny_config()
        res = run_replication(cfg, 0)
        # the record holds what trajectories.csv holds, and nothing derived from it
        fields = {f.name for f in dataclasses.fields(ReplicationResult)}
        assert fields == set(vars(res)) == {"rep", "n_min", "n_max", "trajectories", "set_sizes"}
        t_count = cfg.n_max - cfg.n_min + 1
        assert res.set_sizes.shape == (t_count,)
        assert np.all(np.diff(res.set_sizes) <= 0)  # nestedness
        for meth in METHODS:
            mat = res.trajectories[meth].probs
            assert mat.shape == (t_count, 4)
            finite = mat[np.isfinite(mat)]
            assert finite.min() >= 0.0 and finite.max() <= 1.0
            np.testing.assert_array_equal(
                count_crossings(mat),
                [crossing_events_reference(mat[:, k]).sum() for k in range(4)],
            )

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
            dgp=DGPConfig(p=4, beta=np.array([1.5, 0.0, 0.0, 2.0]), sigma2=1e-300, rho=0.3),
            missing=MissingnessConfig(rate=0.0),
            imp=ImputationConfig(M=1, sweeps=1),
            n_max=40,
        )
        res = run_replication(cfg, 0)
        want = np.array([True, False, False, True])
        np.testing.assert_array_equal(res.trajectories["bvs"].probs[-1] >= 0.5, want)

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
            tiny_config(n_min=18)
        # too few observed cells in a column at n_min shows only once the data exist
        cfg = tiny_config(missing=MissingnessConfig(rate=0.95))
        with pytest.raises(ConfigError, match="infeasible at n_min=19"):
            run_replication(cfg, 0)


def _run_on_covariates(monkeypatch, cfg, transform):
    """run_replication(cfg, 0) on transform(x), with y drawn from the untransformed x of tiny_config."""
    drawn = {}
    gen_x, gen_y, base = experiment.gen_covariates, experiment.gen_responses, tiny_config().dgp

    def covariates(n, cov, rng):
        drawn["x"] = gen_x(n, cov, rng)
        return transform(drawn["x"])

    monkeypatch.setattr(experiment, "gen_covariates", covariates)
    monkeypatch.setattr(experiment, "gen_responses", lambda x, dgp, rng: gen_y(drawn["x"], base, rng))
    return run_replication(cfg, 0)


def test_complete_data_answers_do_not_depend_on_units(monkeypatch):
    # with no missing cell, the g-prior Bayes factors and so every method's
    # trajectory are invariant to per-column affine maps of the covariates
    cfg = tiny_config(missing=MissingnessConfig(rate=0.0))
    base = _run_on_covariates(monkeypatch, cfg, lambda x: x)
    mapped = _run_on_covariates(monkeypatch, cfg, lambda x: x * [100.0, -0.01, 3.0, 1.0] + [50.0, -7.0, 1e3, 0.0])
    np.testing.assert_array_equal(mapped.set_sizes, base.set_sizes)
    for meth in METHODS:
        np.testing.assert_allclose(mapped.trajectories[meth].probs, base.trajectories[meth].probs, rtol=0, atol=1e-9)


def test_permuted_covariates_permute_the_answers(monkeypatch):
    # covariate i of the permuted run is covariate perm[i] of the base run,
    # and beta follows it, so every method's trajectory is permuted the same way
    perm = np.array([2, 0, 3, 1])
    base_cfg = tiny_config(missing=MissingnessConfig(rate=0.0))
    base = _run_on_covariates(monkeypatch, base_cfg, lambda x: x)
    cfg = tiny_config(
        missing=MissingnessConfig(rate=0.0),
        dgp=DGPConfig(p=4, beta=base_cfg.dgp.beta[perm], sigma2=1.0, rho=0.3),
    )
    permuted = _run_on_covariates(monkeypatch, cfg, lambda x: x[:, perm])
    np.testing.assert_array_equal(permuted.set_sizes, base.set_sizes)
    for meth in METHODS:
        np.testing.assert_allclose(
            permuted.trajectories[meth].probs, base.trajectories[meth].probs[:, perm], rtol=0, atol=1e-9
        )


def _tiny_data(cfg):
    """The masked dataset of cfg's replication 0, drawn from its named streams."""
    from seqbvs.data_gen import apply_missingness, gen_covariates, gen_responses
    from seqbvs.experiment import _STREAM_COVARIATES, _STREAM_MASK, _STREAM_NOISE, stream_rng

    x = gen_covariates(cfg.n_max, cfg.dgp.cov, stream_rng(cfg.base_seed, 0, _STREAM_COVARIATES))
    y = gen_responses(x, cfg.dgp, stream_rng(cfg.base_seed, 0, _STREAM_NOISE))
    mask_rng = stream_rng(cfg.base_seed, 0, _STREAM_MASK)
    return apply_missingness(x, cfg.missing.rate, cfg.missing.mechanism, mask_rng, y=y)


@pytest.mark.parametrize("per_call", [None, 3])
def test_imputed_stream_yields_each_sizes_gram_stats(monkeypatch, per_call):
    # per_call 3 splits the stream into several impute calls
    from seqbvs.bayes_lm import GramStats
    from seqbvs.experiment import _STREAM_IMPUTE_BASE, _imputed_stream, stream_rng
    from seqbvs.imputation import impute, stack_sizes

    cfg = tiny_config()
    data = _tiny_data(cfg)
    if per_call is not None:
        monkeypatch.setattr(experiment, "stack_sizes", lambda *args: per_call)
    else:
        per_call = stack_sizes(cfg.n_max, cfg.imp.M, cfg.dgp.p)
    sizes = list(range(cfg.n_min, cfg.n_max + 1))
    want = []
    for first in range(0, len(sizes), per_call):
        chunk = sizes[first : first + per_call]
        streams = {n: stream_rng(cfg.base_seed, 0, _STREAM_IMPUTE_BASE + n) for n in chunk}
        stacked = impute(data, cfg.imp, streams)
        want += [GramStats.from_data(completions, data.y[:n]) for n, completions in zip(chunk, stacked)]
    got = list(_imputed_stream(data, cfg, 0))
    assert [n for n, _ in got] == sizes
    for (n, stats), ref in zip(got, want):
        assert stats.n == ref.n == n
        assert stats.szz.tobytes() == ref.szz.tobytes()


@pytest.fixture(scope="module")
def tiny_tables():
    """The per-step (M, m) log-BF tables of tiny_config's replication 0."""
    from seqbvs.bayes_lm import model_sweep
    from seqbvs.experiment import _imputed_stream
    from seqbvs.model_space import enumerate_models

    cfg = tiny_config()
    space = enumerate_models(cfg.dgp.p)
    return [
        model_sweep(stats, space, g_for_n(cfg.g_rule, n)) for n, stats in _imputed_stream(_tiny_data(cfg), cfg, 0)
    ]


@pytest.mark.parametrize("prior", ["uniform", "scott-berger"])
@pytest.mark.parametrize("loss_mode", ["cumulative", "increment"])
@pytest.mark.parametrize("pooling", ["geometric", "arithmetic", "mixture"])
def test_replication_matches_literal_steps(tiny_tables, pooling, loss_mode, prior):
    # every pooling rule, loss mode and model prior through run_replication,
    # against the steps evaluated literally from the same sweep tables.  The
    # sweep tables do not depend on varsigma; at 0.1 the set empties early,
    # so NaN smcs rows, the zero_out fallback and mixed = bvs are checked too
    for varsigma in (0.65, 0.1):
        cfg = tiny_config(pooling=pooling, loss_mode=loss_mode, model_prior=prior, smcs=SmcsConfig(varsigma=varsigma))
        res = run_replication(cfg, 0)
        probs, set_sizes, fallbacks = sequential_reference(
            tiny_tables, pooling, loss_mode, prior, cfg.smcs.lam, cfg.smcs.alpha
        )
        np.testing.assert_array_equal(res.set_sizes, set_sizes, err_msg=f"varsigma={varsigma}")
        if varsigma == 0.1:  # the emptied set sends zero_out to its fallback, checked below
            assert fallbacks > 0
        assert (res.set_sizes[-1] == 0) == (varsigma == 0.1), f"varsigma={varsigma} ends with {res.set_sizes[-1]} models"
        for meth in METHODS:
            np.testing.assert_allclose(
                res.trajectories[meth].probs, probs[meth], rtol=0, atol=1e-10, err_msg=f"varsigma={varsigma}"
            )


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
        imp=ImputationConfig(M=10),
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


def record(rep, n_min, n_max, probs, set_sizes, **derived):
    """The ReplicationResult of per-method (T, p) probabilities."""
    trajectories = {meth: InclusionTrajectory(meth, probs[meth]) for meth in METHODS}
    return ReplicationResult(rep, n_min, n_max, trajectories, set_sizes, **derived)


SMCS_NAN_RULE = "an smcs NaN pattern that disagrees with set_size == 0"
OUTSIDE_RULE = r"a probability outside \[0, 1\] in "


@pytest.mark.parametrize(
    "cells, sizes, extra, rule, t",
    [
        ([("bvs", 2, 0, 1.5)], None, None, OUTSIDE_RULE + "bvs", "2"),
        ([("zero_out", 3, 1, -0.25)], None, None, OUTSIDE_RULE + "zero_out", "3"),
        ([("smcs", 2, 1, np.inf)], None, None, OUTSIDE_RULE + "smcs", "2"),
        ([("mixed", 4, 0, -np.inf)], None, None, OUTSIDE_RULE + "mixed", "4"),
        ([("bvs", 3, 0, np.nan)], None, None, "NaN in bvs", "3"),
        ([("zero_out", 1, 1, np.nan)], None, None, "NaN in zero_out", "1"),
        ([("mixed", 4, 1, np.nan)], None, None, "NaN in mixed", "4"),
        ([("smcs", 2, 0, np.nan), ("smcs", 2, 1, np.nan)], None, None, SMCS_NAN_RULE, "2"),
        ([], [4, 4, 3, 0], None, SMCS_NAN_RULE, "4"),
        ([("smcs", 4, 0, np.nan)], [4, 4, 3, 0], None, SMCS_NAN_RULE, "4"),
        # smcs rows [nan, nan], [0, 1]: the NaN row needs size 0 and the next a size above it
        ([("smcs", 1, 0, np.nan), ("smcs", 1, 1, np.nan), ("smcs", 2, 0, 0.0), ("smcs", 2, 1, 1.0)],
         [0, 4, 3, 3], None, "a set size that grows with t", "2"),
        ([], [4, 5, 3, 3], None, "a set size outside 0..4", "2"),
        ([], [4, 4, -1, -1], None, "a set size outside 0..4", "3"),
        ([], [4, 3, 4, 3], None, "a set size that grows with t", "3"),
        ([], None, lambda res: {"n_max": 23},
         re.escape("trajectories of shapes [(4, 2)], not one (T, p) with T = n_max - n_min + 1"), "1..5"),
        ([], None, lambda res: {
            "crossings": {meth: count_crossings(tr.probs) + (meth == "mixed") for meth, tr in res.trajectories.items()}},
         "crossings that disagree with its trajectories", "1..4"),
        ([], None, lambda res: {
            "final_included": {meth: (tr.probs[-1] >= 0.5) ^ (meth == "bvs") for meth, tr in res.trajectories.items()}},
         "final_included that disagree with its trajectories", "1..4"),
        ([], None, lambda res: {"had_nan": {meth: meth == "smcs" for meth in METHODS}},
         "had_nan that disagree with its trajectories", "1..4"),
    ],
    ids=[
        "above_one", "below_zero", "inf", "minus_inf",
        "nan_in_bvs", "nan_in_zero_out", "nan_in_mixed",
        "smcs_nan_in_nonempty_set", "smcs_value_in_empty_set", "smcs_partly_nan_in_empty_set",
        "smcs_nan_then_values",
        "set_size_above_the_model_count", "set_size_negative", "set_size_grows",
        "t_count_off_n_range",
        "crossings_disagree", "final_included_disagree", "had_nan_disagree",
    ],
)
def test_record_rule_broken(cells, sizes, extra, rule, t):
    # a valid p = 2 record of T = 4 steps, then one rule broken by (method, t, covariate, value) cells,
    # set sizes or keywords
    probs = {meth: np.array([[0.3, 0.6], [0.6, 0.6], [0.6, 0.3], [0.2, 0.7]]) for meth in METHODS}
    valid = dict(rep=7, n_min=19, n_max=22, probs=probs, set_sizes=np.array([4, 4, 3, 3]))
    honest = record(**valid)
    broken = {**valid, "probs": {meth: mat.copy() for meth, mat in probs.items()}}
    for meth, t_at, k, value in cells:
        broken["probs"][meth][t_at - 1, k] = value
    if sizes is not None:
        broken["set_sizes"] = np.array(sizes)
    broken.update(extra(honest) if extra else {})
    with pytest.raises(DataError, match=f"^a replication record has {rule} at rep 7, t {re.escape(t)}$"):
        record(**broken)


class TestAggregate:
    def _fake_result(self, rep, crossings_by_method, final, t_count=5, p=2):
        """A result whose covariate k crosses crossings_by_method[meth][k] times and ends on side final[k]."""
        probs = {}
        for meth in METHODS:
            mat = np.empty((t_count, p))
            for k, (count, last) in enumerate(zip(crossings_by_method[meth], final)):
                # steady, then a side change at each of the last `count` steps
                sides = [last ^ (min(t_count - 1 - t, count) % 2 == 1) for t in range(t_count)]
                mat[:, k] = np.where(sides, 0.6, 0.4)
            probs[meth] = mat
        return record(rep, 19, 19 + t_count - 1, probs, np.full(t_count, 4, dtype=np.int64))

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

    @pytest.mark.parametrize("t_count, p", [(6, 2), (5, 3)], ids=["longer", "wider"])
    def test_reps_of_another_shape_rejected(self, t_count, p):
        counts = {m: [1] * p for m in METHODS}
        results = [self._fake_result(rep, {m: [1, 1] for m in METHODS}, [True, False]) for rep in (3, 4)]
        results.insert(1, self._fake_result(8, counts, [True] * p, t_count=t_count, p=p))
        with pytest.raises(
            DataError, match=re.escape(f"reps differ in (T, p): rep 8 has ({t_count}, {p}), not rep 3's (5, 2)")
        ):
            aggregate(results)

    def test_tables_follow_the_trajectories(self):
        # the tables reduce the crossings and final calls of the records'
        # trajectories, as analyze's do when it reads them back from the CSV
        t_count, p = 6, 3
        steps = np.arange(t_count * p, dtype=float).reshape(t_count, p)
        results = []
        for rep in range(3):
            probs = {meth: (steps * (rep + i + 2) % 7) / 6 for i, meth in enumerate(METHODS)}
            results.append(record(rep, 19, 19 + t_count - 1, probs, np.full(t_count, 4)))
        stats = aggregate(results)
        for meth in METHODS:
            counts = np.array(
                [[crossing_events_reference(r.trajectories[meth].probs[:, k]).sum() for k in range(p)] for r in results]
            )
            finals = np.array([r.trajectories[meth].probs[-1] >= 0.5 for r in results])
            assert counts.sum() > 0 and 0 < finals.mean() < 1
            np.testing.assert_array_equal(stats.mean_crossings[meth], counts.mean(axis=0))
            np.testing.assert_array_equal(stats.final_freq[meth], finals.mean(axis=0))
            assert stats.total_mean[meth] == counts.sum(axis=1).mean()
            assert stats.total_var[meth] == counts.sum(axis=1).astype(float).var(ddof=1)

    def test_cumulative_totals_from_real_run(self):
        cfg = tiny_config()
        results = [run_replication(cfg, r) for r in range(2)]
        stats = aggregate(results)
        for meth in METHODS:
            cum = stats.cum_mean[meth]
            assert cum.shape == (cfg.t_max,)
            assert np.all(np.diff(cum) >= -1e-12)  # cumulative means non-decreasing
            want_final = np.mean([count_crossings(r.trajectories[meth].probs).sum() for r in results])
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

    @pytest.mark.parametrize("reps, pools", [(2, [2]), (1, [])])
    def test_pool_no_larger_than_reps(self, monkeypatch, reps, pools):
        started = []

        class RecordingPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        # run_experiment imports the pool from concurrent.futures only when it needs one
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        results = run_experiment(tiny_config(reps=reps, n_max=21), workers=3)
        assert started == pools  # one replication takes the serial path
        assert [r.rep for r in results] == list(range(reps))

    @pytest.mark.parametrize("workers", [0, -2])
    def test_worker_count_below_one_rejected(self, workers):
        with pytest.raises(ConfigError, match=f"workers must be >= 1, got {workers}"):
            run_experiment(tiny_config(), workers=workers)

    def test_aggregate_type(self):
        cfg = tiny_config()
        stats = aggregate(run_experiment(cfg))
        assert isinstance(stats, CrossingStats)
        assert stats.reps == 2
        assert stats.p == 4
