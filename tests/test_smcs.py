import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqbvs.errors import ConfigError, DataError, ShapeError
from seqbvs.smcs import EProcessState, SmcsConfig, _rt_log_terms, loss_from_log_marginals, step

from oracles import literal_log_e, literal_log_e_pairwise, naive_mean_log_bf_loss


def run_stream(losses, config):
    """Feed a (T, m) loss array through step; returns the final state."""
    state = EProcessState.fresh(losses.shape[1])
    for t in range(losses.shape[0]):
        state = step(state, losses[t], config)
    return state


class TestConfig:
    def test_defaults_follow_varsigma(self):
        cfg = SmcsConfig()
        assert cfg.alpha == 0.1
        assert abs(cfg.lam - 1.0 / (8.0 * 0.65**2)) < 1e-15
        assert abs(cfg.lam - 0.2958579881656805) < 1e-12

    def test_lam_derived_from_varsigma(self):
        assert SmcsConfig().lam == 1.0 / (8.0 * 0.65**2)
        assert replace(SmcsConfig(), varsigma=0.5).lam == 0.5

    def test_lam_is_not_an_argument(self):
        with pytest.raises(TypeError):
            SmcsConfig(lam=0.3)

    def test_alpha_range(self):
        with pytest.raises(ConfigError):
            SmcsConfig(alpha=1.0)

    # the first two ids name the lam that varsigma would give
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"varsigma": float("nan")},
            {"varsigma": 0.0},
            {"varsigma": float("inf")},
            {"varsigma": 1e-200},  # varsigma**2 underflows to 0
            {"varsigma": 1e200},  # varsigma**2 overflows
        ],
        ids=["nan_lam", "inf_lam", "inf_varsigma", "underflowing_varsigma", "overflowing_varsigma"],
    )
    def test_non_finite_scale(self, kwargs):
        with pytest.raises(ConfigError):
            SmcsConfig(**kwargs)


class TestLoss:
    def test_equal_marginals_zero_loss(self):
        losses = loss_from_log_marginals(np.zeros(2))
        np.testing.assert_array_equal(losses, [0.0, 0.0])

    def test_two_model_example(self):
        losses = loss_from_log_marginals(np.array([0.0, math.log(3.0)]))
        np.testing.assert_allclose(losses, [math.log(3.0), -math.log(3.0)], atol=1e-14)

    def test_closed_form_matches_double_loop(self):
        rng = np.random.default_rng(0)
        log_bf = rng.standard_normal(8) * 3
        losses = loss_from_log_marginals(log_bf)
        np.testing.assert_allclose(losses, naive_mean_log_bf_loss(log_bf), atol=1e-12)

    def test_block_is_the_loss_of_each_row(self):
        log_bf = np.random.default_rng(12).standard_normal((5, 32)) * 4
        for row, got in zip(log_bf, loss_from_log_marginals(log_bf)):
            assert got.tobytes() == loss_from_log_marginals(row).tobytes()

    def test_single_model_rejected(self):
        with pytest.raises(ConfigError):
            loss_from_log_marginals(np.array([1.0]))

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.floats(min_value=-50, max_value=50), min_size=2, max_size=12),
        st.integers(min_value=0, max_value=11),
        st.integers(min_value=0, max_value=11),
    )
    def test_loss_difference_identity(self, log_bf, i, j):
        m = len(log_bf)
        i %= m
        j %= m
        log_bf = np.array(log_bf)
        losses = loss_from_log_marginals(log_bf)
        lhs = losses[i] - losses[j]
        rhs = (m / (m - 1)) * (log_bf[j] - log_bf[i])
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


class TestStep:
    def test_lambda_zero_collapse(self):
        # no varsigma gives lam = 0, so the r = t term is checked directly
        cum = np.cumsum(np.random.default_rng(3).standard_normal((7, 5)), axis=0)
        for t in range(1, 8):
            np.testing.assert_allclose(_rt_log_terms(cum[t - 1], 0.0, t), -t / 8.0, atol=1e-14)

    def test_hand_m2_case_pairwise(self):
        d = np.array([[0.0, -1.0], [1.0, 0.0]])
        log_sup = literal_log_e_pairwise(np.stack([d, d]), 1.0)[-1]
        np.testing.assert_allclose(np.exp(log_sup[0]), math.exp(-9.0 / 8.0), rtol=1e-12)
        np.testing.assert_allclose(np.exp(log_sup[1]), math.exp(1.75), rtol=1e-12)
        assert np.all(log_sup <= math.log(1.0 / 0.1))

    def test_hand_m2_case_per_model_losses(self):
        # same numbers through step(): per-model losses with L1-L2 = -1 each round
        cfg = SmcsConfig(alpha=0.1, varsigma=8.0**-0.5)
        losses = np.array([[-0.5, 0.5], [-0.5, 0.5]])
        state = run_stream(losses, cfg)
        np.testing.assert_allclose(state.log_sup, [-9.0 / 8.0, 1.75], rtol=1e-12)

    def test_optimized_matches_literal(self):
        rng = np.random.default_rng(4)
        losses = rng.standard_normal((20, 8)) * 2
        cfg = SmcsConfig()
        state = EProcessState.fresh(8)
        want = literal_log_e(losses, cfg.lam)
        for t in range(20):
            state = step(state, losses[t], cfg)
            np.testing.assert_allclose(state.log_sup, want[t], atol=1e-9)

    @pytest.mark.parametrize(
        "losses, lam",
        [
            ([0.0, 0.0, 1.0, 2.0, 3.0], 0.3),
            ([0.0, 1e4, 1e4 + 1.0, 1e4 + 2.5], 1.0),  # every other weight underflows
            ([1.7] * 6, 0.3),
            ([0.4, -1.1], 0.3),
            ([0.3, -2.0, 1.2, 0.0], 0.0),
        ],
        ids=["tied_top", "top_ahead_1e4_nats", "all_equal", "m2", "lambda_zero"],
    )
    def test_one_step_matches_literal_leave_one_out(self, losses, lam):
        losses = np.array(losses)
        if lam == 0.0:  # no varsigma gives lam = 0: the r = t term itself
            got = _rt_log_terms(losses, 0.0, 1)
        else:
            cfg = SmcsConfig(varsigma=(8 * lam) ** -0.5)
            got, lam = step(EProcessState.fresh(losses.size), losses, cfg).log_sup, cfg.lam
        np.testing.assert_allclose(got, literal_log_e(losses[None], lam)[0], rtol=0, atol=1e-12)

    def test_step_and_pairwise_agree(self):
        rng = np.random.default_rng(5)
        losses = rng.standard_normal((15, 6))
        cfg = SmcsConfig()
        a = run_stream(losses, cfg)
        b = literal_log_e_pairwise(losses[:, :, None] - losses[:, None, :], cfg.lam)[-1]
        np.testing.assert_allclose(a.log_sup, b, atol=1e-9)
        np.testing.assert_array_equal(a.member, b <= cfg.log_threshold)

    def test_log_sup_monotone_and_nested(self):
        rng = np.random.default_rng(7)
        losses = rng.standard_normal((40, 10)) * 4
        cfg = SmcsConfig(alpha=0.3, varsigma=0.3)
        state = EProcessState.fresh(10)
        prev_sup = state.log_sup.copy()
        prev_member = state.member.copy()
        for t in range(40):
            state = step(state, losses[t], cfg)
            assert np.all(state.log_sup >= prev_sup)
            assert np.all(prev_member | ~state.member)  # member set shrinks only
            prev_sup = state.log_sup.copy()
            prev_member = state.member.copy()

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(8)
        losses = rng.standard_normal((10, 6))
        perm = rng.permutation(6)
        cfg = SmcsConfig()
        base = run_stream(losses, cfg)
        permuted = run_stream(losses[:, perm], cfg)
        np.testing.assert_allclose(permuted.log_sup, base.log_sup[perm], atol=1e-10)

    def test_fresh_state_full_set(self):
        state = EProcessState.fresh(16)
        assert state.t == 0
        assert np.count_nonzero(state.member) == 16
        assert np.all(np.isneginf(state.log_sup))

    def test_nonfinite_losses_rejected(self):
        with pytest.raises(DataError):
            step(EProcessState.fresh(2), np.array([0.0, np.inf]), SmcsConfig())

    def test_loss_shape_mismatch_rejected(self):
        # (m,) or (T, m) losses only
        for shape in ((2,), (2, 2), (1, 2, 3)):
            with pytest.raises(ShapeError):
                step(EProcessState.fresh(3), np.zeros(shape), SmcsConfig())

    def test_exclusion_happens(self):
        # model 1 consistently loses: its E grows past 1/alpha and stays out
        cfg = SmcsConfig(alpha=0.1, varsigma=8.0**-0.5)
        losses = np.tile(np.array([[-2.0, 2.0]]), (30, 1))
        state = run_stream(losses, cfg)
        assert state.member[0]
        assert not state.member[1]
        np.testing.assert_array_equal(state.member, [True, False])

    def test_large_cumulative_sums_stay_finite(self):
        # exponents ~ lam * 1e4 would overflow outside log space
        cfg = SmcsConfig()
        losses = np.tile(np.array([[-100.0, 0.0, 100.0]]), (100, 1))
        state = run_stream(losses, cfg)
        assert np.all(np.isfinite(state.log_sup[1:]))
        assert state.log_sup[2] > state.log_sup[1] > state.log_sup[0]

    @pytest.mark.parametrize("m", [2, 1024])
    @pytest.mark.parametrize(
        "offset, spread, sd",
        [(0.0, 1.0, 1.0), (1e4, 1.0, 1.0), (0.0, 1e4, 1.0), (0.0, 1.0, 1e4)],
        ids=["unit", "common_level_1e4", "model_spread_1e4", "steps_1e4"],
    )
    def test_level_less_running_sum_telescopes(self, m, offset, spread, sd):
        # the loss is linear in the log BFs, so stepping with L(v_t) less the
        # running loss sum equals stepping with L(v_t - v_{t-1}) up to roundoff
        rng = np.random.default_rng([m, 7])
        drift = rng.standard_normal(m) * 0.5
        levels = offset + spread * 0.1 * rng.standard_normal(m) + np.cumsum(drift + sd * rng.standard_normal((30, m)), axis=0)
        cfg = SmcsConfig()
        level = change = EProcessState.fresh(m)
        prev = np.zeros(m)
        for v in levels:
            level = step(level, loss_from_log_marginals(v) - level.cum_losses, cfg)
            change = step(change, loss_from_log_marginals(v - prev), cfg)
            prev = v
            np.testing.assert_array_equal(level.member, change.member)
            np.testing.assert_allclose(level.log_sup, change.log_sup, rtol=1e-9, atol=0)


@pytest.mark.parametrize("splits", [[9], [3, 1, 5], [1] * 9])
@pytest.mark.parametrize("varsigma, sizes", [(0.3, [52, 43, 31, 22, 16, 12, 10, 8, 6]), (0.1, [2, 1, 1, 1, 1, 1, 0, 0, 0])])
def test_block_step_equals_single_steps(splits, varsigma, sizes):
    # a (T, m) block advances the state to the bits of T single steps, and the exit step per model
    # gives the set at every row: (left_at == 0) | (left_at > t).  At varsigma 0.1 the set empties
    rng = np.random.default_rng(11)
    m = 64
    losses = rng.standard_normal(m) * 0.5 + rng.standard_normal((9, m))
    cfg = SmcsConfig(alpha=0.1, varsigma=varsigma)
    single, members = EProcessState.fresh(m), []
    for row in losses:
        single = step(single, row, cfg)
        members.append(single.member)
    assert [np.count_nonzero(member) for member in members] == sizes
    block = EProcessState.fresh(m)
    for part in np.split(losses, np.cumsum(splits)[:-1]):
        block = step(block, part, cfg)
    assert block.t == single.t == 9
    for name in ("cum_losses", "log_sup", "left_at"):
        assert getattr(block, name).tobytes() == getattr(single, name).tobytes(), name
    for t, member in enumerate(members, start=1):
        np.testing.assert_array_equal((block.left_at == 0) | (block.left_at > t), member)
