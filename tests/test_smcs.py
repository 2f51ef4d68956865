import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqbvs.errors import ConfigError, DataError, ShapeError
from seqbvs.smcs import EProcessState, SmcsConfig, confidence_set, loss_from_log_marginals, step

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

    def test_explicit_lam(self):
        cfg = SmcsConfig(alpha=0.05, lam=0.7, varsigma=None)
        assert cfg.lam == 0.7
        cfg = SmcsConfig(lam=0.3)  # lam alone: no default varsigma to contradict it
        assert cfg.lam == 0.3
        assert cfg.varsigma is None

    def test_inconsistent_pair_rejected(self):
        with pytest.raises(ConfigError):
            SmcsConfig(lam=0.5, varsigma=0.65)

    def test_alpha_range(self):
        with pytest.raises(ConfigError):
            SmcsConfig(alpha=1.0)

    def test_negative_lam(self):
        with pytest.raises(ConfigError):
            SmcsConfig(lam=-0.1, varsigma=None)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lam": float("nan"), "varsigma": None},
            {"lam": float("inf"), "varsigma": None},
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
        cfg = SmcsConfig(alpha=0.1, lam=0.0, varsigma=None)
        losses = np.random.default_rng(3).standard_normal((7, 5))
        state = run_stream(losses, cfg)
        assert state.t == 7
        np.testing.assert_allclose(state.log_sup, -1.0 / 8.0, atol=1e-14)
        assert state.member.all()
        assert len(confidence_set(state)) == 5

    def test_hand_m2_case_pairwise(self):
        d = np.array([[0.0, -1.0], [1.0, 0.0]])
        log_sup = literal_log_e_pairwise(np.stack([d, d]), 1.0)[-1]
        np.testing.assert_allclose(np.exp(log_sup[0]), math.exp(-9.0 / 8.0), rtol=1e-12)
        np.testing.assert_allclose(np.exp(log_sup[1]), math.exp(1.75), rtol=1e-12)
        assert np.all(log_sup <= math.log(1.0 / 0.1))

    def test_hand_m2_case_per_model_losses(self):
        # same numbers through step(): per-model losses with L1-L2 = -1 each round
        cfg = SmcsConfig(alpha=0.1, lam=1.0, varsigma=None)
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
        state = step(EProcessState.fresh(losses.size), losses, SmcsConfig(lam=lam))
        np.testing.assert_allclose(state.log_sup, literal_log_e(losses[None], lam)[0], rtol=0, atol=1e-12)

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
        assert len(confidence_set(state)) == 16
        assert np.all(np.isneginf(state.log_sup))

    def test_nonfinite_losses_rejected(self):
        with pytest.raises(DataError):
            step(EProcessState.fresh(2), np.array([0.0, np.inf]), SmcsConfig())

    def test_loss_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            step(EProcessState.fresh(3), np.zeros(2), SmcsConfig())

    def test_exclusion_happens(self):
        # model 1 consistently loses: its E grows past 1/alpha and stays out
        cfg = SmcsConfig(alpha=0.1, lam=1.0, varsigma=None)
        losses = np.tile(np.array([[-2.0, 2.0]]), (30, 1))
        state = run_stream(losses, cfg)
        assert state.member[0]
        assert not state.member[1]
        np.testing.assert_array_equal(confidence_set(state), [0])

    def test_large_cumulative_sums_stay_finite(self):
        # exponents ~ lam * 1e4 would overflow outside log space
        cfg = SmcsConfig()
        losses = np.tile(np.array([[-100.0, 0.0, 100.0]]), (100, 1))
        state = run_stream(losses, cfg)
        assert np.all(np.isfinite(state.log_sup[1:]))
        assert state.log_sup[2] > state.log_sup[1] > state.log_sup[0]
