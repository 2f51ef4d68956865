import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqbvs.errors import DataError
from seqbvs.inclusion import (
    METHODS,
    InclusionTrajectory,
    bvs_inclusion,
    mixed_inclusion,
    smcs_inclusion,
    zero_out,
)
from seqbvs.model_space import enumerate_models

from oracles import model_bits


def test_methods_roster():
    assert METHODS == ("bvs", "smcs", "zero_out", "mixed")


class TestBvs:
    def test_uniform_posterior_gives_half(self):
        space = enumerate_models(4)
        post = np.full(space.m, 1.0 / space.m)
        np.testing.assert_allclose(bvs_inclusion(post, space), 0.5)

    def test_point_mass(self):
        space = enumerate_models(3)
        post = np.zeros(space.m)
        post[1] = 1.0  # model (1,0,0)
        np.testing.assert_allclose(bvs_inclusion(post, space), [1.0, 0.0, 0.0])

    def test_p2_direct_sum(self):
        space = enumerate_models(2)
        post = np.array([0.1, 0.2, 0.3, 0.4])
        np.testing.assert_allclose(bvs_inclusion(post, space), [0.6, 0.7], atol=1e-15)

    @pytest.mark.parametrize("p", [1, 3, 10, 14])
    def test_block_sums_match_bits_product(self, p):
        # the marginal kernel of all three methods against the bits product
        space = enumerate_models(p)
        rng = np.random.default_rng(p)
        post = rng.dirichlet(np.full(space.m, 0.3))
        bits = model_bits(p).T.astype(float)
        np.testing.assert_allclose(bvs_inclusion(post, space), bits @ post, rtol=0, atol=1e-12)
        empty = np.array([], dtype=np.int64)
        assert np.all(np.isnan(smcs_inclusion(empty, space)))
        zo = zero_out(post, empty, space)
        assert zo.fallback
        np.testing.assert_allclose(zo.probs, bits @ post, rtol=0, atol=1e-12)
        single = rng.integers(space.m, size=1)
        half = np.sort(rng.permutation(space.m)[: space.m // 2])
        for members in (single, half, np.arange(space.m)):
            # integer counts: equal bit for bit to the mean of the gathered bits
            np.testing.assert_array_equal(smcs_inclusion(members, space), bits.T[members].mean(axis=0))
            restricted = np.zeros(space.m)
            restricted[members] = post[members] / post[members].sum()
            zo = zero_out(post, members, space)
            assert not zo.fallback
            np.testing.assert_allclose(zo.probs, bits @ restricted, rtol=0, atol=1e-12)

    def test_no_float_copy_of_the_bits(self):
        # an (m, p) float64 copy of the bits is 38 MB at p = 18, and an
        # (m, p) uint8 gather of a full set's bits 4.7 MB
        import tracemalloc

        space = enumerate_models(18)
        bits = model_bits(18)
        post = np.full(space.m, 1.0 / space.m)
        for members in (np.arange(space.m), np.arange(0, space.m, 2), np.arange(6)):
            calls = {
                "bvs_inclusion": lambda: bvs_inclusion(post, space),
                "smcs_inclusion": lambda: smcs_inclusion(members, space),
                "zero_out": lambda: zero_out(post, members, space).probs,
            }
            for name, call in calls.items():
                tracemalloc.start()
                try:
                    got = call()
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                # under a uniform posterior zero_out gives the set's own fractions
                want = 0.5 if name == "bvs_inclusion" else bits[members].mean(axis=0)
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
                assert peak < 4e6, f"{name} with {members.size} members peaked at {peak / 1e6:.2f} MB"

    def test_non_simplex_rejected(self):
        space = enumerate_models(2)
        with pytest.raises(DataError):
            bvs_inclusion(np.array([0.5, 0.5, 0.5, 0.5]), space)
        # zero_out checks the posterior it receives, not only its restriction
        for post in (np.array([0.5, 0.5, 0.5, 0.5]), np.array([-0.1, 0.6, 0.3, 0.2])):
            for members in (np.array([1]), np.array([], dtype=np.int64)):
                with pytest.raises(DataError):
                    zero_out(post, members, space)
        # NaN fails both comparisons of the check; outside the set the
        # restriction alone would mask it
        with pytest.raises(DataError):
            bvs_inclusion(np.full(4, np.nan), space)
        with pytest.raises(DataError):
            zero_out(np.array([0.5, 0.5, 0.0, np.nan]), np.array([0, 1]), space)


class TestSmcs:
    def test_full_space_gives_half(self):
        space = enumerate_models(5)
        got = smcs_inclusion(np.arange(space.m), space)
        np.testing.assert_allclose(got, 0.5)

    def test_singleton(self):
        space = enumerate_models(3)
        idx = space.model(0b101).index
        got = smcs_inclusion(np.array([idx]), space)
        np.testing.assert_allclose(got, [1.0, 0.0, 1.0])

    def test_half_membership_fraction(self):
        # 256-model set in which covariate 1 appears in exactly half
        space = enumerate_models(10)
        members = np.arange(256)
        got = smcs_inclusion(members, space)
        assert got[0] == 0.5

    def test_empty_set_nan(self):
        space = enumerate_models(3)
        got = smcs_inclusion(np.array([], dtype=int), space)
        assert np.all(np.isnan(got))


class TestZeroOut:
    def test_full_space_equals_bvs(self):
        space = enumerate_models(4)
        rng = np.random.default_rng(0)
        post = rng.dirichlet(np.ones(space.m))
        res = zero_out(post, np.arange(space.m), space)
        assert not res.fallback
        np.testing.assert_allclose(res.probs, bvs_inclusion(post, space), atol=1e-12)

    def test_singleton_indicator(self):
        space = enumerate_models(3)
        rng = np.random.default_rng(1)
        post = rng.dirichlet(np.ones(space.m))
        res = zero_out(post, np.array([5]), space)  # model (1,0,1)
        np.testing.assert_allclose(res.probs, [1.0, 0.0, 1.0])

    def test_p1_example(self):
        space = enumerate_models(1)
        res = zero_out(np.array([0.5, 0.5]), np.array([1]), space)
        np.testing.assert_allclose(res.probs, [1.0])

    def test_empty_set_falls_back(self):
        space = enumerate_models(2)
        post = np.array([0.4, 0.3, 0.2, 0.1])
        res = zero_out(post, np.array([], dtype=int), space)
        assert res.fallback
        np.testing.assert_allclose(res.probs, bvs_inclusion(post, space))

    def test_zero_mass_set_falls_back(self):
        space = enumerate_models(2)
        post = np.array([1.0, 0.0, 0.0, 0.0])
        res = zero_out(post, np.array([3]), space)
        assert res.fallback


class TestMixed:
    def test_zero_set_size_returns_bvs(self):
        p_bvs = np.array([0.2, 0.9])
        p_smcs = np.array([np.nan, np.nan])
        got = mixed_inclusion(p_bvs, p_smcs, 0, 4)
        np.testing.assert_array_equal(got, p_bvs)

    def test_full_weight_identity(self):
        p = np.array([0.3, 0.6])
        np.testing.assert_allclose(mixed_inclusion(p, p, 8, 8), p)

    def test_arithmetic_example(self):
        got = mixed_inclusion(np.array([0.9]), np.array([0.5]), 2, 4)
        assert abs(got[0] - 0.7) < 1e-15

    def test_set_size_range(self):
        with pytest.raises(DataError):
            mixed_inclusion(np.zeros(2), np.zeros(2), 5, 4)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.floats(min_value=0, max_value=1), min_size=3, max_size=3),
        st.lists(st.floats(min_value=0, max_value=1), min_size=3, max_size=3),
        st.integers(min_value=0, max_value=16),
    )
    def test_convexity(self, b, s, size):
        b = np.array(b)
        s = np.array(s)
        got = mixed_inclusion(b, s, size, 16)
        lo = np.minimum(b, s) - 1e-12
        hi = np.maximum(b, s) + 1e-12
        assert np.all(got >= lo) and np.all(got <= hi)


def test_consistency_when_set_is_full_space():
    space = enumerate_models(4)
    rng = np.random.default_rng(2)
    post = rng.dirichlet(np.ones(space.m))
    members = np.arange(space.m)
    p_bvs = bvs_inclusion(post, space)
    np.testing.assert_allclose(zero_out(post, members, space).probs, p_bvs, atol=1e-12)
    np.testing.assert_allclose(smcs_inclusion(members, space), 0.5)


def test_trajectory_validation():
    InclusionTrajectory("bvs", np.array([[0.5, 0.5]]))
    with pytest.raises(DataError):
        InclusionTrajectory("bogus", np.array([[0.5]]))
    with pytest.raises(DataError):
        InclusionTrajectory("bvs", np.array([[1.5]]))
    InclusionTrajectory("smcs", np.array([[np.nan, np.nan], [0.0, 1.0]]))
    for value in (np.inf, -np.inf):
        for meth, first_row in (("bvs", [0.3, 0.5]), ("smcs", [np.nan, np.nan])):
            with pytest.raises(DataError, match=r"NaN or lie in \[0, 1\]"):
                InclusionTrajectory(meth, np.array([first_row, [value, 0.5]]))
