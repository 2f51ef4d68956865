import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqbvs.errors import DataError
from seqbvs.experiment import ReplicationResult
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


def mask(space, members):
    """The (m,) bool membership mask of the models at the given indices."""
    member = np.zeros(space.m, dtype=bool)
    member[members] = True
    return member


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
        empty = np.zeros(space.m, dtype=bool)
        assert np.all(np.isnan(smcs_inclusion(empty, space)))
        zo = zero_out(post, empty, space)
        assert zo.fallback
        np.testing.assert_allclose(zo.probs, bits @ post, rtol=0, atol=1e-12)
        single = rng.integers(space.m, size=1)
        half = np.sort(rng.permutation(space.m)[: space.m // 2])
        for members in (single, half, np.arange(space.m)):
            # integer counts: equal bit for bit to the mean of the gathered bits
            np.testing.assert_array_equal(smcs_inclusion(mask(space, members), space), bits.T[members].mean(axis=0))
            restricted = np.zeros(space.m)
            restricted[members] = post[members] / post[members].sum()
            zo = zero_out(post, mask(space, members), space)
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
            member = mask(space, members)
            calls = {
                "bvs_inclusion": lambda: bvs_inclusion(post, space),
                "smcs_inclusion": lambda: smcs_inclusion(member, space),
                "zero_out": lambda: zero_out(post, member, space).probs,
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
            for members in ([1], []):
                with pytest.raises(DataError):
                    zero_out(post, mask(space, members), space)
        # NaN fails both comparisons of the check; outside the set the
        # restriction alone would mask it
        with pytest.raises(DataError):
            bvs_inclusion(np.full(4, np.nan), space)
        with pytest.raises(DataError):
            zero_out(np.array([0.5, 0.5, 0.0, np.nan]), mask(space, [0, 1]), space)

    def test_mask_of_wrong_shape_or_type_rejected(self):
        # an index array, even one of m entries, is not a mask; a (T, m) block is the widest mask, and
        # zero_out takes one row of mask per row of posterior
        space = enumerate_models(2)
        post = np.full(space.m, 0.25)
        for member in (np.ones(3, dtype=bool), np.ones((1, 1, 4), dtype=bool), np.array([1]), np.arange(4)):
            with pytest.raises(DataError, match="bool membership mask"):
                smcs_inclusion(member, space)
            with pytest.raises(DataError, match="bool membership mask"):
                zero_out(post, member, space)
        with pytest.raises(DataError, match="bool membership mask"):
            zero_out(np.full((2, 4), 0.25), np.ones((3, 4), dtype=bool), space)


class TestSmcs:
    def test_full_space_gives_half(self):
        space = enumerate_models(5)
        got = smcs_inclusion(np.ones(space.m, dtype=bool), space)
        np.testing.assert_allclose(got, 0.5)

    def test_singleton(self):
        space = enumerate_models(3)
        idx = space.model(0b101).index
        got = smcs_inclusion(mask(space, [idx]), space)
        np.testing.assert_allclose(got, [1.0, 0.0, 1.0])

    def test_half_membership_fraction(self):
        # 256-model set in which covariate 1 appears in exactly half
        space = enumerate_models(10)
        got = smcs_inclusion(mask(space, np.arange(256)), space)
        assert got[0] == 0.5

    def test_empty_set_nan(self):
        space = enumerate_models(3)
        got = smcs_inclusion(np.zeros(space.m, dtype=bool), space)
        assert np.all(np.isnan(got))


class TestZeroOut:
    def test_full_space_equals_bvs(self):
        space = enumerate_models(4)
        rng = np.random.default_rng(0)
        post = rng.dirichlet(np.ones(space.m))
        res = zero_out(post, np.ones(space.m, dtype=bool), space)
        assert not res.fallback
        np.testing.assert_allclose(res.probs, bvs_inclusion(post, space), atol=1e-12)

    def test_singleton_indicator(self):
        space = enumerate_models(3)
        rng = np.random.default_rng(1)
        post = rng.dirichlet(np.ones(space.m))
        res = zero_out(post, mask(space, [5]), space)  # model (1,0,1)
        np.testing.assert_allclose(res.probs, [1.0, 0.0, 1.0])

    def test_p1_example(self):
        space = enumerate_models(1)
        res = zero_out(np.array([0.5, 0.5]), np.array([False, True]), space)
        np.testing.assert_allclose(res.probs, [1.0])

    def test_empty_set_falls_back(self):
        space = enumerate_models(2)
        post = np.array([0.4, 0.3, 0.2, 0.1])
        res = zero_out(post, np.zeros(space.m, dtype=bool), space)
        assert res.fallback
        np.testing.assert_allclose(res.probs, bvs_inclusion(post, space))

    def test_zero_mass_set_falls_back(self):
        space = enumerate_models(2)
        post = np.array([1.0, 0.0, 0.0, 0.0])
        res = zero_out(post, mask(space, [3]), space)
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
    member = np.ones(space.m, dtype=bool)
    p_bvs = bvs_inclusion(post, space)
    np.testing.assert_allclose(zero_out(post, member, space).probs, p_bvs, atol=1e-12)
    np.testing.assert_allclose(smcs_inclusion(member, space), 0.5)


def test_trajectory_validation():
    # a trajectory only carries one method's probabilities as floats; the
    # rules bind them where they meet the set sizes, in ReplicationResult
    traj = InclusionTrajectory("smcs", [[np.nan, np.nan], [0, 1]])
    assert traj.probs.dtype == float
    probs = {meth: np.full((2, 2), 0.5) for meth in METHODS}

    def record(traj_by_method, set_sizes):
        trajectories = {meth: InclusionTrajectory(meth, probs[meth]) for meth in METHODS}
        return ReplicationResult(0, 19, 20, {**trajectories, **traj_by_method}, np.array(set_sizes))

    record({}, [4, 4])
    # the NaN row needs an empty set, and the set cannot grow back
    with pytest.raises(DataError, match="a set size that grows with t at rep 0, t 2$"):
        record({"smcs": traj}, [0, 4])
    with pytest.raises(DataError, match="an smcs NaN pattern that disagrees with set_size == 0 at rep 0, t 2$"):
        record({"smcs": traj}, [0, 0])
    with pytest.raises(DataError, match="trajectories of methods .*'bvs': 'bogus'.* at rep 0, t 1..2$"):
        record({"bvs": InclusionTrajectory("bogus", probs["bvs"])}, [4, 4])
    for value in (1.5, np.inf, -np.inf):
        for meth in ("bvs", "smcs"):
            with pytest.raises(DataError, match=rf"a probability outside \[0, 1\] in {meth} at rep 0, t 2$"):
                record({meth: InclusionTrajectory(meth, [[0.3, 0.5], [value, 0.5]])}, [4, 4])


def test_block_rows_equal_single_rows():
    # every method takes a (T, m) block and gives each row the bits it gets alone; rows 2 and 3 are
    # an empty set and a set of zero posterior mass, so zero_out counts two fallback rows
    space = enumerate_models(6)
    rng = np.random.default_rng(21)
    logits = rng.standard_normal((5, space.m)) * 3
    logits[3, :4] = -800.0  # exp underflows to 0 on the set of row 3
    post = np.exp(logits - logits.max(axis=1, keepdims=True))
    post /= post.sum(axis=1, keepdims=True)
    member = rng.random((5, space.m)) < 0.3
    member[2] = False
    member[3] = np.arange(space.m) < 4
    sizes = np.count_nonzero(member, axis=1)
    zo = zero_out(post, member, space)
    assert int(zo.fallback) == 2
    blocks = {
        "bvs": bvs_inclusion(post, space),
        "smcs": smcs_inclusion(member, space),
        "zero_out": zo.probs,
    }
    blocks["mixed"] = mixed_inclusion(blocks["bvs"], blocks["smcs"], sizes, space.m)
    for t in range(5):
        rows = {
            "bvs": bvs_inclusion(post[t], space),
            "smcs": smcs_inclusion(member[t], space),
            "zero_out": zero_out(post[t], member[t], space).probs,
        }
        rows["mixed"] = mixed_inclusion(rows["bvs"], rows["smcs"], int(sizes[t]), space.m)
        for name, row in rows.items():
            assert blocks[name].shape == (5, space.p)
            assert blocks[name][t].tobytes() == row.tobytes(), (name, t)
    assert np.isnan(blocks["smcs"][2]).all()
    assert blocks["mixed"][2].tobytes() == blocks["bvs"][2].tobytes()
