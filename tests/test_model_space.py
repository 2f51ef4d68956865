import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from seqbvs.errors import SizeLimitError
from seqbvs.model_space import ModelVector, enumerate_models

from oracles import model_bits


def test_enumerate_p2_index_order():
    space = enumerate_models(2)
    assert [space.model(i).bits for i in range(space.m)] == [(0, 0), (1, 0), (0, 1), (1, 1)]


def test_enumerate_p1():
    space = enumerate_models(1)
    assert [space.model(i).bits for i in range(space.m)] == [(0,), (1,)]


def test_enumerate_p10_size():
    assert enumerate_models(10).m == 1024


def test_null_model_is_index_zero():
    space = enumerate_models(4)
    assert space.model(0).bits == (0, 0, 0, 0)
    assert space.model(0).size == 0


@pytest.mark.parametrize("p", [0, -3, 21, 64])
def test_p_out_of_range_rejected(p):
    with pytest.raises(SizeLimitError):
        enumerate_models(p)


@pytest.mark.parametrize("p", [1, 2, 5, 8])
def test_index_roundtrip_exhaustive(p):
    space = enumerate_models(p)
    for i in range(space.m):
        assert space.model(i).index == i


@given(st.integers(min_value=1, max_value=12), st.data())
def test_index_roundtrip_random(p, data):
    i = data.draw(st.integers(min_value=0, max_value=(1 << p) - 1))
    assert enumerate_models(p).model(i).index == i


@pytest.mark.parametrize("p", [1, 3, 6, 10])
def test_balance_property(p):
    space = enumerate_models(p)
    counts = np.array([space.model(i).bits for i in range(space.m)]).sum(axis=0)
    assert np.all(counts == space.m // 2)


@pytest.mark.parametrize("p", [1, 3, 10, 20])
def test_sizes_and_models_match_bits(p):
    space = enumerate_models(p)
    bits = model_bits(p)
    assert space.sizes.shape == (space.m,)
    np.testing.assert_array_equal(space.sizes, bits.sum(axis=1))
    rng = np.random.default_rng(p)
    indices = range(space.m) if p <= 10 else np.concatenate([[0, space.m - 1], rng.integers(space.m, size=200)])
    for i in indices:
        assert space.model(int(i)).bits == tuple(bits[i])


def test_p20_space_holds_no_bits_matrix():
    # an (m, p) uint8 matrix alone is 21 MB at p = 20; the sizes are 1 MB
    import tracemalloc

    tracemalloc.start()
    try:
        enumerate_models(20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6, f"enumerate_models(20) peaked at {peak / 1e6:.1f} MB"


def test_sizes_immutable():
    space = enumerate_models(3)
    with pytest.raises(ValueError):
        space.sizes[0] = 1


def test_model_vector_validation():
    with pytest.raises(ValueError):
        ModelVector(())
    with pytest.raises(ValueError):
        ModelVector((0, 2))
