import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from skipdiff.errors import ParameterError
from skipdiff.rng import RngStream


def test_replay_is_identical():
    a = RngStream(42)
    first = a.normal((16,))
    second = a.normal((16,))
    assert not np.array_equal(first, second)
    replay = RngStream(42)
    assert np.array_equal(replay.normal((16,)), first)
    assert np.array_equal(replay.normal((16,)), second)


def test_position_semantics():
    a = RngStream(7)
    a.normal((3, 5))
    assert a.position == 15
    b = RngStream(7, position=15)
    tail = RngStream(7)
    tail.normal((15,))
    assert np.array_equal(b.normal((4,)), tail.normal((4,)))


def test_gaussian_moments():
    draws = RngStream(123).normal((100_000,))
    assert abs(draws.mean()) < 0.02
    assert abs(draws.var() - 1.0) < 0.02


def test_empty_shape():
    out = RngStream(5).normal([0])
    assert out.shape == (0,)


def test_uniform_bounds():
    u = RngStream(9).uniform((10_000,))
    assert u.min() >= 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.02


def test_fork_independence_and_stability():
    root = RngStream(1000)
    child_a = root.fork("epoch", 0)
    child_b = root.fork("epoch", 1)
    assert child_a.seed != child_b.seed
    assert not np.array_equal(child_a.normal((8,)), child_b.normal((8,)))
    # Fork identity does not depend on the parent's position.
    root.normal((100,))
    again = root.fork("epoch", 0)
    assert again.seed == child_a.seed


@pytest.mark.parametrize("key", [(), ("a", "b"), (3,), (3, "a"), ("a", 1.0),
                                 ("a", True), (b"ab",)])
def test_fork_rejects_a_key_that_is_not_one_str_and_ints(key):
    # fork("a", "b") hashed the same bytes as fork("ab")
    with pytest.raises(ParameterError, match="one str followed by ints"):
        RngStream(1).fork(*key)


def test_integers_range():
    vals = RngStream(3).integers(2, 9, (5_000,))
    assert vals.min() >= 2 and vals.max() <= 8
    assert set(np.unique(vals)) == set(range(2, 9))


def test_shuffle_index_is_permutation():
    idx = RngStream(17).shuffle_index(50)
    assert sorted(idx.tolist()) == list(range(50))


def test_draws_are_pinned_bit_for_bit():
    # float.hex of draws recorded before the in-place Box-Muller rewrite;
    # replay on any platform must reproduce them exactly
    rng = RngStream(20241019)
    assert [float(x).hex() for x in rng.normal((3,))] == [
        "0x1.0b9c6b8fa9317p-2", "0x1.152342ec322d1p+0", "-0x1.6b25c4f58dd39p-1"]
    assert [float(x).hex() for x in rng.uniform((3,))] == [
        "0x1.390064d409046p-1", "0x1.b80af4ef69930p-3", "0x1.6388a07c36dc0p-1"]
    assert rng.integers(0, 1000, (3,)).tolist() == [160, 255, 292]
    assert rng.position == 9
    child = rng.fork("epoch", 3)
    assert child.seed == 0x4E214E6087A84689
    assert [float(x).hex() for x in child.normal((2,))] == [
        "-0x1.1494aba437e47p+1", "0x1.bdc5b9fb997c2p-6"]


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), start=st.integers(0, 10**6),
       steps=st.integers(0, 12), n=st.integers(0, 12))
def test_one_block_of_uniforms_equals_successive_rows(seed, start, steps, n):
    block_rng, row_rng = RngStream(seed, start), RngStream(seed, start)
    block = block_rng.uniform((steps, n))
    rows = [row_rng.uniform((n,)) for _ in range(steps)]
    assert block.shape == (steps, n)
    assert np.array_equal(block, np.array(rows).reshape(steps, n))
    assert block_rng.position == row_rng.position == start + steps * n


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), start=st.integers(0, 2000),
       n=st.integers(0, 40), kind=st.sampled_from(["normal", "uniform"]))
def test_draw_from_a_position_equals_that_slice_of_a_draw_from_zero(seed, start, n,
                                                                     kind):
    whole = getattr(RngStream(seed), kind)((start + n,))
    part = getattr(RngStream(seed, start), kind)((n,))
    assert np.array_equal(part, whole[start:start + n])


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), drawn=st.integers(1, 10**6),
       tag=st.text(max_size=6),
       ints=st.lists(st.integers(-2**63, 2**63 - 1), max_size=2))
def test_fork_does_not_depend_on_the_parents_position(seed, drawn, tag, ints):
    key = (tag, *ints)
    fresh = RngStream(seed)
    moved = RngStream(seed, position=drawn)
    a, b = fresh.fork(*key), moved.fork(*key)
    assert a.seed == b.seed and a.position == b.position == 0
    assert np.array_equal(a.normal((4,)), b.normal((4,)))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**64 - 1),
       keys=st.lists(st.tuples(st.sampled_from(["epoch", "probe", "train-diff"]),
                               st.integers(0, 10**4)),
                     min_size=2, max_size=6, unique=True))
def test_distinct_keys_give_distinct_streams(seed, keys):
    root = RngStream(seed)
    streams = [root.fork(*key) for key in keys]
    assert len({s.seed for s in streams}) == len(keys)
    draws = [s.uniform((4,)).tobytes() for s in streams]
    assert len(set(draws)) == len(keys)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), start=st.integers(0, 10**6),
       shape=st.lists(st.integers(0, 5), min_size=1, max_size=3),
       per_element=st.booleans(), data=st.data())
def test_masked_normal_is_the_full_draw_masked(seed, start, shape, per_element, data):
    # the mask covers every element, or broadcasts along the last axis
    mask_shape = shape if per_element else shape[:-1] + [1]
    size = int(np.prod(mask_shape))
    mask = np.array(data.draw(st.lists(st.booleans(), min_size=size, max_size=size)),
                    dtype=bool).reshape(mask_shape)
    masked_rng, full_rng = RngStream(seed, start), RngStream(seed, start)
    masked = masked_rng.normal(shape, where=mask)
    expected = np.where(mask, full_rng.normal(shape), 0.0)
    assert masked.shape == tuple(shape) and masked.dtype == np.float64
    assert masked.tobytes() == expected.tobytes()
    assert masked_rng.position == full_rng.position == start + int(np.prod(shape))
