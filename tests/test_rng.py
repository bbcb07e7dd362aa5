import numpy as np

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


def test_integers_range():
    vals = RngStream(3).integers(2, 9, (5_000,))
    assert vals.min() >= 2 and vals.max() <= 8
    assert set(np.unique(vals)) == set(range(2, 9))


def test_bernoulli_rate():
    bits = RngStream(11).bernoulli(0.25, (20_000,))
    assert abs(bits.mean() - 0.25) < 0.02


def test_shuffle_index_is_permutation():
    idx = RngStream(17).shuffle_index(50)
    assert sorted(idx.tolist()) == list(range(50))
