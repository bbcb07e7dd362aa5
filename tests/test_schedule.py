import numpy as np
import pytest

from skipdiff.errors import ContractError, ParameterError
from skipdiff.rng import RngStream
from skipdiff.schedule import (ALPHA_CLAMP, BaseSchedule, MetaInstructions,
                               apply_skipping, build_sqrt_schedule,
                               fixed_schedule, schedule_to_csv)


def synthetic_base(betas):
    """Base schedule with hand-picked beta values for pointer tests."""
    betas = np.asarray(betas, dtype=np.float64)
    steps = len(betas)
    alpha_bar = np.empty(steps + 1)
    alpha_bar[0] = 1.0
    alpha_bar[1:] = np.cumprod(1.0 - np.clip(betas, 0.0, 0.999999))
    beta = np.concatenate([[np.nan], betas])
    return BaseSchedule(steps=steps, alpha_bar=alpha_bar, beta=beta)


def test_sqrt_schedule_endpoints():
    sched = build_sqrt_schedule(64, s=1e-4)
    assert sched.alpha_bar[0] == pytest.approx(1.0 - 0.01)
    # 1 - sqrt(1 + s) < 0, so the last level clamps.
    assert sched.alpha_bar[64] == pytest.approx(ALPHA_CLAMP)


def test_sqrt_schedule_monotone():
    sched = build_sqrt_schedule(100)
    assert np.all(np.diff(sched.alpha_bar) < 0)
    assert np.all((sched.beta[1:] > 0) & (sched.beta[1:] < 1))


def test_sqrt_schedule_beta_identity():
    sched = build_sqrt_schedule(32)
    ratio = 1.0 - sched.alpha_bar[1:] / sched.alpha_bar[:-1]
    assert np.allclose(sched.beta[1:], ratio, rtol=0, atol=1e-15)


def test_sqrt_schedule_validation():
    with pytest.raises(ParameterError):
        build_sqrt_schedule(0)
    with pytest.raises(ParameterError):
        build_sqrt_schedule(8, s=0.5)
    with pytest.raises(ParameterError):
        build_sqrt_schedule(8, s=0.0)


def test_skipping_worked_example():
    # advance, hold, advance over base {1, 2, 3} repeats the first value
    base = synthetic_base([1.0, 2.0, 3.0])
    out = apply_skipping(MetaInstructions([True, False, True]), base)
    assert out.beta_pointer[1:].tolist() == [1.0, 1.0, 2.0]


def test_skipping_all_true_is_identity():
    base = build_sqrt_schedule(16)
    out = fixed_schedule(base)
    assert np.array_equal(out.beta_pointer[1:], base.beta[1:])
    assert np.array_equal(out.beta_eff[1:], base.beta[1:])
    assert np.array_equal(out.alpha_bar_x, base.alpha_bar)


def test_skipping_all_false():
    base = build_sqrt_schedule(8)
    out = apply_skipping(MetaInstructions(np.zeros(8, dtype=bool)), base)
    assert np.all(out.beta_pointer[1:] == base.beta[1])
    assert np.all(out.alpha_bar_x[1:] == base.alpha_bar[1])
    assert out.beta_eff[1] == pytest.approx(base.beta[1])
    assert np.all(out.beta_eff[2:] == 0.0)


def test_skipping_length_mismatch():
    base = build_sqrt_schedule(8)
    with pytest.raises(ContractError):
        apply_skipping(MetaInstructions([True] * 7), base)


def test_pointer_trace():
    base = build_sqrt_schedule(4)
    out = apply_skipping(MetaInstructions([True, True, False, True]), base)
    assert out.pointer.tolist() == [0, 1, 2, 2, 3]
    expected = base.alpha_bar[[0, 1, 2, 2, 3]]
    assert np.array_equal(out.alpha_bar_x, expected)


def test_batch_rows_equal_one_row_calls():
    base = build_sqrt_schedule(12)
    bits = RngStream(7).bernoulli(0.5, (6, 12))
    bits[0] = False  # all hold
    bits[1] = True   # all advance
    batch = apply_skipping(MetaInstructions(bits), base)
    assert batch.steps == 12 and batch.pointer.shape == (6, 13)
    for i, row in enumerate(bits):
        one = apply_skipping(MetaInstructions(row), base)
        for name in ("pointer", "alpha_bar_x", "beta_pointer", "beta_eff"):
            assert np.array_equal(getattr(batch, name)[i], getattr(one, name),
                                  equal_nan=True), (i, name)


def test_instructions_must_be_one_or_two_dimensional():
    with pytest.raises(ContractError):
        MetaInstructions(np.ones((2, 3, 4), dtype=bool))
    with pytest.raises(ContractError):
        MetaInstructions(True)


def test_final_pointer_counts_trues():
    base = build_sqrt_schedule(12)
    rng = RngStream(99)
    for _ in range(30):
        bits = rng.bernoulli(0.4, (12,))
        out = apply_skipping(MetaInstructions(bits), base)
        expected = min(max(int(bits.sum()), 1), 12)
        assert out.pointer[-1] == expected
        assert out.alpha_bar_x[-1] == base.alpha_bar[expected]


def test_flip_false_to_true_weakly_decreases_signal():
    base = build_sqrt_schedule(10)
    rng = RngStream(53)
    for _ in range(20):
        bits = rng.bernoulli(0.5, (10,))
        if bits.all():
            bits[3] = False
        before = apply_skipping(MetaInstructions(bits), base).alpha_bar_x
        flip = bits.copy()
        flip[np.flatnonzero(~bits)[0]] = True
        after = apply_skipping(MetaInstructions(flip), base).alpha_bar_x
        assert np.all(after <= before + 1e-15)


def test_length_preserved():
    base = build_sqrt_schedule(6)
    out = apply_skipping(MetaInstructions([False, True, False, True, True, False]), base)
    assert out.steps == 6
    assert len(out.beta_eff) == 7 and len(out.alpha_bar_x) == 7


def test_csv_export_shape():
    base = build_sqrt_schedule(3)
    bits = np.array([[True, True, True], [True, False, True]])
    sched = apply_skipping(MetaInstructions(bits), base)
    lines = schedule_to_csv(sched).strip().splitlines()
    assert lines[0] == "sentence,t,pointer,beta_pointer,alpha_bar_x,beta_eff"
    assert len(lines) == 1 + 2 * 3 + 3
    first = lines[1].split(",")
    assert first[:3] == ["0", "1", "1"]
    assert float(first[3]) == pytest.approx(base.beta[1])
    assert lines[5].split(",")[:3] == ["1", "2", "1"]
    mean = lines[8].split(",")
    assert mean[:2] == ["mean", "2"] and float(mean[2]) == 1.5
