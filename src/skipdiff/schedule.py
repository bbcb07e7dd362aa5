"""Square-root base noise schedule and the instruction-driven skipping
transform that contextualizes it per sentence.

A True instruction at step t advances a pointer into the base schedule; a
False repeats the previous pointer, so no additional noise enters at that
step. Two views of the result coexist: ``beta_pointer`` (the literal
repeated base values, used for reporting and visualization) and the
cumulative ``alpha_bar_x`` / per-step ``beta_eff`` pair that diffusion
sampling actually consumes. They agree whenever the pointer advances and
differ only in how a stalled pointer is read.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ParameterError

ALPHA_CLAMP = 1e-5


@dataclass(frozen=True)
class BaseSchedule:
    """Fixed schedule: alpha_bar indexed 0..T, beta indexed 1..T (beta[0] unused)."""

    steps: int
    alpha_bar: np.ndarray
    beta: np.ndarray


@dataclass(frozen=True)
class MetaInstructions:
    """Per-step boolean advance/hold decisions: ``[T]`` for one sentence or
    ``[B, T]`` for a batch, one row per sentence."""

    bits: np.ndarray

    def __init__(self, bits):
        arr = np.asarray(bits, dtype=bool)
        if arr.ndim not in (1, 2):
            raise ContractError("instructions must be a [T] or [B, T] boolean array")
        object.__setattr__(self, "bits", arr)

    @property
    def steps(self) -> int:
        return self.bits.shape[-1]

    @classmethod
    def all_true(cls, steps: int) -> "MetaInstructions":
        return cls(np.ones(steps, dtype=bool))


@dataclass(frozen=True)
class ScheduledNoise:
    """Contextualized schedule produced by skipping over a base schedule.

    Each array is ``[T+1]`` (one schedule shared by every row, as
    ``fixed_schedule`` gives) or ``[B, T+1]`` (one schedule per row), and is
    indexed by step on its last axis.
    """

    steps: int
    pointer: np.ndarray       # int, indexed 0..T, pointer[..., 0] == 0
    alpha_bar_x: np.ndarray   # indexed 0..T
    beta_pointer: np.ndarray  # indexed 1..T (entry 0 unused)
    beta_eff: np.ndarray      # indexed 1..T (entry 0 unused)

    def rows(self, rows: slice) -> "ScheduledNoise":
        """The schedules of a run of rows; a shared schedule is its own."""
        if self.pointer.ndim == 1:
            return self
        return ScheduledNoise(self.steps, self.pointer[rows], self.alpha_bar_x[rows],
                              self.beta_pointer[rows], self.beta_eff[rows])


def build_sqrt_schedule(steps: int, s: float = 1e-4) -> BaseSchedule:
    """alpha_bar_t = clamp(1 - sqrt(t/T + s)); beta_t = 1 - ratio of alpha_bars."""
    if steps < 1:
        raise ParameterError(f"step count must be >= 1, got {steps}")
    if not (0.0 < s <= 0.01):
        raise ParameterError(f"s must lie in (0, 0.01], got {s}")
    t = np.arange(steps + 1, dtype=np.float64)
    alpha_bar = np.clip(1.0 - np.sqrt(t / steps + s), ALPHA_CLAMP, 1.0 - ALPHA_CLAMP)
    beta = np.empty(steps + 1, dtype=np.float64)
    beta[0] = np.nan  # index 0 is not a diffusion step
    beta[1:] = 1.0 - alpha_bar[1:] / alpha_bar[:-1]
    return BaseSchedule(steps=steps, alpha_bar=alpha_bar, beta=beta)


def apply_skipping(instructions: MetaInstructions, base: BaseSchedule) -> ScheduledNoise:
    """Turn advance/hold instructions into contextualized schedules, one per
    row of ``instructions.bits`` (or a single one for ``[T]`` bits).

    The pointer is clamped to at least 1 from the first step onward, so a
    leading False still consumes beta_1 and the first transition stays
    well defined.
    """
    if instructions.steps != base.steps:
        raise ContractError(
            f"instruction length {instructions.steps} != schedule steps {base.steps}")
    steps = base.steps
    shape = instructions.bits.shape[:-1] + (steps + 1,)
    pointer = np.zeros(shape, dtype=np.int64)
    pointer[..., 1:] = np.maximum(np.cumsum(instructions.bits, axis=-1, dtype=np.int64), 1)
    alpha_bar_x = base.alpha_bar[pointer]
    beta_pointer = np.empty(shape, dtype=np.float64)
    beta_pointer[..., 0] = np.nan
    beta_pointer[..., 1:] = base.beta[pointer[..., 1:]]
    beta_eff = np.empty(shape, dtype=np.float64)
    beta_eff[..., 0] = np.nan
    beta_eff[..., 1:] = 1.0 - alpha_bar_x[..., 1:] / alpha_bar_x[..., :-1]
    # A stalled pointer repeats the same alpha_bar; force the effective
    # noise to exactly zero rather than leaving rounding residue.
    beta_eff[..., 1:][pointer[..., 1:] == pointer[..., :-1]] = 0.0
    return ScheduledNoise(steps=steps, pointer=pointer, alpha_bar_x=alpha_bar_x,
                          beta_pointer=beta_pointer, beta_eff=beta_eff)


def fixed_schedule(base: BaseSchedule) -> ScheduledNoise:
    """The base schedule expressed as an all-True contextualized one."""
    return apply_skipping(MetaInstructions.all_true(base.steps), base)


def schedule_to_csv(schedule: ScheduledNoise) -> str:
    """The ``export-schedule`` CSV of a ``[B, T+1]`` schedule: one row per
    sentence and step, then one ``mean`` row per step."""
    columns = (schedule.pointer, schedule.beta_pointer, schedule.alpha_bar_x,
               schedule.beta_eff)
    buf = io.StringIO()
    buf.write("sentence,t,pointer,beta_pointer,alpha_bar_x,beta_eff\n")
    for i in range(schedule.pointer.shape[0]):
        for t in range(1, schedule.steps + 1):
            values = ",".join(repr(float(col[i, t])) for col in columns[1:])
            buf.write(f"{i},{t},{int(schedule.pointer[i, t])},{values}\n")
    means = [col[:, 1:].mean(axis=0) for col in columns]
    for t in range(schedule.steps):
        values = ",".join(repr(float(m[t])) for m in means)
        buf.write(f"mean,{t + 1},{values}\n")
    return buf.getvalue()
