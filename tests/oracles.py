"""Reference computations that tests compare the program against.

Each one recomputes a quantity the slow, obvious way, independently of the
production path it checks.
"""

import numpy as np

from skipdiff.autodiff import const, where_mask
from skipdiff.exploiter import ExploiterConfig, LatentState, _assert_anchored
from skipdiff.rng import RngStream
from skipdiff.schedule import ScheduledNoise


def forward_diffuse_stepwise(state: LatentState, t: int, schedule: ScheduledNoise,
                             rng: RngStream, cfg: ExploiterConfig) -> LatentState:
    """Compose t effective per-step transitions instead of the closed form.

    The chain is seeded with the level-0 marginal sqrt(a_0) z_0 +
    sqrt(1 - a_0) eps, the state the per-step transitions evolve; composing
    them then lands exactly on the closed-form marginal at level t.
    """
    b = state.z.shape[0]
    if not 1 <= t <= cfg.steps:
        raise IndexError(f"diffusion step outside 1..{cfg.steps}")
    alpha = np.broadcast_to(schedule.alpha_bar_x, (b, cfg.steps + 1))
    a0 = alpha[:, 0][:, None, None]
    x = np.sqrt(a0) * state.z.data + np.sqrt(1.0 - a0) * rng.normal(state.z.shape)
    for s in range(1, t + 1):
        beta = 1.0 - alpha[:, s] / alpha[:, s - 1]
        beta = beta[:, None, None]
        x = np.sqrt(1.0 - beta) * x + np.sqrt(beta) * rng.normal(x.shape)
    z_t = where_mask(state.canvas_mask[..., None], const(x), state.anchor)
    out = LatentState(z=z_t, t=np.full(b, t, dtype=np.int64),
                      condition_mask=state.condition_mask,
                      pad_mask=state.pad_mask, anchor=state.anchor)
    _assert_anchored(out)
    return out


def recompute_log_prob(bits: np.ndarray, probs: np.ndarray) -> float:
    """Direct re-evaluation of one row's log-probability from its probabilities."""
    total = 0.0
    for bit, p in zip(bits, probs):
        total += np.log(p) if bit else np.log1p(-p)
    return float(total)
