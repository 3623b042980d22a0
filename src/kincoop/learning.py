"""Myopic Q-learning: learner settings, the value update, decaying epsilon."""

from __future__ import annotations

from dataclasses import dataclass, replace

# Epsilon level the default decay schedule is calibrated to hit at 80% of
# the step budget; exploration beyond that point is residual.
DECAY_TARGET_EPSILON = 0.01
DECAY_TARGET_FRACTION = 0.8


@dataclass(frozen=True)
class LearnerConfig:
    """Hyperparameters for a single myopic epsilon-greedy Q-learner.

    ``decay=None`` means "derive from the step budget": the schedule is
    chosen so epsilon falls to 0.01 at 80% of the configured number of
    steps (see ``resolve_decay``).
    """

    alpha: float = 1.0
    epsilon0: float = 1.0
    decay: float | None = None
    epsilon_min: float = 0.001
    q_init: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if not 0.0 <= self.epsilon0 <= 1.0:
            raise ValueError("epsilon0 must be in [0, 1]")
        if self.decay is not None and not 0.0 < self.decay <= 1.0:
            raise ValueError("decay must be in (0, 1]")
        if not 0.0 <= self.epsilon_min <= self.epsilon0:
            raise ValueError("epsilon_min must be in [0, epsilon0]")


def resolve_decay(config: LearnerConfig, steps_max: int) -> LearnerConfig:
    """Fill in a budget-derived decay factor when none was given."""
    if config.decay is not None:
        return config
    if steps_max <= 0:
        raise ValueError("steps_max must be positive to derive a decay factor")
    horizon = max(1.0, DECAY_TARGET_FRACTION * steps_max)
    if config.epsilon0 <= DECAY_TARGET_EPSILON:
        return replace(config, decay=1.0)
    return replace(config, decay=(DECAY_TARGET_EPSILON / config.epsilon0) ** (1.0 / horizon))


def q_update(q, reward, alpha: float):
    """One myopic value update; no bootstrap term since the discount is 0.

    The one written form of the update rule: the network kernel applies it
    elementwise to arrays of values, the sandbox policy to single floats.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must be in (0, 1]")
    return q + alpha * (reward - q)


def epsilon_at(config: LearnerConfig, t: int) -> float:
    """Exploration rate at step t: exponential decay with a floor."""
    if t < 0:
        raise ValueError("t must be >= 0")
    if config.decay is None:
        raise ValueError("decay is unresolved; call resolve_decay first")
    return max(config.epsilon_min, config.epsilon0 * config.decay**t)
