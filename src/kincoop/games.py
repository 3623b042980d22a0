"""Donation-game payoffs, the relatedness-weighted reward, and dominance checks."""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import NamedTuple, Sequence

import numpy as np


class Action(IntEnum):
    COOPERATE = 0
    DEFECT = 1


@dataclass(frozen=True)
class DilemmaParams:
    """Benefit/cost pair defining the dilemma; requires b > c > 0."""

    benefit: float
    cost: float

    def __post_init__(self):
        if not (self.benefit > self.cost > 0):
            raise ValueError(
                f"need benefit > cost > 0 for a dilemma, got b={self.benefit}, c={self.cost}"
            )

    @property
    def cost_benefit_ratio(self) -> float:
        return self.cost / self.benefit


class PayoffPair(NamedTuple):
    p_self: float
    p_other: float


def payoff_matrix(params: DilemmaParams) -> np.ndarray:
    """Row player's individual payoff, indexed [own action, other action]."""
    b, c = params.benefit, params.cost
    return np.array([[b - c, -c], [b, 0.0]])


def pd_payoffs(a_i: Action, a_j: Action, params: DilemmaParams) -> PayoffPair:
    """Individual payoffs to both players for one simultaneous interaction."""
    m = payoff_matrix(params)
    return PayoffPair(float(m[a_i, a_j]), float(m[a_j, a_i]))


def inclusive_pairwise_reward(p: PayoffPair, h: float) -> float:
    """Own payoff plus the opponent's payoff weighted by relatedness ``h``."""
    if not 0.0 <= h <= 1.0:
        raise ValueError(f"relatedness must be in [0, 1], got {h}")
    return p.p_self + h * p.p_other


def inclusive_reward_vector(
    payoffs: Sequence[float], similarities: Sequence[float], self_index: int
) -> float:
    """Similarity-weighted sum of all agents' payoffs from one agent's viewpoint.

    ``similarities`` is that agent's row of the similarity matrix; the
    self entry carries weight 1, so the result is the agent's own payoff
    plus the relatedness-weighted payoffs of everyone else.
    """
    payoffs = np.asarray(payoffs, dtype=float)
    similarities = np.asarray(similarities, dtype=float)
    if payoffs.shape != similarities.shape:
        raise ValueError(
            f"payoff vector of length {payoffs.shape} does not match "
            f"similarity row of length {similarities.shape}"
        )
    if not 0 <= self_index < len(payoffs):
        raise ValueError(f"self_index {self_index} out of range")
    if not np.isclose(similarities[self_index], 1.0):
        raise ValueError("self-similarity must be 1")
    return float(similarities @ payoffs)


def transformed_matrix(params: DilemmaParams, h: float) -> np.ndarray:
    """Row player's relatedness-weighted payoffs, indexed [own, other].

    At h=0 this is the original dilemma; for large enough h mutual
    cooperation becomes the unique equilibrium (a harmony game).
    """
    if not 0.0 <= h <= 1.0:
        raise ValueError(f"relatedness must be in [0, 1], got {h}")
    b, c = params.benefit, params.cost
    return np.array([[(b - c) * (1 + h), -c + h * b], [b - h * c, 0.0]])


def cooperation_favored(params: DilemmaParams, h: float) -> bool:
    """Whether relatedness makes cooperating strictly dominant (c < h*b).

    Strict: at c = h*b both actions tie and cooperation is reported as
    not favored.
    """
    if not 0.0 <= h <= 1.0:
        raise ValueError(f"relatedness must be in [0, 1], got {h}")
    return params.cost < h * params.benefit
