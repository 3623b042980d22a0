"""Donation-game payoffs, the relatedness-weighted reward, and dominance checks."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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


def payoff_matrix(params: DilemmaParams) -> np.ndarray:
    """Row player's individual payoff, indexed [own action, other action].

    Action 0 is cooperate and 1 is defect, in every payoff and action array.
    """
    b, c = params.benefit, params.cost
    return np.array([[b - c, -c], [b, 0.0]])


def kin_weighted_payoffs(pm: np.ndarray, weights) -> np.ndarray:
    """``w * pm[other, own] + pm[own, other]`` for each weight ``w`` (unchecked),
    indexed [*weights.shape, own, other]: a row player's payoffs when it credits
    its partner's payoff at ``w``. Every kin-weighted reward is built here."""
    table = np.multiply.outer(weights, pm.T, order="C")  # C order: reshapes are views
    table += pm
    return table


def transformed_matrix(params: DilemmaParams, h: float) -> np.ndarray:
    """Row player's relatedness-weighted payoffs, indexed [own, other]:
    ``kin_weighted_payoffs`` at ``h`` for ``payoff_matrix(params)``. At h=0
    this is the original dilemma; for large enough h mutual cooperation
    becomes the unique equilibrium (a harmony game).
    """
    if not 0.0 <= h <= 1.0:
        raise ValueError(f"relatedness must be in [0, 1], got {h}")
    return kin_weighted_payoffs(payoff_matrix(params), h)


def cooperation_favored(params: DilemmaParams, h: float) -> bool:
    """Whether relatedness makes cooperating strictly dominant (c < h*b).

    Strict: at c = h*b both actions tie and cooperation is reported as
    not favored.
    """
    if not 0.0 <= h <= 1.0:
        raise ValueError(f"relatedness must be in [0, 1], got {h}")
    return params.cost < h * params.benefit
