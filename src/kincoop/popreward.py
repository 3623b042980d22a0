"""Population-level rewards over birth/death traces, plus a minimal sandbox.

The three reward signals value the survival of an agent's genetic material:
counting distinct related genotypes alive (longevity), similarity-weighted
births minus deaths (replication), and similarity-weighted living copies
(combined). The sandbox generates traces that exercise all three on dynamic
populations: health decays one point per step, food replenishes it, and
reproduction hands a quarter of the parent's health to a mutated child.
"""

from __future__ import annotations

import copy
import csv
import functools
import math
import operator
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional, Protocol, TextIO

import numpy as np

from .genotype import (
    Genotype, GenotypeSpace, MutationSpec, format_genotype, hamming_similarity, match_matrix, mutate,
)
from .ioutil import fmt
from .learning import LearnerConfig, epsilon_at, q_update


@dataclass(frozen=True)
class PopulationState:
    """Multiset of (agent id, genotype) pairs alive at one time step."""

    alive: tuple[tuple[int, Genotype], ...]

    def __post_init__(self):
        ids = [aid for aid, _ in self.alive]
        if len(ids) != len(set(ids)):
            raise ValueError("agent ids must be unique within a state")

    @property
    def unique_genotypes(self) -> frozenset[Genotype]:
        return frozenset(g for _, g in self.alive)

    def __len__(self) -> int:
        return len(self.alive)


def _left_sum(terms: Iterable[float]) -> float:
    """Add ``terms`` to 0.0 left to right, rounding after each addition: the
    bits of built-in ``sum`` up to Python 3.11, which from 3.12 on compensates
    float rounding and would make rewards, and a learner's choices, vary with it."""
    return functools.reduce(operator.add, terms, 0.0)


class RewardTriple(NamedTuple):
    longevity: float
    replication: float
    combined: float


def longevity_reward(me: Genotype, state: PopulationState) -> float:
    """Sum of similarities to the distinct genotypes alive.

    Each genotype counts once no matter how many agents carry it: one
    living copy is enough for the information to persist.
    """
    return _left_sum(hamming_similarity(me, g) for g in state.unique_genotypes)


def combined_reward(me: Genotype, state: PopulationState) -> float:
    """Sum of similarities to every living agent, copies included."""
    return _left_sum(hamming_similarity(me, g) for _, g in state.alive)


def replication_reward(
    me: Genotype, prev: PopulationState, curr: PopulationState
) -> float:
    """Similarity-weighted births minus deaths between consecutive states.

    Computed from the id-level birth/death events, which makes it equal to
    the change in the combined reward without being derived from it.
    """
    prev_ids = {aid for aid, _ in prev.alive}
    curr_ids = {aid for aid, _ in curr.alive}
    born = _left_sum(hamming_similarity(me, g) for aid, g in curr.alive if aid not in prev_ids)
    died = _left_sum(hamming_similarity(me, g) for aid, g in prev.alive if aid not in curr_ids)
    return born - died


def _step_rewards(
    curr: PopulationState, born: list[Genotype], died: list[Genotype], loci: int
) -> dict[int, RewardTriple]:
    """All three rewards of every agent alive in ``curr``, given the genotypes
    of the step's births and deaths in the order the trace records them.

    Agents that share a genotype share a reward, so each ``RewardTriple``
    is computed once per distinct genotype, from one match matrix of the G
    distinct genotypes alive against those G, the B births and the D deaths:
    one transient G × (G + B + D) × loci comparison per step, whatever the
    size of the genotype space. The floats are exactly those of the
    per-agent free functions summed in ``Counter`` order: each count is
    divided once by ``loci`` as ``hamming_similarity`` divides it, and the
    same terms go through the same ``_left_sum``, because a learning policy
    compares these values and a one-ulp change would alter its choices.
    """
    counts = Counter(g for _, g in curr.alive)
    genotypes, copies = list(counts), list(counts.values())
    n_alive, born_end = len(genotypes), len(genotypes) + len(born)
    arr = np.array(genotypes + born + died, dtype=np.int64).reshape(-1, loci)
    sims = (match_matrix(arr[:n_alive], arr) / loci).tolist()
    by_genotype: dict[Genotype, RewardTriple] = {}
    for g, row in zip(genotypes, sims):
        alive = row[:n_alive]
        r_long = _left_sum(alive)
        r_comb = _left_sum(map(operator.mul, copies, alive))
        r_repl = _left_sum(row[n_alive:born_end]) - _left_sum(row[born_end:])
        by_genotype[g] = RewardTriple(r_long, r_repl, r_comb)
    return {aid: by_genotype[g] for aid, g in curr.alive}


# ---------------------------------------------------------------------------
# Sandbox
# ---------------------------------------------------------------------------

@dataclass
class SandboxAgent:
    agent_id: int
    genotype: Genotype
    health: float


class ReproductionPolicy(Protocol):
    """Decides, per living agent and step, whether to reproduce."""

    def decide(self, agent: SandboxAgent, rng: np.random.Generator) -> bool: ...

    def feedback(self, agent_id: int, reproduced: bool, rewards: RewardTriple) -> None: ...


class RandomPolicy:
    """Reproduces with a fixed per-step probability."""

    def __init__(self, p: float):
        if not 0.0 <= p <= 1.0:
            raise ValueError("p must be in [0, 1]")
        self.p = p

    def decide(self, agent, rng):
        return bool(rng.random() < self.p)

    def feedback(self, agent_id, reproduced, rewards):
        pass


class ThresholdPolicy:
    """Reproduces whenever health is at or above a threshold. Health is
    finite, so a threshold of +inf never reproduces and -inf always does."""

    def __init__(self, min_health: float):
        self.min_health = min_health

    def decide(self, agent, rng):
        return agent.health >= self.min_health

    def feedback(self, agent_id, reproduced, rewards):
        pass


class QReproductionPolicy:
    """Single-state myopic Q-learner over {reproduce, idle}, one per agent.

    Optimizes one of the three population rewards, chosen by name. Each
    agent explores on its own clock, starting at its birth. ``tables`` maps
    an agent id to ``[value of reproducing, value of idling, steps taken]``.
    """

    REWARD_KINDS = ("longevity", "replication", "combined")

    def __init__(self, learner: LearnerConfig, reward_kind: str = "combined"):
        if learner.decay is None:
            raise ValueError("learner decay must be resolved for the sandbox policy")
        if reward_kind not in self.REWARD_KINDS:
            raise ValueError(f"reward_kind must be one of {self.REWARD_KINDS}")
        self.learner = learner
        self.reward_kind = reward_kind
        self.tables: dict[int, list] = {}

    def decide(self, agent, rng):
        q0 = self.learner.q_init
        entry = self.tables.setdefault(agent.agent_id, [q0, q0, 0])
        q_reproduce, q_idle, t = entry
        entry[2] = t + 1
        # explore, else act greedily; a coin (0 = reproduce) breaks exact ties so
        # the all-equal start carries no first-action bias
        if rng.random() < epsilon_at(self.learner, t):
            return int(rng.integers(2)) == 0
        if q_reproduce > q_idle:
            return True
        if q_idle > q_reproduce:
            return False
        return int(rng.integers(2)) == 0

    def feedback(self, agent_id, reproduced, rewards):
        entry = self.tables.get(agent_id)
        if entry is None:
            return
        k = 0 if reproduced else 1
        entry[k] = q_update(entry[k], getattr(rewards, self.reward_kind), self.learner.alpha)


@dataclass(frozen=True)
class SandboxConfig:
    space: GenotypeSpace
    initial_genotype: Genotype
    mutation: MutationSpec
    initial_health: float
    food_rate: int
    steps: int
    policy: ReproductionPolicy

    def __post_init__(self):
        if self.initial_health <= 0:
            raise ValueError("initial_health must be > 0")
        if not math.isfinite(self.initial_health):
            raise ValueError(f"initial_health must be finite, got {self.initial_health}")
        if self.food_rate < 0:
            raise ValueError("food_rate must be >= 0")
        if self.steps < 0:
            raise ValueError("steps must be >= 0")
        if not self.space.contains(self.initial_genotype):
            raise ValueError("initial_genotype must belong to the genotype space")


@dataclass
class PopulationTrace:
    """Time-ordered population states with the events that connect them.

    ``states[0]`` is the initial population; step t produced ``states[t]``.
    ``healths[t]`` aligns with ``states[t].alive``. Deaths record each
    agent's final (non-positive) health so energy bookkeeping stays exact.
    ``rewards[t - 1]`` maps every agent alive in ``states[t]`` to its rewards.
    """

    states: list[PopulationState]
    healths: list[tuple[float, ...]]
    births: list[tuple[tuple[int, Genotype], ...]]
    deaths: list[tuple[tuple[int, Genotype, float], ...]]
    food_consumed: list[float]
    pop_before: list[int]
    rewards: list[dict[int, RewardTriple]]
    extinct_at: Optional[int] = None

    @property
    def steps(self) -> int:
        return len(self.states) - 1


def run_sandbox(config: SandboxConfig, rng: np.random.Generator) -> PopulationTrace:
    """Generate a birth/death trace under the sandbox dynamics.

    Per step: one health point decays; food units land on uniformly random
    living agents (+1 health each, capped at the initial level, so a unit
    can arrive partially or be wasted); the policy decides reproduction,
    which moves exactly a quarter of the parent's current health to a
    mutated child (skipped if that share would not be positive); agents at
    or below zero health are then removed. Extinction ends the trace early.

    Rewards for all three signals are recorded every step; agents that
    acted receive their chosen reward back through the policy's feedback
    hook, so learning policies train online. The run works on a copy of
    ``config.policy``, so a learning policy starts fresh every call and the
    same config and seed always give the same trace.
    """
    policy = copy.deepcopy(config.policy)
    agents: dict[int, SandboxAgent] = {
        0: SandboxAgent(0, config.initial_genotype, float(config.initial_health))
    }
    next_id = 1

    def snapshot() -> tuple[PopulationState, tuple[float, ...]]:
        alive = tuple((a.agent_id, a.genotype) for a in agents.values())
        return PopulationState(alive), tuple(a.health for a in agents.values())

    state0, health0 = snapshot()
    trace = PopulationTrace(
        states=[state0],
        healths=[health0],
        births=[],
        deaths=[],
        food_consumed=[],
        pop_before=[],
        rewards=[],
    )
    for t in range(1, config.steps + 1):
        living = list(agents.values())
        trace.pop_before.append(len(living))

        for a in living:
            a.health -= 1.0

        consumed = 0.0
        if config.food_rate > 0:
            targets = rng.integers(0, len(living), size=config.food_rate)
            for idx in targets:
                a = living[int(idx)]
                gain = min(1.0, config.initial_health - a.health)
                if gain > 0:
                    a.health += gain
                    consumed += gain
        trace.food_consumed.append(consumed)

        decisions: dict[int, bool] = {}
        newborns: list[SandboxAgent] = []
        for a in living:
            reproduced = False
            if policy.decide(a, rng):
                share = a.health / 4.0
                if share > 0:
                    a.health -= share
                    child = SandboxAgent(
                        next_id, mutate(a.genotype, config.mutation, config.space, rng), share
                    )
                    newborns.append(child)
                    next_id += 1
                    reproduced = True
            decisions[a.agent_id] = reproduced
        for child in newborns:
            agents[child.agent_id] = child

        dead = [(a.agent_id, a.genotype, a.health) for a in agents.values() if a.health <= 0]
        for aid, _, _ in dead:
            del agents[aid]

        state, healths = snapshot()
        trace.states.append(state)
        trace.healths.append(healths)
        trace.births.append(tuple((c.agent_id, c.genotype) for c in newborns))
        trace.deaths.append(tuple(dead))

        # a newborn never dies in its birth step: its health is a positive share
        step_rewards = _step_rewards(
            state, [c.genotype for c in newborns], [g for _, g, _ in dead], config.space.loci
        )
        trace.rewards.append(step_rewards)
        for aid, reproduced in decisions.items():
            if aid in step_rewards:
                policy.feedback(aid, reproduced, step_rewards[aid])

        if not agents:
            trace.extinct_at = t
            break

    return trace


def replication_identity_error(trace: PopulationTrace) -> float:
    """Worst mismatch between the two replication-reward routes.

    Compares each agent's recorded replication reward, built from id-level
    birth and death events, with the step-to-step change in its combined
    reward, built from the states alone. Both describe the same quantity,
    so anything beyond float noise indicates a bookkeeping bug.

    The state side is exact: the integer change ``Σ_u now_u · matches(g, u) -
    Σ_u before_u · matches(g, u)`` of a state's G distinct genotypes is one
    int64 product of their match matrix against them and the previous
    state's G' distinct genotypes, and it is divided by ``loci`` once. Cost
    is one transient G × (G + G') × loci comparison per step, not O(pop²).
    """
    worst = 0.0
    prev = Counter(g for _, g in trace.states[0].alive)
    for t in range(1, len(trace.states)):
        curr = trace.states[t]
        counts = Counter(g for _, g in curr.alive)
        if counts:
            arr = np.array([*counts, *prev], dtype=np.int64)
            weights = np.array([*counts.values(), *(-c for c in prev.values())], dtype=np.int64)
            change = match_matrix(arr[: len(counts)], arr) @ weights
            delta = dict(zip(counts, (change / arr.shape[1]).tolist()))
            step = trace.rewards[t - 1]
            for aid, g in curr.alive:
                worst = max(worst, abs(step[aid].replication - delta[g]))
        prev = counts
    return worst


def write_trace_csv(trace: PopulationTrace, stream: TextIO) -> None:
    """Per-step records: survivors and newborns, then deaths with final health."""
    writer = csv.writer(stream)
    writer.writerow(["t", "agent_id", "genotype", "health", "event"])
    for t in range(1, len(trace.states)):
        state, healths = trace.states[t], trace.healths[t]
        born = {aid for aid, _ in trace.births[t - 1]}
        for (aid, g), health in zip(state.alive, healths):
            event = "birth" if aid in born else "none"
            writer.writerow([t, aid, format_genotype(g), fmt(health), event])
        for aid, g, final_health in trace.deaths[t - 1]:
            writer.writerow([t, aid, format_genotype(g), fmt(final_health), "death"])


def write_rewards_csv(trace: PopulationTrace, stream: TextIO) -> None:
    """Reward streams per step and living agent, all three signals."""
    writer = csv.writer(stream)
    writer.writerow(["t", "agent_id", "r_longevity", "r_replication", "r_combined"])
    for t_idx, step_rewards in enumerate(trace.rewards):
        state = trace.states[t_idx + 1]
        for aid, _ in state.alive:
            triple = step_rewards[aid]
            writer.writerow(
                [t_idx + 1, aid, fmt(triple.longevity), fmt(triple.replication), fmt(triple.combined)]
            )
