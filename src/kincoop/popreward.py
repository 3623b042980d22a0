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
import operator
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple, Optional, Protocol, TextIO

import numpy as np

from .genotype import Genotype, GenotypeSpace, MutationSpec, hamming_similarity, match_count, mutate
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


class RewardTriple(NamedTuple):
    longevity: float
    replication: float
    combined: float


def longevity_reward(me: Genotype, state: PopulationState) -> float:
    """Sum of similarities to the distinct genotypes alive.

    Each genotype counts once no matter how many agents carry it: one
    living copy is enough for the information to persist.
    """
    return float(sum(hamming_similarity(me, g) for g in state.unique_genotypes))


def combined_reward(me: Genotype, state: PopulationState) -> float:
    """Sum of similarities to every living agent, copies included."""
    return float(sum(hamming_similarity(me, g) for _, g in state.alive))


def replication_reward(
    me: Genotype, prev: PopulationState, curr: PopulationState
) -> float:
    """Similarity-weighted births minus deaths between consecutive states.

    Computed from the id-level birth/death events, which makes it equal to
    the change in the combined reward without being derived from it.
    """
    prev_ids = {aid for aid, _ in prev.alive}
    curr_ids = {aid for aid, _ in curr.alive}
    born = sum(hamming_similarity(me, g) for aid, g in curr.alive if aid not in prev_ids)
    died = sum(hamming_similarity(me, g) for aid, g in prev.alive if aid not in curr_ids)
    return float(born - died)


class _MatchCounts:
    """Integer locus-match counts between genotypes, filled lazily.

    Genotypes get dense ids in the order first seen, and a pair's count is
    computed the first time it is asked for, so memory grows with the pairs
    that actually meet, never with the size of the genotype space. The
    float similarity ``matches / loci`` is kept beside each count; it is
    bit-for-bit what ``hamming_similarity`` returns.
    """

    def __init__(self):
        self._ids: dict[Genotype, int] = {}
        self._genotypes: list[Genotype] = []
        self._counts: list[dict[int, int]] = []
        self._sims: list[dict[int, float]] = []

    def index(self, g: Genotype) -> int:
        i = self._ids.get(g)
        if i is None:
            i = self._ids[g] = len(self._genotypes)
            self._genotypes.append(g)
            self._counts.append({})
            self._sims.append({})
        return i

    def census(self, state: PopulationState):
        """Distinct genotypes of ``state``, their ids and copy counts, in ``Counter`` order."""
        counts = Counter(g for _, g in state.alive)
        return list(counts), [self.index(g) for g in counts], list(counts.values())

    def _fill(self, i: int, js: list[int]) -> None:
        a, counts, sims = self._genotypes[i], self._counts[i], self._sims[i]
        for j in js:
            if j not in counts:
                m = match_count(a, self._genotypes[j])
                counts[j] = self._counts[j][i] = m
                sims[j] = self._sims[j][i] = m / len(a)

    def _lookup(self, table: list[dict], i: int, js: list[int]) -> list:
        try:
            return list(map(table[i].__getitem__, js))
        except KeyError:
            self._fill(i, js)
            return list(map(table[i].__getitem__, js))

    def matches(self, i: int, js: list[int]) -> list[int]:
        """Match counts of genotype ``i`` against each id in ``js``, in order."""
        return self._lookup(self._counts, i, js)

    def similarities(self, i: int, js: list[int]) -> list[float]:
        """Hamming similarities of genotype ``i`` to each id in ``js``, in order."""
        return self._lookup(self._sims, i, js)


def _step_rewards(
    curr: PopulationState, born: list[Genotype], died: list[Genotype], matches: _MatchCounts
) -> dict[int, RewardTriple]:
    """All three rewards of every agent alive in ``curr``, given the genotypes
    of the step's births and deaths in the order the trace records them.

    Agents that share a genotype share a reward, so each ``RewardTriple``
    is computed once per distinct genotype: O(G·(G + B + D)) similarity
    lookups per step for G distinct genotypes alive, B births and D deaths,
    instead of O(pop·(G + B + D)). The floats are exactly those of the
    per-agent free functions summed in ``Counter`` order: the same terms
    go through the same left-to-right ``sum``, because a learning policy
    compares these values and a one-ulp change would alter its choices.
    """
    genotypes, alive, copies = matches.census(curr)
    born_ids = [matches.index(g) for g in born]
    died_ids = [matches.index(g) for g in died]
    by_genotype: dict[Genotype, RewardTriple] = {}
    for g, i in zip(genotypes, alive):
        sims = matches.similarities(i, alive)
        r_long = sum(sims)
        r_comb = sum(map(operator.mul, copies, sims))
        r_repl = sum(matches.similarities(i, born_ids)) - sum(matches.similarities(i, died_ids))
        by_genotype[g] = RewardTriple(float(r_long), float(r_repl), float(r_comb))
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


class IdlePolicy:
    """Never reproduces."""

    def decide(self, agent, rng):
        return False

    def feedback(self, agent_id, reproduced, rewards):
        pass


class AlwaysReproducePolicy:
    """Reproduces every step the health transfer is possible."""

    def decide(self, agent, rng):
        return True

    def feedback(self, agent_id, reproduced, rewards):
        pass


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
    """Reproduces whenever health is at or above a threshold."""

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
    matches = _MatchCounts()

    for t in range(1, config.steps + 1):
        if not agents:
            break
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
            state, [c.genotype for c in newborns], [g for _, g, _ in dead], matches
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

    The state side is exact: for each distinct genotype g of a state the
    integer ``Σ_u count_u · matches(g, u)`` is computed once, and the
    change is divided by ``loci`` a single time. Cost is O(T·G²) match
    lookups for G distinct genotypes alive, not O(T·pop²).
    """
    matches = _MatchCounts()

    def combined_int(i: int, ids: list[int], copies: list[int]) -> int:
        return sum(map(operator.mul, copies, matches.matches(i, ids)))

    worst = 0.0
    _, prev_ids, prev_copies = matches.census(trace.states[0])
    prev_combined: dict[int, int] = {}
    for t in range(1, len(trace.states)):
        curr = trace.states[t]
        genotypes, ids, copies = matches.census(curr)
        combined = {i: combined_int(i, ids, copies) for i in ids}
        delta: dict[Genotype, float] = {}
        for g, i in zip(genotypes, ids):
            before = prev_combined.get(i)
            if before is None:
                before = combined_int(i, prev_ids, prev_copies)
            delta[g] = (combined[i] - before) / len(g)
        step = trace.rewards[t - 1]
        for aid, g in curr.alive:
            worst = max(worst, abs(step[aid].replication - delta[g]))
        prev_ids, prev_copies, prev_combined = ids, copies, combined
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
            writer.writerow([t, aid, g.to_string(), fmt(health), event])
        for aid, g, final_health in trace.deaths[t - 1]:
            writer.writerow([t, aid, g.to_string(), fmt(final_health), "death"])


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
