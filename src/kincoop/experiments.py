"""Experiment orchestration: the two network experiments, seed sweeps, and
aggregation.

Both experiments run one learning kernel, ``_learn``: independent myopic
epsilon-greedy Q-learners with fair random tie-breaking, one per cell of a
boolean state mask, with one convergence rule (greedy policy unchanged for
a full window, epsilon at its floor). The two runners are thin wrappers
that supply what differs:

- ``run_discrimination``: a complete network, an N x N state mask (one
  state per opponent; the diagonal is the self state, masked out without
  self-play), and the pairwise reward against every opponent.
- ``run_dispersal``: a sampled (or given) partition network, an N-vector
  mask of agents that have neighbors, and the mean reward over all
  neighbors, or the reward against one sampled neighbor.

Optionally each reward credits the opponent's payoff weighted by genetic
similarity. Randomness is consumed in fixed-shape blocks every step, so
two runs that differ only in reward wiring draw identical streams; that
is what makes the zero-similarity override produce bit-identical results
for the weighted and unweighted variants under a shared seed.

Reported cooperation frequencies come from greedy actions over the final
measurement window, not from the epsilon-contaminated sampled actions;
sampled-action frequencies would differ by the residual exploration level.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .games import DilemmaParams, payoff_matrix
from .genotype import Genotype, GenotypeSpace, enumerate_genotypes, similarity_matrix
from .learning import LearnerConfig, epsilon_at, resolve_decay
from .networks import (
    NetworkTopology,
    PartitionSpec,
    build_complete_network,
    build_partition_network,
    degree_stats,
    derive_partition_probs,
)

# Complete-network runs keep N*N*2 value tables and several N*N work arrays
# per step; past this many agents the experiment needs a different design.
MAX_DISCRIMINATION_AGENTS = 1024

KINDS = ("discrimination", "dispersal")


@dataclass(frozen=True)
class ExperimentConfig:
    """One parameter point of either network experiment."""

    kind: str
    space: GenotypeSpace
    dilemma: DilemmaParams
    learner: LearnerConfig
    steps_max: int
    window: int
    inclusive: bool = True
    self_play: bool = True
    partition: Optional[PartitionSpec] = None
    edge_sampling: bool = False

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if not self.steps_max > self.window > 0:
            raise ValueError("need steps_max > window > 0")
        if self.kind == "dispersal":
            if self.partition is None:
                raise ValueError("dispersal experiments need a partition spec")
            if self.partition.community_count != self.space.size:
                raise ValueError(
                    "need one community per genotype: "
                    f"{self.partition.community_count} communities vs "
                    f"{self.space.size} genotypes"
                )

    def validate_feasible(self) -> None:
        """Raise before any simulation if the config cannot be run."""
        if self.kind == "dispersal":
            derive_partition_probs(self.partition)
        else:
            if self.space.size > MAX_DISCRIMINATION_AGENTS:
                raise ValueError(
                    f"complete network over {self.space.size} genotypes exceeds "
                    f"the {MAX_DISCRIMINATION_AGENTS}-agent limit"
                )


@dataclass
class RunResult:
    """Outcome of a single seeded run.

    ``coop_freq`` holds per-(agent, opponent-state) cooperation frequency
    over the final measurement window for discrimination runs (N x N,
    valid where ``state_mask``), or per-agent frequency (length N) for
    dispersal runs. ``greedy_final`` is the sign of the final value gap:
    +1 cooperate, -1 defect, 0 exact tie.
    """

    kind: str
    seed: int
    coop_freq: np.ndarray
    state_mask: Optional[np.ndarray]
    greedy_final: np.ndarray
    converged_at: Optional[int]
    steps_run: int
    mean_degree: float
    min_degree: int
    isolated_count: int
    similarity: np.ndarray
    q_values: np.ndarray


class _Learned(NamedTuple):
    """What the learning kernel hands back; field names match ``RunResult``."""

    coop_freq: np.ndarray
    greedy_final: np.ndarray
    converged_at: Optional[int]
    steps_run: int
    q_values: np.ndarray


def _learn(
    config: ExperimentConfig,
    active: np.ndarray,
    reward_fn: Callable[[np.ndarray], np.ndarray],
    rng: np.random.Generator,
) -> _Learned:
    """Independent myopic epsilon-greedy Q-learners, one per cell of ``active``.

    Every step draws three blocks of ``active.shape`` (explore flags, random
    actions, tie coins), picks greedy actions with coin tie-breaks, asks
    ``reward_fn`` for the reward of each cell's action (it may draw more
    numbers from ``rng``), and moves the taken action's value toward it
    wherever ``active``. The run stops early once the greedy policy has not
    changed for a full window and epsilon is at its floor.
    """
    learner = resolve_decay(config.learner, config.steps_max)
    shape = active.shape
    q = np.full(shape + (2,), learner.q_init, dtype=float)
    cells = np.ix_(*(np.arange(size) for size in shape))  # q[(*cells, acts)]: taken values
    inactive = ~active

    coop_window: deque[np.ndarray] = deque(maxlen=config.window)
    prev_greedy: Optional[np.ndarray] = None
    stable_steps = 0
    converged_at: Optional[int] = None
    steps_run = 0

    for t in range(config.steps_max):
        eps = epsilon_at(learner, t)
        explore = rng.random(shape) < eps
        random_acts = rng.integers(0, 2, size=shape)
        tie_coins = rng.integers(0, 2, size=shape)

        gap = q[..., 0] - q[..., 1]
        greedy = np.where(gap > 0, 0, np.where(gap < 0, 1, tie_coins))
        acts = np.where(explore, random_acts, greedy)
        reward = reward_fn(acts)

        q_taken = q[(*cells, acts)]
        q[(*cells, acts)] = np.where(
            active, q_taken + learner.alpha * (reward - q_taken), q_taken
        )

        snapshot = np.sign(q[..., 0] - q[..., 1]).astype(np.int8)
        snapshot[inactive] = 0
        coop_window.append((snapshot.astype(float) + 1.0) / 2.0)
        if prev_greedy is not None and np.array_equal(snapshot, prev_greedy):
            stable_steps += 1
        else:
            stable_steps = 1
        prev_greedy = snapshot
        steps_run = t + 1
        if stable_steps >= config.window and eps <= learner.epsilon_min:
            converged_at = steps_run
            break

    coop_freq = np.mean(np.stack(coop_window), axis=0)
    return _Learned(coop_freq, prev_greedy, converged_at, steps_run, q)


def _similarity(
    genotypes: Sequence[Genotype], override: Optional[np.ndarray]
) -> np.ndarray:
    if override is None:
        return similarity_matrix(list(genotypes))
    sim = np.array(override, dtype=float)
    if sim.shape != (len(genotypes), len(genotypes)):
        raise ValueError("similarity override has the wrong shape")
    return sim


def _run_result(
    config: ExperimentConfig,
    seed: int,
    net: NetworkTopology,
    sim: np.ndarray,
    state_mask: Optional[np.ndarray],
    learned: _Learned,
) -> RunResult:
    mean_deg, min_deg, isolated = degree_stats(net)
    return RunResult(
        kind=config.kind,
        seed=seed,
        state_mask=state_mask,
        mean_degree=mean_deg,
        min_degree=min_deg,
        isolated_count=isolated,
        similarity=sim,
        **learned._asdict(),
    )


def cooperator_proportion(greedy_final: np.ndarray) -> float:
    """Fraction of cooperators under the final greedy policy; ties count 0.5."""
    return float(((greedy_final.astype(float) + 1.0) / 2.0).mean())


def run_discrimination(
    config: ExperimentConfig,
    seed: int,
    genotypes: Optional[list[Genotype]] = None,
    similarity_override: Optional[np.ndarray] = None,
) -> RunResult:
    """Simultaneous dilemmas against every opponent on a complete network.

    Each agent keeps one value-table state per opponent (plus a self state
    when ``self_play``); every step it draws one epsilon-greedy action per
    state and updates that state with the pairwise reward. The self state
    uses a single action for both roles and full self-relatedness, so its
    reward is twice the individual payoff when rewards are inclusive.
    """
    if config.kind != "discrimination":
        raise ValueError("config.kind must be 'discrimination'")
    config.validate_feasible()
    if genotypes is None:
        genotypes = enumerate_genotypes(config.space)
    n_agents = len(genotypes)
    if n_agents > MAX_DISCRIMINATION_AGENTS:
        raise ValueError(f"too many agents ({n_agents}) for a complete-network run")

    net = build_complete_network(genotypes)
    sim = _similarity(genotypes, similarity_override)
    weights = sim.copy()
    np.fill_diagonal(weights, 1.0)  # self-relatedness is exactly 1
    state_mask = np.ones((n_agents, n_agents), dtype=bool)
    if not config.self_play:
        np.fill_diagonal(state_mask, False)
    pm = payoff_matrix(config.dilemma)

    def reward_fn(acts: np.ndarray) -> np.ndarray:
        payoff = pm[acts, acts.T]  # payoff[i, j]: i's individual payoff vs j
        return payoff + weights * payoff.T if config.inclusive else payoff

    learned = _learn(config, state_mask, reward_fn, np.random.default_rng(seed))
    return _run_result(config, seed, net, sim, state_mask, learned)


def run_dispersal(
    config: ExperimentConfig,
    seed: int,
    genotypes: Optional[list[Genotype]] = None,
    similarity_override: Optional[np.ndarray] = None,
    network_override: Optional[NetworkTopology] = None,
) -> RunResult:
    """One-strategy agents on a random partition network.

    No opponent discrimination: each agent has a single state, draws one
    action per step, and plays it against all neighbors (or one sampled
    neighbor in edge-sampling mode). The update uses the mean of the
    accrued pairwise rewards so the effective learning rate does not scale
    with degree. Isolated agents never interact and never update.

    ``network_override`` bypasses sampling for fixed topologies (e.g. the
    explicit-probability clique construction used in tests).
    """
    if config.kind != "dispersal":
        raise ValueError("config.kind must be 'dispersal'")
    rng = np.random.default_rng(seed)
    if network_override is not None:
        net = network_override
    else:
        config.validate_feasible()
        if genotypes is None:
            genotypes = enumerate_genotypes(config.space)
        net = build_partition_network(config.partition, genotypes, rng)
    n_agents = net.node_count
    sim = _similarity(net.genotypes, similarity_override)

    adjacency = net.adjacency()
    has_neighbors = adjacency.any(axis=1)
    pm = payoff_matrix(config.dilemma)

    if config.edge_sampling:
        # Neighbor lists in CSR form. The trailing pad keeps an isolated
        # agent's empty slice indexable; the kernel masks its update.
        rows, cols = np.nonzero(adjacency)
        nbr_index = np.append(cols, 0)
        nbr_count = np.bincount(rows, minlength=n_agents)
        nbr_start = np.cumsum(nbr_count) - nbr_count
        agents = np.arange(n_agents)

        # Only each agent's picked pair is evaluated, with the same float
        # operations as that cell of the dense pair reward below.
        def reward_fn(acts: np.ndarray) -> np.ndarray:
            picks = rng.random(n_agents)
            partner = nbr_index[nbr_start + (picks * nbr_count).astype(np.intp)]
            payoff = pm[acts, acts[partner]]
            if config.inclusive:
                return payoff + sim[agents, partner] * pm[acts[partner], acts]
            return payoff

    else:
        adj_f = adjacency.astype(float)
        degree_safe = np.maximum(adj_f.sum(axis=1), 1.0)
        # Reused across steps: on large networks, N x N temporaries freed at
        # every return are handed back to the OS and page-fault when
        # reallocated.
        pair_reward = np.empty((n_agents, n_agents))

        def reward_fn(acts: np.ndarray) -> np.ndarray:
            payoff = pm[acts[:, None], acts[None, :]]
            if config.inclusive:
                np.multiply(sim, payoff.T, out=pair_reward)
                np.add(pair_reward, payoff, out=pair_reward)
                np.multiply(pair_reward, adj_f, out=pair_reward)
            else:
                np.multiply(payoff, adj_f, out=pair_reward)
            return pair_reward.sum(axis=1) / degree_safe

    learned = _learn(config, has_neighbors, reward_fn, rng)
    return _run_result(config, seed, net, sim, None, learned)


def run_experiment(config: ExperimentConfig, seed: int) -> RunResult:
    if config.kind == "discrimination":
        return run_discrimination(config, seed)
    return run_dispersal(config, seed)


def bin_by_similarity(result: RunResult, loci: int) -> dict[float, float]:
    """Mean cooperation frequency per similarity lattice value k/loci.

    Uses every valid (agent, opponent-state) cell, including the self
    state (similarity 1) when self-play is on.
    """
    if result.state_mask is None:
        raise ValueError("similarity binning applies to discrimination results")
    sums: dict[int, float] = {}
    counts: dict[int, int] = {}
    mask = result.state_mask
    for i, j in zip(*np.nonzero(mask)):
        k = int(round(result.similarity[i, j] * loci))
        sums[k] = sums.get(k, 0.0) + float(result.coop_freq[i, j])
        counts[k] = counts.get(k, 0) + 1
    return {k / loci: sums[k] / counts[k] for k in sums}


class AggregateRow(NamedTuple):
    key: object
    mean: float
    std_error: float
    n_seeds: int


def aggregate(tables: Sequence[Mapping]) -> list[AggregateRow]:
    """Per-key mean and sample standard error over seeds, sorted by key.

    All tables must share the same key set; mixed shapes indicate runs
    from different configurations and are rejected.
    """
    if not tables:
        raise ValueError("nothing to aggregate")
    keys = set(tables[0])
    for table in tables[1:]:
        if set(table) != keys:
            raise ValueError("cannot aggregate results with mixed key sets")
    rows = []
    for key in sorted(keys):
        values = np.array([float(table[key]) for table in tables])
        n = len(values)
        se = float(values.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
        rows.append(AggregateRow(key, float(values.mean()), se, n))
    return rows


# ---------------------------------------------------------------------------
# Multi-seed sweep execution
# ---------------------------------------------------------------------------

class SweepTask(NamedTuple):
    key: tuple
    config: ExperimentConfig
    seed: int


def _run_task(task: SweepTask) -> tuple[tuple, int, dict]:
    result = run_experiment(task.config, task.seed)
    payload: dict = {
        "meta": {
            "seed": task.seed,
            "converged_at": result.converged_at,
            "steps_run": result.steps_run,
            "mean_degree": result.mean_degree,
            "min_degree": result.min_degree,
            "isolated_count": result.isolated_count,
        }
    }
    if task.config.kind == "discrimination":
        payload["bins"] = bin_by_similarity(result, task.config.space.loci)
    else:
        payload["proportion"] = cooperator_proportion(result.greedy_final)
    return task.key, task.seed, payload


def run_sweep(tasks: Sequence[SweepTask], jobs: int = 1) -> dict[tuple, dict[int, dict]]:
    """Execute (parameter point, seed) tasks, serially or across processes.

    Output is keyed and ordered deterministically, so parallel and serial
    execution produce identical downstream tables.
    """
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            raw = list(pool.map(_run_task, tasks, chunksize=1))
    else:
        raw = [_run_task(task) for task in tasks]
    out: dict[tuple, dict[int, dict]] = {}
    for key, seed, payload in sorted(raw, key=lambda item: (item[0], item[1])):
        out.setdefault(key, {})[seed] = payload
    return out
