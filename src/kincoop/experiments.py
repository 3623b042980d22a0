"""Experiment orchestration: the two network experiments, seed sweeps, and
aggregation.

Both experiments run one learning kernel, ``_learn``: independent myopic
epsilon-greedy Q-learners with fair random tie-breaking, one per cell of a
boolean state mask, with one convergence rule (greedy policy unchanged for
a full window, epsilon at its floor). It picks actions with bitwise
operations and moves values through one index into an array of each cell's
value pair, never with a select or a masked copy on a random mask, whose
branch mispredictions cost more than the arithmetic. It takes greedy
snapshots from a window before epsilon's floor. The two runners are thin
wrappers that supply what differs:

- ``run_discrimination``: a complete network, an N x N state mask (one
  state per opponent; the diagonal is the self state, masked out without
  self-play), and the pairwise reward against every opponent.
- ``run_dispersal``: a sampled (or given) partition network, an N-vector
  mask of agents that have neighbors, and the mean reward over all
  neighbors, or the reward against one sampled neighbor.

The dispersal rewards touch the edges alone. All points' directed edges, in
one list, each read the pair-table column of their point and similarity, the
similarity looked up per community pair. The mean over neighbors is the
row sum that the dense (agent, neighbor) matrix of pair rewards, zero off
the edges, would give under numpy's ``sum(axis=-1)``. ``pairsum`` gets it
over one row per (point, agent): one ``np.bincount`` adds the edges' terms,
in (agent, neighbor) order, into numpy's accumulator slots, and numpy's
fixed combine adds the slots, so it matches that dense mean bit for bit.
Each step costs O(P·E) lookups and adds for P points of E edges, plus the
combine over about N·N/16 slots per point (8·N below 128 nodes); no N x N
array is built unless a similarity override is given.

Optionally each reward credits the opponent's payoff weighted by genetic
similarity w: ``w * pm[other, own] + pm[own, other]``, written once, in
``games.kin_weighted_payoffs``. ``_pair_table`` tables it once per group in
one layout, a row per action pair and a column per (point, distinct
similarity), which every reward path of both runners reads with one ``np.take``.
Randomness is consumed in fixed-shape blocks every step, so two runs that
differ only in reward wiring draw identical streams; that is what makes
the zero-similarity override produce bit-identical results for the
weighted and unweighted variants under a shared seed.

The same fact lets the kernel learn several parameter points at once. Its
value tables and state mask carry a leading axis of P points; each step's
draws are made once, in the cells' shape, and broadcast over that axis,
and every point keeps its own stable-step counter. A point that meets the
stop rule is reported as of its own stop step, so each point's result is
bit-identical to a run of that point alone. ``run_sweep`` groups the tasks
that share ``_group_key`` and a seed: configs that differ only in
``dilemma``, ``inclusive`` and, for dispersal, the partition's ``eta`` and
``k_avg``, none of which changes how many numbers a run draws. That is one
group per seed for either kind. A dispersal group draws one network per
distinct partition, each from a fresh generator at the seed, and every
draw leaves the generator in the same state; the points share that
stream and every step's draws, each on its own network, with its own
edges, degrees and isolated nodes. A discrimination group builds its
network and similarity once. Each point has its own columns of the pair
table, read with weight 0.0 for a baseline point. That is exact: ``pm +
0.0 * x == pm``, as no payoff entry is -0.0. Any subset of a group learns
bit-identically too, so the sweep halves groups to keep its workers busy
(see ``_group_tasks``).

Reported cooperation frequencies come from greedy actions over the final
measurement window, not from the epsilon-contaminated sampled actions;
sampled-action frequencies would differ by the residual exploration level.
No window is stored: one integer per cell sums snapshot + 1 (0 defect, 1
tie, 2 cooperate) over the last ``window`` steps, and count / (2 * window)
is the window mean exactly. A point that stops early held its last snapshot
throughout its window, so its mean is (snapshot + 1) / 2.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .games import DilemmaParams, kin_weighted_payoffs, payoff_matrix
from .genotype import MAX_ENUMERABLE, Genotype, GenotypeSpace, enumerate_genotypes, similarity_matrix
from .learning import LearnerConfig, epsilon_at, q_update, resolve_decay
from .networks import (
    NetworkTopology,
    PartitionSpec,
    build_partition_network,
    degree_stats,
    derive_partition_probs,
)
from .pairsum import PairwiseRowSum, row_slots

# Per (agent, opponent) cell a complete-network run keeps a pair of float64
# values, an int32 slot, one int64 window count and one step's work arrays,
# whatever the window: 146 MiB peak RSS at 1024 agents. The limit bounds time
# instead: 0.04 s a step there on a 2-vCPU host, so a 3000-step run takes
# about 2 minutes.
MAX_DISCRIMINATION_AGENTS = 1024

# A dense dispersal point sums its rewards over N * pairsum.row_slots(N), about
# N * N / 16, float64 slots, and its network takes N * N uniforms: at 8192 nodes,
# 81 MiB peak RSS, 0.45 s for the network and 7-9 ms a step on a 2-vCPU host.
MAX_DISPERSAL_NODES = 8192

KINDS = ("discrimination", "dispersal")


@dataclass(frozen=True)
class ExperimentConfig:
    """One parameter point of either network experiment. Construction (and
    ``dataclasses.replace``) raises ``ValueError`` for a point that cannot
    run, so any config that exists can run."""

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
        if self.window <= 0:
            raise ValueError(f"window: expected a positive integer, got {self.window}")
        if self.steps_max <= self.window:
            raise ValueError(
                f"steps_max: expected an integer above window ({self.window}), got {self.steps_max}"
            )
        # before the size is formatted or made a float: it may have thousands of digits
        if self.space.size > MAX_ENUMERABLE:
            raise ValueError(
                f"genotype: variants^loci = {self.space.variants}^{self.space.loci} "
                f"exceeds the {MAX_ENUMERABLE} genotypes that can be enumerated"
            )
        if self.kind == "discrimination":
            if self.space.size > MAX_DISCRIMINATION_AGENTS:
                raise ValueError(
                    f"genotype: complete network over {self.space.size} genotypes exceeds "
                    f"the {MAX_DISCRIMINATION_AGENTS}-agent limit"
                )
            return
        spec = self.partition
        if spec is None:
            raise ValueError("dispersal experiments need a partition spec")
        if spec.community_count != self.space.size:
            raise ValueError(
                "need one community per genotype: "
                f"{spec.community_count} communities vs {self.space.size} genotypes"
            )
        if spec.node_count > MAX_DISPERSAL_NODES:
            raise ValueError(
                f"partition.community_size: {spec.community_size} x {spec.community_count} "
                f"communities = {spec.node_count} nodes exceeds the "
                f"{MAX_DISPERSAL_NODES}-node limit"
            )
        # no eta helps here: even p_in = p_out = 1 gives a mean degree of N - 1
        if spec.k_avg > spec.node_count - 1:
            raise ValueError(
                f"partition.k_avg: k_avg={spec.k_avg} exceeds N - 1 = {spec.node_count - 1}, "
                f"the mean degree of a complete network on {spec.node_count} nodes"
            )
        derive_partition_probs(spec)


@dataclass
class RunResult:
    """Outcome of a single seeded run.

    ``coop_freq`` holds per-(agent, opponent-state) cooperation frequency
    over the final measurement window for discrimination runs (N x N,
    valid where ``state_mask``), or per-agent frequency (length N) for
    dispersal runs. ``greedy_final`` is the sign of the final value gap:
    +1 cooperate, -1 defect, 0 exact tie. ``state_mask`` and the N x N
    agent ``similarity`` are set for discrimination runs and ``None`` for
    dispersal runs.
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
    similarity: Optional[np.ndarray]
    q_values: np.ndarray


class _Learned(NamedTuple):
    """What the learning kernel hands back per point; field names match ``RunResult``."""

    coop_freq: np.ndarray
    greedy_final: np.ndarray
    converged_at: Optional[int]
    steps_run: int
    q_values: np.ndarray


def _coins(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """``rng.integers(0, 2, (2,) + shape).astype(bool)`` from raw bits.

    For a range of 2, ``integers`` takes the top bit of each 32-bit half of
    ``prod(shape)`` raw 64-bit outputs, low half first, and leaves no half
    buffered: the count of halves is even, and none is buffered before it,
    as every other draw of the network paths is ``rng.random``, which uses
    whole outputs. The little-endian view keeps that order on any host.
    """
    raw = rng.bit_generator.random_raw(math.prod(shape))
    return (raw.astype("<u8", copy=False).view("<u4") >= 1 << 31).reshape((2,) + shape)


def _learn(
    config: ExperimentConfig,
    active: np.ndarray,
    reward_fn: Callable[[np.ndarray], np.ndarray],
    rng: np.random.Generator,
) -> list[_Learned]:
    """Independent myopic epsilon-greedy Q-learners, one per cell, for each of
    several parameter points that share ``rng``.

    ``active`` is a boolean (points, *cells) mask, maybe a broadcast view.
    Every step draws three blocks in the cells' shape (explore flags, random
    actions, tie coins) and uses them for every point: greedy actions with
    coin tie-breaks, then ``reward_fn`` maps the (points, *cells) bool actions
    (True = defect) to each cell's reward (it may draw more numbers from
    ``rng``), and the taken action's value moves toward it wherever
    ``active``. The values sit in one flat buffer, each cell's pair side by
    side, and one index, a static slot plus the action, reads and writes
    the taken action's value. An inactive cell's slot is the spare pair at
    the buffer's end, so no mask touches the values. A point stops at the
    first step with epsilon at its floor and its greedy policy unchanged for
    a full window; the loop ends when every point has stopped. Snapshots
    start a window before the first floor step or at the final window, so
    the stable-step counter is exact wherever the rule reads it.
    """
    learner = resolve_decay(config.learner, config.steps_max)
    epsilons = [epsilon_at(learner, t) for t in range(config.steps_max)]
    floor_steps = (t for t, eps in enumerate(epsilons) if eps <= learner.epsilon_min)
    watch_from = max(0, next(floor_steps, config.steps_max - 1) + 1 - config.window)
    points, shape = active.shape[0], active.shape[1:]
    # q[..., 0] is the value of cooperating, q[..., 1] of defecting; the two
    # spare slots after q take the updates of inactive cells.
    values = np.full(2 * active.size + 2, learner.q_init)
    q = values[:-2].reshape(active.shape + (2,))
    spare = 2 * active.size
    index_type = np.int32 if spare + 1 <= np.iinfo(np.int32).max else np.intp
    slot = np.arange(0, spare, 2, dtype=index_type).reshape(active.shape)
    np.copyto(slot, spare, where=~active)
    gap = q[..., 0] - q[..., 1]

    defect = np.empty(active.shape, dtype=bool)
    # Sum of snapshot + 1 over the final window; int64 holds its 2 * window exactly.
    coop_count = np.zeros(active.shape, dtype=np.int64)
    prev_greedy = np.zeros(active.shape, dtype=np.int8)
    stable_steps = np.zeros(points, dtype=np.int64)  # 1 after the watch step, whatever prev_greedy
    learned: list[Optional[_Learned]] = [None] * points

    def finish(p: int, freq: np.ndarray, steps_run: int, converged_at: Optional[int]) -> _Learned:
        return _Learned(freq, prev_greedy[p], converged_at, steps_run, q[p].copy())

    for t, eps in enumerate(epsilons):
        explore = rng.random(shape) < eps
        random_acts, tie_coins = _coins(rng, shape)

        # greedy action with a coin on exact ties (where gap < 0 is False),
        # unless exploring
        np.less(gap, 0, out=defect)
        defect |= (gap == 0) & tie_coins
        defect &= ~explore
        defect |= random_acts & explore
        reward = reward_fn(defect)

        # an intp index reads and writes about twice as fast as an int32 one;
        # the slot stays int32 to keep 4 bytes a cell off the run's peak
        taken = (slot + defect).astype(np.intp)
        values[taken] = q_update(np.take(values, taken), reward, learner.alpha)

        np.subtract(q[..., 0], q[..., 1], out=gap)
        if t < watch_from:
            continue
        snapshot = np.sign(gap).astype(np.int8)  # 0 where inactive: both values stay q_init
        if t >= config.steps_max - config.window:
            coop_count += snapshot + 1
        same = (snapshot == prev_greedy).reshape(points, -1).all(axis=1)
        stable_steps = np.where(same, stable_steps + 1, 1)
        prev_greedy = snapshot
        if eps <= learner.epsilon_min:
            for p in np.flatnonzero(stable_steps >= config.window):
                if learned[p] is None:
                    learned[p] = finish(p, (snapshot[p] + 1.0) / 2.0, t + 1, t + 1)
            if None not in learned:
                break

    for p in range(points):
        if learned[p] is None:
            learned[p] = finish(p, coop_count[p] / (2 * config.window), config.steps_max, None)
    return learned


def _similarity(
    genotypes: Sequence[Genotype], override: Optional[np.ndarray]
) -> np.ndarray:
    if override is None:
        return similarity_matrix(list(genotypes))
    sim = np.array(override, dtype=float)
    if sim.shape != (len(genotypes), len(genotypes)):
        raise ValueError("similarity override has the wrong shape")
    if not np.isfinite(sim).all():
        i, j = np.argwhere(~np.isfinite(sim))[0]
        raise ValueError(f"similarity override entry ({i}, {j}) is {float(sim[i, j])}, not finite")
    return sim


def _edge_similarity(
    net: NetworkTopology, override: Optional[np.ndarray], agent: np.ndarray, nbr: np.ndarray
) -> np.ndarray:
    """Similarity of each directed edge's agent to its neighbour: the
    override's entry, or the Hamming similarity of the two communities'
    genotypes (the same float as between the two nodes)."""
    if override is not None:
        return _similarity(net.genotypes, override)[agent, nbr]
    _, first, community = np.unique(net.communities, return_index=True, return_inverse=True)
    sim = similarity_matrix([net.genotypes[node] for node in first])
    return sim[community[agent], community[nbr]]


def _run_result(
    config: ExperimentConfig,
    seed: int,
    degrees: tuple[float, int, int],
    sim: Optional[np.ndarray],
    state_mask: Optional[np.ndarray],
    learned: _Learned,
) -> RunResult:
    mean_deg, min_deg, isolated = degrees
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

    Each distinct similarity adds a pair-table column per point: a few for
    lattice values k/loci, about N x N per point for an all-distinct override.
    """
    (result,) = _run_discrimination_group((config,), seed, genotypes, similarity_override)
    return result


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
    (result,) = _run_dispersal_group(
        (config,), seed, genotypes, similarity_override, network_override
    )
    return result


def _group_key(config: ExperimentConfig) -> ExperimentConfig:
    """What the points of one group have in common: everything but the
    dilemma, the reward mode and a partition's ``eta`` and ``k_avg``. None of
    these changes how many random numbers a run draws: a partition network
    takes one uniform per node pair whatever its edge probabilities, so only
    the node layout stays in the key."""
    partition = config.partition
    if partition is not None:
        partition = replace(partition, k_avg=1.0, eta=1.0)
    return replace(config, dilemma=None, inclusive=False, partition=partition)


def _check_group(configs: Sequence[ExperimentConfig], kind: str) -> None:
    if configs[0].kind != kind:
        raise ValueError(f"config.kind must be {kind!r}")
    key = _group_key(configs[0])
    if any(_group_key(other) != key for other in configs[1:]):
        raise ValueError(
            "grouped configs may differ only in dilemma, inclusive and a partition's eta and k_avg"
        )


def _pair_table(
    configs: Sequence[ExperimentConfig], weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The kin-weighted pair reward per action pair and (point, distinct weight)
    column, and each weight's class u among the U distinct ``weights``, in their
    shape: ``table[2 * a_own + a_other, p * U + u]`` is ``games.kin_weighted_payoffs``
    at class u's weight for point p's payoffs ``pm``, or at 0.0 for a baseline
    point. ``pm + ±0.0 * x == pm`` as no payoff entry is -0.0, so a baseline point's
    reward is its payoff bit for bit, and -0.0 and 0.0 share a class."""
    values, column = np.unique(weights, return_inverse=True)
    table = np.empty((4, len(configs), len(values)))
    for p, config in enumerate(configs):
        w = values if config.inclusive else np.zeros(len(values))
        block = kin_weighted_payoffs(payoff_matrix(config.dilemma), w)  # [u, own, other]
        table[:, p] = block.reshape(-1, 4).T
    return table.reshape(4, -1), column.reshape(np.shape(weights))


def _run_discrimination_group(
    configs: Sequence[ExperimentConfig],
    seed: int,
    genotypes: Optional[list[Genotype]] = None,
    similarity_override: Optional[np.ndarray] = None,
) -> list[RunResult]:
    """``run_discrimination`` for configs that share ``_group_key``, on one
    network and one random stream; result ``k`` is bit-identical to
    ``run_discrimination(configs[k], seed, ...)``."""
    _check_group(configs, "discrimination")
    config = configs[0]
    if genotypes is None:
        genotypes = enumerate_genotypes(config.space)
    n_agents = len(genotypes)
    if n_agents > MAX_DISCRIMINATION_AGENTS:
        raise ValueError(f"too many agents ({n_agents}) for a complete-network run")

    sim = _similarity(genotypes, similarity_override)
    weights = sim.copy()
    np.fill_diagonal(weights, 1.0)  # self-relatedness is exactly 1
    # ``offset[p, i, j]`` is cell (i, j)'s column for point p, its flat index
    # at action-pair row 0.
    table, column = _pair_table(configs, weights)
    n_points, n_cols = len(configs), table.shape[1]
    offset = column + n_cols // n_points * np.arange(n_points)[:, None, None]
    del weights, column
    state_mask = np.ones((n_agents, n_agents), dtype=bool)
    if not config.self_play:
        np.fill_diagonal(state_mask, False)

    def reward_fn(acts: np.ndarray) -> np.ndarray:
        own = acts.astype(np.intp)
        index = own + own
        index += own.swapaxes(-1, -2)
        index *= n_cols
        index += offset
        return np.take(table, index)  # [p, i, j]: i's reward for its game with j

    active = np.broadcast_to(state_mask, (n_points, n_agents, n_agents))
    learned = _learn(config, active, reward_fn, np.random.default_rng(seed))
    degrees = (float(n_agents - 1), n_agents - 1, int(n_agents == 1))  # a lone agent is isolated
    return [
        _run_result(point_config, seed, degrees, sim, state_mask, point_learned)
        for point_config, point_learned in zip(configs, learned)
    ]


def _run_dispersal_group(
    configs: Sequence[ExperimentConfig],
    seed: int,
    genotypes: Optional[list[Genotype]] = None,
    similarity_override: Optional[np.ndarray] = None,
    network_override: Optional[NetworkTopology] = None,
) -> list[RunResult]:
    """``run_dispersal`` for configs that share ``_group_key``, in one random
    stream; result ``k`` is bit-identical to ``run_dispersal(configs[k],
    seed, ...)``.

    Each distinct partition's network is drawn from a fresh generator at
    ``seed``. Every such draw leaves the generator in the same state (see
    ``_group_key``), and the points learn on from there, each on its own
    partition's network."""
    _check_group(configs, "dispersal")
    if network_override is not None:
        nets = dict.fromkeys((c.partition for c in configs), network_override)
        rng = np.random.default_rng(seed)
    else:
        if genotypes is None:
            genotypes = enumerate_genotypes(configs[0].space)
        nets = {}
        for partition in dict.fromkeys(c.partition for c in configs):
            rng = np.random.default_rng(seed)
            nets[partition] = build_partition_network(partition, genotypes, rng)
    n_points, n_agents = len(configs), nets[configs[0].partition].node_count

    # Each point's edges read both ways, by agent and then by neighbour: the
    # order of np.nonzero on its adjacency matrix.
    def directed(net: NetworkTopology) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        u, v = net.edges.T
        agent, nbr = np.concatenate([u, v]), np.concatenate([v, u])
        by_agent = np.lexsort((nbr, agent))
        agent, nbr = agent[by_agent], nbr[by_agent]
        return agent, nbr, _edge_similarity(net, similarity_override, agent, nbr)

    # Every point's directed edges in one list, point by point, then a zero
    # weight where an isolated agent's pick after the last edge lands (the
    # kernel masks its update), which also gives an edgeless group a column.
    # ``column`` holds each entry's (point, similarity) column of the table.
    edges = {partition: directed(net) for partition, net in nets.items()}
    parts = [edges[c.partition] for c in configs]
    point = np.repeat(np.arange(n_points), [len(part[0]) for part in parts])
    agent, nbr, sim = map(np.concatenate, zip(*parts))
    rows, other_rows = point * n_agents + agent, point * n_agents + nbr
    nbr_count = np.bincount(rows, minlength=n_points * n_agents).reshape(n_points, n_agents)
    has_neighbors = nbr_count > 0
    table, column = _pair_table(configs, np.append(sim, 0.0))
    n_cols = table.shape[1]
    column += n_cols // n_points * np.append(point, 0)

    if configs[0].edge_sampling:
        # CSR neighbour lists over the (point, agent) rows: ``nbr_at`` holds
        # each entry's neighbour row. Only each agent's picked pair is evaluated.
        nbr_start = np.cumsum(nbr_count).reshape(n_points, n_agents) - nbr_count
        nbr_at = np.append(other_rows, 0)

        def reward_fn(acts: np.ndarray) -> np.ndarray:
            picks = rng.random(n_agents)
            pick = nbr_start + (picks * nbr_count).astype(np.intp)
            own = acts.astype(np.intp)
            other = np.take(own, np.take(nbr_at, pick))
            return np.take(table, (own + own + other) * n_cols + np.take(column, pick))

    else:
        # The mean over neighbours is the dense (agent, neighbour) row sum of
        # pair rewards, zero off the edges, in numpy's pairwise order, over the
        # edges alone: ``pairsum`` bincounts them, in (row, neighbour) order,
        # into numpy's accumulator slots, one row per (point, agent).
        row_sum = PairwiseRowSum(rows, nbr, n_points * n_agents, n_agents)
        column = column[:-1]
        degree_safe = np.maximum(nbr_count, 1).astype(float)

        def reward_fn(acts: np.ndarray) -> np.ndarray:
            # an intp copy scaled in place: the index outgrows the bool actions' dtype
            scaled = acts.astype(np.intp).ravel()
            scaled *= n_cols
            index = np.take(scaled, rows)
            index += index
            index += np.take(scaled, other_rows)
            index += column
            return row_sum(np.take(table, index)).reshape(n_points, n_agents) / degree_safe

    learned = _learn(configs[0], has_neighbors, reward_fn, rng)
    return [
        _run_result(c, seed, degree_stats(nets[c.partition]), None, None, point_learned)
        for c, point_learned in zip(configs, learned)
    ]


def _run_points(configs: Sequence[ExperimentConfig], seed: int) -> list[RunResult]:
    """One group's points at ``seed``, learned in one pass by its kind's runner."""
    if configs[0].kind == "discrimination":
        return _run_discrimination_group(configs, seed)
    return _run_dispersal_group(configs, seed)


# One-slot hand-off between the run_experiment calls of one group: the first
# call learns every point, later calls take their result from here.
_handoff: Optional[tuple[tuple, list[ExperimentConfig], list[RunResult]]] = None


def run_experiment(
    config: ExperimentConfig, seed: int, group: Sequence[ExperimentConfig] = ()
) -> RunResult:
    """One parameter point at one seed.

    ``group`` lists configs that share ``_group_key``, ``config`` among
    them; by default it is ``config`` alone. The first call for a (group,
    seed) learns every point of the group at once; the calls for the other
    points return their results from a hand-off that empties once each
    point has been handed out. The result equals a run of ``config`` alone.
    """
    global _handoff
    group = tuple(group) or (config,)
    if _handoff is None or _handoff[0] != (group, seed) or config not in _handoff[1]:
        if config not in group:
            raise ValueError("config is not a member of its group")
        _handoff = ((group, seed), list(group), _run_points(group, seed))
    configs, results = _handoff[1:]
    result = results.pop(configs.index(config))
    configs.remove(config)
    if not configs:
        _handoff = None
    return result


def bin_by_similarity(result: RunResult, loci: int) -> dict[float, float]:
    """Mean cooperation frequency per similarity lattice value k/loci.

    Uses every valid (agent, opponent-state) cell, including the self
    state (similarity 1) when self-play is on. Every similarity must be a
    lattice value.
    """
    if result.state_mask is None:
        raise ValueError("similarity binning applies to discrimination results")
    cells = np.nonzero(result.state_mask)
    similarity = result.similarity[cells]
    matches = np.rint(similarity * loci)
    off = (matches / loci != similarity) | (similarity < 0) | (similarity > 1)
    if off.any():
        value = float(similarity[np.argmax(off)])
        raise ValueError(f"similarity {value!r} is not a lattice value k/{loci} in [0, 1]")
    matches = matches.astype(np.intp)
    # bincount adds the weights in input order, as a running float sum would
    sums = np.bincount(matches, weights=result.coop_freq[cells])
    counts = np.bincount(matches)
    return {int(k) / loci: float(sums[k] / counts[k]) for k in np.flatnonzero(counts)}


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


def _payload(task: SweepTask, result: RunResult) -> tuple[tuple, int, dict]:
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


def _run_group(tasks: Sequence[SweepTask]) -> list[tuple[tuple, int, dict]]:
    group = tuple(task.config for task in tasks)
    return [_payload(task, run_experiment(task.config, task.seed, group)) for task in tasks]


# A chunk's points share every work array of a kernel step, so a chunk holds
# at most this many cells of its largest arrays: one per (agent, opponent)
# pair of a discrimination point, one per row-sum slot of a dense dispersal
# point (8 per node and 128-node leaf) and one per node of an edge-sampling
# one. 1024-agent discrimination points and 4096-node dense dispersal points
# learn one per chunk, in the memory of a lone run.
MAX_CHUNK_CELLS = 1 << 20


def _point_cells(config: ExperimentConfig) -> int:
    n = config.space.size
    if config.kind == "discrimination":
        return n * n
    nodes = n * config.partition.community_size
    return nodes if config.edge_sampling else nodes * row_slots(nodes)


def _group_tasks(tasks: Sequence[SweepTask], jobs: int = 1) -> list[list[SweepTask]]:
    """The tasks cut into chunks that each learn in one pass, largest first.

    Tasks whose configs share ``_group_key`` and a seed form one group, in
    first-seen order. Any subset of a group learns bit-identically, so a
    chunk over ``MAX_CHUNK_CELLS`` is halved, and then the largest chunk is
    halved until the chunk count is a multiple of ``jobs`` or every chunk
    holds one point, which keeps ``jobs`` workers busy.
    """
    groups: dict[tuple, list[SweepTask]] = {}
    for task in tasks:
        groups.setdefault((_group_key(task.config), task.seed), []).append(task)

    def oversized(chunk: list[SweepTask]) -> bool:
        return len(chunk) > 1 and len(chunk) * _point_cells(chunk[0].config) > MAX_CHUNK_CELLS

    chunks = list(groups.values())
    while chunks:
        # an oversized chunk, else the first of the largest
        i = max(range(len(chunks)), key=lambda k: (oversized(chunks[k]), len(chunks[k])))
        if not oversized(chunks[i]) and (len(chunks) % jobs == 0 or len(chunks[i]) == 1):
            break
        half = (len(chunks[i]) + 1) // 2
        chunks[i:i + 1] = [chunks[i][:half], chunks[i][half:]]
    return sorted(chunks, key=len, reverse=True)


def run_sweep(tasks: Sequence[SweepTask], jobs: int = 1) -> dict[tuple, dict[int, dict]]:
    """Execute (parameter point, seed) tasks, serially or across processes.

    Each chunk of tasks (see ``_group_tasks``) is learned in one pass by one
    worker. Output is keyed and ordered deterministically, so parallel and
    serial execution produce identical downstream tables.
    """
    chunks = _group_tasks(tasks, jobs)
    if jobs > 1 and len(chunks) > 1:
        # no more workers than chunks: the pool may start all of them up front
        with ProcessPoolExecutor(max_workers=min(jobs, len(chunks))) as pool:
            raw = [row for rows in pool.map(_run_group, chunks, chunksize=1) for row in rows]
    else:
        raw = [row for chunk in chunks for row in _run_group(chunk)]
    out: dict[tuple, dict[int, dict]] = {}
    for key, seed, payload in sorted(raw, key=lambda item: (item[0], item[1])):
        out.setdefault(key, {})[seed] = payload
    return out
