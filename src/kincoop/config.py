"""Config-file schema for the CLI: defaults, merging, overrides, validation.

A config is a single YAML mapping whose key tree mirrors the experiment
parameters; every key has a default, so a file may be as short as
``experiment: discrimination``. Flat ``key.path=value`` overrides are
merged on top. Unknown keys are rejected with their full path, and every
validation message names the offending key.
"""

from __future__ import annotations

import copy
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import yaml

from .experiments import ExperimentConfig
from .games import DilemmaParams
from .genotype import Genotype, GenotypeSpace, MutationSpec
from .learning import LearnerConfig
from .networks import InfeasiblePartitionError, PartitionSpec, derive_partition_probs
from .popreward import (
    AlwaysReproducePolicy,
    IdlePolicy,
    QReproductionPolicy,
    RandomPolicy,
    ReproductionPolicy,
    SandboxConfig,
    ThresholdPolicy,
)


class ConfigError(Exception):
    """A config file or override that cannot be used, with a precise path."""


# alpha=1 makes each value track the action's latest observed reward; with
# stale values (smaller alpha) epsilon-greedy pairs drift into mutual
# cooperation below the relatedness threshold and the threshold blurs
_LEARNER_DEFAULTS = {
    "alpha": 1.0,
    "epsilon0": 1.0,
    "decay": None,
    "epsilon_min": 0.001,
    "q_init": 0.0,
}

DISCRIMINATION_DEFAULTS = {
    "experiment": "discrimination",
    "out_dir": None,
    "seeds": [1, 2, 3, 4, 5],
    "jobs": 0,
    "plot": True,
    "inclusive": True,
    "self_play": True,
    "steps_max": 3000,
    "window": 200,
    "genotype": {"loci": 6, "variants": 2},
    # cost/benefit ratios 0.25, 0.4, 0.7: off the similarity lattice k/6,
    # so every lattice value is strictly above or below each threshold
    "dilemma": {"cost": 1.0, "benefits": [4.0, 2.5, 10.0 / 7.0]},
    "learner": dict(_LEARNER_DEFAULTS),
}

DISPERSAL_DEFAULTS = {
    "experiment": "dispersal",
    "out_dir": None,
    "seeds": list(range(1, 11)),
    "jobs": 0,
    "plot": True,
    "modes": ["inclusive", "baseline"],
    "edge_sampling": False,
    "steps_max": 2500,
    "window": 200,
    "genotype": {"loci": 3, "variants": 2},
    "partition": {"community_size": 8, "k_avg": 9.0, "etas": [0.05, 0.1, 0.5]},
    "dilemma": {"cost": 1.0, "b_over_c": [2.0, 4.0, 6.0, 8.0, 10.0, 12.0]},
    "learner": dict(_LEARNER_DEFAULTS),
}

SANDBOX_DEFAULTS = {
    "experiment": "sandbox",
    "out_dir": None,
    "seed": 1,
    "genotype": {"loci": 4, "variants": 2},
    "initial_genotype": None,
    "mutation": {"mu": 0.05},
    "initial_health": 10.0,
    "food_rate": 8,
    "steps": 500,
    "policy": {"kind": "random", "p": 0.25},
}

DEFAULTS_BY_EXPERIMENT = {
    "discrimination": DISCRIMINATION_DEFAULTS,
    "dispersal": DISPERSAL_DEFAULTS,
    "sandbox": SANDBOX_DEFAULTS,
}

# keys whose subtrees are validated by their builders, not by template shape
_FREEFORM_KEYS = {"policy", "learner"}


def load_config_file(path: Path) -> dict:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        data = yaml.safe_load(path.read_text(encoding="utf-8"))
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ConfigError(f"{path}: invalid YAML{where}") from exc
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    return data


def apply_overrides(data: dict, overrides: Sequence[str]) -> dict:
    """Merge ``key.path=value`` strings; values parse as YAML scalars."""
    out = copy.deepcopy(data)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        key_path, _, raw = item.partition("=")
        key_path = key_path.strip()
        if not key_path:
            raise ConfigError(f"override {item!r} has an empty key")
        try:
            value = yaml.safe_load(raw)
        except yaml.YAMLError:
            value = raw
        node = out
        parts = key_path.split(".")
        for part in parts[:-1]:
            nxt = node.setdefault(part, {})
            if not isinstance(nxt, dict):
                raise ConfigError(f"override {key_path}: {part} is not a mapping")
            node = nxt
        node[parts[-1]] = value
    return out


def merge_with_defaults(user: dict, defaults: dict, path: str = "") -> dict:
    merged = copy.deepcopy(defaults)
    for key, value in user.items():
        where = f"{path}.{key}" if path else key
        if key not in defaults:
            known = ", ".join(sorted(defaults))
            raise ConfigError(f"unknown config key {where!r} (known: {known})")
        if (
            isinstance(value, dict)
            and isinstance(defaults[key], dict)
            and key not in _FREEFORM_KEYS
        ):
            merged[key] = merge_with_defaults(value, defaults[key], where)
        elif isinstance(defaults[key], dict) and key in _FREEFORM_KEYS and isinstance(value, dict):
            # freeform subtrees replace defaults key-by-key without shape checks
            sub = dict(defaults[key])
            sub.update(value)
            merged[key] = sub
        else:
            merged[key] = value
    return merged


def resolve_config(data: dict, overrides: Sequence[str] = ()) -> dict:
    kind = data.get("experiment")
    if kind not in DEFAULTS_BY_EXPERIMENT:
        raise ConfigError(
            "config key 'experiment' must be one of "
            f"{sorted(DEFAULTS_BY_EXPERIMENT)}, got {kind!r}"
        )
    merged = merge_with_defaults(data, DEFAULTS_BY_EXPERIMENT[kind])
    if overrides:
        merged = apply_overrides(merged, overrides)
        merged = merge_with_defaults(merged, DEFAULTS_BY_EXPERIMENT[kind])
    return merged


def config_hash(resolved: dict) -> str:
    """Platform-stable digest of the experiment-relevant config content."""
    hashed = {k: v for k, v in resolved.items() if k not in ("out_dir", "jobs", "plot")}
    canonical = json.dumps(hashed, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Typed coercion helpers
# ---------------------------------------------------------------------------

def _as_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    return value


def _as_float(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    return float(value)


def _as_bool(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{path}: expected true/false, got {value!r}")
    return value


def _as_jobs(value) -> int:
    jobs = _as_int(value, "jobs")
    if jobs < 0:
        raise ConfigError(f"jobs: expected 0 (all cores) or a positive count, got {jobs}")
    return jobs


def _distinct(values: tuple, path: str) -> tuple:
    """Sweep values, each at most once: a repeat would run or report a point twice."""
    if len(set(values)) != len(values):
        raise ConfigError(f"{path}: values must be distinct, got {list(values)}")
    return values


def _as_number_list(value, path: str) -> tuple[float, ...]:
    if not isinstance(value, (list, tuple)) or not value:
        raise ConfigError(f"{path}: expected a non-empty list of numbers")
    return _distinct(tuple(_as_float(v, f"{path}[{i}]") for i, v in enumerate(value)), path)


def _as_int_list(value, path: str) -> tuple[int, ...]:
    if not isinstance(value, (list, tuple)) or not value:
        raise ConfigError(f"{path}: expected a non-empty list of integers")
    return _distinct(tuple(_as_int(v, f"{path}[{i}]") for i, v in enumerate(value)), path)


def _build_space(data: dict) -> GenotypeSpace:
    try:
        return GenotypeSpace(
            loci=_as_int(data["genotype"]["loci"], "genotype.loci"),
            variants=_as_int(data["genotype"]["variants"], "genotype.variants"),
        )
    except ValueError as exc:
        raise ConfigError(f"genotype: {exc}") from exc


def _build_learner(data: dict) -> LearnerConfig:
    raw = data["learner"]
    known = set(_LEARNER_DEFAULTS)
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"learner: unknown keys {sorted(unknown)} (known: {sorted(known)})")
    merged = dict(_LEARNER_DEFAULTS)
    merged.update(raw)
    try:
        return LearnerConfig(
            alpha=_as_float(merged["alpha"], "learner.alpha"),
            epsilon0=_as_float(merged["epsilon0"], "learner.epsilon0"),
            decay=None if merged["decay"] is None else _as_float(merged["decay"], "learner.decay"),
            epsilon_min=_as_float(merged["epsilon_min"], "learner.epsilon_min"),
            q_init=_as_float(merged["q_init"], "learner.q_init"),
        )
    except ValueError as exc:
        raise ConfigError(f"learner: {exc}") from exc


# ---------------------------------------------------------------------------
# Plans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiscriminationPlan:
    space: GenotypeSpace
    cost: float
    benefits: tuple[float, ...]
    learner: LearnerConfig
    steps_max: int
    window: int
    inclusive: bool
    self_play: bool
    seeds: tuple[int, ...]
    jobs: int
    plot: bool
    out_dir: Optional[str]
    resolved: dict

    def point_config(self, benefit: float) -> ExperimentConfig:
        return ExperimentConfig(
            kind="discrimination",
            space=self.space,
            dilemma=DilemmaParams(benefit=benefit, cost=self.cost),
            learner=self.learner,
            steps_max=self.steps_max,
            window=self.window,
            inclusive=self.inclusive,
            self_play=self.self_play,
        )


@dataclass(frozen=True)
class DispersalPlan:
    space: GenotypeSpace
    cost: float
    b_over_c: tuple[float, ...]
    etas: tuple[float, ...]
    community_size: int
    k_avg: float
    modes: tuple[str, ...]
    edge_sampling: bool
    learner: LearnerConfig
    steps_max: int
    window: int
    seeds: tuple[int, ...]
    jobs: int
    plot: bool
    out_dir: Optional[str]
    resolved: dict

    def partition_spec(self, eta: float) -> PartitionSpec:
        return PartitionSpec(
            community_size=self.community_size,
            community_count=self.space.size,
            k_avg=self.k_avg,
            eta=eta,
        )

    def point_config(self, eta: float, b_over_c: float, mode: str) -> ExperimentConfig:
        return ExperimentConfig(
            kind="dispersal",
            space=self.space,
            dilemma=DilemmaParams(benefit=b_over_c * self.cost, cost=self.cost),
            learner=self.learner,
            steps_max=self.steps_max,
            window=self.window,
            inclusive=(mode == "inclusive"),
            partition=self.partition_spec(eta),
            edge_sampling=self.edge_sampling,
        )


@dataclass(frozen=True)
class SandboxPlan:
    sandbox: SandboxConfig
    seed: int
    out_dir: Optional[str]
    resolved: dict


def build_discrimination_plan(resolved: dict) -> DiscriminationPlan:
    space = _build_space(resolved)
    cost = _as_float(resolved["dilemma"]["cost"], "dilemma.cost")
    benefits = _as_number_list(resolved["dilemma"]["benefits"], "dilemma.benefits")
    steps_max = _as_int(resolved["steps_max"], "steps_max")
    window = _as_int(resolved["window"], "window")
    plan = DiscriminationPlan(
        space=space,
        cost=cost,
        benefits=benefits,
        learner=_build_learner(resolved),
        steps_max=steps_max,
        window=window,
        inclusive=_as_bool(resolved["inclusive"], "inclusive"),
        self_play=_as_bool(resolved["self_play"], "self_play"),
        seeds=_as_int_list(resolved["seeds"], "seeds"),
        jobs=_as_jobs(resolved["jobs"]),
        plot=_as_bool(resolved["plot"], "plot"),
        out_dir=resolved["out_dir"],
        resolved=resolved,
    )
    # construct one point to surface dilemma/step validation errors now
    try:
        for b in plan.benefits:
            plan.point_config(b).validate_feasible()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return plan


def build_dispersal_plan(resolved: dict) -> DispersalPlan:
    space = _build_space(resolved)
    modes_raw = resolved["modes"]
    if not isinstance(modes_raw, (list, tuple)) or not modes_raw:
        raise ConfigError("modes: expected a non-empty list")
    modes = tuple(modes_raw)
    for mode in modes:
        if mode not in ("inclusive", "baseline"):
            raise ConfigError(f"modes: entries must be 'inclusive' or 'baseline', got {mode!r}")
    _distinct(modes, "modes")
    plan = DispersalPlan(
        space=space,
        cost=_as_float(resolved["dilemma"]["cost"], "dilemma.cost"),
        b_over_c=_as_number_list(resolved["dilemma"]["b_over_c"], "dilemma.b_over_c"),
        etas=_as_number_list(resolved["partition"]["etas"], "partition.etas"),
        community_size=_as_int(resolved["partition"]["community_size"], "partition.community_size"),
        k_avg=_as_float(resolved["partition"]["k_avg"], "partition.k_avg"),
        modes=modes,
        edge_sampling=_as_bool(resolved["edge_sampling"], "edge_sampling"),
        learner=_build_learner(resolved),
        steps_max=_as_int(resolved["steps_max"], "steps_max"),
        window=_as_int(resolved["window"], "window"),
        seeds=_as_int_list(resolved["seeds"], "seeds"),
        jobs=_as_jobs(resolved["jobs"]),
        plot=_as_bool(resolved["plot"], "plot"),
        out_dir=resolved["out_dir"],
        resolved=resolved,
    )
    # feasibility first: an infeasible eta must be reported before any run
    try:
        for eta in plan.etas:
            derive_partition_probs(plan.partition_spec(eta))
        for eta in plan.etas:
            for boc in plan.b_over_c:
                for mode in plan.modes:
                    plan.point_config(eta, boc, mode)
    except InfeasiblePartitionError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return plan


_POLICY_KINDS = ("idle", "always", "random", "threshold", "q")


def _build_policy(raw: dict) -> ReproductionPolicy:
    kind = raw.get("kind")
    if kind not in _POLICY_KINDS:
        raise ConfigError(f"policy.kind must be one of {_POLICY_KINDS}, got {kind!r}")
    try:
        if kind == "idle":
            return IdlePolicy()
        if kind == "always":
            return AlwaysReproducePolicy()
        if kind == "random":
            return RandomPolicy(_as_float(raw.get("p", 0.25), "policy.p"))
        if kind == "threshold":
            return ThresholdPolicy(_as_float(raw.get("min_health", 5.0), "policy.min_health"))
        learner = LearnerConfig(
            alpha=_as_float(raw.get("alpha", 0.1), "policy.alpha"),
            epsilon0=_as_float(raw.get("epsilon0", 1.0), "policy.epsilon0"),
            decay=_as_float(raw.get("decay", 0.995), "policy.decay"),
            epsilon_min=_as_float(raw.get("epsilon_min", 0.01), "policy.epsilon_min"),
            q_init=_as_float(raw.get("q_init", 0.0), "policy.q_init"),
        )
        reward_kind = raw.get("reward", "combined")
        return QReproductionPolicy(learner, reward_kind)
    except ValueError as exc:
        raise ConfigError(f"policy: {exc}") from exc


def build_sandbox_plan(resolved: dict) -> SandboxPlan:
    space = _build_space(resolved)
    raw_genotype = resolved["initial_genotype"]
    if raw_genotype is None:
        initial = Genotype(tuple(0 for _ in range(space.loci)))
    else:
        try:
            initial = Genotype.from_string(str(raw_genotype))
        except ValueError as exc:
            raise ConfigError(f"initial_genotype: {exc}") from exc
    try:
        mutation = MutationSpec(_as_float(resolved["mutation"]["mu"], "mutation.mu"))
    except ValueError as exc:
        raise ConfigError(f"mutation.mu: {exc}") from exc
    try:
        sandbox = SandboxConfig(
            space=space,
            initial_genotype=initial,
            mutation=mutation,
            initial_health=_as_float(resolved["initial_health"], "initial_health"),
            food_rate=_as_int(resolved["food_rate"], "food_rate"),
            steps=_as_int(resolved["steps"], "steps"),
            policy=_build_policy(resolved["policy"]),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return SandboxPlan(
        sandbox=sandbox,
        seed=_as_int(resolved["seed"], "seed"),
        out_dir=resolved["out_dir"],
        resolved=resolved,
    )
