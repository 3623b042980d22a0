"""Config-file schema for the CLI: defaults, merging, overrides, validation.

A config is a single YAML mapping whose key tree mirrors the experiment
parameters; every key has a default, so a file may be as short as
``experiment: discrimination``. Flat ``key.path=value`` overrides are
merged on top; they may not change ``experiment``. Unknown keys are
rejected with their full path, as is a value that is not a mapping where
the defaults hold one. Under ``policy`` the keys of every policy kind are
known and type-checked, though a policy reads only its own kind's keys.
Every validation message names the offending key.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Optional, Sequence

import yaml

from .experiments import ExperimentConfig
from .games import DilemmaParams
from .genotype import GenotypeSpace, MutationSpec, parse_genotype
from .learning import LearnerConfig
from .networks import InfeasiblePartitionError, PartitionSpec
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

# Each reproduction policy kind's keys and defaults. A policy subtree may
# name any kind's keys; the defaults are filled in when the policy is built,
# never into the resolved config, whose hash would move.
POLICY_DEFAULTS = {
    "idle": {},
    "always": {},
    "random": {"p": 0.25},
    "threshold": {"min_health": 5.0},
    "q": {"reward": "combined", "alpha": 0.1, "epsilon0": 1.0, "decay": 0.995,
          "epsilon_min": 0.01, "q_init": 0.0},
}
_POLICY_KEYS = {"kind"}.union(*POLICY_DEFAULTS.values())

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
    "policy": {"kind": "random", **POLICY_DEFAULTS["random"]},
}

DEFAULTS_BY_EXPERIMENT = {
    "discrimination": DISCRIMINATION_DEFAULTS,
    "dispersal": DISPERSAL_DEFAULTS,
    "sandbox": SANDBOX_DEFAULTS,
}


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
        known = _POLICY_KEYS if path == "policy" else defaults
        if key not in known:
            raise ConfigError(f"unknown config key {where!r} (known: {', '.join(sorted(known))})")
        if not isinstance(defaults.get(key), dict):
            merged[key] = value
        elif not isinstance(value, dict):
            raise ConfigError(f"{where}: expected a mapping, got {value!r}")
        else:
            merged[key] = merge_with_defaults(value, defaults[key], where)
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
        if merged["experiment"] != kind:
            raise ConfigError(
                f"experiment: an override cannot change the experiment from {kind!r} "
                f"to {merged['experiment']!r}"
            )
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
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{path}: expected a finite number, got {value!r}")
    return number


def _as_bool(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{path}: expected true/false, got {value!r}")
    return value


def _as_seed(value, path: str) -> int:
    seed = _as_int(value, path)
    if seed < 0:
        raise ConfigError(f"{path}: expected a non-negative integer, got {seed}")
    return seed


def _as_out_dir(value) -> Optional[str]:
    if value is not None and not isinstance(value, str):
        raise ConfigError(f"out_dir: expected a directory path, got {value!r}")
    return value


def _as_reward(value, path: str) -> str:
    kinds = QReproductionPolicy.REWARD_KINDS
    if value not in kinds:
        raise ConfigError(f"{path}: expected one of {', '.join(kinds)}, got {value!r}")
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


def _as_list(value, path: str, item=_as_float) -> tuple:
    if not isinstance(value, (list, tuple)) or not value:
        noun = "numbers" if item is _as_float else "integers"
        raise ConfigError(f"{path}: expected a non-empty list of {noun}")
    return _distinct(tuple(item(v, f"{path}[{i}]") for i, v in enumerate(value)), path)


@contextmanager
def _naming(key: str = ""):
    """Re-raise a library ``ValueError`` as a ``ConfigError`` that starts with ``key``."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}" if key else str(exc)) from exc


def _build_space(data: dict) -> GenotypeSpace:
    with _naming("genotype"):
        return GenotypeSpace(
            loci=_as_int(data["genotype"]["loci"], "genotype.loci"),
            variants=_as_int(data["genotype"]["variants"], "genotype.variants"),
        )


def _build_learner(raw: dict, path: str) -> LearnerConfig:
    """The learner of ``learner.*``, or of a Q policy's checked ``policy.*``."""
    with _naming(path):
        return LearnerConfig(
            alpha=_as_float(raw["alpha"], f"{path}.alpha"),
            epsilon0=_as_float(raw["epsilon0"], f"{path}.epsilon0"),
            decay=None if raw["decay"] is None else _as_float(raw["decay"], f"{path}.decay"),
            epsilon_min=_as_float(raw["epsilon_min"], f"{path}.epsilon_min"),
            q_init=_as_float(raw["q_init"], f"{path}.q_init"),
        )


# ---------------------------------------------------------------------------
# Plans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepPlan:
    """A network sweep: each point's CSV key and config, in config order."""

    points: tuple[tuple[tuple, ExperimentConfig], ...]
    seeds: tuple[int, ...]
    jobs: int
    plot: bool
    out_dir: Optional[str]
    resolved: dict


@dataclass(frozen=True)
class SandboxPlan:
    sandbox: SandboxConfig
    seed: int
    out_dir: Optional[str]
    resolved: dict


def _shared_fields(resolved: dict) -> dict:
    """The ``ExperimentConfig`` fields that every point of a sweep shares."""
    steps_max = _as_int(resolved["steps_max"], "steps_max")
    window = _as_int(resolved["window"], "window")
    if window <= 0:
        raise ConfigError(f"window: expected a positive integer, got {window}")
    if steps_max <= window:
        raise ConfigError(
            f"steps_max: expected an integer above window ({window}), got {steps_max}"
        )
    return dict(
        space=_build_space(resolved),
        learner=_build_learner(resolved["learner"], "learner"),
        steps_max=steps_max,
        window=window,
    )


def _sweep_plan(resolved: dict, points: Iterable[tuple[tuple, ExperimentConfig]]) -> SweepPlan:
    """Build every point (a lazy ``points`` builds inside ``_naming``), check
    that each can run before any does, and read the sweep-wide keys."""
    with _naming():
        points = tuple(points)
        for _, config in points:
            try:
                config.validate_feasible()
            except InfeasiblePartitionError as exc:
                raise ConfigError(f"partition.etas: {exc}") from exc
    return SweepPlan(
        points=points,
        seeds=_as_list(resolved["seeds"], "seeds", _as_seed),
        jobs=_as_jobs(resolved["jobs"]),
        plot=_as_bool(resolved["plot"], "plot"),
        out_dir=_as_out_dir(resolved["out_dir"]),
        resolved=resolved,
    )


def build_discrimination_plan(resolved: dict) -> SweepPlan:
    """One point per benefit, keyed ``(c_over_b,)``."""
    shared = _shared_fields(resolved)
    cost = _as_float(resolved["dilemma"]["cost"], "dilemma.cost")
    benefits = _as_list(resolved["dilemma"]["benefits"], "dilemma.benefits")
    inclusive = _as_bool(resolved["inclusive"], "inclusive")
    self_play = _as_bool(resolved["self_play"], "self_play")
    with _naming("dilemma"):
        dilemmas = [DilemmaParams(benefit=benefit, cost=cost) for benefit in benefits]
    configs = (
        ExperimentConfig(
            kind="discrimination",
            dilemma=dilemma,
            inclusive=inclusive,
            self_play=self_play,
            **shared,
        )
        for dilemma in dilemmas
    )
    # each ratio is taken once its dilemma has checked b > c > 0
    plan = _sweep_plan(resolved, (((c.dilemma.cost / c.dilemma.benefit,), c) for c in configs))
    # the ratio keys the results, so two benefits must not round to one ratio
    _distinct(tuple(c_over_b for (c_over_b,), _ in plan.points), "dilemma.benefits (as c/b)")
    return plan


def build_dispersal_plan(resolved: dict) -> SweepPlan:
    """Points keyed ``(eta, b_over_c, inclusive)``, over etas, then b/c, then modes."""
    shared = _shared_fields(resolved)
    modes_raw = resolved["modes"]
    if not isinstance(modes_raw, (list, tuple)) or not modes_raw:
        raise ConfigError("modes: expected a non-empty list")
    modes = tuple(modes_raw)
    for mode in modes:
        if mode not in ("inclusive", "baseline"):
            raise ConfigError(f"modes: entries must be 'inclusive' or 'baseline', got {mode!r}")
    _distinct(modes, "modes")
    cost = _as_float(resolved["dilemma"]["cost"], "dilemma.cost")
    b_over_c = _as_list(resolved["dilemma"]["b_over_c"], "dilemma.b_over_c")
    etas = _as_list(resolved["partition"]["etas"], "partition.etas")
    community_size = _as_int(resolved["partition"]["community_size"], "partition.community_size")
    k_avg = _as_float(resolved["partition"]["k_avg"], "partition.k_avg")
    edge_sampling = _as_bool(resolved["edge_sampling"], "edge_sampling")
    with _naming("dilemma"):
        dilemmas = [DilemmaParams(benefit=boc * cost, cost=cost) for boc in b_over_c]
    # each partition field is checked under its own key
    with _naming("partition.community_size"):
        partition = PartitionSpec(community_size, shared["space"].size, 1.0, 1.0)
    with _naming("partition.k_avg"):
        partition = replace(partition, k_avg=k_avg)
    with _naming("partition.etas"):
        partitions = [replace(partition, eta=eta) for eta in etas]
    return _sweep_plan(resolved, (
        ((partition.eta, boc, mode == "inclusive"), ExperimentConfig(
            kind="dispersal",
            dilemma=dilemma,
            inclusive=(mode == "inclusive"),
            partition=partition,
            edge_sampling=edge_sampling,
            **shared,
        ))
        for partition in partitions
        for boc, dilemma in zip(b_over_c, dilemmas)
        for mode in modes
    ))


def _build_policy(raw: dict) -> ReproductionPolicy:
    kind = raw["kind"]
    if kind not in POLICY_DEFAULTS:
        raise ConfigError(f"policy.kind must be one of {tuple(POLICY_DEFAULTS)}, got {kind!r}")
    # every key given is checked, its own kind's or not; decay may not be null
    values = {
        key: (_as_reward if key == "reward" else _as_float)(value, f"policy.{key}")
        for key, value in {**POLICY_DEFAULTS[kind], **raw}.items()
        if key != "kind"
    }
    if kind == "q":
        return QReproductionPolicy(_build_learner(values, "policy"), values["reward"])
    with _naming("policy"):
        if kind == "random":
            return RandomPolicy(values["p"])
        if kind == "threshold":
            return ThresholdPolicy(values["min_health"])
    return IdlePolicy() if kind == "idle" else AlwaysReproducePolicy()


def build_sandbox_plan(resolved: dict) -> SandboxPlan:
    space = _build_space(resolved)
    raw_genotype = resolved["initial_genotype"]
    if raw_genotype is None:
        initial = (0,) * space.loci
    else:
        with _naming("initial_genotype"):
            initial = parse_genotype(str(raw_genotype))
    with _naming("mutation.mu"):
        mutation = MutationSpec(_as_float(resolved["mutation"]["mu"], "mutation.mu"))
    with _naming():  # each SandboxConfig message starts with its field's name
        sandbox = SandboxConfig(
            space=space,
            initial_genotype=initial,
            mutation=mutation,
            initial_health=_as_float(resolved["initial_health"], "initial_health"),
            food_rate=_as_int(resolved["food_rate"], "food_rate"),
            steps=_as_int(resolved["steps"], "steps"),
            policy=_build_policy(resolved["policy"]),
        )
    return SandboxPlan(
        sandbox=sandbox,
        seed=_as_seed(resolved["seed"], "seed"),
        out_dir=_as_out_dir(resolved["out_dir"]),
        resolved=resolved,
    )
