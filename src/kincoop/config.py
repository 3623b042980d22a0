"""Config-file schema for the CLI: defaults, merging, overrides, validation.

A config is a single YAML mapping whose key tree mirrors the experiment
parameters; every key has a default, so a file may be as short as
``experiment: discrimination``. Flat ``key.path=value`` overrides are
merged on top; they may not change ``experiment``. Unknown keys are
rejected with their full path, as are a key given twice in one mapping
and a value that is not a mapping where the defaults hold one. Under
``policy`` the keys of every policy kind are known and type-checked,
though a policy reads only its own kind's keys. A key's type is its
default's: a bool, an integer, a number or a list of numbers. Only the
keys in ``_COERCERS`` say more: the non-negative ``seed`` and ``seeds``,
``modes``, ``learner.decay`` (which may be null), the choice
``policy.reward``, and three keys checked where they are read
(``experiment``, ``initial_genotype``, ``policy.kind``). Every validation
message names the offending key. Where a run writes and on how many
workers are not keys: they are the CLI's ``--out-dir`` and ``--jobs``.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
from contextlib import contextmanager
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Iterable, Sequence

import yaml

from .experiments import ExperimentConfig
from .games import DilemmaParams
from .genotype import GenotypeSpace, MutationSpec, parse_genotype
from .learning import LearnerConfig
from .networks import InfeasiblePartitionError, PartitionSpec
from .popreward import (
    QReproductionPolicy,
    RandomPolicy,
    ReproductionPolicy,
    SandboxConfig,
    ThresholdPolicy,
)


class ConfigError(Exception):
    """A config file or override that cannot be used, with a precise path."""


DISCRIMINATION_DEFAULTS = {
    "experiment": "discrimination",
    "seeds": [1, 2, 3, 4, 5],
    "plot": True,
    "inclusive": True,
    "self_play": True,
    "steps_max": 3000,
    "window": 200,
    "genotype": {"loci": 6, "variants": 2},
    # cost/benefit ratios 0.25, 0.4, 0.7: off the similarity lattice k/6,
    # so every lattice value is strictly above or below each threshold
    "dilemma": {"cost": 1.0, "benefits": [4.0, 2.5, 10.0 / 7.0]},
    "learner": asdict(LearnerConfig()),
}

DISPERSAL_DEFAULTS = {
    "experiment": "dispersal",
    "seeds": list(range(1, 11)),
    "plot": True,
    "modes": ["inclusive", "baseline"],
    "edge_sampling": False,
    "steps_max": 2500,
    "window": 200,
    "genotype": {"loci": 3, "variants": 2},
    "partition": {"community_size": 8, "k_avg": 9.0, "etas": [0.05, 0.1, 0.5]},
    "dilemma": {"cost": 1.0, "b_over_c": [2.0, 4.0, 6.0, 8.0, 10.0, 12.0]},
    "learner": asdict(LearnerConfig()),
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
# What a policy subtree may name, typed by its defaults: the kind and every kind's keys.
_POLICY_SCHEMA = {"kind": "random",
                  **{key: value for d in POLICY_DEFAULTS.values() for key, value in d.items()}}

SANDBOX_DEFAULTS = {
    "experiment": "sandbox",
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
        loader = yaml.SafeLoader(path.read_text(encoding="utf-8"))
        node = loader.get_single_node()
        _reject_duplicate_keys(path, node)
        data = loader.construct_document(node) if node is not None else None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text (byte {exc.start})") from exc
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ConfigError(f"{path}: invalid YAML{where}") from exc
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    return data


def _reject_duplicate_keys(path: Path, root) -> None:
    """Raise on a key given twice in one mapping, which YAML would resolve by
    silently keeping the last value."""
    stack, checked = [(root, "")], set()
    while stack:
        node, where = stack.pop()
        if id(node) in checked:  # an alias: the node, maybe an ancestor, was walked
            continue
        checked.add(id(node))
        if isinstance(node, yaml.MappingNode):
            keys = set()
            for key, value in node.value:
                name = f"{where}.{key.value}" if where else str(key.value)
                if isinstance(key, yaml.ScalarNode):
                    if (key.tag, key.value) in keys:
                        raise ConfigError(
                            f"{path}: duplicate key {name!r} at line {key.start_mark.line + 1}"
                        )
                    keys.add((key.tag, key.value))
                stack.append((value, name))
        elif isinstance(node, yaml.SequenceNode):
            stack += [(item, f"{where}[{i}]") for i, item in enumerate(node.value)]


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
        known = _POLICY_SCHEMA if path == "policy" else defaults
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
    if kind not in tuple(DEFAULTS_BY_EXPERIMENT):  # a tuple: kind may be unhashable
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
    hashed = {k: v for k, v in resolved.items() if k != "plot"}
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


def _as_reward(value, path: str) -> str:
    kinds = QReproductionPolicy.REWARD_KINDS
    if value not in kinds:
        raise ConfigError(f"{path}: expected one of {', '.join(kinds)}, got {value!r}")
    return value


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


def _as_modes(value, path: str) -> tuple:
    if not isinstance(value, (list, tuple)) or not value:
        raise ConfigError(f"{path}: expected a non-empty list")
    for mode in value:
        if mode not in ("inclusive", "baseline"):
            raise ConfigError(f"{path}: entries must be 'inclusive' or 'baseline', got {mode!r}")
    return _distinct(tuple(value), path)


# A leaf is coerced by its default's type, except where its path is listed here.
_BY_TYPE = {bool: _as_bool, int: _as_int, float: _as_float, list: _as_list}
_COERCERS = {
    **dict.fromkeys(("experiment", "initial_genotype", "policy.kind"), lambda value, path: value),
    "seed": _as_seed,
    "seeds": lambda value, path: _as_list(value, path, _as_seed),
    "modes": _as_modes,
    "learner.decay": lambda value, path: None if value is None else _as_float(value, path),
    "policy.reward": _as_reward,
}


def _typed(tree: dict, defaults: dict, path: str = "") -> dict:
    """Each leaf of a resolved ``tree``, by dotted path, coerced as its default says."""
    known = _POLICY_SCHEMA if path == "policy" else defaults
    typed = {}
    for key, value in tree.items():
        where = f"{path}.{key}" if path else key
        if isinstance(known[key], dict):
            typed.update(_typed(value, known[key], where))
        else:
            typed[where] = (_COERCERS.get(where) or _BY_TYPE[type(known[key])])(value, where)
    return typed


@contextmanager
def _naming(key: str = ""):
    """Re-raise a library ``ValueError`` as a ``ConfigError`` that starts with ``key``."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}" if key else str(exc)) from exc


def _build_space(typed: dict) -> GenotypeSpace:
    with _naming("genotype"):
        return GenotypeSpace(loci=typed["genotype.loci"], variants=typed["genotype.variants"])


def _build_learner(typed: dict, path: str) -> LearnerConfig:
    """The learner of ``learner.*``, or of a Q policy's ``policy.*``."""
    with _naming(path):
        return LearnerConfig(**{key: typed[f"{path}.{key}"] for key in asdict(LearnerConfig())})


# ---------------------------------------------------------------------------
# Plans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepPlan:
    """A network sweep: each point's CSV key and config, in config order."""

    points: tuple[tuple[tuple, ExperimentConfig], ...]
    seeds: tuple[int, ...]
    plot: bool
    resolved: dict


@dataclass(frozen=True)
class SandboxPlan:
    sandbox: SandboxConfig
    seed: int
    resolved: dict


def _shared_fields(typed: dict) -> dict:
    """The ``ExperimentConfig`` fields that every point of a sweep shares."""
    return dict(space=_build_space(typed), learner=_build_learner(typed, "learner"),
                steps_max=typed["steps_max"], window=typed["window"])


def _sweep_plan(typed: dict, resolved: dict, points: Iterable) -> SweepPlan:
    """Build every point before any runs (a lazy ``points`` builds inside
    ``_naming``): a point that cannot run fails as its ``ExperimentConfig``
    is built."""
    with _naming():
        try:
            points = tuple(points)
        except InfeasiblePartitionError as exc:
            raise ConfigError(f"partition.etas: {exc}") from exc
    return SweepPlan(points=points, seeds=typed["seeds"], plot=typed["plot"], resolved=resolved)


def build_discrimination_plan(resolved: dict) -> SweepPlan:
    """One point per benefit, keyed ``(c_over_b,)``."""
    typed = _typed(resolved, DISCRIMINATION_DEFAULTS)
    shared = _shared_fields(typed)
    cost, benefits = typed["dilemma.cost"], typed["dilemma.benefits"]
    with _naming("dilemma"):
        dilemmas = [DilemmaParams(benefit=benefit, cost=cost) for benefit in benefits]
    # each ratio is taken once its dilemma has checked b > c > 0
    plan = _sweep_plan(typed, resolved, (
        ((dilemma.cost / dilemma.benefit,), ExperimentConfig(
            kind="discrimination",
            dilemma=dilemma,
            inclusive=typed["inclusive"],
            self_play=typed["self_play"],
            **shared,
        ))
        for dilemma in dilemmas
    ))
    # the ratio keys the results, so two benefits must not round to one ratio
    _distinct(tuple(c_over_b for (c_over_b,), _ in plan.points), "dilemma.benefits (as c/b)")
    return plan


def build_dispersal_plan(resolved: dict) -> SweepPlan:
    """Points keyed ``(eta, b_over_c, inclusive)``, over etas, then b/c, then modes."""
    typed = _typed(resolved, DISPERSAL_DEFAULTS)
    shared = _shared_fields(typed)
    cost, b_over_c = typed["dilemma.cost"], typed["dilemma.b_over_c"]
    with _naming("dilemma"):
        dilemmas = [DilemmaParams(benefit=boc * cost, cost=cost) for boc in b_over_c]
    # each partition field is checked under its own key
    with _naming("partition.community_size"):
        partition = PartitionSpec(typed["partition.community_size"], shared["space"].size, 1.0, 1.0)
    with _naming("partition.k_avg"):
        partition = replace(partition, k_avg=typed["partition.k_avg"])
    with _naming("partition.etas"):
        partitions = [replace(partition, eta=eta) for eta in typed["partition.etas"]]
    return _sweep_plan(typed, resolved, (
        ((partition.eta, boc, mode == "inclusive"), ExperimentConfig(
            kind="dispersal",
            dilemma=dilemma,
            inclusive=(mode == "inclusive"),
            partition=partition,
            edge_sampling=typed["edge_sampling"],
            **shared,
        ))
        for partition in partitions
        for boc, dilemma in zip(b_over_c, dilemmas)
        for mode in typed["modes"]
    ))


def _build_policy(typed: dict) -> ReproductionPolicy:
    kind = typed["policy.kind"]
    if kind == "q":
        return QReproductionPolicy(_build_learner(typed, "policy"), typed["policy.reward"])
    with _naming("policy"):
        if kind == "random":
            return RandomPolicy(typed["policy.p"])
        if kind == "threshold":
            return ThresholdPolicy(typed["policy.min_health"])
    return ThresholdPolicy(math.inf if kind == "idle" else -math.inf)


def build_sandbox_plan(resolved: dict) -> SandboxPlan:
    kinds, policy = tuple(POLICY_DEFAULTS), resolved["policy"]
    if policy["kind"] not in kinds:  # a tuple: the kind may be unhashable
        raise ConfigError(f"policy.kind must be one of {kinds}, got {policy['kind']!r}")
    # every policy key given is typed, its own kind's or not
    typed = _typed(
        {**resolved, "policy": {**POLICY_DEFAULTS[policy["kind"]], **policy}}, SANDBOX_DEFAULTS
    )
    space = _build_space(typed)
    if typed["initial_genotype"] is None:
        initial = (0,) * space.loci
    else:
        with _naming("initial_genotype"):
            initial = parse_genotype(str(typed["initial_genotype"]))
    with _naming("mutation.mu"):
        mutation = MutationSpec(typed["mutation.mu"])
    with _naming():  # each SandboxConfig message starts with its field's name
        sandbox = SandboxConfig(
            space=space,
            initial_genotype=initial,
            mutation=mutation,
            initial_health=typed["initial_health"],
            food_rate=typed["food_rate"],
            steps=typed["steps"],
            policy=_build_policy(typed),
        )
    return SandboxPlan(sandbox=sandbox, seed=typed["seed"], resolved=resolved)
