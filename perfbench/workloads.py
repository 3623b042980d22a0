"""The benchmark's workloads: configs, command lines and output checks.

Each workload is one ``kincoop`` command on a config owned by the
benchmark (``configs/``). The workload seed is written into that config;
the program sees only the generated file.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import yaml

HERE = Path(__file__).resolve().parent

# The seed at which the output digests in pins.json were taken.
DEFAULT_SEED = 1


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def experiment_state_steps(config: dict, out_dir: Path) -> int:
    """Sum over runs of steps_run x active Q-states.

    Discrimination keeps one state per (agent, opponent) pair, N^2 with
    self-play; dispersal keeps one state per node.
    """
    n_genotypes = config["genotype"]["variants"] ** config["genotype"]["loci"]
    if config["experiment"] == "discrimination":
        states = n_genotypes * n_genotypes
        if not config["self_play"]:
            states -= n_genotypes
    else:
        states = n_genotypes * config["partition"]["community_size"]
    runs = json.loads((out_dir / f"{config['experiment']}_runs.json").read_text())
    return sum(run["steps_run"] for run in runs) * states


def sandbox_agent_steps(config: dict, out_dir: Path) -> int:
    """Sum over steps of the agents alive when the step starts.

    The trace CSV lists, per step t, the agents alive after it (event
    "none" or "birth") and the deaths. The agents alive at the start of
    step t are those alive after step t-1; at t=1 that is the founder.
    """
    alive_after: dict[int, int] = {}
    with open(out_dir / "sandbox_trace.csv", newline="", encoding="utf-8") as handle:
        for row in csv.DictReader(handle):
            t = int(row["t"])
            alive_after.setdefault(t, 0)
            if row["event"] != "death":
                alive_after[t] += 1
    last = max(alive_after, default=0)
    return (1 if last else 0) + sum(alive_after[t] for t in range(1, last))


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    config_file: str
    csvs: tuple[str, ...]
    agent_steps: Callable[[dict, Path], int]
    why: str

    @property
    def parallel(self) -> bool:
        """Whether the command runs a sweep and takes --jobs."""
        return self.command != "sandbox"

    def write_config(self, seed: int, path: Path) -> dict:
        config = yaml.safe_load((HERE / "configs" / self.config_file).read_text())
        if self.parallel:
            config["seeds"] = [seed]
        else:
            config["seed"] = seed
        path.write_text(yaml.safe_dump(config, sort_keys=False), encoding="utf-8")
        return config

    def argv(self, config_path: Path, out_dir: Path, jobs: int) -> list[str]:
        args = [self.command, str(config_path), "--out-dir", str(out_dir)]
        if self.parallel:
            args += ["--jobs", str(jobs)]
        return args

    def digests(self, out_dir: Path) -> dict[str, str]:
        return {name: sha256_file(out_dir / name) for name in self.csvs}

    def output_problem(self, out_dir: Path, stdout: str, reference: dict | None) -> str | None:
        """Why a finished command's outputs are wrong, or None if they are right."""
        missing = [name for name in self.csvs if not (out_dir / name).is_file()]
        if missing:
            return f"missing outputs: {', '.join(missing)}"
        if reference is not None and self.digests(out_dir) != reference:
            return "CSV digests differ from the reference"
        if self.command == "sandbox" and "identity check PASS" not in stdout:
            return "sandbox did not print 'identity check PASS'"
        return None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "disc", "discrimination", "disc.yaml", ("discrimination.csv",),
            experiment_state_steps,
            "dense N^2 kernel over 4096 Q-states per run; 3 long tasks on 2 workers show pool imbalance",
        ),
        Workload(
            "disp", "dispersal", "disp.yaml", ("dispersal.csv",),
            experiment_state_steps,
            "36 short runs on 64-node partition networks: numpy call overhead, network sampling, scheduling",
        ),
        Workload(
            "sandbox", "sandbox", "sandbox.yaml", ("sandbox_trace.csv", "sandbox_rewards.csv"),
            sandbox_agent_steps,
            "pure-Python population rewards: dict Q-learner, O(T*pop^2) identity check, CSV output",
        ),
        Workload(
            "disp-wide", "dispersal", "disp-wide.yaml", ("dispersal.csv",),
            experiment_state_steps,
            "1024-node dispersal whose dense per-run arrays outgrow L2 and raise peak memory",
        ),
    )
}


def load_pins() -> dict[str, dict[str, str]]:
    return json.loads((HERE / "pins.json").read_text())
