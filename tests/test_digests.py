"""Golden sha256 digests of the CSV outputs.

Each case runs one command on a shipped config, shrunk through overrides
where the full run would be slow, and compares every CSV it writes with a
digest recorded before the code it covers was reworked: the sandbox reward
path, and the merge of the two network runners into one learning kernel.
A refactor that changes any output byte fails here even when every
behavioural test still passes.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from kincoop.cli import main
from kincoop.experiments import ExperimentConfig, run_dispersal
from kincoop.games import DilemmaParams
from kincoop.genotype import GenotypeSpace, enumerate_genotypes
from kincoop.learning import LearnerConfig
from kincoop.networks import PartitionSpec, build_partition_network_with_probs

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

DISCRIMINATION_SMALL = [
    "discrimination", str(CONFIGS / "discrimination.yaml"),
    "--seeds", "1", "-s", "steps_max=400", "-s", "window=100", "--jobs", "1", "--no-plot",
]
DISPERSAL_SMALL = [
    "dispersal", str(CONFIGS / "dispersal.yaml"),
    "--seeds", "1", "-s", "steps_max=300", "-s", "window=100", "--jobs", "1", "--no-plot",
]
# epsilon reaches a floor of 1e-6 near step 131, so runs stop a window after
# their greedy policy last changed; the floor is written as a decimal because
# YAML reads "1e-6" as a string
EARLY_STOP = ["-s", "learner.decay=0.9", "-s", "learner.epsilon_min=0.000001"]

CASES = {
    "sandbox-shipped": (["sandbox", str(CONFIGS / "sandbox.yaml")], {
        "sandbox_rewards.csv": "7c687ef67c5074cc04ec9d48a9d6a848991629fbc7f964ea1b26eb6a23f6f7e1",
        "sandbox_trace.csv": "934cd5c8354dc8a46d3c303aaa3c832e72492a608d49b7bf7bae1217db7cbefb",
    }),
    # Q policy on the combined reward: every reward it learns from goes
    # back into its action choices, so a one-ulp change moves the trace
    "sandbox-q-combined": ([
        "sandbox", str(CONFIGS / "sandbox.yaml"),
        "-s", "genotype.loci=6", "-s", "initial_genotype=null", "-s", "mutation.mu=0.1",
        "-s", "food_rate=60", "-s", "steps=150",
        "-s", "policy.kind=q", "-s", "policy.reward=combined",
    ], {
        "sandbox_rewards.csv": "30ac4b3ea5952297924825060a587c1e63b57ba20badfdeb13f8e7b1ff191753",
        "sandbox_trace.csv": "af496d2a7d087524a4349f25f12d2ab0727de875467a4937c7406f9eac17615b",
    }),
    "discrimination-small": (DISCRIMINATION_SMALL, {
        "discrimination.csv": "83b49a009d1f0f5d8ff74c5b07ecd85517183e92cc5989d1518f57b3b5cdb4a2",
    }),
    "discrimination-baseline-no-self-play": ([
        *DISCRIMINATION_SMALL, "-s", "self_play=false", "--inclusive=false",
    ], {
        "discrimination.csv": "fdf094e91f3c1d6e06d5b6d83324e9ee7b845d1d371a8b159cc2a1430baa4407",
    }),
    "discrimination-early-stop": ([*DISCRIMINATION_SMALL, *EARLY_STOP], {
        "discrimination.csv": "2c8300eefcc7d21a86d5e990ea097a6f130f75a0b1f2f8ecadb854ff791f778a",
    }),
    "dispersal-small": (DISPERSAL_SMALL, {
        "dispersal.csv": "89bb20afaf03f0d28e2de038e746f4799142fe310846901355df4cedf5788b5b",
    }),
    "dispersal-edge-sampling": ([*DISPERSAL_SMALL, "-s", "edge_sampling=true"], {
        "dispersal.csv": "16339df166289e853ab70033d61acdb98bdde9a251f0d7d0c3ca0137acdc2a69",
    }),
    "dispersal-early-stop": ([*DISPERSAL_SMALL, *EARLY_STOP], {
        "dispersal.csv": "4c9f757b924a930f786a494857c6066634d0de2319db6572476978d86810e91e",
    }),
}

# (steps_run, converged_at) of every run, in *_runs.json order
STOPS = {
    "discrimination-early-stop": ("discrimination_runs.json", [
        (200, 200), (200, 200), (161, 161),
    ]),
    "dispersal-early-stop": ("dispersal_runs.json", [
        (133, 133), (133, 133), (133, 133), (133, 133), (133, 133), (153, 153),
        (133, 133), (154, 154), (133, 133), (169, 169), (133, 133), (164, 164),
        (133, 133), (133, 133), (133, 133), (133, 133), (133, 133), (136, 136),
        (133, 133), (147, 147), (133, 133), (161, 161), (133, 133), (164, 164),
        (167, 167), (133, 133), (134, 134), (133, 133), (133, 133), (136, 136),
        (133, 133), (155, 155), (133, 133), (144, 144), (133, 133), (144, 144),
    ]),
}


def run_cli(args, out_dir):
    result = CliRunner().invoke(main, [*args, "--out-dir", str(out_dir)])
    assert result.exit_code == 0, result.output
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out_dir.glob("*.csv"))
    }


@pytest.mark.parametrize("case", sorted(CASES))
def test_csv_digests(case, tmp_path):
    args, expected = CASES[case]
    out_dir = tmp_path / "out"
    assert run_cli(args, out_dir) == expected
    if case in STOPS:
        name, stops = STOPS[case]
        runs = json.loads((out_dir / name).read_text())
        assert [(run["steps_run"], run["converged_at"]) for run in runs] == stops


# A sparse override network with 9 isolated nodes and 54 edges, which the
# sampled partition networks of the shipped config almost never produce.
SPARSE_DISPERSAL = {
    (False, True): "b092d0b25418e205a7560a5d5aaf09428bf8bd9a181e3d8efc7fe233f3028f88",
    (False, False): "a4c8a3304ca3c876fef1e348f43ca6277fbb57226008e60a72177e57bc6de8fb",
    (True, True): "62c407c11f10242c81f1e4ea1e70552e922d57ec76e5c8a73205dbc9abb1d540",
    (True, False): "97ef2cf9495398200d816d31fe5a2aa036aba7817d17bab4821ce0373aeb1d00",
}


@pytest.mark.parametrize(
    "edge_sampling,inclusive", sorted(SPARSE_DISPERSAL), ids=lambda flag: str(flag).lower()
)
def test_sparse_network_dispersal_digests(edge_sampling, inclusive):
    space = GenotypeSpace(3, 2)
    net = build_partition_network_with_probs(
        8, enumerate_genotypes(space), 0.15, 0.01, np.random.default_rng(7)
    )
    cfg = ExperimentConfig(
        kind="dispersal",
        space=space,
        dilemma=DilemmaParams(8.0, 1.0),
        learner=LearnerConfig(),
        steps_max=300,
        window=50,
        inclusive=inclusive,
        partition=PartitionSpec(8, 8, 9.0, 0.1),
        edge_sampling=edge_sampling,
    )
    res = run_dispersal(cfg, 5, network_override=net)
    assert res.isolated_count == 9
    assert (res.q_values.dtype, res.coop_freq.dtype, res.greedy_final.dtype) == (
        np.float64, np.float64, np.int8
    )
    digest = hashlib.sha256(
        res.q_values.tobytes() + res.coop_freq.tobytes() + res.greedy_final.tobytes()
    ).hexdigest()
    assert digest == SPARSE_DISPERSAL[edge_sampling, inclusive]
