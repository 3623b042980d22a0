"""Golden sha256 digests of the command outputs.

Each case runs one command on a shipped config, shrunk through overrides
where the full run would be slow, and compares every CSV it writes with a
digest recorded before the code it covers was reworked: the sandbox reward
path, the merge of the two network runners into one learning kernel, the
sandbox Q policy's move from a dict table to two floats per agent, and the
dispersal reward's move from a dense row sum to an edge list summed in
numpy's pairwise order. The early-stop cases at the end pin the results of
points that stop before ``steps_max``, recorded before the learning kernel
dropped its stored window of greedy snapshots. The output cases pin the
SVG chart and the ``*_runs.json`` sidecar of each sweep command as well.
The override-network dispersal groups (edgeless, and with isolated nodes
trailing the edge list) and the discrimination groups under a mixed-sign
similarity override were recorded before the pair rewards of every path
moved to one table.
The floor-from-start cases (epsilon at its floor from step 0) and the
early stop without self-play were recorded before the kernel took greedy
snapshots only from the first step whose snapshot the stop rule can read.
A refactor that changes any output byte fails here even when every
behavioural test still passes.
"""

import dataclasses
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from kincoop import popreward
from kincoop.cli import main
from kincoop.config import config_hash, load_config_file, resolve_config
from kincoop.experiments import (
    ExperimentConfig,
    _run_discrimination_group,
    _run_dispersal_group,
    run_discrimination,
    run_dispersal,
    run_experiment,
)
from kincoop.games import DilemmaParams
from kincoop.genotype import GenotypeSpace, enumerate_genotypes
from kincoop.learning import LearnerConfig
from kincoop.networks import PartitionSpec, build_partition_network_with_probs

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

DISCRIMINATION_SMALL = [
    "discrimination", str(CONFIGS / "discrimination.yaml"),
    "-s", "seeds=[1]", "-s", "steps_max=400", "-s", "window=100", "--jobs", "1", "-s", "plot=false",
]
DISPERSAL_SMALL = [
    "dispersal", str(CONFIGS / "dispersal.yaml"),
    "-s", "seeds=[1]", "-s", "steps_max=300", "-s", "window=100", "--jobs", "1", "-s", "plot=false",
]
# epsilon reaches a floor of 1e-6 near step 131, so runs stop a window after
# their greedy policy last changed; the floor is written as a decimal because
# YAML reads "1e-6" as a string
EARLY_STOP = ["-s", "learner.decay=0.9", "-s", "learner.epsilon_min=0.000001"]
# epsilon at its 0.001 floor from step 0, so the stop rule is read at every step
FLOOR_FROM_START = ["-s", "learner.epsilon0=0.001"]
# no exploration at all: the greedy policy settles and holds a window from step 0
NO_EXPLORATION = ["-s", "learner.epsilon0=0.0", "-s", "learner.epsilon_min=0.0"]
# two seeds over two workers: the points of one (eta, mode, seed) share a
# network and a random stream, and with EARLY_STOP they stop at different steps
TWO_SEEDS_JOBS2 = ["-s", "seeds=[1,2]", "--jobs", "2"]
# 9 communities of 15 agents (2 loci, 3 variants): N = 135 is not a multiple
# of 8, so numpy's pairwise row sum splits it into leaves of 64 and 71, the
# second with a 7-term tail
NODES_135 = [
    "-s", "genotype.loci=2", "-s", "genotype.variants=3", "-s", "partition.community_size=15",
]
SANDBOX_Q = [
    "sandbox", str(CONFIGS / "sandbox.yaml"),
    "-s", "policy.kind=q", "-s", "policy.alpha=0.5", "-s", "policy.q_init=0.3",
]

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
    # Q policy with a partial step size and a nonzero initial value, on the
    # two other rewards: pins its draw order and its update on the shipped config
    "sandbox-q-replication": ([*SANDBOX_Q, "-s", "policy.reward=replication"], {
        "sandbox_rewards.csv": "b575ae9a125f7043a331ff45a61eaa0b18c771e14ef2f590d46627fba4d22219",
        "sandbox_trace.csv": "51129c65b9817b9e7e739d553730785e9992e51eab47f6cc7dbe61d7c29eb767",
    }),
    "sandbox-q-longevity": ([*SANDBOX_Q, "-s", "policy.reward=longevity"], {
        "sandbox_rewards.csv": "742517052d8b71bf8cc05d64956eb33f6301036a6aadaa8b14e8876282b3b476",
        "sandbox_trace.csv": "40a888fb4822e3ab36f55adb73bcd95a3cd0fb126fca7cc61794ee0dba4a7d06",
    }),
    "discrimination-small": (DISCRIMINATION_SMALL, {
        "discrimination.csv": "83b49a009d1f0f5d8ff74c5b07ecd85517183e92cc5989d1518f57b3b5cdb4a2",
    }),
    "discrimination-baseline-no-self-play": ([
        *DISCRIMINATION_SMALL, "-s", "self_play=false", "-s", "inclusive=false",
    ], {
        "discrimination.csv": "fdf094e91f3c1d6e06d5b6d83324e9ee7b845d1d371a8b159cc2a1430baa4407",
    }),
    "discrimination-early-stop": ([*DISCRIMINATION_SMALL, *EARLY_STOP], {
        "discrimination.csv": "2c8300eefcc7d21a86d5e990ea097a6f130f75a0b1f2f8ecadb854ff791f778a",
    }),
    "discrimination-early-stop-no-self-play": ([*DISCRIMINATION_SMALL, *EARLY_STOP, "-s", "self_play=false"], {
        "discrimination.csv": "0eacedd00e693fb7cff45586d2400d6fddcef22c33215ff6a722191437f668fe",
    }),
    "discrimination-floor-from-start": ([*DISCRIMINATION_SMALL, *FLOOR_FROM_START], {
        "discrimination.csv": "ea0159f7355aff84a662e21bcb058664964342332d181a3fe94e18269d1985df",
    }),
    "discrimination-no-exploration-no-self-play": ([
        *DISCRIMINATION_SMALL, *NO_EXPLORATION, "-s", "self_play=false",
    ], {
        "discrimination.csv": "1d73b0ff2cf09a876d913b21215b254148acd5ed59238aaea19d94db1d3ccd2e",
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
    "dispersal-floor-from-start": ([*DISPERSAL_SMALL, *FLOOR_FROM_START], {
        "dispersal.csv": "8e90c5eebb6f56f7e9216d1aa5600f9d099b75a0d1f74d05aaa779a7898796b2",
    }),
    "dispersal-two-seeds-jobs2": ([*DISPERSAL_SMALL, *TWO_SEEDS_JOBS2], {
        "dispersal.csv": "c998b912bf825548e4b9e9a7f4809db55724335baaacf6c5c05643e400eace7c",
    }),
    "dispersal-two-seeds-jobs2-early-stop": ([*DISPERSAL_SMALL, *TWO_SEEDS_JOBS2, *EARLY_STOP], {
        "dispersal.csv": "72bba58e07f57f6328454cac93498f3911cd169447992131f88b7eaf96251b7a",
    }),
    "dispersal-135-nodes": ([*DISPERSAL_SMALL, *NODES_135], {
        "dispersal.csv": "93239e1e64e17ec3c6203aff7951f4fc2d8f5feca52066f7326211974f21a957",
    }),
    "dispersal-135-nodes-edge-sampling": ([*DISPERSAL_SMALL, *NODES_135, "-s", "edge_sampling=true"], {
        "dispersal.csv": "e72bfb04e31919b5ba42f6d8a16142451cc46401e800b0886419a9c959bf5cde",
    }),
}

# (steps_run, converged_at) of every run, in *_runs.json order
STOPS = {
    "discrimination-early-stop": ("discrimination_runs.json", [
        (200, 200), (200, 200), (161, 161),
    ]),
    "discrimination-early-stop-no-self-play": ("discrimination_runs.json", [
        (200, 200), (200, 200), (161, 161),
    ]),
    "discrimination-floor-from-start": ("discrimination_runs.json", [
        (400, None), (400, None), (400, None),
    ]),
    "discrimination-no-exploration-no-self-play": ("discrimination_runs.json", [
        (113, 113), (113, 113), (113, 113),
    ]),
    "dispersal-floor-from-start": ("dispersal_runs.json", [
        (259, 259), (112, 112), (259, 259), (145, 145), (259, 259), (145, 145),
        (259, 259), (145, 145), (259, 259), (145, 145), (259, 259), (145, 145),
        (259, 259), (111, 111), (259, 259), (148, 148), (259, 259), (145, 145),
        (259, 259), (145, 145), (259, 259), (145, 145), (259, 259), (145, 145),
        (167, 167), (114, 114), (259, 259), (145, 145), (259, 259), (145, 145),
        (259, 259), (145, 145), (259, 259), (145, 145), (259, 259), (145, 145),
    ]),
    "dispersal-early-stop": ("dispersal_runs.json", [
        (133, 133), (133, 133), (133, 133), (133, 133), (133, 133), (153, 153),
        (133, 133), (154, 154), (133, 133), (169, 169), (133, 133), (164, 164),
        (133, 133), (133, 133), (133, 133), (133, 133), (133, 133), (136, 136),
        (133, 133), (147, 147), (133, 133), (161, 161), (133, 133), (164, 164),
        (167, 167), (133, 133), (134, 134), (133, 133), (133, 133), (136, 136),
        (133, 133), (155, 155), (133, 133), (144, 144), (133, 133), (144, 144),
    ]),
    "dispersal-two-seeds-jobs2-early-stop": ("dispersal_runs.json", [
        (133, 133), (133, 133), (133, 133), (133, 133), (133, 133), (133, 133),
        (133, 133), (133, 133), (133, 133), (133, 133), (153, 153), (152, 152),
        (133, 133), (133, 133), (154, 154), (155, 155), (133, 133), (133, 133),
        (169, 169), (160, 160), (133, 133), (133, 133), (164, 164), (161, 161),
        (133, 133), (143, 143), (133, 133), (133, 133), (133, 133), (133, 133),
        (133, 133), (133, 133), (133, 133), (133, 133), (136, 136), (136, 136),
        (133, 133), (133, 133), (147, 147), (155, 155), (133, 133), (133, 133),
        (161, 161), (149, 149), (133, 133), (133, 133), (164, 164), (151, 151),
        (167, 167), (152, 152), (133, 133), (133, 133), (134, 134), (143, 143),
        (133, 133), (133, 133), (133, 133), (133, 133), (136, 136), (134, 134),
        (133, 133), (143, 143), (155, 155), (144, 144), (133, 133), (143, 143),
        (144, 144), (147, 147), (133, 133), (143, 143), (144, 144), (158, 158),
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


def test_sandbox_rewards_do_not_use_builtin_float_sum(monkeypatch, tmp_path):
    # CPython 3.12 made float sum() compensated. math.fsum stands in for
    # it here, so a float sum() left on the reward path moves these digests
    # (at loci 6 the similarities k/6 round when added).
    monkeypatch.setattr(popreward, "sum", math.fsum, raising=False)
    args, expected = CASES["sandbox-q-combined"]
    assert run_cli(args, tmp_path / "out") == expected


# Every output of a sweep but its manifest: the CSV, the *_runs.json sidecar
# and the SVG chart, recorded before the two sweep commands were merged into
# one path. The variants cover sweep lists given out of order, both mode
# orders, individual rewards on each command, and two seeds on two workers.
OUTPUT_CASES = {
    "discrimination-unsorted-plot": ([
        *DISCRIMINATION_SMALL, "-s", "plot=true", "-s", "seeds=[1,2]",
        "-s", "dilemma.benefits=[2.5,10,4]",
    ], {
        "discrimination.csv": "98661252c753d754486693fd0d86e4503e6ef85bb8dda1329ee2df4bc36acda9",
        "discrimination.svg": "02ce03a5da1489af041c21807468defd7ec1fd7534d634b119dd63d2b7ccb97e",
        "discrimination_runs.json": "43c07aa9c8750d519f3c3bd02393a1d66b15f9ad6f2b82d2353edc1d1d0b4ed2",
    }),
    "discrimination-inclusive-false-plot": ([
        *DISCRIMINATION_SMALL, "-s", "plot=true", "-s", "inclusive=false",
    ], {
        "discrimination.csv": "e71e35e296e91bf123ee6bd8500ee381ad087152ec748a183da6a4144cd67a25",
        "discrimination.svg": "2cb7e817a8540035d651ff8377e489f06e4a11fb676c1c6ede7449d32bab2c54",
        "discrimination_runs.json": "6a2f4e3758b827aca8d2b07a6ca8e8d34a7e0af327234b8a6f196c2f92f2441f",
    }),
    "dispersal-unsorted-plot": ([
        *DISPERSAL_SMALL, "-s", "plot=true", "-s", "dilemma.b_over_c=[8,2,12]",
        "-s", "partition.etas=[0.5,0.1]", "-s", "modes=[baseline,inclusive]",
    ], {
        "dispersal.csv": "40846d633fb0f8550beec0e938ef688681c9ef475fb5cd245cfec5d4df5a11aa",
        "dispersal.svg": "fe842f27dac3926885a8ecf231dc12d585c1856b7fc4e3603a3c07796e4cd60a",
        "dispersal_runs.json": "ca3f164d6ab7e8b226b2f465fdd1f60d3c508d26cbda679536b2a1b9f1e2b3cf",
    }),
    "dispersal-inclusive-false-plot": ([
        *DISPERSAL_SMALL, "-s", "plot=true", "-s", "modes=[baseline]",
    ], {
        "dispersal.csv": "51ba4f24af6683dfb5bf3af50ae48e81be063c44cfa384d3b9ef79cadbb3bc34",
        "dispersal.svg": "498d21ee1d425cae93a99f7db9c89778eb1f340e926d0ceb0cc6bc7398c83822",
        "dispersal_runs.json": "22c1e0262b6e5a6624bcdd6b6248715853d737deff9e6faeb6d8c0f4863eba9c",
    }),
    "dispersal-two-seeds-jobs2-plot": ([*DISPERSAL_SMALL, *TWO_SEEDS_JOBS2, "-s", "plot=true"], {
        "dispersal.csv": "c998b912bf825548e4b9e9a7f4809db55724335baaacf6c5c05643e400eace7c",
        "dispersal.svg": "2a670a264c0f81a674db2d855ff04e4eec4ecf0ff57eced777fb82c382c1b909",
        "dispersal_runs.json": "8ae988077e9642b32084aa81b0cac2305fe5f9392c886ee9d84337ba7f499660",
    }),
}


@pytest.mark.parametrize("case", sorted(OUTPUT_CASES))
def test_output_digests(case, tmp_path):
    args, expected = OUTPUT_CASES[case]
    out_dir = tmp_path / "out"
    result = CliRunner().invoke(main, [*args, "--out-dir", str(out_dir)])
    assert result.exit_code == 0, result.output
    assert {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.iterdir())
        if p.name != "manifest.json"
    } == expected


# config_hash of shipped configs, recorded before unknown policy keys were
# rejected and the learner subtree was merged like every other mapping
CONFIG_HASHES = {
    ("discrimination.yaml", ()): "20c771df0cf883d1c6b0de2567e452f4d18e0e0a7932893770dcb705b1839308",
    ("dispersal.yaml", ()): "43d4e309efa38c75f6c4649462f64d6c83d00015e966caeb76c6463ad39d70cf",
    ("sandbox.yaml", ()): "2589b5048c96204e1855fa73c9d72d7b15727aea7844e074316b9fe9a718b905",
    ("sandbox.yaml", ("policy.kind=q", "policy.alpha=0.5", "policy.reward=longevity")):
        "053340f96a22173fc5bc4b0767d2f516c5814e3a47e39678cc33a303dc44fa6f",
    ("discrimination.yaml", ("learner.alpha=0.5", "learner.decay=0.99")):
        "c87e3cd99769cd35e3c657c1abc054d2331ced2dad9d842be414528ccfa01477",
}


@pytest.mark.parametrize("name,overrides", sorted(CONFIG_HASHES), ids=str)
def test_config_hashes(name, overrides):
    resolved = resolve_config(load_config_file(CONFIGS / name), overrides)
    assert config_hash(resolved) == CONFIG_HASHES[name, overrides]


def learned_digest(res):
    """sha256 of a result's Q values, frequencies and greedy signs."""
    assert (res.q_values.dtype, res.coop_freq.dtype, res.greedy_final.dtype) == (
        np.float64, np.float64, np.int8
    )
    return hashlib.sha256(
        res.q_values.tobytes() + res.coop_freq.tobytes() + res.greedy_final.tobytes()
    ).hexdigest()


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
    assert learned_digest(res) == SPARSE_DISPERSAL[edge_sampling, inclusive]


# Networks whose size is not a power of two, so that numpy's pairwise row sum
# has leaves of unequal length: N = 135 (leaves of 64 and 71, the second with
# a tail of 7 terms summed one by one) and N = 992 (eight leaves of 120 and
# 128). (genotype space, community size) per size.
IRREGULAR_SIZES = {135: (GenotypeSpace(2, 3), 15), 992: (GenotypeSpace(5, 2), 31)}
# sha256 per (nodes, mode); every case learns a group of three dilemmas
IRREGULAR_DISPERSAL = {
    (135, "inclusive"): "23c77ca7251eee7d6285fb8d40486a0c04ba4d6ad5ae9c6b12fb25a1dc7eab14",
    (135, "baseline"): "d50664f0d82b58cdb6c8a787de556a8acfe4899b1b6588f05cfd759a7c315a1d",
    (135, "edge-sampling"): "3186b4506a1be3532f2a53d90170eaaba278afc41b92e7db341f5552252e4008",
    (135, "override-inclusive"): "53d19cedaa1cc37db182b7029077c1f741893cb946ed5958d3ca458ecaaa35a4",
    (135, "override-baseline"): "ec35c6d26f8d54a059fb8021b376202a8973763f2427a1c7f7b05318b9ce9fdc",
    (135, "edgeless-inclusive"): "6f015d43120c34cbe0ef5c0b6e9892a498174dfabc008e5490ba4730e186e714",
    (135, "edgeless-baseline"): "6f015d43120c34cbe0ef5c0b6e9892a498174dfabc008e5490ba4730e186e714",
    (135, "edgeless-edge-sampling"): "6f015d43120c34cbe0ef5c0b6e9892a498174dfabc008e5490ba4730e186e714",
    (135, "edgeless-edge-sampling-baseline"): "6f015d43120c34cbe0ef5c0b6e9892a498174dfabc008e5490ba4730e186e714",
    (135, "trailing-inclusive"): "007e7bff9f173160731925e790f8dcfb072eb7e9f911dc174cabc7ad56035412",
    (135, "trailing-baseline"): "ce6ccf04ddab262550ab24c9b0fc4d376ecf87ff032bb773d7c9b542aa75eaaf",
    (135, "trailing-edge-sampling"): "bf2267367369efaa47110eaff630cc564ef288979468398e41f18abec3a35edd",
    (135, "trailing-edge-sampling-baseline"): "d80cc15952d7ac06599204823958a943bef952de57a98d658686500a1f745f09",
    (992, "inclusive"): "b69e7a4c654be03c38a7115090aa3e756d4621b01f865bb20a5f46364ef3a942",
    (992, "baseline"): "0e2ae455573caf9cdbca30d176692f8fdf781dffb779c36575b2f0f28ec3116d",
    (992, "edge-sampling"): "bf8fa9085620bc5537855595a887c6cee4f5f81ef7b95949f046979a667d3375",
}
# A mode is a reward mode, optionally after the name of an override network.
IRREGULAR_MODES = {
    "inclusive": dict(),
    "baseline": dict(inclusive=False),
    "edge-sampling": dict(edge_sampling=True),
    "edge-sampling-baseline": dict(edge_sampling=True, inclusive=False),
}
# isolated nodes per override network
OVERRIDE_ISOLATED = {"override": 20, "edgeless": 135, "trailing": 24}


def override_network(space, community_size, name):
    """A draw sparse enough to leave nodes without neighbours ("override"),
    the same nodes without edges ("edgeless"), or the draw without the edges
    of its last five nodes, so that isolated nodes trail the edge list
    ("trailing")."""
    net = build_partition_network_with_probs(
        community_size, enumerate_genotypes(space), 0.1, 0.006, np.random.default_rng(11)
    )
    if name == "edgeless":
        return dataclasses.replace(net, edges=np.zeros((0, 2), dtype=np.int64))
    if name == "trailing":
        return dataclasses.replace(net, edges=net.edges[net.edges[:, 1] < net.node_count - 5])
    return net


@pytest.mark.parametrize(
    "nodes,mode", sorted(IRREGULAR_DISPERSAL), ids=lambda value: str(value)
)
def test_irregular_size_dispersal_digests(nodes, mode):
    space, community_size = IRREGULAR_SIZES[nodes]
    network, _, reward = mode.partition("-")
    if network not in OVERRIDE_ISOLATED:
        network, reward = None, mode
    group = tuple(
        ExperimentConfig(
            kind="dispersal",
            space=space,
            dilemma=DilemmaParams(benefit, 1.0),
            learner=LearnerConfig(),
            steps_max=150,
            window=50,
            partition=PartitionSpec(community_size, space.size, 9.0, 0.1),
            **IRREGULAR_MODES[reward],
        )
        for benefit in (2.0, 5.0, 12.0)
    )
    if network is not None:
        net = override_network(space, community_size, network)
        results = _run_dispersal_group(group, 3, network_override=net)
        assert results[0].isolated_count == OVERRIDE_ISOLATED[network]
    else:
        results = [run_experiment(cfg, 3, group) for cfg in group]
    assert all(res.coop_freq.shape == (nodes,) for res in results)
    digest = hashlib.sha256("".join(learned_digest(res) for res in results).encode()).hexdigest()
    assert digest == IRREGULAR_DISPERSAL[nodes, mode]


# sha256 of a discrimination group of three dilemmas in both reward modes
# under an asymmetric similarity override with negative entries and a -0.0,
# per self-play flag
OVERRIDE_DISCRIMINATION = {
    True: "388bc068d8c524f85b020e6bc8020660fca41a318181e051acfa79da3c83659c",
    False: "eb6696afa76ea02842dba94d6a302a78c6d3f4fc6c5b80588b7d1a74a6e53d3d",
}


@pytest.mark.parametrize("self_play", sorted(OVERRIDE_DISCRIMINATION), ids=str)
def test_override_discrimination_group_digests(self_play):
    space = GenotypeSpace(4, 2)
    override = np.random.default_rng(13).uniform(-1.0, 1.0, (space.size, space.size))
    override[0, 1] = -0.0
    group = tuple(
        ExperimentConfig(
            kind="discrimination",
            space=space,
            dilemma=DilemmaParams(benefit, 1.0),
            learner=LearnerConfig(),
            steps_max=300,
            window=50,
            inclusive=inclusive,
            self_play=self_play,
        )
        for benefit in (2.0, 5.0, 12.0)
        for inclusive in (True, False)
    )
    results = _run_discrimination_group(group, 3, similarity_override=override)
    assert np.signbit(results[0].similarity[0, 1])
    digest = hashlib.sha256("".join(learned_digest(res) for res in results).encode()).hexdigest()
    assert digest == OVERRIDE_DISCRIMINATION[self_play]


# EARLY_STOP as a learner: epsilon reaches its 1e-6 floor near step 131, and
# a point stops once its greedy policy has then held for a whole window.
EARLY_STOP_LEARNER = LearnerConfig(decay=0.9, epsilon_min=1e-6)
# (seed, steps_max): (steps_run, converged_at) per point, and sha256 of a
# group of three dilemmas on the 135-node network. Seed 3 stops its points
# at three different steps; seed 1 stops one and runs two to the end.
EARLY_STOP_DISPERSAL = {
    (3, 250): (
        [(153, 153), (136, 136), (133, 133)],
        "1fd867c11dc72744b76181a476d44a46259459d6ba556e3aa28a816ed1806f71",
    ),
    (1, 170): (
        [(170, None), (170, None), (133, 133)],
        "5b16a3a52eff088e110646f82ca1876d767e7aec8e19a369ec79ce5838d60344",
    ),
}


@pytest.mark.parametrize("seed,steps_max", sorted(EARLY_STOP_DISPERSAL), ids=str)
def test_early_stop_dispersal_digests(seed, steps_max):
    space, community_size = IRREGULAR_SIZES[135]
    group = tuple(
        ExperimentConfig(
            kind="dispersal",
            space=space,
            dilemma=DilemmaParams(benefit, 1.0),
            learner=EARLY_STOP_LEARNER,
            steps_max=steps_max,
            window=100,
            partition=PartitionSpec(community_size, space.size, 9.0, 0.1),
        )
        for benefit in (2.0, 5.0, 12.0)
    )
    results = [run_experiment(cfg, seed, group) for cfg in group]
    stops, expected = EARLY_STOP_DISPERSAL[seed, steps_max]
    assert [(res.steps_run, res.converged_at) for res in results] == stops
    digest = hashlib.sha256("".join(learned_digest(res) for res in results).encode()).hexdigest()
    assert digest == expected


def test_early_stop_discrimination_digest():
    cfg = ExperimentConfig(
        kind="discrimination",
        space=GenotypeSpace(3, 2),
        dilemma=DilemmaParams(4.0, 1.0),
        learner=EARLY_STOP_LEARNER,
        steps_max=400,
        window=100,
    )
    res = run_discrimination(cfg, 3)
    assert (res.steps_run, res.converged_at) == (168, 168)
    assert learned_digest(res) == "85eea1a552ee14212bf36bd6d4e7529cec452e0754992796276e67528fc37725"
