"""Golden sha256 digests of the CSV outputs.

Each case runs one command on a shipped config, shrunk through overrides
where the full run would be slow, and compares every CSV it writes with a
digest recorded before the sandbox reward path was reworked. A refactor
that changes any output byte fails here even when every behavioural test
still passes.
"""

import hashlib
from pathlib import Path

import pytest
from click.testing import CliRunner

from kincoop.cli import main

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

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
    "discrimination-small": ([
        "discrimination", str(CONFIGS / "discrimination.yaml"),
        "--seeds", "1", "-s", "steps_max=400", "-s", "window=100", "--jobs", "1", "--no-plot",
    ], {
        "discrimination.csv": "83b49a009d1f0f5d8ff74c5b07ecd85517183e92cc5989d1518f57b3b5cdb4a2",
    }),
    "dispersal-small": ([
        "dispersal", str(CONFIGS / "dispersal.yaml"),
        "--seeds", "1", "-s", "steps_max=300", "-s", "window=100", "--jobs", "1", "--no-plot",
    ], {
        "dispersal.csv": "89bb20afaf03f0d28e2de038e746f4799142fe310846901355df4cedf5788b5b",
    }),
}


def csv_digests(args, out_dir):
    result = CliRunner().invoke(main, [*args, "--out-dir", str(out_dir)])
    assert result.exit_code == 0, result.output
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out_dir.glob("*.csv"))
    }


@pytest.mark.parametrize("case", sorted(CASES))
def test_csv_digests(case, tmp_path):
    args, expected = CASES[case]
    assert csv_digests(args, tmp_path / "out") == expected
