"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The heavy sweeps are shared through session-scoped fixtures; run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
"""

import os

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

from kincoop.cli import main as cli_main
from kincoop.experiments import (
    ExperimentConfig,
    SweepTask,
    aggregate,
    bin_by_similarity,
    cooperator_proportion,
    run_discrimination,
    run_dispersal,
    run_sweep,
)
from kincoop.games import DilemmaParams, cooperation_favored, transformed_matrix
from kincoop.genotype import GenotypeSpace, MutationSpec, enumerate_genotypes
from kincoop.learning import LearnerConfig
from kincoop.networks import (
    InfeasiblePartitionError,
    PartitionSpec,
    build_partition_network,
    build_partition_network_with_probs,
    degree_stats,
    derive_partition_probs,
)
from kincoop.popreward import (
    RandomPolicy,
    SandboxConfig,
    combined_reward,
    replication_identity_error,
    replication_reward,
    run_sandbox,
)

JOBS = os.cpu_count() or 1

SPACE6 = GenotypeSpace(6, 2)
SPACE3 = GenotypeSpace(3, 2)
BENEFITS = (4.0, 2.5, 10.0 / 7.0)  # c/b = 0.25, 0.4, 0.7
SEEDS_DISC = tuple(range(1, 6))
ETAS = (0.05, 0.1, 0.5)
B_OVER_C = (2.0, 4.0, 6.0, 8.0, 10.0, 12.0)
SEEDS_DISP = tuple(range(1, 11))


def report(number: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {number} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def disc_config(benefit: float, inclusive: bool) -> ExperimentConfig:
    return ExperimentConfig(
        kind="discrimination",
        space=SPACE6,
        dilemma=DilemmaParams(benefit=benefit, cost=1.0),
        learner=LearnerConfig(),
        steps_max=3000,
        window=200,
        inclusive=inclusive,
    )


def disp_config(eta: float, b_over_c: float, inclusive: bool) -> ExperimentConfig:
    return ExperimentConfig(
        kind="dispersal",
        space=SPACE3,
        dilemma=DilemmaParams(benefit=b_over_c, cost=1.0),
        learner=LearnerConfig(),
        steps_max=2500,
        window=200,
        inclusive=inclusive,
        partition=PartitionSpec(8, 8, 9.0, eta),
    )


@pytest.fixture(scope="session")
def discrimination_curves():
    """Aggregated h-binned cooperation frequencies per benefit and mode."""
    tasks = [
        SweepTask((benefit, inclusive), disc_config(benefit, inclusive), seed)
        for inclusive in (True, False)
        for benefit in BENEFITS
        for seed in SEEDS_DISC
    ]
    results = run_sweep(tasks, jobs=JOBS)
    curves = {}
    for (benefit, inclusive), per_seed in results.items():
        tables = [per_seed[s]["bins"] for s in SEEDS_DISC]
        curves[(benefit, inclusive)] = {row.key: row.mean for row in aggregate(tables)}
    return curves


@pytest.fixture(scope="session")
def dispersal_grid():
    """Mean cooperator proportion per (eta, b_over_c, inclusive)."""
    tasks = [
        SweepTask((eta, boc, inclusive), disp_config(eta, boc, inclusive), seed)
        for eta in ETAS
        for boc in B_OVER_C
        for inclusive in (True, False)
        for seed in SEEDS_DISP
    ]
    results = run_sweep(tasks, jobs=JOBS)
    return {
        key: float(np.mean([per_seed[s]["proportion"] for s in SEEDS_DISP]))
        for key, per_seed in results.items()
    }


class TestCriterion1HamiltonThresholds:
    def test_threshold_pattern(self, discrimination_curves):
        failures = []
        for benefit in BENEFITS:
            ratio = 1.0 / benefit
            curve = discrimination_curves[(benefit, True)]
            for k in range(7):
                h = k / 6
                mean = curve[h]
                if h > ratio and not mean > 0.85:
                    failures.append(f"c/b={ratio:.3g} h={h:.3g} mean={mean:.3f} (need >0.85)")
                if h < ratio and not mean < 0.15:
                    failures.append(f"c/b={ratio:.3g} h={h:.3g} mean={mean:.3f} (need <0.15)")
        report(
            1,
            not failures,
            "cooperation above each Hamilton threshold, defection below"
            + ("" if not failures else f"; failures: {failures}"),
        )


class TestCriterion2BaselineDefection:
    def test_all_defection_against_opponents(self, discrimination_curves):
        failures = []
        for benefit in BENEFITS:
            curve = discrimination_curves[(benefit, False)]
            for h, mean in curve.items():
                if h < 1.0 and not mean < 0.05:
                    failures.append(f"b={benefit:.3g} h={h:.3g} mean={mean:.3f}")
        report(
            2,
            not failures,
            "individual rewards lead to defection in every opponent bin"
            + ("" if not failures else f"; failures: {failures}"),
        )

    def test_self_state_still_cooperates(self, discrimination_curves):
        # the h=1 bin is the self state; mutual cooperation with oneself
        # pays b-c > 0 even without inclusive weighting, so it stays
        # cooperative and is excluded from the defection criterion above
        for benefit in BENEFITS:
            assert discrimination_curves[(benefit, False)][1.0] > 0.85


class TestCriterion3DispersalOrderings:
    def test_inclusive_at_least_baseline(self, dispersal_grid):
        failures = [
            f"eta={eta} b/c={boc}: incl={dispersal_grid[(eta, boc, True)]:.3f} "
            f"base={dispersal_grid[(eta, boc, False)]:.3f}"
            for eta in ETAS
            for boc in B_OVER_C
            if dispersal_grid[(eta, boc, True)] < dispersal_grid[(eta, boc, False)] - 0.05
        ]
        report(
            3,
            not failures,
            "(a) inclusive proportion >= baseline - 0.05 at every grid point"
            + ("" if not failures else f"; failures: {failures}"),
        )

    def test_low_dispersal_at_least_high(self, dispersal_grid):
        failures = [
            f"b/c={boc}: eta=0.05 -> {dispersal_grid[(0.05, boc, True)]:.3f}, "
            f"eta=0.5 -> {dispersal_grid[(0.5, boc, True)]:.3f}"
            for boc in B_OVER_C
            if boc >= 8.0
            and dispersal_grid[(0.05, boc, True)] < dispersal_grid[(0.5, boc, True)] - 0.05
        ]
        report(
            3,
            not failures,
            "(b) low dispersal cooperates at least as much as high for b/c >= 8"
            + ("" if not failures else f"; failures: {failures}"),
        )

    def test_monotone_in_benefit(self, dispersal_grid):
        failures = []
        for eta in ETAS:
            curve = [dispersal_grid[(eta, boc, True)] for boc in B_OVER_C]
            for (b1, v1), (b2, v2) in zip(
                zip(B_OVER_C, curve), zip(B_OVER_C[1:], curve[1:])
            ):
                if v2 < v1 - 0.05:
                    failures.append(f"eta={eta}: {b1}->{v1:.3f} but {b2}->{v2:.3f}")
        report(
            3,
            not failures,
            "(c) inclusive proportion non-decreasing in b/c per eta"
            + ("" if not failures else f"; failures: {failures}"),
        )


class TestCriterion4HarmonyOracle:
    def test_exact_agreement_on_grid(self):
        mismatches = 0
        points = 0
        for b in np.arange(1.5, 20.0 + 0.25, 0.5):
            params = DilemmaParams(float(b), 1.0)
            for k in range(7):
                h = k / 6
                points += 1
                matrix = transformed_matrix(params, h)
                dominant = all(matrix[0, a] > matrix[1, a] for a in (0, 1))
                if dominant != cooperation_favored(params, h):
                    mismatches += 1
        report(
            4,
            mismatches == 0,
            f"closed-form rule matches strict-dominance enumeration on {points} grid points",
        )


class TestCriterion5RewardIdentity:
    def test_identities_on_random_traces(self):
        space = GenotypeSpace(4, 2)
        initial = (0, 0, 0, 0)
        mus = (0.0, 0.05, 0.2)
        master = np.random.default_rng(20240501)
        worst_identity = 0.0
        dominance_ok = True
        telescoping_ok = True
        for i in range(100):
            cfg = SandboxConfig(
                space=space,
                initial_genotype=initial,
                mutation=MutationSpec(mus[i % 3]),
                initial_health=10.0,
                food_rate=6,
                steps=1000,
                policy=RandomPolicy(float(master.uniform(0.15, 0.45))),
            )
            trace = run_sandbox(cfg, np.random.default_rng(int(master.integers(2**32))))
            worst_identity = max(worst_identity, replication_identity_error(trace))
            for step_rewards in trace.rewards:
                for triple in step_rewards.values():
                    if triple.longevity > triple.combined + 1e-12:
                        dominance_ok = False
            total = sum(
                replication_reward(initial, trace.states[t - 1], trace.states[t])
                for t in range(1, len(trace.states))
            )
            delta = combined_reward(initial, trace.states[-1]) - combined_reward(
                initial, trace.states[0]
            )
            if abs(total - delta) > 1e-9:
                telescoping_ok = False
        ok = worst_identity < 1e-9 and dominance_ok and telescoping_ok
        report(
            5,
            ok,
            f"replication = delta combined (max err {worst_identity:.2e}), "
            f"longevity <= combined, telescoping holds on 100 traces",
        )


class TestCriterion6DegreeEquation:
    def test_arithmetic_and_rejection(self):
        p_in, p_out = derive_partition_probs(PartitionSpec(8, 8, 9.0, 0.1))
        arithmetic_ok = abs(p_in - 9.0 / 12.6) < 1e-12 and abs(p_out - 0.9 / 12.6) < 1e-12
        rejected = True
        for eta in (0.01, 0.03, 2 / 56 - 1e-9):
            try:
                derive_partition_probs(PartitionSpec(8, 8, 9.0, eta))
                rejected = False
            except InfeasiblePartitionError:
                pass
        accepted_at_boundary = True
        try:
            derive_partition_probs(PartitionSpec(8, 8, 9.0, 2 / 56))
        except InfeasiblePartitionError:
            accepted_at_boundary = False
        ok = arithmetic_ok and rejected and accepted_at_boundary
        report(
            6,
            ok,
            "p_in = 9/12.6 at eta=0.1 (1e-12), eta < 2/56 rejected as infeasible",
        )


class TestCriterion7GeneratorStatistics:
    def test_mean_degree_and_cliques(self):
        genotypes = enumerate_genotypes(SPACE3)
        spec = PartitionSpec(8, 8, 9.0, 0.1)
        means = [
            degree_stats(
                build_partition_network(spec, genotypes, np.random.default_rng(seed))
            )[0]
            for seed in range(200)
        ]
        grand = float(np.mean(means))
        se = float(np.std(means, ddof=1) / np.sqrt(len(means)))
        within_band = abs(grand - 9.0) <= 3 * se
        cliques = build_partition_network_with_probs(
            8, genotypes, 1.0, 0.0, np.random.default_rng(0)
        )
        mean_deg, min_deg, isolated = degree_stats(cliques)
        clique_ok = (
            mean_deg == 7.0
            and min_deg == 7
            and isolated == 0
            and len(cliques.edges) == 8 * 28
            and all(cliques.communities[u] == cliques.communities[v] for u, v in cliques.edges)
        )
        report(
            7,
            within_band and clique_ok,
            f"200-seed grand mean degree {grand:.4f} within 3 SE ({3 * se:.4f}) of 9; "
            "(p_in=1, p_out=0) gives exactly 8 disjoint 8-cliques",
        )


class TestCriterion8Determinism:
    DISC_CFG = {
        "experiment": "discrimination",
        "seeds": [1, 2],
        "steps_max": 500,
        "window": 60,
        "genotype": {"loci": 3, "variants": 2},
        "dilemma": {"cost": 1.0, "benefits": [4.0, 2.5]},
        "plot": False,
    }
    DISP_CFG = {
        "experiment": "dispersal",
        "seeds": [1, 2],
        "steps_max": 500,
        "window": 60,
        "partition": {"etas": [0.1]},
        "dilemma": {"b_over_c": [8.0]},
        "plot": False,
    }
    SAND_CFG = {"experiment": "sandbox", "steps": 120, "seed": 5}

    def test_command_reruns_byte_identical(self, tmp_path):
        runner = CliRunner()
        identical = True
        for name, cfg, outputs in (
            ("discrimination", self.DISC_CFG, ["discrimination.csv"]),
            ("dispersal", self.DISP_CFG, ["dispersal.csv"]),
            ("sandbox", self.SAND_CFG, ["sandbox_trace.csv", "sandbox_rewards.csv"]),
        ):
            cfg_path = tmp_path / f"{name}.yaml"
            cfg_path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
            bodies = []
            for rep in ("a", "b"):
                out = tmp_path / f"{name}-{rep}"
                result = runner.invoke(cli_main, [name, str(cfg_path), "--out-dir", str(out)])
                assert result.exit_code == 0, result.output
                bodies.append(tuple((out / f).read_bytes() for f in outputs))
            identical &= bodies[0] == bodies[1]
        report(8, identical, "re-running each command reproduces byte-identical CSV bodies")

    def test_zero_similarity_override_equivalence(self):
        cfg_inc = disc_config(4.0, True)
        cfg_base = disc_config(4.0, False)
        eye = np.eye(64)
        a = run_discrimination(cfg_inc, 3, similarity_override=eye)
        b = run_discrimination(cfg_base, 3, similarity_override=eye)
        disc_ok = (
            np.array_equal(a.coop_freq, b.coop_freq)
            and np.array_equal(a.greedy_final, b.greedy_final)
            and a.converged_at == b.converged_at
            and a.steps_run == b.steps_run
        )
        d_inc = disp_config(0.1, 8.0, True)
        d_base = disp_config(0.1, 8.0, False)
        da = run_dispersal(d_inc, 3, similarity_override=eye)
        db = run_dispersal(d_base, 3, similarity_override=eye)
        disp_ok = np.array_equal(da.coop_freq, db.coop_freq) and np.array_equal(
            da.q_values, db.q_values
        )
        report(
            8,
            disc_ok and disp_ok,
            "zero-similarity override makes the weighted and unweighted runners identical",
        )
