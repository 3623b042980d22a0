import json
import platform
import re
from pathlib import Path

import click
import numpy as np
import pytest
import yaml
from click.testing import CliRunner

import kincoop.cli
from kincoop.cli import main
from kincoop.ioutil import write_atomic
from kincoop.popreward import QReproductionPolicy

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

DISC_CFG = {
    "experiment": "discrimination",
    "seeds": [1, 2],
    "steps_max": 400,
    "window": 50,
    "genotype": {"loci": 2, "variants": 2},
    "dilemma": {"cost": 1.0, "benefits": [4.0]},
    "plot": False,
}

DISP_CFG = {
    "experiment": "dispersal",
    "seeds": [1, 2],
    "steps_max": 400,
    "window": 50,
    "partition": {"etas": [0.1]},
    "dilemma": {"b_over_c": [8.0]},
    "plot": False,
}

SAND_CFG = {"experiment": "sandbox", "steps": 40, "seed": 3}


@pytest.fixture
def runner():
    return CliRunner()


def write_cfg(path, cfg):
    Path(path).write_text(yaml.safe_dump(cfg), encoding="utf-8")


class TestValidate:
    def test_valid_config(self, runner, tmp_path):
        write_cfg(tmp_path / "c.yaml", DISP_CFG)
        result = runner.invoke(main, ["validate", str(tmp_path / "c.yaml")])
        assert result.exit_code == 0
        assert "OK" in result.output

    def test_unknown_key(self, runner, tmp_path):
        cfg = dict(DISC_CFG)
        cfg["stepz_max"] = 10
        write_cfg(tmp_path / "c.yaml", cfg)
        result = runner.invoke(main, ["validate", str(tmp_path / "c.yaml")])
        assert result.exit_code == 2
        assert "stepz_max" in result.output

    def test_missing_experiment_key(self, runner, tmp_path):
        write_cfg(tmp_path / "c.yaml", {"steps": 3})
        result = runner.invoke(main, ["validate", str(tmp_path / "c.yaml")])
        assert result.exit_code == 2

    def test_yaml_syntax_error_line(self, runner, tmp_path):
        (tmp_path / "c.yaml").write_text("experiment: [unclosed\nsteps: 3\n")
        result = runner.invoke(main, ["validate", str(tmp_path / "c.yaml")])
        assert result.exit_code == 2
        assert "line" in result.output


class TestCommandOptions:
    """Each experiment setting reaches a run through the config file or -s
    alone, and README names no option that a command lacks."""

    @pytest.mark.parametrize("command", ["discrimination", "dispersal"])
    @pytest.mark.parametrize("flag", ["--seeds=1", "--inclusive=false", "--plot", "--no-plot"])
    def test_removed_setting_flag_exits_two(self, runner, tmp_path, command, flag):
        write_cfg(tmp_path / "c.yaml", DISC_CFG if command == "discrimination" else DISP_CFG)
        out = tmp_path / "o"
        result = runner.invoke(
            main, [command, str(tmp_path / "c.yaml"), "--out-dir", str(out), flag]
        )
        assert result.exit_code == 2, result.output
        assert "No such option" in result.output
        assert not out.exists()

    def test_readme_names_only_existing_options(self):
        options = set()
        for command in (main, *main.commands.values()):
            for param in command.get_params(click.Context(command)):
                options.update(param.opts, param.secondary_opts)
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        named = {
            token
            for line in readme.splitlines()
            if not line.lstrip().startswith("pip ")  # pip's own options
            for token in re.findall(r"(?<![\w-])--[a-z][a-z-]*", line)
        }
        assert {"--out-dir", "--jobs"} <= named
        assert named - options == set()


class TestMissingConfig:
    def test_exit_two_names_path(self, runner):
        result = runner.invoke(main, ["discrimination", "no-such-file.yaml"])
        assert result.exit_code == 2
        assert "no-such-file.yaml" in result.output


class TestDiscriminationCommand:
    def test_csv_schema_and_rerun_identical(self, runner, tmp_path):
        write_cfg(tmp_path / "c.yaml", DISC_CFG)
        for out in ("a", "b"):
            result = runner.invoke(
                main,
                ["discrimination", str(tmp_path / "c.yaml"), "--out-dir", str(tmp_path / out)],
            )
            assert result.exit_code == 0, result.output
        body_a = (tmp_path / "a" / "discrimination.csv").read_bytes()
        body_b = (tmp_path / "b" / "discrimination.csv").read_bytes()
        assert body_a == body_b
        lines = body_a.decode().splitlines()
        assert lines[0] == "c_over_b,h,coop_freq_mean,coop_freq_se,n_seeds"
        assert len(lines) == 1 + 3  # lattice {0, 1/2, 1} for two loci

    @pytest.mark.parametrize("inclusive", ["true", "false"])
    def test_jobs_one_and_two_write_the_same_bytes(self, runner, tmp_path, inclusive):
        # three groups of three benefits; two workers split one group in halves
        cfg = {**DISC_CFG, "dilemma": {"cost": 1.0, "benefits": [4.0, 2.5, 1.4285714285714286]},
               "plot": True}
        write_cfg(tmp_path / "c.yaml", cfg)
        for jobs in ("1", "2"):
            result = runner.invoke(main, [
                "discrimination", str(tmp_path / "c.yaml"), "--out-dir", str(tmp_path / jobs),
                "-s", "seeds=[1,2,3]", "--jobs", jobs, "-s", f"inclusive={inclusive}",
            ])
            assert result.exit_code == 0, result.output
        for name in ("discrimination.csv", "discrimination.svg", "discrimination_runs.json"):
            one, two = (tmp_path / jobs / name for jobs in ("1", "2"))
            assert one.read_bytes() == two.read_bytes(), name

    def test_seeds_override_sets_n_seeds(self, runner, tmp_path):
        write_cfg(tmp_path / "c.yaml", DISC_CFG)
        result = runner.invoke(
            main,
            [
                "discrimination",
                str(tmp_path / "c.yaml"),
                "--out-dir",
                str(tmp_path / "o"),
                "-s",
                "seeds=[1,2,3]",
            ],
        )
        assert result.exit_code == 0
        rows = (tmp_path / "o" / "discrimination.csv").read_text().splitlines()[1:]
        assert all(row.endswith(",3") for row in rows)

    def test_baseline_flag_defects_against_opponents(self, runner, tmp_path):
        write_cfg(tmp_path / "c.yaml", DISC_CFG)
        result = runner.invoke(
            main,
            [
                "discrimination",
                str(tmp_path / "c.yaml"),
                "--out-dir",
                str(tmp_path / "o"),
                "-s",
                "inclusive=false",
            ],
        )
        assert result.exit_code == 0
        rows = (tmp_path / "o" / "discrimination.csv").read_text().splitlines()[1:]
        for row in rows:
            _, h, mean, _, _ = row.split(",")
            if float(h) < 1.0:  # the h=1 bin is the self state, which earns b-c > 0
                assert float(mean) < 0.05

    def test_manifest_and_sidecar(self, runner, tmp_path):
        write_cfg(tmp_path / "c.yaml", DISC_CFG)
        result = runner.invoke(
            main, ["discrimination", str(tmp_path / "c.yaml"), "--out-dir", str(tmp_path / "o")]
        )
        assert result.exit_code == 0
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert manifest["command"] == "discrimination"
        assert manifest["seeds"] == [1, 2]
        assert len(manifest["config_hash"]) == 64
        assert manifest["python"] == platform.python_version()
        assert manifest["numpy"] == np.__version__
        assert manifest["platform"] == f"{platform.system()}-{platform.release()}-{platform.machine()}"
        runs = json.loads((tmp_path / "o" / "discrimination_runs.json").read_text())
        assert len(runs) == 2
        assert {"seed", "converged_at", "mean_degree", "isolated_count"} <= set(runs[0])

    def test_config_hash_stable_across_runs(self, runner, tmp_path):
        write_cfg(tmp_path / "c.yaml", DISC_CFG)
        hashes = []
        for out in ("h1", "h2"):
            runner.invoke(
                main,
                ["discrimination", str(tmp_path / "c.yaml"), "--out-dir", str(tmp_path / out)],
            )
            hashes.append(json.loads((tmp_path / out / "manifest.json").read_text())["config_hash"])
        assert hashes[0] == hashes[1]

    def test_parallel_matches_serial(self, runner, tmp_path):
        write_cfg(tmp_path / "c.yaml", DISC_CFG)
        for out, jobs in (("ser", "1"), ("par", "2")):
            result = runner.invoke(
                main,
                [
                    "discrimination",
                    str(tmp_path / "c.yaml"),
                    "--out-dir",
                    str(tmp_path / out),
                    "--jobs",
                    jobs,
                ],
            )
            assert result.exit_code == 0, result.output
        assert (tmp_path / "ser" / "discrimination.csv").read_bytes() == (
            tmp_path / "par" / "discrimination.csv"
        ).read_bytes()

    def test_plot_emitted_when_enabled(self, runner, tmp_path):
        cfg = dict(DISC_CFG)
        cfg["plot"] = True
        write_cfg(tmp_path / "c.yaml", cfg)
        result = runner.invoke(
            main, ["discrimination", str(tmp_path / "c.yaml"), "--out-dir", str(tmp_path / "o")]
        )
        assert result.exit_code == 0
        svg = (tmp_path / "o" / "discrimination.svg").read_text()
        assert svg.startswith("<svg ") and svg.rstrip().endswith("</svg>")

    def test_env_var_out_dir(self, runner, tmp_path, monkeypatch):
        write_cfg(tmp_path / "c.yaml", DISC_CFG)
        monkeypatch.setenv("KINCOOP_OUT_DIR", str(tmp_path / "envout"))
        result = runner.invoke(main, ["discrimination", str(tmp_path / "c.yaml")])
        assert result.exit_code == 0
        assert (tmp_path / "envout" / "discrimination.csv").exists()

    def test_wrong_experiment_kind(self, runner, tmp_path):
        write_cfg(tmp_path / "c.yaml", DISP_CFG)
        result = runner.invoke(
            main, ["discrimination", str(tmp_path / "c.yaml"), "--out-dir", str(tmp_path / "o")]
        )
        assert result.exit_code == 2


class TestDefaultSweepShapes:
    def test_discrimination_default_grid(self, runner, tmp_path):
        # default sweep: 7 similarity bins x 3 cost/benefit ratios
        write_cfg(tmp_path / "c.yaml", {"experiment": "discrimination", "plot": False})
        result = runner.invoke(
            main,
            [
                "discrimination",
                str(tmp_path / "c.yaml"),
                "--out-dir",
                str(tmp_path / "o"),
                "-s",
                "seeds=[1]",
                "-s",
                "steps_max=300",
                "-s",
                "window=50",
            ],
        )
        assert result.exit_code == 0, result.output
        rows = (tmp_path / "o" / "discrimination.csv").read_text().splitlines()[1:]
        assert len(rows) == 21
        ratios = sorted({row.split(",")[0] for row in rows})
        assert ratios == ["0.25", "0.4", "0.7"]

    def test_dispersal_default_grid(self, runner, tmp_path):
        # default sweep: 3 etas x 6 b/c x {inclusive, baseline}
        write_cfg(tmp_path / "c.yaml", {"experiment": "dispersal", "plot": False})
        result = runner.invoke(
            main,
            [
                "dispersal",
                str(tmp_path / "c.yaml"),
                "--out-dir",
                str(tmp_path / "o"),
                "-s",
                "seeds=[1]",
                "-s",
                "steps_max=300",
                "-s",
                "window=50",
            ],
        )
        assert result.exit_code == 0, result.output
        rows = (tmp_path / "o" / "dispersal.csv").read_text().splitlines()[1:]
        assert len(rows) == 36


class TestDispersalCommand:
    def test_csv_schema(self, runner, tmp_path):
        write_cfg(tmp_path / "c.yaml", DISP_CFG)
        result = runner.invoke(
            main, ["dispersal", str(tmp_path / "c.yaml"), "--out-dir", str(tmp_path / "o")]
        )
        assert result.exit_code == 0, result.output
        lines = (tmp_path / "o" / "dispersal.csv").read_text().splitlines()
        assert lines[0] == "eta,b_over_c,inclusive,coop_prop_mean,coop_prop_se,n_seeds"
        # one eta x one b/c x {baseline, inclusive}
        assert len(lines) == 3
        assert lines[1].startswith("0.1,8,false,")
        assert lines[2].startswith("0.1,8,true,")

    def test_infeasible_eta_reports_minimum(self, runner, tmp_path):
        write_cfg(tmp_path / "c.yaml", DISP_CFG)
        result = runner.invoke(
            main,
            [
                "dispersal",
                str(tmp_path / "c.yaml"),
                "--out-dir",
                str(tmp_path / "o"),
                "-s",
                "partition.etas=[0.01]",
            ],
        )
        assert result.exit_code == 2
        assert "p_in" in result.output
        assert "0.0357143" in result.output

    def test_inclusive_flag_selects_single_mode(self, runner, tmp_path):
        write_cfg(tmp_path / "c.yaml", DISP_CFG)
        result = runner.invoke(
            main,
            [
                "dispersal",
                str(tmp_path / "c.yaml"),
                "--out-dir",
                str(tmp_path / "o"),
                "-s",
                "modes=[baseline]",
            ],
        )
        assert result.exit_code == 0
        lines = (tmp_path / "o" / "dispersal.csv").read_text().splitlines()[1:]
        assert len(lines) == 1 and ",false," in lines[0]

    def test_rerun_identical(self, runner, tmp_path):
        write_cfg(tmp_path / "c.yaml", DISP_CFG)
        bodies = []
        for out in ("a", "b"):
            runner.invoke(
                main, ["dispersal", str(tmp_path / "c.yaml"), "--out-dir", str(tmp_path / out)]
            )
            bodies.append((tmp_path / out / "dispersal.csv").read_bytes())
        assert bodies[0] == bodies[1]


class TestSandboxCommand:
    def test_identity_check_pass(self, runner, tmp_path):
        write_cfg(tmp_path / "c.yaml", SAND_CFG)
        result = runner.invoke(
            main, ["sandbox", str(tmp_path / "c.yaml"), "--out-dir", str(tmp_path / "o")]
        )
        assert result.exit_code == 0, result.output
        assert "identity check PASS" in result.output
        trace = (tmp_path / "o" / "sandbox_trace.csv").read_text().splitlines()
        assert trace[0] == "t,agent_id,genotype,health,event"
        assert len(trace) > 1

    def test_failed_identity_check_writes_nothing(self, runner, tmp_path, monkeypatch):
        monkeypatch.setattr("kincoop.cli.replication_identity_error", lambda trace: 1.0)
        write_cfg(tmp_path / "c.yaml", SAND_CFG)
        result = runner.invoke(
            main, ["sandbox", str(tmp_path / "c.yaml"), "--out-dir", str(tmp_path / "o")]
        )
        assert result.exit_code == 1
        assert "identity check FAIL" in result.output
        assert list((tmp_path / "o").glob("sandbox_*.csv")) == []
        assert not (tmp_path / "o" / "manifest.json").exists()

    def test_zero_steps_empty_files(self, runner, tmp_path):
        cfg = dict(SAND_CFG)
        cfg["steps"] = 0
        write_cfg(tmp_path / "c.yaml", cfg)
        result = runner.invoke(
            main, ["sandbox", str(tmp_path / "c.yaml"), "--out-dir", str(tmp_path / "o")]
        )
        assert result.exit_code == 0
        assert (tmp_path / "o" / "sandbox_trace.csv").read_text().splitlines() == [
            "t,agent_id,genotype,health,event"
        ]
        assert (tmp_path / "o" / "sandbox_rewards.csv").read_text().splitlines() == [
            "t,agent_id,r_longevity,r_replication,r_combined"
        ]

    def test_invalid_mutation_probability(self, runner, tmp_path):
        write_cfg(tmp_path / "c.yaml", SAND_CFG)
        result = runner.invoke(
            main,
            [
                "sandbox",
                str(tmp_path / "c.yaml"),
                "--out-dir",
                str(tmp_path / "o"),
                "-s",
                "mutation.mu=1.5",
            ],
        )
        assert result.exit_code == 2
        assert "mutation" in result.output

    def test_mu_zero_reproduce_always(self, runner, tmp_path):
        cfg = {
            "experiment": "sandbox",
            "steps": 60,
            "seed": 1,
            "mutation": {"mu": 0.0},
            "policy": {"kind": "always"},
            "initial_health": 12.0,
            "food_rate": 6,
        }
        write_cfg(tmp_path / "c.yaml", cfg)
        result = runner.invoke(
            main, ["sandbox", str(tmp_path / "c.yaml"), "--out-dir", str(tmp_path / "o")]
        )
        assert result.exit_code == 0
        assert "identity check PASS" in result.output

    def test_help_shows_override_and_out_dir_help(self, runner):
        result = runner.invoke(main, ["sandbox", "--help"])
        assert result.exit_code == 0, result.output
        assert "Override a config key by dotted path" in result.output
        assert "Output directory" in result.output
        # the worker count belongs to discrimination and dispersal only
        assert "--jobs" not in result.output

    def test_q_policy_config(self, runner, tmp_path):
        cfg = dict(SAND_CFG)
        cfg["policy"] = {"kind": "q", "reward": "longevity", "decay": 0.99}
        write_cfg(tmp_path / "c.yaml", cfg)
        result = runner.invoke(
            main, ["sandbox", str(tmp_path / "c.yaml"), "--out-dir", str(tmp_path / "o")]
        )
        assert result.exit_code == 0, result.output


class TestAtomicWrites:
    def test_exception_mid_write_leaves_no_file(self, tmp_path):
        with pytest.raises(RuntimeError):
            with write_atomic(tmp_path / "out.csv", newline="") as handle:
                handle.write("a,b\r\n")
                handle.flush()
                raise RuntimeError("interrupted")
        assert list(tmp_path.iterdir()) == []

    def test_exception_mid_write_keeps_existing_file(self, tmp_path):
        target = tmp_path / "out.svg"
        target.write_bytes(b"<svg/>\n")
        with pytest.raises(RuntimeError):
            with write_atomic(target) as handle:
                handle.write("<svg>")
                handle.flush()
                raise RuntimeError("interrupted")
        assert list(tmp_path.iterdir()) == [target]
        assert target.read_bytes() == b"<svg/>\n"

    @pytest.mark.parametrize("newline", [None, ""], ids=["text", "csv"])
    def test_same_bytes_and_mode_as_open(self, tmp_path, newline):
        text = "x\r\ny\nz"
        with open(tmp_path / "plain", "w", encoding="utf-8", newline=newline) as handle:
            handle.write(text)
        with write_atomic(tmp_path / "atomic", newline=newline) as handle:
            handle.write(text)
        plain, atomic = tmp_path / "plain", tmp_path / "atomic"
        assert atomic.read_bytes() == plain.read_bytes()
        assert atomic.stat().st_mode == plain.stat().st_mode

    def test_failed_csv_write_keeps_earlier_outputs(self, runner, tmp_path, monkeypatch):
        write_cfg(tmp_path / "c.yaml", SAND_CFG)
        out = tmp_path / "o"
        args = ["sandbox", str(tmp_path / "c.yaml"), "--out-dir", str(out)]
        assert runner.invoke(main, args).exit_code == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}

        def write_then_fail(trace, handle):
            handle.write("t,partial\r\n")
            raise OSError("disk full")

        monkeypatch.setattr("kincoop.cli.write_rewards_csv", write_then_fail)
        assert runner.invoke(main, args).exit_code != 0
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_failed_chart_leaves_no_svg(self, runner, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise RuntimeError("chart failed")

        monkeypatch.setattr("kincoop.cli.line_chart", fail)
        write_cfg(tmp_path / "c.yaml", {**DISP_CFG, "plot": True})
        result = runner.invoke(
            main, ["dispersal", str(tmp_path / "c.yaml"), "--out-dir", str(tmp_path / "o")]
        )
        assert result.exit_code != 0
        assert sorted(p.name for p in (tmp_path / "o").iterdir()) == [
            "dispersal.csv", "dispersal_runs.json"
        ]


class TestOverrides:
    def test_dotted_override(self, runner, tmp_path):
        write_cfg(tmp_path / "c.yaml", DISC_CFG)
        result = runner.invoke(
            main,
            [
                "discrimination",
                str(tmp_path / "c.yaml"),
                "--out-dir",
                str(tmp_path / "o"),
                "-s",
                "dilemma.benefits=[2.5]",
            ],
        )
        assert result.exit_code == 0
        rows = (tmp_path / "o" / "discrimination.csv").read_text().splitlines()[1:]
        assert all(row.startswith("0.4,") for row in rows)

    def test_malformed_override(self, runner, tmp_path):
        write_cfg(tmp_path / "c.yaml", DISC_CFG)
        result = runner.invoke(
            main,
            ["discrimination", str(tmp_path / "c.yaml"), "-s", "justakey"],
        )
        assert result.exit_code == 2


class TestRejectedSweeps:
    """Repeated sweep values and a negative worker count stop at exit 2."""

    @pytest.mark.parametrize(
        "cfg,args,key",
        [
            # ran seed 1 once but reported n_seeds = 2 with a zero standard error
            (DISC_CFG, ["-s", "seeds=[1,1]"], "seeds"),
            # wrote every (c_over_b, h) row twice
            (DISC_CFG, ["-s", "dilemma.benefits=[4,4.0]"], "dilemma.benefits"),
            # two benefits, one c/b ratio: the ratio keys the sweep's results
            (DISC_CFG, ["-s", "dilemma.benefits=[3.0000000000000004,3.000000000000001]"],
             "dilemma.benefits"),
            (DISP_CFG, ["-s", "partition.etas=[0.1,0.1]"], "partition.etas"),
            (DISP_CFG, ["-s", "dilemma.b_over_c=[8,8]"], "dilemma.b_over_c"),
            (DISP_CFG, ["-s", "modes=[baseline,baseline]"], "modes"),
            # was read as "all cores"
            (DISC_CFG, ["--jobs", "-3"], "jobs"),
        ],
        ids=["seeds", "benefits", "c-over-b", "etas", "b-over-c", "modes", "negative-jobs"],
    )
    def test_exit_two_and_nothing_written(self, runner, tmp_path, cfg, args, key):
        write_cfg(tmp_path / "c.yaml", cfg)
        out = tmp_path / "o"
        result = runner.invoke(
            main, [cfg["experiment"], str(tmp_path / "c.yaml"), "--out-dir", str(out), *args]
        )
        assert result.exit_code == 2, result.output
        assert key in result.output
        assert not out.exists() or not any(out.iterdir())


class TestRejectedRunValues:
    """Values that validate passed but that ended the command in a traceback
    (exit 1), or that ran a config other than the one recorded, stop at exit
    2 with a message naming the key, before anything is written."""

    @pytest.mark.parametrize(
        "cfg,args,message",
        [
            # numpy: "expected non-negative integer"
            (SAND_CFG, ["-s", "seed=-1"], "seed: expected a non-negative integer, got -1"),
            (DISP_CFG, ["-s", "seeds=[-1]"], "seeds[0]: expected a non-negative integer, got -1"),
            (DISC_CFG, ["-s", "seeds=[2,-1]"], "seeds[1]: expected a non-negative integer, got -1"),
            # TypeError from Path(3)
            (SAND_CFG, ["-s", "out_dir=3"], "out_dir: expected a directory path, got 3"),
            (DISP_CFG, ["-s", "out_dir=[a]"], "out_dir: expected a directory path, got ['a']"),
            # ran discrimination but recorded the hash of a dispersal config
            (DISC_CFG, ["-s", "experiment=dispersal"],
             "experiment: an override cannot change the experiment from 'discrimination' "
             "to 'dispersal'"),
        ],
        ids=["sandbox-seed", "dispersal-seeds", "discrimination-seeds", "sandbox-out-dir",
             "dispersal-out-dir", "experiment"],
    )
    def test_exit_two_and_nothing_written(self, runner, tmp_path, cfg, args, message):
        write_cfg(tmp_path / "c.yaml", cfg)
        out = tmp_path / "o"
        result = runner.invoke(
            main, [cfg["experiment"], str(tmp_path / "c.yaml"), "--out-dir", str(out), *args]
        )
        assert result.exit_code == 2, result.output
        assert result.output.strip().splitlines()[-1] == f"Error: {message}"
        assert not out.exists() or not any(out.iterdir())

    def test_override_naming_the_same_experiment_passes(self, runner):
        result = runner.invoke(
            main,
            ["validate", str(CONFIGS / "discrimination.yaml"), "-s", "experiment=discrimination"],
        )
        assert result.exit_code == 0, result.output


class TestRejectedKeys:
    """Values that crashed with a traceback, or that a run silently ignored,
    stop at exit 2 with a message naming the key."""

    @pytest.mark.parametrize(
        "cfg,override",
        [
            (DISC_CFG, "learner=null"),
            (DISC_CFG, "genotype=3"),
            (DISC_CFG, "dilemma=null"),
            (DISP_CFG, "partition=7"),
            (SAND_CFG, "mutation=null"),
            (SAND_CFG, "policy=null"),
        ],
        ids=lambda value: value if isinstance(value, str) else value["experiment"],
    )
    def test_non_mapping_value_for_mapping_key(self, runner, tmp_path, cfg, override):
        write_cfg(tmp_path / "c.yaml", cfg)
        result = runner.invoke(main, ["validate", str(tmp_path / "c.yaml"), "-s", override])
        assert result.exit_code == 2, result.output
        key, _, value = override.partition("=")
        assert f"{key}: expected a mapping, got {yaml.safe_load(value)!r}" in result.output

    @pytest.mark.parametrize(
        "config,overrides,key",
        [
            # was accepted, and the run used the default alpha of 0.1
            ("sandbox.yaml", ["policy.kind=q", "policy.alpah=0.5"], "policy.alpah"),
            ("discrimination.yaml", ["learner.alphaa=0.5"], "learner.alphaa"),
        ],
        ids=["policy", "learner"],
    )
    def test_unknown_nested_key(self, runner, config, overrides, key):
        args = ["validate", str(CONFIGS / config)]
        for override in overrides:
            args += ["-s", override]
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert f"unknown config key {key!r}" in result.output

    @pytest.mark.parametrize("override", ["dilemma.benefits=[0,4]", "dilemma.cost=0"])
    def test_dilemma_checked_before_its_ratio(self, runner, override):
        # c/b of a zero benefit divides by zero; of a zero cost, repeats 0.0
        result = runner.invoke(
            main, ["validate", str(CONFIGS / "discrimination.yaml"), "-s", override]
        )
        assert result.exit_code == 2, result.output
        assert "need benefit > cost > 0 for a dilemma" in result.output

    def test_key_of_another_policy_kind_passes(self, runner):
        # the shipped file's p belongs to the random policy; a q policy ignores it
        result = runner.invoke(
            main, ["validate", str(CONFIGS / "sandbox.yaml"), "-s", "policy.kind=q"]
        )
        assert result.exit_code == 0, result.output

    @pytest.mark.parametrize(
        "overrides,key",
        [(["policy.alpha=x"], "policy.alpha"), (["policy.kind=idle", "policy.p=x"], "policy.p")],
        ids=["alpha-under-random", "p-under-idle"],
    )
    def test_key_of_another_policy_kind_is_checked(self, runner, overrides, key):
        # both printed OK: the policy built reads only its own kind's keys
        args = ["validate", str(CONFIGS / "sandbox.yaml")]
        for override in overrides:
            args += ["-s", override]
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert f"{key}: expected a number, got 'x'" in result.output

    @pytest.mark.parametrize("kind", ["q", "random"])
    def test_policy_reward_names_its_key(self, runner, kind):
        result = runner.invoke(main, [
            "validate", str(CONFIGS / "sandbox.yaml"),
            "-s", f"policy.kind={kind}", "-s", "policy.reward=best",
        ])
        assert result.exit_code == 2, result.output
        kinds = ", ".join(QReproductionPolicy.REWARD_KINDS)
        assert f"policy.reward: expected one of {kinds}, got 'best'" in result.output
        assert "reward_kind" not in result.output

    @pytest.mark.parametrize("override", ["genotype.loci=2", "initial_genotype=0-0-0-9"])
    def test_initial_genotype_outside_space_names_key(self, runner, override):
        # the message used to name no key
        result = runner.invoke(
            main, ["validate", str(CONFIGS / "sandbox.yaml"), "-s", override]
        )
        assert result.exit_code == 2, result.output
        assert "initial_genotype must belong to the genotype space" in result.output


# Exit code and last output line of ``kincoop validate <shipped config> -s ...``
# for one bad value per key: a wrong type, and where the key has a range, a
# value outside it. Every policy key is tried under every policy kind.
VALIDATE_TABLE = [
    ('discrimination.yaml', 'experiment=x', 2,
     "Error: experiment: an override cannot change the experiment from 'discrimination' to 'x'"),
    ('discrimination.yaml', 'seeds=x', 2, 'Error: seeds: expected a non-empty list of integers'),
    ('discrimination.yaml', 'seeds=[]', 2, 'Error: seeds: expected a non-empty list of integers'),
    ('discrimination.yaml', 'seeds=[1,-1]', 2,
     'Error: seeds[1]: expected a non-negative integer, got -1'),
    ('discrimination.yaml', 'out_dir=3', 2, 'Error: out_dir: expected a directory path, got 3'),
    ('discrimination.yaml', 'steps_max=x', 2, "Error: steps_max: expected an integer, got 'x'"),
    ('discrimination.yaml', 'steps_max=0', 2,
     'Error: steps_max: expected an integer above window (200), got 0'),
    ('discrimination.yaml', 'window=x', 2, "Error: window: expected an integer, got 'x'"),
    ('discrimination.yaml', 'window=0', 2, 'Error: window: expected a positive integer, got 0'),
    ('discrimination.yaml', 'genotype.loci=x', 2,
     "Error: genotype.loci: expected an integer, got 'x'"),
    ('discrimination.yaml', 'genotype.loci=0', 2, 'Error: genotype: loci must be >= 1'),
    ('discrimination.yaml', 'genotype.loci=11', 2,
     'Error: genotype: complete network over 2048 genotypes exceeds the 1024-agent limit'),
    ('discrimination.yaml', 'genotype.loci=100000', 2,
     'Error: genotype: variants^loci = 2^100000 exceeds the 1048576 genotypes that can be enumerated'),
    ('discrimination.yaml', 'genotype.variants=x', 2,
     "Error: genotype.variants: expected an integer, got 'x'"),
    ('discrimination.yaml', 'genotype.variants=1', 2, 'Error: genotype: variants must be >= 2'),
    ('discrimination.yaml', 'dilemma.cost=x', 2,
     "Error: dilemma.cost: expected a number, got 'x'"),
    ('discrimination.yaml', 'dilemma.cost=-1', 2,
     'Error: dilemma: need benefit > cost > 0 for a dilemma, got b=4.0, c=-1.0'),
    ('discrimination.yaml', 'dilemma.benefits=x', 2,
     'Error: dilemma.benefits: expected a non-empty list of numbers'),
    ('discrimination.yaml', 'dilemma.benefits=[0.5]', 2,
     'Error: dilemma: need benefit > cost > 0 for a dilemma, got b=0.5, c=1.0'),
    ('discrimination.yaml', 'inclusive=x', 2, "Error: inclusive: expected true/false, got 'x'"),
    ('discrimination.yaml', 'self_play=x', 2, "Error: self_play: expected true/false, got 'x'"),
    ('discrimination.yaml', 'learner.alpha=x', 2,
     "Error: learner.alpha: expected a number, got 'x'"),
    ('discrimination.yaml', 'learner.alpha=0', 2, 'Error: learner: alpha must be in (0, 1]'),
    ('discrimination.yaml', 'learner.epsilon0=x', 2,
     "Error: learner.epsilon0: expected a number, got 'x'"),
    ('discrimination.yaml', 'learner.epsilon0=2', 2, 'Error: learner: epsilon0 must be in [0, 1]'),
    ('discrimination.yaml', 'learner.decay=x', 2,
     "Error: learner.decay: expected a number, got 'x'"),
    ('discrimination.yaml', 'learner.decay=0', 2, 'Error: learner: decay must be in (0, 1]'),
    ('discrimination.yaml', 'learner.epsilon_min=x', 2,
     "Error: learner.epsilon_min: expected a number, got 'x'"),
    ('discrimination.yaml', 'learner.epsilon_min=2', 2,
     'Error: learner: epsilon_min must be in [0, epsilon0]'),
    ('discrimination.yaml', 'learner.q_init=x', 2,
     "Error: learner.q_init: expected a number, got 'x'"),
    ('discrimination.yaml', 'jobs=x', 2, "Error: jobs: expected an integer, got 'x'"),
    ('discrimination.yaml', 'jobs=-1', 2,
     'Error: jobs: expected 0 (all cores) or a positive count, got -1'),
    ('discrimination.yaml', 'plot=x', 2, "Error: plot: expected true/false, got 'x'"),
    ('dispersal.yaml', 'genotype.loci=21', 2,
     'Error: genotype: variants^loci = 2^21 exceeds the 1048576 genotypes that can be enumerated'),
    ('dispersal.yaml', 'genotype.loci=100000', 2,
     'Error: genotype: variants^loci = 2^100000 exceeds the 1048576 genotypes that can be enumerated'),
    ('dispersal.yaml', 'partition.community_size=x', 2,
     "Error: partition.community_size: expected an integer, got 'x'"),
    ('dispersal.yaml', 'partition.community_size=1', 2,
     'Error: partition.community_size: community_size must be >= 2'),
    ('dispersal.yaml', 'partition.community_size=1024', 0,
     'OK: valid dispersal configuration (hash 710a94b46b2f)'),
    ('dispersal.yaml', 'partition.community_size=1025', 2,
     'Error: partition.community_size: 1025 x 8 communities = 8200 nodes exceeds the 8192-node limit'),
    ('dispersal.yaml', 'partition.community_size=100000', 2,
     'Error: partition.community_size: 100000 x 8 communities = 800000 nodes exceeds the 8192-node limit'),
    ('dispersal.yaml', 'partition.k_avg=x', 2,
     "Error: partition.k_avg: expected a number, got 'x'"),
    ('dispersal.yaml', 'partition.k_avg=0', 2,
     'Error: partition.k_avg: k_avg must be > 0'),
    # was blamed on partition.etas, with a "minimal feasible eta" of 1.66071
    ('dispersal.yaml', 'partition.k_avg=100', 2,
     'Error: partition.k_avg: k_avg=100.0 exceeds N - 1 = 63, '
     'the mean degree of a complete network on 64 nodes'),
    ('dispersal.yaml', 'partition.k_avg=63 partition.etas=[1]', 0,
     'OK: valid dispersal configuration (hash d614e6f7ed18)'),
    ('dispersal.yaml', 'partition.etas=x', 2,
     'Error: partition.etas: expected a non-empty list of numbers'),
    ('dispersal.yaml', 'partition.etas=[0]', 2,
     'Error: partition.etas: eta must be in (0, 1], got 0.0'),
    ('dispersal.yaml', 'partition.etas=[0.001]', 2,
     'Error: partition.etas: eta=0.001 is infeasible for k_avg=9.0: it requires p_in=1.27551 > 1; the minimal feasible eta is 0.0357143'),
    ('dispersal.yaml', 'dilemma.b_over_c=x', 2,
     'Error: dilemma.b_over_c: expected a non-empty list of numbers'),
    ('dispersal.yaml', 'dilemma.b_over_c=[0.5]', 2,
     'Error: dilemma: need benefit > cost > 0 for a dilemma, got b=0.5, c=1.0'),
    ('dispersal.yaml', 'modes=x', 2, 'Error: modes: expected a non-empty list'),
    ('dispersal.yaml', 'modes=[other]', 2,
     "Error: modes: entries must be 'inclusive' or 'baseline', got 'other'"),
    ('dispersal.yaml', 'edge_sampling=x', 2, "Error: edge_sampling: expected true/false, got 'x'"),
    ('sandbox.yaml', 'seed=x', 2, "Error: seed: expected an integer, got 'x'"),
    ('sandbox.yaml', 'seed=-1', 2, 'Error: seed: expected a non-negative integer, got -1'),
    ('sandbox.yaml', 'out_dir=3', 2, 'Error: out_dir: expected a directory path, got 3'),
    ('sandbox.yaml', 'steps=x', 2, "Error: steps: expected an integer, got 'x'"),
    ('sandbox.yaml', 'steps=-1', 2, 'Error: steps must be >= 0'),
    ('sandbox.yaml', 'genotype.loci=x', 2, "Error: genotype.loci: expected an integer, got 'x'"),
    ('sandbox.yaml', 'genotype.loci=2', 2,
     'Error: initial_genotype must belong to the genotype space'),
    ('sandbox.yaml', 'genotype.variants=x', 2,
     "Error: genotype.variants: expected an integer, got 'x'"),
    ('sandbox.yaml', 'genotype.variants=1', 2, 'Error: genotype: variants must be >= 2'),
    ('sandbox.yaml', 'genotype.variants=9223372036854775808', 0,
     'OK: valid sandbox configuration (hash 6e2234cb4074)'),
    ('sandbox.yaml', 'genotype.variants=9223372036854775809', 2,
     'Error: genotype: variants must be <= 2**63, got 9223372036854775809'),
    ('sandbox.yaml', 'genotype.variants=100000000000000000000', 2,
     'Error: genotype: variants must be <= 2**63, got 100000000000000000000'),
    ('sandbox.yaml', 'initial_genotype=x', 2,
     "Error: initial_genotype: malformed genotype string 'x'"),
    ('sandbox.yaml', 'initial_genotype=0-0-0-9', 2,
     'Error: initial_genotype must belong to the genotype space'),
    ('sandbox.yaml', 'mutation.mu=x', 2, "Error: mutation.mu: expected a number, got 'x'"),
    ('sandbox.yaml', 'mutation.mu=1.5', 2,
     'Error: mutation.mu: mutation probability must be in [0, 1], got 1.5'),
    ('sandbox.yaml', 'initial_health=x', 2, "Error: initial_health: expected a number, got 'x'"),
    ('sandbox.yaml', 'initial_health=0', 2, 'Error: initial_health must be > 0'),
    ('sandbox.yaml', 'food_rate=x', 2, "Error: food_rate: expected an integer, got 'x'"),
    ('sandbox.yaml', 'food_rate=-1', 2, 'Error: food_rate must be >= 0'),
    ('sandbox.yaml', 'policy.kind=x', 2,
     "Error: policy.kind must be one of ('idle', 'always', 'random', 'threshold', 'q'), got 'x'"),
    ('sandbox.yaml', 'policy.kind=idle policy.p=x', 2,
     "Error: policy.p: expected a number, got 'x'"),
    ('sandbox.yaml', 'policy.kind=idle policy.min_health=x', 2,
     "Error: policy.min_health: expected a number, got 'x'"),
    ('sandbox.yaml', 'policy.kind=idle policy.reward=3', 2,
     'Error: policy.reward: expected one of longevity, replication, combined, got 3'),
    ('sandbox.yaml', 'policy.kind=idle policy.alpha=x', 2,
     "Error: policy.alpha: expected a number, got 'x'"),
    ('sandbox.yaml', 'policy.kind=idle policy.epsilon0=x', 2,
     "Error: policy.epsilon0: expected a number, got 'x'"),
    ('sandbox.yaml', 'policy.kind=idle policy.decay=x', 2,
     "Error: policy.decay: expected a number, got 'x'"),
    ('sandbox.yaml', 'policy.kind=idle policy.epsilon_min=x', 2,
     "Error: policy.epsilon_min: expected a number, got 'x'"),
    ('sandbox.yaml', 'policy.kind=idle policy.q_init=x', 2,
     "Error: policy.q_init: expected a number, got 'x'"),
    ('sandbox.yaml', 'policy.kind=always policy.p=x', 2,
     "Error: policy.p: expected a number, got 'x'"),
    ('sandbox.yaml', 'policy.kind=always policy.min_health=x', 2,
     "Error: policy.min_health: expected a number, got 'x'"),
    ('sandbox.yaml', 'policy.kind=always policy.reward=3', 2,
     'Error: policy.reward: expected one of longevity, replication, combined, got 3'),
    ('sandbox.yaml', 'policy.kind=always policy.alpha=x', 2,
     "Error: policy.alpha: expected a number, got 'x'"),
    ('sandbox.yaml', 'policy.kind=always policy.epsilon0=x', 2,
     "Error: policy.epsilon0: expected a number, got 'x'"),
    ('sandbox.yaml', 'policy.kind=always policy.decay=x', 2,
     "Error: policy.decay: expected a number, got 'x'"),
    ('sandbox.yaml', 'policy.kind=always policy.epsilon_min=x', 2,
     "Error: policy.epsilon_min: expected a number, got 'x'"),
    ('sandbox.yaml', 'policy.kind=always policy.q_init=x', 2,
     "Error: policy.q_init: expected a number, got 'x'"),
    ('sandbox.yaml', 'policy.kind=random policy.p=x', 2,
     "Error: policy.p: expected a number, got 'x'"),
    ('sandbox.yaml', 'policy.kind=random policy.min_health=x', 2,
     "Error: policy.min_health: expected a number, got 'x'"),
    ('sandbox.yaml', 'policy.kind=random policy.reward=3', 2,
     'Error: policy.reward: expected one of longevity, replication, combined, got 3'),
    ('sandbox.yaml', 'policy.kind=random policy.alpha=x', 2,
     "Error: policy.alpha: expected a number, got 'x'"),
    ('sandbox.yaml', 'policy.kind=random policy.epsilon0=x', 2,
     "Error: policy.epsilon0: expected a number, got 'x'"),
    ('sandbox.yaml', 'policy.kind=random policy.decay=x', 2,
     "Error: policy.decay: expected a number, got 'x'"),
    ('sandbox.yaml', 'policy.kind=random policy.epsilon_min=x', 2,
     "Error: policy.epsilon_min: expected a number, got 'x'"),
    ('sandbox.yaml', 'policy.kind=random policy.q_init=x', 2,
     "Error: policy.q_init: expected a number, got 'x'"),
    ('sandbox.yaml', 'policy.kind=threshold policy.p=x', 2,
     "Error: policy.p: expected a number, got 'x'"),
    ('sandbox.yaml', 'policy.kind=threshold policy.min_health=x', 2,
     "Error: policy.min_health: expected a number, got 'x'"),
    ('sandbox.yaml', 'policy.kind=threshold policy.reward=3', 2,
     'Error: policy.reward: expected one of longevity, replication, combined, got 3'),
    ('sandbox.yaml', 'policy.kind=threshold policy.alpha=x', 2,
     "Error: policy.alpha: expected a number, got 'x'"),
    ('sandbox.yaml', 'policy.kind=threshold policy.epsilon0=x', 2,
     "Error: policy.epsilon0: expected a number, got 'x'"),
    ('sandbox.yaml', 'policy.kind=threshold policy.decay=x', 2,
     "Error: policy.decay: expected a number, got 'x'"),
    ('sandbox.yaml', 'policy.kind=threshold policy.epsilon_min=x', 2,
     "Error: policy.epsilon_min: expected a number, got 'x'"),
    ('sandbox.yaml', 'policy.kind=threshold policy.q_init=x', 2,
     "Error: policy.q_init: expected a number, got 'x'"),
    ('sandbox.yaml', 'policy.kind=q policy.p=x', 2, "Error: policy.p: expected a number, got 'x'"),
    ('sandbox.yaml', 'policy.kind=q policy.min_health=x', 2,
     "Error: policy.min_health: expected a number, got 'x'"),
    ('sandbox.yaml', 'policy.kind=q policy.reward=3', 2,
     'Error: policy.reward: expected one of longevity, replication, combined, got 3'),
    ('sandbox.yaml', 'policy.kind=q policy.alpha=x', 2,
     "Error: policy.alpha: expected a number, got 'x'"),
    ('sandbox.yaml', 'policy.kind=q policy.epsilon0=x', 2,
     "Error: policy.epsilon0: expected a number, got 'x'"),
    ('sandbox.yaml', 'policy.kind=q policy.decay=x', 2,
     "Error: policy.decay: expected a number, got 'x'"),
    ('sandbox.yaml', 'policy.kind=q policy.epsilon_min=x', 2,
     "Error: policy.epsilon_min: expected a number, got 'x'"),
    ('sandbox.yaml', 'policy.kind=q policy.q_init=x', 2,
     "Error: policy.q_init: expected a number, got 'x'"),
    ('sandbox.yaml', 'policy.kind=random policy.p=2', 2, 'Error: policy: p must be in [0, 1]'),
    ('sandbox.yaml', 'policy.kind=q policy.reward=x', 2,
     "Error: policy.reward: expected one of longevity, replication, combined, got 'x'"),
    ('sandbox.yaml', 'policy.kind=q policy.alpha=0', 2, 'Error: policy: alpha must be in (0, 1]'),
    ('sandbox.yaml', 'policy.kind=q policy.epsilon0=2', 2,
     'Error: policy: epsilon0 must be in [0, 1]'),
    ('sandbox.yaml', 'policy.kind=q policy.decay=0', 2, 'Error: policy: decay must be in (0, 1]'),
    ('sandbox.yaml', 'policy.kind=q policy.decay=null', 2,
     'Error: policy.decay: expected a number, got None'),
    ('sandbox.yaml', 'policy.kind=q policy.epsilon_min=2', 2,
     'Error: policy: epsilon_min must be in [0, epsilon0]'),
    ('sandbox.yaml', 'initial_health=.inf', 2,
     'Error: initial_health: expected a finite number, got inf'),
    ('dispersal.yaml', 'partition.k_avg=.nan', 2,
     'Error: partition.k_avg: expected a finite number, got nan'),
    ('discrimination.yaml', 'learner.q_init=.inf', 2,
     'Error: learner.q_init: expected a finite number, got inf'),
    ('discrimination.yaml', 'dilemma.benefits=[4.0,.inf]', 2,
     'Error: dilemma.benefits[1]: expected a finite number, got inf'),
]


def test_integer_beyond_float_range_exits_2(runner):
    big = "1" + "0" * 400
    result = runner.invoke(
        main, ["validate", str(CONFIGS / "sandbox.yaml"), "-s", f"initial_health={big}"]
    )
    assert result.exit_code == 2, result.output
    assert f"initial_health: expected a finite number, got {big}" in result.output


@pytest.mark.parametrize(
    "config,overrides,exit_code,last_line", VALIDATE_TABLE,
    ids=[f"{config.split('.')[0]}:{overrides}" for config, overrides, *_ in VALIDATE_TABLE],
)
def test_validate_table(runner, config, overrides, exit_code, last_line):
    args = ["validate", str(CONFIGS / config)]
    for override in overrides.split():
        args += ["-s", override]
    result = runner.invoke(main, args)
    assert (result.exit_code, result.output.strip().splitlines()[-1]) == (exit_code, last_line)


def counting(calls, name, fn, results=None):
    """``fn`` wrapped to count its calls in ``calls[name]`` and keep its results."""
    def wrapper(*args, **kwargs):
        calls[name] += 1
        result = fn(*args, **kwargs)
        if results is not None:
            results.append(result)
        return result
    return wrapper


class TestEffectiveJobs:
    """``jobs: 0`` starts one worker per CPU this process may run on, which a
    CPU mask may make fewer than the machine's."""

    def test_zero_counts_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(kincoop.cli.os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
        monkeypatch.setattr(kincoop.cli.os, "cpu_count", lambda: 8)
        assert kincoop.cli._effective_jobs(0) == 2
        assert kincoop.cli._effective_jobs(3) == 3

    def test_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.delattr(kincoop.cli.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(kincoop.cli.os, "cpu_count", lambda: 8)
        assert kincoop.cli._effective_jobs(0) == 8
        monkeypatch.setattr(kincoop.cli.os, "cpu_count", lambda: None)
        assert kincoop.cli._effective_jobs(0) == 1


class TestProbedNames:
    """The commands call, at call time, the names that perfbench's probes
    replace, so the per-layer metrics see every call."""

    NAMES = (
        "build_discrimination_plan", "build_dispersal_plan", "run_sweep", "line_chart",
        "write_atomic_json",
    )
    SANDBOX_NAMES = {
        kincoop.cli: ("run_sandbox", "replication_identity_error", "write_trace_csv",
                      "write_rewards_csv"),
        kincoop.popreward: ("mutate", "epsilon_at", "hamming_similarity"),
    }

    @pytest.mark.parametrize("cfg", [DISC_CFG, DISP_CFG], ids=["discrimination", "dispersal"])
    def test_sweep_calls_each_probed_name(self, runner, tmp_path, monkeypatch, cfg):
        calls = dict.fromkeys(self.NAMES, 0)
        for name in self.NAMES:
            monkeypatch.setattr(kincoop.cli, name, counting(calls, name, getattr(kincoop.cli, name)))
        write_cfg(tmp_path / "c.yaml", {**cfg, "seeds": [1], "plot": True})
        result = runner.invoke(
            main, [cfg["experiment"], str(tmp_path / "c.yaml"), "--out-dir", str(tmp_path / "o")]
        )
        assert result.exit_code == 0, result.output
        other = "dispersal" if cfg["experiment"] == "discrimination" else "discrimination"
        assert calls == {
            f"build_{cfg['experiment']}_plan": 1,
            f"build_{other}_plan": 0,
            "run_sweep": 1,
            "line_chart": 1,
            # the runs sidecar, then the manifest
            "write_atomic_json": 2,
        }

    def test_sandbox_calls_each_probed_name(self, runner, tmp_path, monkeypatch):
        # the cross-checks of perfbench's traced sandbox run
        calls, traces = {}, []
        for module, names in self.SANDBOX_NAMES.items():
            for name in names:
                calls[name] = 0
                wrapped = counting(
                    calls, name, getattr(module, name), traces if name == "run_sandbox" else None
                )
                monkeypatch.setattr(module, name, wrapped)
        out = tmp_path / "o"
        result = runner.invoke(
            main,
            ["sandbox", str(CONFIGS / "sandbox.yaml"), "--out-dir", str(out),
             "-s", "policy.kind=q", "-s", "steps=150"],
        )
        assert result.exit_code == 0, result.output
        (trace,) = traces
        assert trace.steps == 150
        trace_csv = (out / "sandbox_trace.csv").read_text()
        assert calls == {
            "run_sandbox": 1,
            "replication_identity_error": 1,
            "write_trace_csv": 1,
            "write_rewards_csv": 1,
            "mutate": trace_csv.count(",birth\n"),
            "epsilon_at": sum(trace.pop_before),
            "hamming_similarity": 0,
        }
        assert calls["mutate"] > 0
