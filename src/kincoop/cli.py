"""Command-line front end: experiment dispatch, sweeps, CSV/SVG emission.

Exit codes: 0 when all requested runs completed and built-in identity
checks passed, 1 on runtime failure, 2 on usage or config errors.
"""

from __future__ import annotations

import csv
import datetime
import functools
import os
import platform
from pathlib import Path
from typing import Optional

import click
import numpy as np

from . import __version__
from .config import (
    ConfigError,
    SandboxPlan,
    build_discrimination_plan,
    build_dispersal_plan,
    build_sandbox_plan,
    config_hash,
    load_config_file,
    resolve_config,
)
from .experiments import SweepTask, aggregate, run_sweep
from .ioutil import fmt, write_atomic, write_atomic_json
from .networks import InfeasiblePartitionError
from .popreward import (
    replication_identity_error,
    run_sandbox,
    write_rewards_csv,
    write_trace_csv,
)
from .svgplot import Series, line_chart

OUT_DIR_ENV = "KINCOOP_OUT_DIR"


def _friendly_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (ConfigError, InfeasiblePartitionError) as exc:
            raise click.UsageError(str(exc)) from exc

    return wrapper


def _resolve_out_dir(config_value: Optional[str], flag_value: Optional[Path]) -> Path:
    if flag_value is not None:
        out = Path(flag_value)
    elif config_value:
        out = Path(config_value)
    else:
        out = Path(os.environ.get(OUT_DIR_ENV, "."))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _parse_seed_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"--seeds must be a comma-separated integer list, got {text!r}") from exc


def _effective_jobs(configured: int) -> int:
    return configured if configured > 0 else (os.cpu_count() or 1)


def _timestamp() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _write_manifest(
    out_dir: Path, command: str, resolved: dict, seeds, started: str, outputs: list[Path]
) -> Path:
    manifest_path = out_dir / "manifest.json"
    write_atomic_json(
        manifest_path,
        {
            "command": command,
            "version": __version__,
            # dispersal outputs rest on numpy's summation order (see pairsum)
            "python": platform.python_version(),
            "numpy": np.__version__,
            # platform.platform() would scan the interpreter binary for its libc
            "platform": "-".join((platform.system(), platform.release(), platform.machine())),
            "config_hash": config_hash(resolved),
            "seeds": list(seeds),
            "started_at": started,
            "finished_at": _timestamp(),
            "outputs": [p.name for p in outputs],
        },
    )
    return manifest_path


_shared_options = [
    click.option(
        "--set",
        "-s",
        "overrides",
        multiple=True,
        metavar="KEY=VALUE",
        help="Override a config key by dotted path, e.g. -s learner.alpha=0.2",
    ),
    click.option("--seeds", default=None, help="Comma-separated seed list, e.g. 1,2,3"),
    click.option(
        "--inclusive",
        type=click.BOOL,
        default=None,
        help="Run with (true) or without (false) relatedness-weighted rewards",
    ),
    click.option(
        "--out-dir",
        type=click.Path(file_okay=False, path_type=Path),
        default=None,
        help=f"Output directory (default: config, then ${OUT_DIR_ENV}, then '.')",
    ),
    click.option("--jobs", type=int, default=None, help="Parallel worker processes (0 = all cores)"),
    click.option("--plot/--no-plot", "plot", default=None, help="Emit SVG charts"),
]


def _with_shared_options(fn):
    for option in reversed(_shared_options):
        fn = option(fn)
    return fn


@click.group()
@click.version_option(__version__, prog_name="kincoop")
def main():
    """Cooperation experiments for kin-related independent learners."""


@main.command()
@click.argument("config_file", type=click.Path(exists=True, dir_okay=False, path_type=Path))
@_with_shared_options
@_friendly_errors
def discrimination(config_file, overrides, seeds, inclusive, out_dir, jobs, plot):
    """Opponent-discrimination experiment on a complete network."""
    started = _timestamp()
    data = load_config_file(config_file)
    data.setdefault("experiment", "discrimination")
    if data["experiment"] != "discrimination":
        raise ConfigError(
            f"{config_file}: config declares experiment {data['experiment']!r}"
        )
    if seeds is not None:
        data["seeds"] = _parse_seed_list(seeds)
    if inclusive is not None:
        data["inclusive"] = inclusive
    if jobs is not None:
        data["jobs"] = jobs
    if plot is not None:
        data["plot"] = plot
    resolved = resolve_config(data, overrides)
    plan = build_discrimination_plan(resolved)
    out = _resolve_out_dir(plan.out_dir, out_dir)

    tasks = [
        SweepTask((benefit,), plan.point_config(benefit), seed)
        for benefit in plan.benefits
        for seed in plan.seeds
    ]
    results = run_sweep(tasks, _effective_jobs(plan.jobs))

    rows = []
    run_meta = []
    for benefit in plan.benefits:
        per_seed = results[(benefit,)]
        tables = [per_seed[s]["bins"] for s in plan.seeds]
        c_over_b = plan.cost / benefit
        for key, mean, se, n in aggregate(tables):
            rows.append((c_over_b, key, mean, se, n))
        for s in plan.seeds:
            run_meta.append({"c_over_b": c_over_b, **per_seed[s]["meta"]})
    rows.sort(key=lambda r: (r[0], r[1]))

    csv_path = out / "discrimination.csv"
    with write_atomic(csv_path, newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["c_over_b", "h", "coop_freq_mean", "coop_freq_se", "n_seeds"])
        for c_over_b, h, mean, se, n in rows:
            writer.writerow([fmt(c_over_b), fmt(h), fmt(mean), fmt(se), n])
    outputs = [csv_path]

    meta_path = out / "discrimination_runs.json"
    write_atomic_json(meta_path, run_meta)
    outputs.append(meta_path)

    if plan.plot:
        ratios = sorted({row[0] for row in rows})
        series = []
        for ratio in ratios:
            pts = [(h, mean) for cb, h, mean, _, _ in rows if cb == ratio]
            series.append(
                Series(
                    label=f"c/b={fmt(ratio)}",
                    xs=tuple(p[0] for p in pts),
                    ys=tuple(p[1] for p in pts),
                )
            )
        svg_path = out / "discrimination.svg"
        with write_atomic(svg_path) as handle:
            handle.write(
                line_chart(
                    series,
                    title="Cooperation frequency vs. opponent similarity",
                    xlabel="Hamming similarity h",
                    ylabel="cooperation frequency",
                )
            )
        outputs.append(svg_path)

    outputs.append(_write_manifest(out, "discrimination", resolved, plan.seeds, started, outputs))
    click.echo(f"wrote {csv_path} ({len(rows)} rows, {len(plan.seeds)} seeds)")


@main.command()
@click.argument("config_file", type=click.Path(exists=True, dir_okay=False, path_type=Path))
@_with_shared_options
@_friendly_errors
def dispersal(config_file, overrides, seeds, inclusive, out_dir, jobs, plot):
    """Limited-dispersal experiment on random partition networks."""
    started = _timestamp()
    data = load_config_file(config_file)
    data.setdefault("experiment", "dispersal")
    if data["experiment"] != "dispersal":
        raise ConfigError(f"{config_file}: config declares experiment {data['experiment']!r}")
    if seeds is not None:
        data["seeds"] = _parse_seed_list(seeds)
    if inclusive is not None:
        data["modes"] = ["inclusive"] if inclusive else ["baseline"]
    if jobs is not None:
        data["jobs"] = jobs
    if plot is not None:
        data["plot"] = plot
    resolved = resolve_config(data, overrides)
    plan = build_dispersal_plan(resolved)
    out = _resolve_out_dir(plan.out_dir, out_dir)

    tasks = [
        SweepTask((eta, boc, mode), plan.point_config(eta, boc, mode), seed)
        for eta in plan.etas
        for boc in plan.b_over_c
        for mode in plan.modes
        for seed in plan.seeds
    ]
    results = run_sweep(tasks, _effective_jobs(plan.jobs))

    rows = []
    run_meta = []
    for eta in plan.etas:
        for boc in plan.b_over_c:
            for mode in plan.modes:
                per_seed = results[(eta, boc, mode)]
                values = [{"p": per_seed[s]["proportion"]} for s in plan.seeds]
                (_, mean, se, n), = aggregate(values)
                rows.append((eta, boc, mode == "inclusive", mean, se, n))
                for s in plan.seeds:
                    run_meta.append(
                        {"eta": eta, "b_over_c": boc, "inclusive": mode == "inclusive",
                         **per_seed[s]["meta"]}
                    )
    rows.sort(key=lambda r: (r[0], r[1], r[2]))

    csv_path = out / "dispersal.csv"
    with write_atomic(csv_path, newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["eta", "b_over_c", "inclusive", "coop_prop_mean", "coop_prop_se", "n_seeds"])
        for eta, boc, incl, mean, se, n in rows:
            writer.writerow([fmt(eta), fmt(boc), "true" if incl else "false", fmt(mean), fmt(se), n])
    outputs = [csv_path]

    meta_path = out / "dispersal_runs.json"
    write_atomic_json(meta_path, run_meta)
    outputs.append(meta_path)

    if plan.plot:
        series = []
        for eta in plan.etas:
            for mode in plan.modes:
                pts = [
                    (boc, mean)
                    for (r_eta, boc, incl, mean, _, _) in rows
                    if r_eta == eta and incl == (mode == "inclusive")
                ]
                suffix = "" if mode == "inclusive" else " (individual)"
                series.append(
                    Series(
                        label=f"eta={fmt(eta)}{suffix}",
                        xs=tuple(p[0] for p in pts),
                        ys=tuple(p[1] for p in pts),
                    )
                )
        svg_path = out / "dispersal.svg"
        with write_atomic(svg_path) as handle:
            handle.write(
                line_chart(
                    series,
                    title="Cooperator proportion vs. benefit-to-cost ratio",
                    xlabel="b/c",
                    ylabel="proportion of cooperators",
                )
            )
        outputs.append(svg_path)

    outputs.append(_write_manifest(out, "dispersal", resolved, plan.seeds, started, outputs))
    click.echo(f"wrote {csv_path} ({len(rows)} rows, {len(plan.seeds)} seeds)")


IDENTITY_TOLERANCE = 1e-9


@main.command()
@click.argument("config_file", type=click.Path(exists=True, dir_okay=False, path_type=Path))
@click.option("--set", "-s", "overrides", multiple=True, metavar="KEY=VALUE")
@click.option(
    "--out-dir", type=click.Path(file_okay=False, path_type=Path), default=None
)
@_friendly_errors
def sandbox(config_file, overrides, out_dir):
    """Birth/death sandbox generating population-reward traces."""
    started = _timestamp()
    data = load_config_file(config_file)
    data.setdefault("experiment", "sandbox")
    if data["experiment"] != "sandbox":
        raise ConfigError(f"{config_file}: config declares experiment {data['experiment']!r}")
    resolved = resolve_config(data, overrides)
    plan: SandboxPlan = build_sandbox_plan(resolved)
    out = _resolve_out_dir(plan.out_dir, out_dir)

    trace = run_sandbox(plan.sandbox, np.random.default_rng(plan.seed))
    # verify before writing: a failed check leaves no outputs and no manifest
    worst = replication_identity_error(trace)
    extinct = f", extinct at step {trace.extinct_at}" if trace.extinct_at is not None else ""
    click.echo(f"trace: {trace.steps} steps, final population {len(trace.states[-1])}{extinct}")
    if worst > IDENTITY_TOLERANCE:
        click.echo(f"identity check FAIL: max |replication - delta combined| = {worst:.3g}")
        raise click.ClickException("replication/combined identity violated")

    trace_path = out / "sandbox_trace.csv"
    with write_atomic(trace_path, newline="") as handle:
        write_trace_csv(trace, handle)
    rewards_path = out / "sandbox_rewards.csv"
    with write_atomic(rewards_path, newline="") as handle:
        write_rewards_csv(trace, handle)
    outputs = [trace_path, rewards_path]
    outputs.append(_write_manifest(out, "sandbox", resolved, [plan.seed], started, outputs))
    click.echo(f"identity check PASS: max |replication - delta combined| = {worst:.3g}")


@main.command()
@click.argument("config_file", type=click.Path(exists=True, dir_okay=False, path_type=Path))
@click.option("--set", "-s", "overrides", multiple=True, metavar="KEY=VALUE")
@_friendly_errors
def validate(config_file, overrides):
    """Check a config file without running anything."""
    data = load_config_file(config_file)
    kind = data.get("experiment")
    if kind is None:
        raise ConfigError(f"{config_file}: missing required key 'experiment'")
    resolved = resolve_config(data, overrides)
    if kind == "discrimination":
        build_discrimination_plan(resolved)
    elif kind == "dispersal":
        build_dispersal_plan(resolved)
    elif kind == "sandbox":
        build_sandbox_plan(resolved)
    click.echo(f"OK: valid {kind} configuration (hash {config_hash(resolved)[:12]})")


if __name__ == "__main__":
    main()
