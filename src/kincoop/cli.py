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
from typing import Callable, Mapping, Optional

import click
import numpy as np

from . import __version__
from .config import (
    ConfigError,
    SweepPlan,
    build_discrimination_plan,
    build_dispersal_plan,
    build_sandbox_plan,
    config_hash,
    load_config_file,
    resolve_config,
)
from .experiments import SweepTask, aggregate, run_sweep
from .ioutil import fmt, write_atomic, write_atomic_json
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
        except ConfigError as exc:
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


def _usable_cpus() -> int:
    """The CPUs this process may run on, which a CPU mask may make fewer than
    the machine's."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _effective_jobs(configured: int) -> int:
    return configured if configured > 0 else _usable_cpus()


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


_set_option = click.option(
    "--set", "-s", "overrides", multiple=True, metavar="KEY=VALUE",
    help="Override a config key by dotted path, e.g. -s learner.alpha=0.2",
)
_out_dir_option = click.option(
    "--out-dir", type=click.Path(file_okay=False, path_type=Path), default=None,
    help=f"Output directory (default: config, then ${OUT_DIR_ENV}, then '.')",
)
_jobs_option = click.option(
    "--jobs", type=int, default=None, help="Parallel worker processes (0 = one per usable CPU)"
)


@click.group()
@click.version_option(__version__, prog_name="kincoop")
def main():
    """Cooperation experiments for kin-related independent learners."""


def _load(config_file: Path, experiment: str, overrides, jobs: Optional[int] = None) -> dict:
    """Load a config file of ``experiment``, set ``jobs`` if given, and resolve it."""
    data = load_config_file(config_file)
    data.setdefault("experiment", experiment)
    if data["experiment"] != experiment:
        raise ConfigError(f"{config_file}: config declares experiment {data['experiment']!r}")
    if jobs is not None:
        data["jobs"] = jobs
    return resolve_config(data, overrides)


def _sweep(plan: SweepPlan, table: Callable[[dict], Mapping], labels: tuple[str, ...]):
    """Run every (point, seed) of ``plan`` and aggregate each point's per-seed
    ``table(payload)``. Returns the (point key, aggregate row) pairs sorted by
    key and row key, and each run's meta, labelled by its point's key, in
    config order."""
    tasks = [SweepTask(key, config, seed) for key, config in plan.points for seed in plan.seeds]
    results = run_sweep(tasks, _effective_jobs(plan.jobs))
    rows, run_meta = [], []
    for key, _ in plan.points:
        payloads = [results[key][seed] for seed in plan.seeds]
        rows += [(key, row) for row in aggregate([table(payload) for payload in payloads])]
        run_meta += [{**dict(zip(labels, key)), **payload["meta"]} for payload in payloads]
    rows.sort(key=lambda item: (item[0], item[1].key))
    return rows, run_meta


def _series(label: str, points) -> Series:
    xs, ys = zip(*points)
    return Series(label=label, xs=xs, ys=ys)


def _write_sweep(
    out_dir: Path, command: str, plan: SweepPlan, started: str,
    header: list[str], csv_rows: list[list], run_meta: list[dict], chart: dict,
) -> None:
    """Write ``<command>.csv``, ``<command>_runs.json``, the chart (``line_chart``
    keywords) as ``<command>.svg`` when the plan plots, and the manifest."""
    csv_path = out_dir / f"{command}.csv"
    with write_atomic(csv_path, newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(csv_rows)
    meta_path = out_dir / f"{command}_runs.json"
    write_atomic_json(meta_path, run_meta)
    outputs = [csv_path, meta_path]
    if plan.plot:
        svg_path = out_dir / f"{command}.svg"
        with write_atomic(svg_path) as handle:
            handle.write(line_chart(**chart))
        outputs.append(svg_path)
    outputs.append(_write_manifest(out_dir, command, plan.resolved, plan.seeds, started, outputs))
    click.echo(f"wrote {csv_path} ({len(csv_rows)} rows, {len(plan.seeds)} seeds)")


@main.command()
@click.argument("config_file", type=click.Path(exists=True, dir_okay=False, path_type=Path))
@_set_option
@_out_dir_option
@_jobs_option
@_friendly_errors
def discrimination(config_file, overrides, out_dir, jobs):
    """Opponent-discrimination experiment on a complete network."""
    started = _timestamp()
    plan = build_discrimination_plan(_load(config_file, "discrimination", overrides, jobs))
    out = _resolve_out_dir(plan.out_dir, out_dir)
    rows, run_meta = _sweep(plan, lambda payload: payload["bins"], ("c_over_b",))
    _write_sweep(
        out, "discrimination", plan, started,
        ["c_over_b", "h", "coop_freq_mean", "coop_freq_se", "n_seeds"],
        [[fmt(cb), fmt(h), fmt(mean), fmt(se), n] for (cb,), (h, mean, se, n) in rows],
        run_meta,
        dict(
            series=[
                _series(
                    f"c/b={fmt(ratio)}",
                    [(h, mean) for (cb,), (h, mean, *_) in rows if cb == ratio],
                )
                for ratio in sorted({cb for (cb,), _ in rows})
            ],
            title="Cooperation frequency vs. opponent similarity",
            xlabel="Hamming similarity h",
            ylabel="cooperation frequency",
        ),
    )


@main.command()
@click.argument("config_file", type=click.Path(exists=True, dir_okay=False, path_type=Path))
@_set_option
@_out_dir_option
@_jobs_option
@_friendly_errors
def dispersal(config_file, overrides, out_dir, jobs):
    """Limited-dispersal experiment on random partition networks."""
    started = _timestamp()
    plan = build_dispersal_plan(_load(config_file, "dispersal", overrides, jobs))
    out = _resolve_out_dir(plan.out_dir, out_dir)
    rows, run_meta = _sweep(
        plan, lambda payload: {"p": payload["proportion"]}, ("eta", "b_over_c", "inclusive")
    )
    # one series per (eta, mode) in config order, the order of the points
    lines = dict.fromkeys((eta, incl) for (eta, _, incl), _ in plan.points)
    _write_sweep(
        out, "dispersal", plan, started,
        ["eta", "b_over_c", "inclusive", "coop_prop_mean", "coop_prop_se", "n_seeds"],
        [
            [fmt(eta), fmt(boc), "true" if incl else "false", fmt(mean), fmt(se), n]
            for (eta, boc, incl), (_, mean, se, n) in rows
        ],
        run_meta,
        dict(
            series=[
                _series(
                    f"eta={fmt(eta)}{'' if incl else ' (individual)'}",
                    [(boc, mean) for (e, boc, i), (_, mean, *_) in rows if (e, i) == (eta, incl)],
                )
                for eta, incl in lines
            ],
            title="Cooperator proportion vs. benefit-to-cost ratio",
            xlabel="b/c",
            ylabel="proportion of cooperators",
        ),
    )


IDENTITY_TOLERANCE = 1e-9


@main.command()
@click.argument("config_file", type=click.Path(exists=True, dir_okay=False, path_type=Path))
@_set_option
@_out_dir_option
@_friendly_errors
def sandbox(config_file, overrides, out_dir):
    """Birth/death sandbox generating population-reward traces."""
    started = _timestamp()
    plan = build_sandbox_plan(_load(config_file, "sandbox", overrides))
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
    outputs.append(_write_manifest(out, "sandbox", plan.resolved, [plan.seed], started, outputs))
    click.echo(f"identity check PASS: max |replication - delta combined| = {worst:.3g}")


@main.command()
@click.argument("config_file", type=click.Path(exists=True, dir_okay=False, path_type=Path))
@_set_option
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
