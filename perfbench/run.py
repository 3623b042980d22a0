"""Benchmark for kincoop: end-to-end metrics, or per-layer metrics from traced runs.

Run from the repository root:

    python3 perfbench/run.py --workload disc --seed 1 --seconds 20 --trace 0

``--trace 0`` times ``kincoop validate`` on the workload's config several
times in fresh processes (set-up time), then runs the workload's command
with ``--jobs 2`` in a closed loop, one fresh process after another, until
``--seconds`` have passed, and reports medians. ``--trace 1`` runs one
untraced ``--jobs 2`` process, then, until ``--seconds`` have passed,
rounds of the same command in this process with ``--jobs 1``: once
untraced and once with probes on every layer. It reports per-layer
medians over the rounds. ``--workload all`` runs every workload in turn.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Every run writes
its full record, environment included, under ``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from probes import CLI_SPAN, LAYER_METRICS, Probes, layer_metrics, run_tail
from tracing import Tracer, layer_times, median, rate_per_s
from workloads import DEFAULT_SEED, WORKLOADS, Workload, load_pins

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

JOBS = 2
SETUP_REPEATS = 7
# A run of one workload must end within 180 s; commands still running
# past this share of it are killed.
RUN_DEADLINE_S = 170.0

END_TO_END = {
    "wall_s": "s",
    "agent_steps_per_s": "1/s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark cannot run here: kincoop did not come from ``src/``."""


@dataclass
class Finished:
    returncode: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: str


def _kill(pid: int) -> None:
    with contextlib.suppress(ProcessLookupError):
        os.kill(pid, signal.SIGKILL)


def run_command(args: list[str], log: Path, timeout: float) -> Finished:
    """Run ``kincoop <args>`` in a fresh interpreter and wait for it.

    CPU time and peak RSS come from wait4, which on Linux covers the child
    and every descendant it has reaped (the sweep's pool workers).
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [sys.executable, "-m", "kincoop.cli", *args]
    with open(log, "wb") as handle:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=handle, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        timer = threading.Timer(timeout, _kill, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Finished(
        proc.returncode,
        wall,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024.0,
        log.read_text(encoding="utf-8", errors="replace"),
    )


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "kincoop").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _stdout_of(argv: list[str]) -> str | None:
    try:
        done = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment() -> dict:
    import numpy

    def cache(level: int) -> int | None:
        value = _stdout_of(["getconf", f"LEVEL{level}_CACHE_SIZE"])
        return int(value) if value and value.isdigit() else None

    commit = dirty = None
    if (ROOT / ".git").exists():
        commit = _stdout_of(["git", "rev-parse", "HEAD"])
        status = _stdout_of(["git", "status", "--porcelain", "--untracked-files=no"])
        dirty = None if status is None else status != ""
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "l2_cache_bytes": cache(2),
        "l3_cache_bytes": cache(3),
        "git_commit": commit,
        "git_dirty": dirty,
        "source_sha256": source_digest(),
    }


class Deadline:
    def __init__(self, seconds: float):
        self.end = time.perf_counter() + seconds

    def left(self) -> float:
        return max(1.0, self.end - time.perf_counter())


def untraced(workload: Workload, seed: int, seconds: float, work: Path, deadline: Deadline) -> dict:
    """Set-up time, then the command in a closed loop for ``seconds``."""
    config_path = work / "config.yaml"
    config = workload.write_config(seed, config_path)
    problems = []

    setup = []
    for i in range(SETUP_REPEATS):
        done = run_command(["validate", str(config_path)], work / f"validate{i}.log", deadline.left())
        setup.append(done.wall_s)
        if done.returncode != 0 or not done.stdout.startswith("OK:"):
            problems.append(f"validate {i}: exit {done.returncode}: {done.stdout.strip()[-200:]}")

    reference = load_pins().get(workload.name) if seed == DEFAULT_SEED else None
    repeats = []
    started = None
    # repeat 0 warms the page cache and is checked but not timed
    while len(repeats) < 2 or (
        time.perf_counter() - started < seconds and deadline.left() > 2 * repeats[-1]["wall_s"]
    ):
        if len(repeats) == 1:
            started = time.perf_counter()
        i = len(repeats)
        out = work / f"rep{i}"
        done = run_command(workload.argv(config_path, out, JOBS), work / f"rep{i}.log", deadline.left())
        problem = f"exit {done.returncode}: {done.stdout.strip()[-200:]}" if done.returncode else None
        problem = problem or workload.output_problem(out, done.stdout, reference)
        record = {"wall_s": done.wall_s, "cpu_s": done.cpu_s, "peak_rss_mb": done.rss_mb}
        if problem is None:
            reference = reference or workload.digests(out)
            record["agent_steps"] = workload.agent_steps(config, out)
        else:
            problems.append(f"repeat {i}: {problem}")
        record["problem"] = problem
        repeats.append(record)
        shutil.rmtree(out, ignore_errors=True)

    good = [r for r in repeats if r["problem"] is None]
    if len({r["agent_steps"] for r in good}) > 1:
        problems.append("agent-step count differs between repeats")
    timed = repeats[1:]
    rates = [rate_per_s(r["agent_steps"], r["wall_s"]) for r in timed if r["problem"] is None]
    metrics = {
        "wall_s": (median([r["wall_s"] for r in timed]), len(timed)),
        "agent_steps_per_s": (median(rates), len(rates)),
        "setup_s": (median(setup), len(setup)),
        "cpu_s": (median([r["cpu_s"] for r in timed]), len(timed)),
        "peak_rss_mb": (median([r["peak_rss_mb"] for r in timed]), len(timed)),
    }
    failed = len(repeats) - len(good)
    return {
        "correct": not problems,
        "attempted": len(repeats),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": END_TO_END[name], "samples": n} for name, (v, n) in metrics.items()},
        "problems": problems,
        "repeats": repeats,
        "setup_runs_s": setup,
        "digests": reference,
    }


def _invoke_cli(args: list[str]) -> tuple[bool, str]:
    """Run the kincoop CLI in this process; (succeeded, captured stdout)."""
    from kincoop.cli import main

    buffer = io.StringIO()
    try:
        with contextlib.redirect_stdout(buffer):
            main.main(args=args, prog_name="kincoop", standalone_mode=False)
    except Exception:  # the program's failure is a result, not a crash
        return False, buffer.getvalue() + traceback.format_exc()
    return True, buffer.getvalue()


def _check_counts(workload: Workload, config: dict, out: Path, metrics: dict) -> list[str]:
    """Exact cross-checks between traced counts and the command's outputs."""
    problems = []

    def same(name: str, expected: int) -> None:
        if metrics[name] != expected:
            problems.append(f"{name} = {metrics[name]}, outputs give {expected}")

    if workload.parallel:
        runs = json.loads((out / f"{config['experiment']}_runs.json").read_text())
        same("experiments.tasks", len(runs))
        same("experiments.steps_run", sum(r["steps_run"] for r in runs))
        same("experiments.state_updates", workload.agent_steps(config, out))
        if config["experiment"] == "dispersal":
            same("networks.isolated_nodes", sum(r["isolated_count"] for r in runs))
    else:
        same("popreward.agent_steps", workload.agent_steps(config, out))
        same("learning.epsilon_at_calls", metrics["popreward.agent_steps"])
        same("genotype.mutate_calls", (out / "sandbox_trace.csv").read_text().count(",birth\n"))
    return problems


def _compare_recorded_counts(workload: Workload, seed: int, metrics: dict) -> list[str]:
    """Counts must repeat exactly across traced runs of the same sources."""
    counts = {k: metrics[k] for k, (unit, _) in LAYER_METRICS.items() if unit == "count"}
    record = WORK / "counts" / f"{source_digest()[:16]}-{workload.name}-seed{seed}.json"
    if record.is_file():
        before = json.loads(record.read_text())
        return [f"{k} = {counts[k]}, an earlier traced run had {before[k]}" for k in counts if counts[k] != before.get(k)]
    record.parent.mkdir(parents=True, exist_ok=True)
    record.write_text(json.dumps(counts, indent=1, sort_keys=True))
    return []


def traced(workload: Workload, seed: int, seconds: float, work: Path, deadline: Deadline) -> dict:
    """One untraced --jobs 2 process for the sweep's idle share, then
    rounds of one untraced and one traced in-process --jobs 1 run until
    ``seconds`` have passed. Per-layer figures are medians over rounds."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import kincoop
    import kincoop.cli  # imported before timing, as the untraced run's process has it

    if Path(kincoop.__file__).resolve().parent != (SRC / "kincoop").resolve():
        raise BenchError(f"imported kincoop from {kincoop.__file__}, not from {SRC}")
    config_path = work / "config.yaml"
    config = workload.write_config(seed, config_path)
    pins = load_pins().get(workload.name) if seed == DEFAULT_SEED else None
    problems = []
    digests: dict[str, dict | None] = {}

    def check(label: str, ok: bool, out: Path, stdout: str) -> bool:
        problem = None if ok else f"command failed: {stdout.strip()[-200:]}"
        problem = problem or workload.output_problem(out, stdout, pins)
        digests[label] = None if problem else workload.digests(out)
        if problem:
            problems.append(f"{label}: {problem}")
        return problem is None

    parallel_wall_s = 0.0
    if workload.parallel:
        out = work / "parallel"
        done = run_command(workload.argv(config_path, out, JOBS), work / "parallel.log", deadline.left())
        parallel_wall_s = done.wall_s
        check(f"untraced --jobs {JOBS}", done.returncode == 0, out, done.stdout)

    rounds = []
    started = time.perf_counter()
    while not rounds or (
        time.perf_counter() - started < seconds
        and deadline.left() > 2 * (rounds[-1]["trace.untraced_s"] + rounds[-1]["trace.wall_s"])
    ):
        i = len(rounds)
        out_plain, out_traced = work / f"untraced{i}", work / f"traced{i}"
        tracer = Tracer()
        probes = Probes(tracer)

        def run_untraced() -> float:
            start = time.perf_counter()
            ok, stdout = _invoke_cli(workload.argv(config_path, out_plain, 1))
            untraced_s = time.perf_counter() - start
            check(f"untraced --jobs 1, round {i}", ok, out_plain, stdout)
            return untraced_s

        def run_traced() -> tuple[bool, str]:
            with probes.installed():
                return tracer.span(CLI_SPAN, _invoke_cli)(workload.argv(config_path, out_traced, 1))

        # alternate which run goes first, so that warm-up favours neither
        if i % 2 == 0:
            untraced_s = run_untraced()
            ok, stdout = run_traced()
        else:
            ok, stdout = run_traced()
            untraced_s = run_untraced()
        times = layer_times(tracer.closed_spans())
        metrics = layer_metrics(
            times,
            tracer.counts,
            probes.values,
            jobs=JOBS,
            parallel_wall_s=parallel_wall_s,
            untraced_s=untraced_s,
            out_dir=out_traced,
        )
        if check(f"traced --jobs 1, round {i}", ok, out_traced, stdout):
            problems += _check_counts(workload, config, out_traced, metrics)
        metrics.update(run_tail(times))
        rounds.append(metrics)
        shutil.rmtree(out_plain, ignore_errors=True)
        shutil.rmtree(out_traced, ignore_errors=True)

    if len({json.dumps(d, sort_keys=True) for d in digests.values()}) != 1:
        problems.append(f"CSV digests differ between runs: {digests}")
    counts = [name for name, (unit, _) in LAYER_METRICS.items() if unit == "count"]
    for name in counts:
        if len({r[name] for r in rounds}) != 1:
            problems.append(f"{name} differs between rounds: {[r[name] for r in rounds]}")
    metrics = {name: rounds[0][name] if name in counts else median([r[name] for r in rounds]) for name in LAYER_METRICS}
    problems += _compare_recorded_counts(workload, seed, metrics)
    tails = [r["experiments.run_s.p90"] for r in rounds if "experiments.run_s.p90" in r]
    return {
        "correct": not problems,
        "attempted": len(digests),
        "failed": sum(d is None for d in digests.values()),
        "metrics": {
            name: {"value": v, "unit": LAYER_METRICS[name][0], "samples": len(rounds)}
            for name, v in metrics.items()
        },
        "tail": {"experiments.run_s.p90": median(tails)} if tails else {},
        "problems": problems,
        "rounds": rounds,
        "digests": digests,
    }


def print_report(workload: Workload, seed: int, trace: bool, result: dict) -> None:
    if trace:
        mode = "traced, --jobs 1"
    else:
        mode = f"--jobs {JOBS}, closed loop" if workload.parallel else "closed loop"
    print(f"== {workload.name} (seed {seed}, {mode}): {workload.why}")
    for name, metric in result["metrics"].items():
        print(f"  {name:32s} {metric['value']:>16.6g} {metric['unit']:8s}  n={metric['samples']}")
    for name, value in result.get("tail", {}).items():
        print(f"  {name:32s} {value:>16.6g} s")
    print(
        f"  {'failed_frac':32s} {result['failed'] / result['attempted']:>16.6g} {'':8s}"
        f"  {result['failed']} of {result['attempted']} commands"
    )
    for problem in result["problems"]:
        print(f"  PROBLEM: {problem}")


def run_one(workload: Workload, seed: int, seconds: int, trace: bool, env: dict, deadline: Deadline) -> dict:
    work = WORK / f"{workload.name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    if trace:
        result = traced(workload, seed, seconds, work, deadline)
    else:
        result = untraced(workload, seed, seconds, work, deadline)
    result["environment"] = env
    result["workload"] = {"name": workload.name, "seed": seed, "seconds": seconds, "trace": trace}
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload.name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(result, indent=1, sort_keys=True)
    )
    print_report(workload, seed, trace, result)
    return result


def summary(results: dict[str, dict]) -> dict:
    """The result line; with several workloads, metric names get a
    "<workload>/" prefix."""
    prefix = len(results) > 1
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            (f"{workload}/{name}" if prefix else name): {"value": m["value"], "unit": m["unit"]}
            for workload, r in results.items()
            for name, m in r["metrics"].items()
        },
    }


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def _terminate(signum, frame):
    # unwinds through run_command, which kills and reaps its child
    sys.exit(128 + signum)


def main(argv: list[str]) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    args = parse_args(argv)
    if not (SRC / "kincoop" / "__init__.py").is_file():
        print(f"perfbench: no kincoop sources under {SRC}", file=sys.stderr)
        return 2
    env = environment()
    print("environment " + json.dumps(env, sort_keys=True))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    deadline = Deadline(RUN_DEADLINE_S * len(names))
    try:
        results = {
            name: run_one(WORKLOADS[name], args.seed, args.seconds, bool(args.trace), env, deadline)
            for name in names
        }
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(summary(results)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
