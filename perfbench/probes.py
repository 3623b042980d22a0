"""Call-site probes for the traced run, and the per-layer metrics they give.

The probes replace names that one kincoop module looks up in another (for
example ``kincoop.cli.run_sweep`` or ``kincoop.popreward.mutate``) with
wrappers that record spans or counts, and put the originals back when the
run ends. Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import contextlib
import importlib
from pathlib import Path

from tracing import LayerTimes, Tracer, median, percentile

# The span around the whole command.
CLI_SPAN = "cli"

# (module, attribute, span name). Class attributes are given as
# "Class.method". Several call sites may share one span name.
SPANS = (
    ("kincoop.cli", "load_config_file", "config.plan"),
    ("kincoop.cli", "resolve_config", "config.plan"),
    ("kincoop.cli", "build_discrimination_plan", "config.plan"),
    ("kincoop.cli", "build_dispersal_plan", "config.plan"),
    ("kincoop.cli", "build_sandbox_plan", "config.plan"),
    ("kincoop.cli", "run_sweep", "experiments.sweep"),
    ("kincoop.cli", "aggregate", "experiments.aggregate"),
    ("kincoop.experiments", "bin_by_similarity", "experiments.bin"),
    ("kincoop.experiments", "similarity_matrix", "genotype.similarity_matrix"),
    ("kincoop.networks", "NetworkTopology.adjacency", "networks.adjacency"),
    ("kincoop.popreward", "mutate", "genotype.mutate"),
    ("kincoop.popreward", "QReproductionPolicy.decide", "learning.decide"),
    ("kincoop.popreward", "QReproductionPolicy.feedback", "learning.feedback"),
    ("kincoop.cli", "write_trace_csv", "popreward.write"),
    ("kincoop.cli", "write_rewards_csv", "popreward.write"),
    ("kincoop.cli", "line_chart", "svgplot.chart"),
    ("kincoop.cli", "write_atomic_json", "ioutil.json"),
)

COUNTERS = (
    ("kincoop.popreward", "hamming_similarity", "genotype.hamming_calls"),
    ("kincoop.popreward", "epsilon_at", "learning.epsilon_at_calls"),
)

# Per-layer metrics reported on every workload: name -> (unit, better).
LAYER_METRICS = {
    "experiments.run_s.p50": ("s", "lower"),
    "experiments.step_us": ("us", "lower"),
    "experiments.kernel_self_s": ("s", "lower"),
    "experiments.sweep_self_s": ("s", "lower"),
    "experiments.aggregate_s": ("s", "lower"),
    "experiments.bin_s": ("s", "lower"),
    "experiments.sweep_idle_frac": ("fraction", "lower"),
    "experiments.state_updates": ("count", "higher"),
    "experiments.steps_run": ("count", "lower"),
    "experiments.tasks": ("count", "lower"),
    "experiments.converged_runs": ("count", "higher"),
    "networks.build_s": ("s", "lower"),
    "networks.adjacency_s": ("s", "lower"),
    "networks.edges": ("count", "lower"),
    "networks.isolated_nodes": ("count", "lower"),
    "genotype.similarity_matrix_s": ("s", "lower"),
    "genotype.hamming_calls": ("count", "lower"),
    "genotype.mutate_calls": ("count", "lower"),
    "learning.decide_s": ("s", "lower"),
    "learning.feedback_s": ("s", "lower"),
    "learning.epsilon_at_calls": ("count", "lower"),
    "popreward.trace_self_s": ("s", "lower"),
    "popreward.identity_s": ("s", "lower"),
    "popreward.write_s": ("s", "lower"),
    "popreward.agent_steps": ("count", "higher"),
    "popreward.distinct_genotypes": ("count", "higher"),
    "popreward.peak_pop": ("count", "higher"),
    "popreward.identity_err": ("reward", "lower"),
    "config.plan_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.bytes_written": ("bytes", "lower"),
    "svgplot.chart_s": ("s", "lower"),
    "ioutil.json_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.untraced_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


class Probes:
    """Wrappers on kincoop call sites feeding one Tracer."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.values: dict[str, float] = {"popreward.identity_err": 0.0}

    def _on_run(self, result) -> None:
        counts = self.tracer.counts
        states = int(result.state_mask.sum()) if result.state_mask is not None else result.coop_freq.shape[0]
        counts["experiments.steps_run"] += result.steps_run
        counts["experiments.state_updates"] += result.steps_run * states
        counts["experiments.converged_runs"] += result.converged_at is not None
        if result.kind == "dispersal":
            counts["networks.isolated_nodes"] += result.isolated_count

    def _on_network(self, net) -> None:
        self.tracer.counts["networks.edges"] += len(net.edges)

    def _on_trace(self, trace) -> None:
        counts = self.tracer.counts
        counts["popreward.agent_steps"] += sum(trace.pop_before)
        counts["popreward.distinct_genotypes"] += len(
            {g for state in trace.states for _, g in state.alive}
        )
        counts["popreward.peak_pop"] = max(
            counts["popreward.peak_pop"], max(len(state) for state in trace.states)
        )

    def _on_identity(self, worst) -> None:
        self.values["popreward.identity_err"] = max(self.values["popreward.identity_err"], worst)

    def _wrappers(self):
        t = self.tracer
        for module, attr, name in SPANS:
            yield module, attr, lambda fn, name=name: t.span(name, fn)
        for module, attr, name in COUNTERS:
            yield module, attr, lambda fn, name=name: t.counter(name, fn)
        yield "kincoop.experiments", "run_experiment", lambda fn: t.span(
            "experiments.run", fn, self._on_run
        )
        yield "kincoop.experiments", "build_partition_network", lambda fn: t.span(
            "networks.build", fn, self._on_network
        )
        yield "kincoop.cli", "run_sandbox", lambda fn: t.span(
            "popreward.run_sandbox", fn, self._on_trace
        )
        yield "kincoop.cli", "replication_identity_error", lambda fn: t.span(
            "popreward.identity", fn, self._on_identity
        )

    @contextlib.contextmanager
    def installed(self):
        """Install every wrapper; restore the original attributes on exit."""
        saved = []
        try:
            for module_name, attr, wrap in self._wrappers():
                owner = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = owner.__dict__[leaf]
                saved.append((owner, leaf, original))
                setattr(owner, leaf, wrap(original))
            yield self
        finally:
            for owner, leaf, original in reversed(saved):
                setattr(owner, leaf, original)


def layer_metrics(
    times: LayerTimes,
    counts: dict,
    values: dict,
    *,
    jobs: int,
    parallel_wall_s: float,
    untraced_s: float,
    out_dir: Path,
) -> dict[str, float]:
    """Reduce one traced run to the LAYER_METRICS figures."""
    runs = times.durations.get("experiments.run", [])
    run_total = sum(runs)
    steps = counts.get("experiments.steps_run", 0)
    traced_s = times.total(CLI_SPAN)
    metrics = {
        "experiments.run_s.p50": median(runs),
        "experiments.step_us": run_total / steps * 1e6 if steps else 0.0,
        "experiments.kernel_self_s": times.self_s.get("experiments.run", 0.0),
        "experiments.sweep_self_s": times.self_s.get("experiments.sweep", 0.0),
        "experiments.aggregate_s": times.total("experiments.aggregate"),
        "experiments.bin_s": times.total("experiments.bin"),
        "experiments.tasks": times.calls("experiments.run"),
        # share of the workers' time the parallel sweep left unused; 0 when
        # the command runs no sweep
        "experiments.sweep_idle_frac": 1.0 - run_total / (jobs * parallel_wall_s) if runs else 0.0,
        "networks.build_s": times.total("networks.build"),
        "networks.adjacency_s": times.total("networks.adjacency"),
        "genotype.similarity_matrix_s": times.total("genotype.similarity_matrix"),
        "genotype.mutate_calls": times.calls("genotype.mutate"),
        "learning.decide_s": times.total("learning.decide"),
        "learning.feedback_s": times.total("learning.feedback"),
        "popreward.trace_self_s": times.self_s.get("popreward.run_sandbox", 0.0),
        "popreward.identity_s": times.total("popreward.identity"),
        "popreward.write_s": times.total("popreward.write"),
        "config.plan_s": times.total("config.plan"),
        "cli.self_s": times.self_s.get(CLI_SPAN, 0.0),
        "cli.bytes_written": sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file()),
        "svgplot.chart_s": times.total("svgplot.chart"),
        "ioutil.json_s": times.total("ioutil.json"),
        "trace.wall_s": traced_s,
        "trace.untraced_s": untraced_s,
        "trace.overhead_s": traced_s - untraced_s,
    }
    for name, (unit, _) in LAYER_METRICS.items():
        if unit == "count" and name not in metrics:
            metrics[name] = counts.get(name, 0)
    metrics.update(values)
    return {name: metrics[name] for name in LAYER_METRICS}


def run_tail(times: LayerTimes) -> dict[str, float]:
    """experiments.run_s.p90, present only with enough runs beyond it."""
    p90 = percentile(times.durations.get("experiments.run", []), 90)
    return {} if p90 is None else {"experiments.run_s.p90": p90}
