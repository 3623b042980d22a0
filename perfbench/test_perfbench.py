"""Tests for the benchmark's own arithmetic.

Run from the repository root: python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from probes import LAYER_METRICS, Probes, layer_metrics, run_tail
from tracing import Span, Tracer, layer_times, median, percentile, rate_per_s, self_times, tail_allowed
from workloads import experiment_state_steps, sandbox_agent_steps

SRC = Path(__file__).resolve().parent.parent / "src"


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0),
        Span("a.inner", 2.0, 3.0, 1),
        Span("b", 5.0, 7.0, 0),
    ]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 2.0])


def test_self_time_merges_overlapping_and_clips_stray_children():
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("x", 1.0, 5.0, 0),
        Span("y", 3.0, 6.0, 0),
        Span("z", 9.0, 12.0, 0),
    ]
    # covered: [1, 6] and [9, 10]
    assert self_times(spans)[0] == pytest.approx(4.0)


def test_tracer_links_nested_calls_to_their_parent():
    clock = FakeClock()
    tracer = Tracer(clock)

    def leaf():
        clock.now += 2.0

    def outer():
        clock.now += 1.0
        traced_leaf()
        traced_leaf()
        clock.now += 3.0

    traced_leaf = tracer.span("leaf", leaf)
    tracer.span("outer", outer)()
    times = layer_times(tracer.closed_spans())
    assert times.durations == {"outer": [8.0], "leaf": [2.0, 2.0]}
    assert times.self_s == {"outer": 4.0, "leaf": 4.0}


def test_tracer_closes_span_when_call_raises():
    tracer = Tracer(FakeClock())

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.span("boom", boom)()
    assert [s.name for s in tracer.closed_spans()] == ["boom"]


def test_counter_counts_calls_and_passes_results_through():
    tracer = Tracer()
    add = tracer.counter("adds", lambda a, b: a + b)
    assert [add(1, 2), add(3, 4)] == [3, 7]
    assert tracer.counts["adds"] == 2


def test_percentile_needs_ten_samples_beyond_it():
    assert not tail_allowed(99, 90)
    assert tail_allowed(100, 90)
    assert not tail_allowed(999, 99)
    assert tail_allowed(1000, 99)
    assert percentile([float(i) for i in range(99)], 90) is None
    values = [float(i) for i in range(101)]
    p90 = percentile(values, 90)
    assert p90 == pytest.approx(90.0)
    assert sum(v > p90 for v in values) >= 10


def test_median_is_always_reported():
    assert median([3.0]) == 3.0
    assert median([]) == 0.0


def test_run_tail_reports_p90_only_with_enough_runs():
    few = layer_times([Span("experiments.run", 0.0, 1.0, -1)] * 99)
    many = layer_times([Span("experiments.run", 0.0, float(i), -1) for i in range(1, 101)])
    assert run_tail(few) == {}
    assert set(run_tail(many)) == {"experiments.run_s.p90"}


def test_discrimination_agent_steps_are_state_updates(tmp_path):
    config = {
        "experiment": "discrimination",
        "genotype": {"loci": 6, "variants": 2},
        "self_play": True,
    }
    runs = [{"steps_run": 3000}, {"steps_run": 2500}]
    (tmp_path / "discrimination_runs.json").write_text(json.dumps(runs))
    assert experiment_state_steps(config, tmp_path) == 5500 * 64 * 64
    config["self_play"] = False
    assert experiment_state_steps(config, tmp_path) == 5500 * (64 * 64 - 64)


def test_dispersal_agent_steps_count_one_state_per_node(tmp_path):
    config = {
        "experiment": "dispersal",
        "genotype": {"loci": 3, "variants": 2},
        "partition": {"community_size": 8},
    }
    (tmp_path / "dispersal_runs.json").write_text(json.dumps([{"steps_run": 2500}] * 3))
    assert experiment_state_steps(config, tmp_path) == 3 * 2500 * 64


def test_sandbox_agent_steps_count_agents_alive_at_step_start(tmp_path):
    rows = [
        "t,agent_id,genotype,health,event",
        "1,0,0-0,9,none",
        "1,1,0-1,2,birth",
        "2,0,0-0,8,none",
        "2,1,0-1,0,death",
        "3,0,0-0,7,none",
    ]
    (tmp_path / "sandbox_trace.csv").write_text("\n".join(rows) + "\n")
    # step 1 starts with the founder, step 2 with 2 agents, step 3 with 1
    assert sandbox_agent_steps({}, tmp_path) == 1 + 2 + 1


def test_rate_is_work_per_second_of_wall_time():
    assert rate_per_s(3 * 3000 * 4096, 2.0) == pytest.approx(18_432_000.0)
    with pytest.raises(ValueError):
        rate_per_s(1, 0.0)


def test_layer_metrics_idle_share_and_units(tmp_path):
    spans = [
        Span("cli", 0.0, 10.0, -1),
        Span("experiments.sweep", 1.0, 9.0, 0),
        Span("experiments.run", 1.0, 4.0, 1),
        Span("genotype.similarity_matrix", 1.0, 1.5, 2),
        Span("experiments.run", 4.0, 9.0, 1),
    ]
    (tmp_path / "out.csv").write_bytes(b"12345")
    metrics = layer_metrics(
        layer_times(spans),
        {"experiments.steps_run": 4000},
        {"popreward.identity_err": 0.0},
        jobs=2,
        parallel_wall_s=5.0,
        untraced_s=9.5,
        out_dir=tmp_path,
    )
    assert set(metrics) == set(LAYER_METRICS)
    assert metrics["experiments.tasks"] == 2
    assert metrics["experiments.kernel_self_s"] == pytest.approx(7.5)
    assert metrics["experiments.step_us"] == pytest.approx(8.0 / 4000 * 1e6)
    assert metrics["experiments.sweep_idle_frac"] == pytest.approx(1 - 8.0 / (2 * 5.0))
    assert metrics["cli.self_s"] == pytest.approx(2.0)
    assert metrics["cli.bytes_written"] == 5
    assert metrics["trace.overhead_s"] == pytest.approx(0.5)


def test_probes_restore_every_patched_attribute():
    sys.path.insert(0, str(SRC))
    try:
        import kincoop.cli
        import kincoop.popreward

        before = (kincoop.cli.run_sweep, kincoop.popreward.hamming_similarity,
                  kincoop.popreward.QReproductionPolicy.__dict__["decide"])
        with Probes(Tracer()).installed():
            assert kincoop.cli.run_sweep is not before[0]
            assert kincoop.popreward.hamming_similarity is not before[1]
        after = (kincoop.cli.run_sweep, kincoop.popreward.hamming_similarity,
                 kincoop.popreward.QReproductionPolicy.__dict__["decide"])
        assert after == before
    finally:
        sys.path.remove(str(SRC))
