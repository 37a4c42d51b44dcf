"""Smoke tests of the benchmark: small sizes of every workload, plus the math.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import math
import pathlib
import sys
import time

import numpy as np
import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.datasets.corpus import GovCorpusConfig  # noqa: E402

from benchmarks._util import percentile  # noqa: E402
from perfbench.run import result_line  # noqa: E402
from perfbench.speed import (  # noqa: E402
    INTERVAL_S,
    REFERENCE_S,
    WINDOW,
    SpeedProbe,
    block_factors,
)
from perfbench.tracing import Tracer, span_totals  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    E2E_METRICS,
    LAYER_METRICS,
    WORKLOADS,
    RoutingWorkload,
    TRACE_EPISODES,
    ServingWorkload,
)

SMALL_SERVING = dict(
    corpus=GovCorpusConfig(
        num_docs=400,
        vocabulary_size=2_000,
        num_topics=4,
        topic_vocabulary_size=60,
        doc_length_mean=60,
        seed=1,
    ),
    num_fragments=20,
    window=4,
    num_queries=20,
    warm_events=20,
    measured_events=40,
    setup_repeats=1,
    min_episodes=1,
)

SMALL = {
    "superpeer-10k": RoutingWorkload(
        "superpeer-10k",
        num_peers=300,
        num_topics=10,
        setup_repeats=1,
        min_queries=20,
        oracle_every=4,
        trace_queries=8,
    ),
    "serve-zipf": ServingWorkload("serve-zipf", **SMALL_SERVING),
    "serve-churn": ServingWorkload(
        "serve-churn", churn_rate=2.0, qps=1.0, **SMALL_SERVING
    ),
}


def test_small_configs_cover_every_workload():
    assert set(SMALL) == set(WORKLOADS)
    for name, workload in SMALL.items():
        assert type(workload) is type(WORKLOADS[name])


def _assert_line(result, units):
    line = result_line(result)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True, result.problems
    assert line["failed"] == 0
    assert line["attempted"] >= 1
    assert set(line["metrics"]) == set(units)
    assert set(result.metrics) == set(units), "a metric was not measured"
    for name, entry in line["metrics"].items():
        assert entry["unit"] == units[name]
        assert math.isfinite(entry["value"]), name


@pytest.mark.parametrize("name", sorted(SMALL))
def test_untraced_run_emits_every_end_to_end_metric(name):
    result = SMALL[name].run(seed=3, seconds=0.2, trace=False)
    _assert_line(result, E2E_METRICS)
    metrics = result.metrics
    assert metrics["setup_s"] > 0
    assert metrics["queries_per_s"] > 0
    assert metrics["route_p50_ms"] <= metrics["route_p95_ms"]
    assert 0 < metrics["sim_mean_ms"]
    assert 0 < metrics["recall"] <= 1
    assert 0 < metrics["complete_share"] <= 1


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_run_emits_every_layer_metric_and_keeps_the_digest(name):
    result = SMALL[name].run(seed=3, seconds=0.2, trace=True)
    _assert_line(result, LAYER_METRICS)
    metrics = result.metrics
    assert result.provenance["untraced_calls"] == []
    assert metrics["trace.overhead_ratio"] > 0
    assert metrics["core.rank_calls"] > 0
    assert metrics["core.rank_self_s"] <= metrics["core.rank_s"] + 1e-9
    assert metrics["datasets.generate_calls"] >= 1
    if name.startswith("serve-"):
        assert metrics["serving.serve_log_calls"] == TRACE_EPISODES
        assert metrics["simnet.rpc_calls"] > 0
    else:
        assert metrics["topology.route_calls"] == SMALL[name].trace_queries
        assert metrics["topology.clusters"] > 1
    if name == "serve-churn":
        assert metrics["churn.repost_calls"] > 0


@pytest.mark.parametrize("name", ["superpeer-10k", "serve-zipf"])
def test_non_wall_metrics_depend_on_the_seed_not_the_run_length(name):
    workload = SMALL[name]
    short = workload.run(seed=5, seconds=0.0, trace=False)
    long = workload.run(seed=5, seconds=0.5, trace=False)
    assert long.attempted > short.attempted
    for metric in ("sim_mean_ms", "sim_p95_ms", "msgs_per_query", "kbits_per_query", "recall"):
        assert short.metrics[metric] == long.metrics[metric], metric


def test_span_totals_self_time_and_nesting():
    # span 0 "a" [0, 10] has children 1 "b" [1, 4] and 3 "b" [5, 6];
    # span 2 "b" [2, 3] nests inside span 1 (same name: not outermost).
    names = np.array([0, 1, 1, 1])
    starts = np.array([0.0, 1.0, 2.0, 5.0])
    ends = np.array([10.0, 4.0, 3.0, 6.0])
    parents = np.array([-1, 0, 1, 0])
    outermost = np.array([True, True, False, True])
    a, b = span_totals(names, starts, ends, parents, outermost, 2)
    assert (a.calls, a.total_s, a.self_s) == (1, 10.0, 6.0)
    assert (b.calls, b.total_s, b.self_s) == (3, 4.0, 4.0)


def test_tracer_records_parents_and_tags():
    tracer = Tracer()
    with tracer.active():
        tracer.tag = 7
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
            with tracer.span("outer"):
                pass
    with tracer.span("ignored"):  # disabled: records nothing
        pass
    summary = tracer.summary()
    assert set(summary) == {"outer", "inner"}
    assert summary["outer"].calls == 2
    assert summary["inner"].calls == 1
    assert summary["outer"].total_s >= summary["inner"].total_s
    # Self times of all spans add up to the root's duration.
    total_self = sum(t.self_s for t in summary.values())
    assert total_self == pytest.approx(summary["outer"].total_s)
    assert len(tracer) == 3


def test_percentile_is_nearest_rank():
    values = list(range(1, 21))
    assert percentile(values, 0.95) == 19
    assert percentile(values, 0.50) == 10
    assert percentile(values, 1.0) == 20
    assert percentile([4, 1, 3, 2], 0.5) == 2
    assert percentile([5.0], 0.01) == 5.0
    with pytest.raises(ValueError):
        percentile([], 0.5)
    with pytest.raises(ValueError):
        percentile([1.0], 0.0)


def test_block_factors_take_the_median_of_the_samples_around_each_block():
    # Block i ran between samples i and i + 1; WINDOW more on each side.
    assert WINDOW == 2
    r = REFERENCE_S
    samples = [r, 2 * r, 2 * r, r, r, 4 * r, 4 * r, 4 * r]
    # Block 0: median(r, 2r, 2r, r) = 1.5r; block 4: median(2r, r, r, 4r, 4r, 4r) = 3r.
    assert block_factors(samples) == pytest.approx(
        [2 / 3, 1, 2 / 3, 1 / 2, 1 / 3, 1 / 4, 1 / 4]
    )
    with pytest.raises(ValueError):
        block_factors([r])


def test_probe_clock_leaves_the_kernel_out():
    probe = SpeedProbe()
    with probe.running():
        started = probe.clock()
        wall = time.perf_counter()
        while time.perf_counter() - wall < 3 * INTERVAL_S:
            pass
        elapsed = probe.clock() - started
        wall = time.perf_counter() - wall
    # Entry sample, at least two timer samples, exit sample.
    assert len(probe.samples) >= 4
    assert probe.spent == pytest.approx(sum(probe.samples))
    inside = sum(probe.samples[1:-1])
    assert elapsed == pytest.approx(wall - inside, abs=1e-3)
    assert len(probe.factors()) == len(probe.samples) - 1


def test_benchmark_json_matches_the_code():
    import json

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == E2E_METRICS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_METRICS
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
