"""The benchmark's three workloads, driven through the public repro APIs.

Two families, each run serially in one process:

- **routing** (``superpeer-10k``): a 10,000-peer
  :class:`~repro.datasets.scale.ScaledTestbed` (the ``hierarchy``
  sweep's 10k cell) routed by ``IQNRouter`` through the super-peer
  topology.  Closed loop, one client; each query's wall time is taken
  around ``RoutingTopology.route`` only.
- **serving** (``serve-zipf``, ``serve-churn``): a 50-peer corpus engine
  (sliding-window placement over the small GOV-like corpus, ``mips-64``)
  behind ``ServingFrontend`` on the simulated network, fed a Zipf(1.1)
  query log with Poisson arrivals at 20 queries per virtual second,
  optionally under ``ChurnService`` membership churn.  The log is served
  in fixed-size episodes, each with its own seeds and cold caches, so
  the work of an episode never depends on how fast the previous one ran.

Every input comes from the ``seed`` argument.  Set-up runs several
times and reports the median; a warm-up pass runs before timing; output
checks and recall run outside the timed region.  Wall times are scaled
to a reference machine speed by :mod:`perfbench.speed`; the raw figures
go into each run's provenance.

Seeds come from ``repro.parallel.seeding.derive_seed`` (``ScaledTestbed``
imports that module too), but no work runs through ``repro.parallel``'s
pools or the ``repro.experiments`` harness.
"""

from __future__ import annotations

import gc
import hashlib
import io
import itertools
import pickle
import random
import resource
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from benchmarks._util import percentile
from repro.churn.maintenance import MaintenanceConfig
from repro.churn.membership import ChurnSchedule, MembershipConfig
from repro.churn.service import ChurnService
from repro.core.iqn import IQNRouter
from repro.datasets.corpus import GovCorpusConfig, build_gov_corpus
from repro.datasets.partition import (
    corpora_from_doc_id_sets,
    fragment_corpus,
    sliding_window_collections,
)
from repro.datasets.queries import Query, make_query_log, make_workload
from repro.datasets.scale import ScaledTestbed, ScaledTestbedConfig
from repro.ir.index import InvertedIndex
from repro.ir.merge import merge_results
from repro.ir.metrics import relative_recall, result_ids
from repro.minerva.engine import (
    QUERY_HEADER_BITS,
    QUERY_TERM_BITS,
    RESULT_ENTRY_BITS,
    MinervaEngine,
)
from repro.net.cost import CostSnapshot, MessageKinds
from repro.net.latency import LatencyProfile
from repro.parallel.seeding import derive_seed
from repro.serving.cache import CacheStats
from repro.serving.frontend import ServedQuery, ServingFrontend
from repro.simnet.executor import SimNetExecutor
from repro.synopses.factory import SynopsisSpec
from repro.topology.base import RoutingTopology
from repro.topology.superpeer import SuperPeerTopology

from .speed import SpeedProbe
from .tracing import Tracer, install

__all__ = [
    "E2E_METRICS",
    "LAYER_METRICS",
    "MESSAGE_KINDS",
    "RoutingWorkload",
    "RunResult",
    "ServingWorkload",
    "WORKLOADS",
]

#: Every ``MessageKinds`` value, in a fixed order (the per-kind net.* metrics).
MESSAGE_KINDS: tuple[str, ...] = tuple(
    sorted(
        value
        for name, value in vars(MessageKinds).items()
        if name.isupper() and isinstance(value, str)
    )
)

#: End-to-end metrics: name -> unit.  Emitted by every untraced run.
E2E_METRICS: dict[str, str] = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "queries_per_s": "1/s",
    "route_p50_ms": "ms",
    "route_p95_ms": "ms",
    "sim_mean_ms": "ms",
    "sim_p95_ms": "ms",
    "msgs_per_query": "count",
    "kbits_per_query": "kbit",
    "recall": "fraction",
    "complete_share": "fraction",
}

#: Spans whose calls, total and self time every traced run reports.
SPAN_NAMES: tuple[str, ...] = (
    "datasets.generate",
    "synopses.build",
    "synopses.cached_build",
    "minerva.publish_batch",
    "minerva.publish",
    "minerva.answer_query",
    "ir.index_build",
    "dht.lookup",
    "topology.route",
    "topology.assemble",
    "topology.cluster_build",
    "topology.rank_clusters",
    "topology.member_posts",
    "core.rank",
    "simnet.clock_run",
    "serving.serve_log",
    "serving.absorb",
    "serving.topk",
    "churn.repost",
    "churn.sweep",
    "churn.evict",
)

_COUNTER_METRICS: dict[str, str] = {
    "minerva.posts_published": "count",
    "dht.hops_per_lookup": "count",
    "topology.scope_per_query": "count",
    "topology.clusters": "count",
    "topology.largest_cluster": "count",
    "core.candidates_per_rank": "count",
    "core.novelty_evals_per_rank": "count",
    "core.eval_savings": "ratio",
    "core.columnar_share": "fraction",
    "simnet.rpc_calls": "count",
    "simnet.rpc_retries": "count",
    "simnet.rpc_timeouts": "count",
    "simnet.msgs_sent": "count",
    "simnet.msgs_dropped": "count",
    "serving.plan_lookups": "count",
    "serving.plan_hit_rate": "fraction",
    "serving.plan_invalidated": "count",
    "serving.plan_repaired": "count",
    "serving.synopsis_hit_rate": "fraction",
    "serving.entries_per_query": "count",
    "serving.peers_skipped_share": "fraction",
    "serving.rounds_per_query": "count",
    "churn.reposts": "count",
    "churn.events": "count",
    "churn.maintenance_kbits": "kbit",
    "trace.queries": "count",
    "trace.overhead_ratio": "ratio",
}

#: Per-layer metrics: name -> unit.  Emitted by every traced run.
LAYER_METRICS: dict[str, str] = {
    **{
        f"{span}{suffix}": unit
        for span in SPAN_NAMES
        for suffix, unit in (("_calls", "count"), ("_s", "s"), ("_self_s", "s"))
    },
    **_COUNTER_METRICS,
    **{f"net.msgs_per_query.{kind}": "count" for kind in MESSAGE_KINDS},
    **{f"net.kbits_per_query.{kind}": "kbit" for kind in MESSAGE_KINDS},
}


def peak_rss_mb() -> float:
    """This process's lifetime peak resident set size (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class RunResult:
    """What one run measured and checked."""

    attempted: int
    failed: int
    #: Consistency or digest checks that did not hold (empty when correct).
    problems: list[str]
    metrics: dict[str, float]
    units: dict[str, str]
    provenance: dict[str, Any] = field(default_factory=dict)
    #: The span recorder of a traced run.
    tracer: Tracer | None = None

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def _timed_setups(
    build: Callable[[], Any], repeats: int
) -> tuple[Any, list[float], list[float]]:
    """Run ``build`` ``repeats`` times; keep the last result.

    Returns it with every build's raw wall time and the same times scaled
    to the reference speed by a speed probe running through each build.
    """
    raw: list[float] = []
    scaled: list[float] = []
    built = None
    for _ in range(repeats):
        built = None  # release the previous copy before building the next
        gc.collect()
        probe = SpeedProbe()
        with probe.running():
            started = probe.clock()
            built = build()
            elapsed = probe.clock() - started
        raw.append(elapsed)
        scaled.append(elapsed * probe.factor())
    return built, raw, scaled


def _cost_metrics(
    snapshots: Sequence[CostSnapshot], problems: list[str]
) -> tuple[dict[str, float], dict[str, float]]:
    """msgs/kbits per query and their per-kind breakdown.

    Returns ``(end_to_end, per_kind)``.  Traffic of a kind outside
    :data:`MESSAGE_KINDS` would make the breakdown miss part of the
    total; that is recorded in ``problems``.
    """
    n = len(snapshots)
    messages = {kind: sum(s.messages(kind) for s in snapshots) for kind in MESSAGE_KINDS}
    bits = {kind: sum(s.bits(kind) for s in snapshots) for kind in MESSAGE_KINDS}
    total_messages = sum(s.total_messages for s in snapshots)
    total_bits = sum(s.total_bits for s in snapshots)
    if sum(messages.values()) != total_messages or sum(bits.values()) != total_bits:
        problems.append("per-kind net.* metrics do not add up to msgs/kbits per query")
    e2e = {
        "msgs_per_query": total_messages / n,
        "kbits_per_query": total_bits / 1000.0 / n,
    }
    per_kind = {
        **{f"net.msgs_per_query.{kind}": messages[kind] / n for kind in MESSAGE_KINDS},
        **{f"net.kbits_per_query.{kind}": bits[kind] / 1000.0 / n for kind in MESSAGE_KINDS},
    }
    return e2e, per_kind


def _wall_metrics(
    completed: int, busy_s: float, route_s: Sequence[float]
) -> dict[str, float]:
    """Throughput over the timed seconds, and route-time percentiles."""
    route_ms = [t * 1000.0 for t in route_s]
    return {
        "queries_per_s": completed / busy_s,
        "route_p50_ms": percentile(route_ms, 0.50),
        "route_p95_ms": percentile(route_ms, 0.95),
    }


def _span_metrics(tracer: Tracer) -> dict[str, float]:
    summary = tracer.summary()
    out: dict[str, float] = {}
    for span in SPAN_NAMES:
        totals = summary.get(span)
        out[f"{span}_calls"] = totals.calls if totals else 0
        out[f"{span}_s"] = totals.total_s if totals else 0.0
        out[f"{span}_self_s"] = totals.self_s if totals else 0.0
    counters = tracer.counters
    lookups = out["dht.lookup_calls"]
    ranks = out["core.rank_calls"]
    out["minerva.posts_published"] = counters.get("minerva.posts_published", 0)
    out["dht.hops_per_lookup"] = counters.get("dht.hops", 0) / lookups if lookups else 0.0
    out["core.candidates_per_rank"] = counters.get("core.candidates", 0) / ranks if ranks else 0.0
    out["core.novelty_evals_per_rank"] = (
        counters.get("core.novelty_evals", 0) / ranks if ranks else 0.0
    )
    evals = counters.get("core.novelty_evals", 0)
    out["core.eval_savings"] = counters.get("core.naive_evals", 0) / evals if evals else 1.0
    out["core.columnar_share"] = counters.get("core.columnar", 0) / ranks if ranks else 0.0
    for name in ("simnet.rpc_calls", "simnet.rpc_retries", "simnet.rpc_timeouts", "churn.reposts"):
        out[name] = counters.get(name, 0)
    return out


def _digest(rows: Sequence[Any]) -> str:
    return hashlib.sha256(repr(list(rows)).encode("utf-8")).hexdigest()


# -- routing at 10k peers ----------------------------------------------------

#: The testbed is fixed (the hierarchy sweep's 10k cell: dense topics,
#: Bloom synopses, seed 0); the benchmark seed draws the query stream.
TESTBED_SEED = 0
TOPIC_POOL = 200
DOCS_PER_TERM = (10, 40)
ROUTING_SPEC = "bf-2048"
ROUTING_MAX_PEERS = 10
#: Result entries each selected peer ships back (as experiments/hierarchy.py).
RESULT_K = 20


@dataclass(frozen=True)
class RoutingWorkload:
    """Closed-loop super-peer IQN routing over a scaled directory-only testbed."""

    name: str
    num_peers: int = 10_000
    num_topics: int = 100
    setup_repeats: int = 2
    #: Enough samples that the p95 has at least ten beyond it.
    min_queries: int = 200
    #: Every n-th query is re-routed by the naive oracle and compared.
    oracle_every: int = 20
    #: Queries replayed untraced and traced by a traced run.
    trace_queries: int = 200

    def setup(self) -> tuple[ScaledTestbed, SuperPeerTopology]:
        """Generate and publish the testbed, bind and cluster the topology."""
        config = ScaledTestbedConfig(
            num_peers=self.num_peers,
            num_topics=self.num_topics,
            topic_pool=TOPIC_POOL,
            docs_per_term=DOCS_PER_TERM,
            seed=TESTBED_SEED,
        )
        testbed = ScaledTestbed(
            config, spec=SynopsisSpec.parse(ROUTING_SPEC, seed=TESTBED_SEED)
        )
        topology = SuperPeerTopology(seed=TESTBED_SEED)
        topology.bind(testbed)
        topology.ensure_clusters()
        return testbed, topology

    def run(self, seed: int, seconds: float, trace: bool) -> RunResult:
        if trace:
            return self._run_traced(seed)
        built, setup_raw, setup_scaled = _timed_setups(self.setup, self.setup_repeats)
        testbed, topology = built
        stream = _QueryStream(testbed, seed)
        self._warm_up(testbed, topology)
        gc.collect()
        probe = SpeedProbe()
        with probe.running():
            records, errors = self._measure(
                testbed, topology, stream, seconds=seconds, probe=probe
            )
        if not records:
            return RunResult(errors, errors, ["every query raised"], {}, E2E_METRICS)
        problems: list[str] = []
        failed = errors + self._check(testbed, topology, records, problems)
        factors = probe.factors()
        metrics = self._metrics(testbed, records, problems, factors)[0]
        raw_s = [r.seconds for r in records]
        raw = _wall_metrics(len(records), sum(raw_s), raw_s)
        metrics["setup_s"] = statistics.median(setup_scaled)
        metrics["complete_share"] = len(records) / (len(records) + errors)
        metrics["peak_rss_mb"] = peak_rss_mb()
        return RunResult(
            attempted=len(records) + errors,
            failed=failed,
            problems=problems,
            metrics=metrics,
            units=E2E_METRICS,
            provenance={
                "setup_repeats": self.setup_repeats,
                "setup_times_s": setup_raw,
                "raw": {
                    "setup_s": statistics.median(setup_raw),
                    **raw,
                },
                "speed_factor": statistics.median(factors),
                "queries": len(records),
                "oracle_checked": len(records[:: self.oracle_every]),
            },
        )

    def _warm_up(self, testbed: ScaledTestbed, topology: RoutingTopology) -> None:
        """Route one all-terms query per topic: materializes every PeerList."""
        selector = IQNRouter()
        for topic in range(self.num_topics):
            query = Query(-1 - topic, testbed.topic_terms(topic), topic)
            view = testbed.local_view(query, testbed.initiator_index(query))
            topology.route(
                query, selector, ROUTING_MAX_PEERS, requester=view.peer_id, initiator=view
            )

    def _measure(
        self,
        testbed: ScaledTestbed,
        topology: RoutingTopology,
        stream: "_QueryStream",
        *,
        seconds: float | None = None,
        count: int | None = None,
        tracer: Tracer | None = None,
        probe: SpeedProbe | None = None,
    ) -> tuple[list["_Routed"], int]:
        """Route the stream from its start, closed loop.

        Runs for ``seconds`` (and at least :attr:`min_queries`) or for
        exactly ``count`` queries.  Only ``topology.route`` is timed;
        the initiator's local view and the per-peer forward/return
        charges happen outside the timed region.  With a running
        ``probe``, route times leave its kernel out and each record keeps
        the index of the probe block it started in.
        """
        selector = IQNRouter()
        cost = testbed.directory.cost
        clock = probe.clock if probe is not None else time.perf_counter
        records: list[_Routed] = []
        errors = 0
        deadline = time.perf_counter() + (seconds or 0.0)
        for index in itertools.count():
            if count is not None:
                if index >= count:
                    break
            elif time.perf_counter() >= deadline and index >= self.min_queries:
                break
            query, initiator = stream[index]
            view = testbed.local_view(query, initiator)
            before = cost.snapshot()
            if tracer is not None:
                tracer.tag = index
                tracer.enabled = True
            block = probe.block if probe is not None else 0
            started = clock()
            try:
                plan = topology.route(
                    query,
                    selector,
                    ROUTING_MAX_PEERS,
                    requester=view.peer_id,
                    initiator=view,
                )
            except Exception:  # noqa: BLE001 - a failed query is counted, not fatal
                errors += 1
                continue
            finally:
                elapsed = clock() - started
                if tracer is not None:
                    tracer.enabled = False
            query_bits = QUERY_HEADER_BITS + QUERY_TERM_BITS * len(query.terms)
            for _ in plan.selected:
                cost.record(MessageKinds.QUERY_FORWARD, bits=query_bits)
                cost.record(
                    MessageKinds.RESULT_RETURN, bits=RESULT_ENTRY_BITS * RESULT_K
                )
            records.append(
                _Routed(
                    index=index,
                    query=query,
                    initiator=initiator,
                    selected=plan.selected,
                    seconds=elapsed,
                    cost=cost.snapshot() - before,
                    scope=plan.scope_size,
                    block=block,
                )
            )
        return records, errors

    def _check(
        self,
        testbed: ScaledTestbed,
        topology: RoutingTopology,
        records: Sequence["_Routed"],
        problems: list[str],
    ) -> int:
        """Re-route every n-th query with the naive IQN loop; count mismatches."""
        oracle = IQNRouter(fast_path=False)
        failed = 0
        for record in records[:: self.oracle_every]:
            view = testbed.local_view(record.query, record.initiator)
            try:
                plan = topology.route(
                    record.query,
                    oracle,
                    ROUTING_MAX_PEERS,
                    requester=view.peer_id,
                    initiator=view,
                )
            except Exception as exc:  # noqa: BLE001 - reported as a failed check
                problems.append(f"oracle raised on query {record.index}: {exc!r}")
                failed += 1
                continue
            if plan.selected != record.selected:
                failed += 1
                if len(problems) < 5:
                    problems.append(
                        f"query {record.index}: plan {record.selected} "
                        f"!= naive oracle {plan.selected}"
                    )
        return failed

    def _metrics(
        self,
        testbed: ScaledTestbed,
        records: Sequence["_Routed"],
        problems: list[str],
        factors: Sequence[float] | None,
    ) -> tuple[dict[str, float], dict[str, float]]:
        """End-to-end metrics: wall times over every routed query, each
        scaled by its block's speed factor (raw when ``factors`` is
        None); the rest over the first :attr:`min_queries`, a pure
        function of the seed."""
        wall_s = [
            r.seconds * (factors[r.block] if factors is not None else 1.0)
            for r in records
        ]
        fixed = records[: self.min_queries]
        profile = LatencyProfile()
        sim_ms = [profile.estimate_ms(r.cost) for r in fixed]
        e2e, per_kind = _cost_metrics([r.cost for r in fixed], problems)
        recall = statistics.fmean(
            testbed.coverage_recall(r.selected, r.query) for r in fixed
        )
        e2e.update(_wall_metrics(len(records), sum(wall_s), wall_s))
        e2e.update(
            sim_mean_ms=statistics.fmean(sim_ms),
            sim_p95_ms=percentile(sim_ms, 0.95),
            recall=recall,
        )
        return e2e, per_kind

    def _run_traced(self, seed: int) -> RunResult:
        tracer = Tracer()
        with install(tracer) as missing, tracer.active():
            testbed, topology = self.setup()
        stream = _QueryStream(testbed, seed)
        self._warm_up(testbed, topology)
        gc.collect()
        plain, plain_errors = self._measure(
            testbed, topology, stream, count=self.trace_queries
        )
        gc.collect()
        with install(tracer):
            traced, traced_errors = self._measure(
                testbed, topology, stream, count=self.trace_queries, tracer=tracer
            )
        attempted = len(plain) + len(traced) + plain_errors + traced_errors
        failed = plain_errors + traced_errors
        if not plain or not traced:
            return RunResult(attempted, failed, ["every query raised"], {}, LAYER_METRICS)
        problems: list[str] = []
        failed += self._check(testbed, topology, traced, problems)
        if _digest(r.output for r in plain) != _digest(r.output for r in traced):
            problems.append("traced and untraced runs routed differently")
        e2e, per_kind = self._metrics(testbed, traced, problems, None)
        plain_qps = len(plain) / sum(r.seconds for r in plain)
        metrics = {name: 0.0 for name in LAYER_METRICS}
        metrics.update(_span_metrics(tracer))
        metrics.update(per_kind)
        metrics["topology.scope_per_query"] = statistics.fmean(
            r.scope if r.scope is not None else _candidate_scope(testbed.directory, r.query)
            for r in traced
        )
        clusters = topology.clusters
        metrics["topology.clusters"] = len(clusters)
        metrics["topology.largest_cluster"] = max(len(c.members) for c in clusters)
        metrics["trace.queries"] = len(traced)
        metrics["trace.overhead_ratio"] = plain_qps / e2e["queries_per_s"]
        return RunResult(
            attempted=attempted,
            failed=failed,
            problems=problems,
            metrics=metrics,
            units=LAYER_METRICS,
            provenance={
                "untraced_calls": missing,
                "spans": len(tracer),
                "oracle_checked": len(traced[:: self.oracle_every]),
            },
            tracer=tracer,
        )


@dataclass(frozen=True)
class _Routed:
    index: int
    query: Query
    initiator: int
    selected: tuple[str, ...]
    seconds: float
    cost: CostSnapshot
    scope: int | None
    #: The speed-probe block the query ran in.
    block: int

    @property
    def output(self) -> tuple[int, tuple[str, ...]]:
        return self.index, self.selected


class _QueryStream:
    """Query ``i``: a random topic, 2 of its terms, a random member initiator."""

    def __init__(self, testbed: ScaledTestbed, seed: int) -> None:
        self._testbed = testbed
        self._rng = random.Random(derive_seed(seed, "queries"))
        members: dict[int, list[int]] = {}
        for index in range(testbed.num_peers):
            members.setdefault(testbed.topic_of_peer(index), []).append(index)
        self._members = members
        self._topics = sorted(members)
        self._queries: list[tuple[Query, int]] = []

    def __getitem__(self, index: int) -> tuple[Query, int]:
        while len(self._queries) <= index:
            topic = self._rng.choice(self._topics)
            terms = tuple(self._rng.sample(self._testbed.topic_terms(topic), 2))
            initiator = self._rng.choice(self._members[topic])
            self._queries.append((Query(len(self._queries), terms, topic), initiator))
        return self._queries[index]


def _candidate_scope(directory: Any, query: Query) -> int:
    """Candidate peers of a flat plan: everyone who posted a query term."""
    candidates: set[str] = set()
    for term in query.terms:
        stored = directory.stored_list(term)
        if stored is not None:
            candidates.update(stored.posts)
    return len(candidates)


# -- serving over the simulated network --------------------------------------


#: Sliding-window placement step (100 fragments, window 10 -> 50 peers).
WINDOW_OFFSET = 2
#: The 200 distinct queries (and their Zipf popularity order) are fixed.
QUERY_SEED = 7
SERVING_SPEC = "mips-64"
REPLICAS = 2
#: The membership trace is fixed; see :class:`ServingWorkload`.
MEMBERSHIP_SEED = 0
ZIPF_S = 1.1
SERVING_MAX_PEERS = 4
TOP_K = 20
PEER_K = 50
FALLBACK_SPARES = 2
#: Episodes replayed untraced and traced by a traced run.
TRACE_EPISODES = 1

#: The repository's small GOV-like corpus (``SMALL_CORPUS`` of the experiments).
SMALL_CORPUS = GovCorpusConfig(
    num_docs=1_500,
    vocabulary_size=4_000,
    num_topics=6,
    topic_vocabulary_size=120,
    doc_length_mean=80,
    seed=2006,
)


@dataclass(frozen=True)
class ServingWorkload:
    """A Zipf query log served by ``ServingFrontend``, optionally under churn.

    The scenario is fixed: corpus, placement, the 200 distinct queries
    and their popularity order, and (under churn) the membership trace.
    The benchmark seed draws the traffic: each episode's log, its
    arrival times and the simulated network's randomness.  Churn at this
    size is a lottery over which peers fail; with the trace fixed, runs
    with different seeds stay comparable.
    """

    name: str
    #: Departures per peer per virtual minute; 0 serves a static network.
    churn_rate: float = 0.0
    corpus: GovCorpusConfig = SMALL_CORPUS
    num_fragments: int = 100
    window: int = 10
    num_queries: int = 200
    qps: float = 20.0
    #: Each episode serves ``warm_events`` then ``measured_events`` queries
    #: as one stream; per-query metrics cover the measured part only.
    warm_events: int = 500
    measured_events: int = 1_500
    setup_repeats: int = 2
    min_episodes: int = 2

    @property
    def episode_events(self) -> int:
        return self.warm_events + self.measured_events

    def setup(self, tracer: Tracer | None = None) -> "_ServingSetup":
        """Generate the corpus and queries, index, publish, build the reference."""
        if tracer is None:
            tracer = Tracer()
        with tracer.span("datasets.generate"):
            corpus = build_gov_corpus(self.corpus)
            collections = corpora_from_doc_id_sets(
                corpus,
                sliding_window_collections(
                    fragment_corpus(corpus, self.num_fragments), self.window, WINDOW_OFFSET
                ),
            )
            queries = make_workload(
                self.corpus,
                num_queries=self.num_queries,
                seed=QUERY_SEED,
                pool_size=32,
                pool_offset=8,
            )
        indexes = [InvertedIndex(collection) for collection in collections]
        engine = MinervaEngine(
            collections,
            spec=SynopsisSpec.parse(SERVING_SPEC),
            indexes=indexes,
            replicas=REPLICAS,
        )
        engine.publish({term for query in queries for term in query.terms})
        engine.reference_index  # noqa: B018 - builds the centralized reference
        return _ServingSetup(engine=engine, queries=queries)

    def run(self, seed: int, seconds: float, trace: bool) -> RunResult:
        if trace:
            return self._run_traced(seed)
        built, setup_raw, setup_scaled = _timed_setups(self.setup, self.setup_repeats)
        built.snapshot()
        self._episode(built, seed, "warm-up", events=self.warm_events)
        gc.collect()
        outcomes: list[_Episode] = []
        deadline = time.perf_counter() + seconds
        for index in itertools.count():
            if time.perf_counter() >= deadline and index >= self.min_episodes:
                break
            outcomes.append(self._episode(built, seed, index, probe=SpeedProbe()))
        episodes = [e for e in outcomes if e.error is None]
        errors = [e.error for e in outcomes if e.error is not None]
        problems = errors[:5]
        lost = len(errors) * self.episode_events
        failed = lost + self._check(built, episodes, problems)
        if not episodes:
            return RunResult(lost, failed, problems, {}, E2E_METRICS)
        metrics = self._metrics(built, episodes, problems)[0]
        metrics["setup_s"] = statistics.median(setup_scaled)
        metrics["peak_rss_mb"] = peak_rss_mb()
        raw_rank_s = [t for e in episodes for t in e.rank_seconds]
        return RunResult(
            attempted=sum(len(e.served) for e in episodes) + lost,
            failed=failed,
            problems=problems,
            metrics=metrics,
            units=E2E_METRICS,
            provenance={
                "setup_repeats": self.setup_repeats,
                "setup_times_s": setup_raw,
                "raw": {
                    "setup_s": statistics.median(setup_raw),
                    **_wall_metrics(
                        sum(len(e.served) for e in episodes),
                        sum(e.seconds for e in episodes),
                        raw_rank_s,
                    ),
                },
                "speed_factor": statistics.median(e.scale for e in episodes),
                "episodes": len(episodes),
                "episode_events": self.episode_events,
                "failed_episodes": len(errors),
            },
        )

    def _episode(
        self,
        built: "_ServingSetup",
        seed: int,
        index: int | str,
        *,
        events: int | None = None,
        probe: SpeedProbe | None = None,
    ) -> "_Episode":
        """Serve one fixed-size log with fresh caches; time ``serve_log`` only.

        A churn episode runs on a fresh copy of the published engine,
        because churn rewrites the directory.  ``events`` shortens the
        log (the untimed warm-up episode).  With a ``probe``, it runs
        through ``serve_log``; the episode's time and every ranking time
        leave its kernel out and are scaled by its samples.
        """
        events = events or self.episode_events
        episode_seed = derive_seed(seed, f"episode:{index}")
        log = make_query_log(
            built.queries,
            num_events=events,
            zipf_s=ZIPF_S,
            seed=derive_seed(episode_seed, "log"),
        )
        interarrival_ms = 1000.0 / self.qps
        simulation_seed = derive_seed(episode_seed, "simulation")
        host: SimNetExecutor | ChurnService
        if self.churn_rate > 0:
            engine = built.fresh_engine()
            schedule = ChurnSchedule.generate(
                sorted(engine.peers),
                MembershipConfig.for_rate(
                    self.churn_rate, horizon_ms=events * interarrival_ms
                ),
                seed=MEMBERSHIP_SEED,
            )
            host = ChurnService(
                engine, schedule, maintenance=MaintenanceConfig(), seed=simulation_seed
            )
        else:
            host = SimNetExecutor(built.engine, seed=simulation_seed)
        selector = _TimedIQN(probe)
        clock = probe.clock if probe is not None else time.perf_counter
        front = ServingFrontend(
            host,
            selector,
            max_peers=SERVING_MAX_PEERS,
            k=TOP_K,
            peer_k=PEER_K,
            fallback_spares=FALLBACK_SPARES,
            successor_fallback=self.churn_rate > 0,
        )
        with probe.running() if probe is not None else nullcontext():
            started = clock()
            try:
                served = front.serve_log(
                    log,
                    interarrival_ms=interarrival_ms,
                    seed=derive_seed(episode_seed, "arrivals"),
                )
            except Exception as exc:  # noqa: BLE001 - a failed episode is counted
                return _Episode(served=[], warm=0, seconds=0.0, error=repr(exc))
            elapsed = clock() - started
        rank_scaled = selector.times
        scale = 1.0
        if probe is not None:
            scale = probe.factor()
            factors = probe.factors()
            rank_scaled = [t * factors[b] for t, b in zip(selector.times, selector.blocks)]
        transport = front.executor.transport.stats
        churn = host.stats if isinstance(host, ChurnService) else None
        return _Episode(
            served=served,
            warm=self.warm_events,
            seconds=elapsed,
            rank_seconds=selector.times,
            rank_scaled=rank_scaled,
            scale=scale,
            plan=front.plan_stats(),
            synopsis=front.synopsis_stats(),
            msgs_sent=transport.sent,
            msgs_dropped=transport.dropped,
            churn_events=churn.crashes + churn.leaves + churn.recoveries if churn else 0,
            maintenance_bits=churn.maintenance_bits if churn else 0,
        )

    def _check(
        self, built: "_ServingSetup", episodes: Sequence["_Episode"], problems: list[str]
    ) -> int:
        """Count served queries whose answer differs from the reference.

        Static network: every non-degraded answer (top-k and queried
        peers) must equal ``run_query_networked`` on a clean twin
        engine.  Under churn: every top-k must equal ``merge_results``
        over the initiator's and the queried peers' local top-k,
        recomputed from the peers captured before the run.
        """
        failed = 0
        for episode in episodes:
            if episode.plan.lookups != len(episode.served) or episode.plan.hits != sum(
                s.plan_hit for s in episode.served
            ):
                problems.append("plan-cache hits + misses differ from served queries")
            for served in episode.served:
                ok = (
                    built.merge_matches(served)
                    if self.churn_rate > 0
                    else served.degraded or built.one_shot_matches(served)
                )
                if not ok:
                    failed += 1
                    if len(problems) < 5:
                        problems.append(
                            f"query {served.query.query_id} from {served.initiator_id}: "
                            "served answer differs from the reference"
                        )
        return failed

    def _metrics(
        self, built: "_ServingSetup", episodes: Sequence["_Episode"], problems: list[str]
    ) -> tuple[dict[str, float], dict[str, float]]:
        """End-to-end metrics: wall times over every episode, each scaled
        by its speed factor; the rest over the measured queries of the
        first :attr:`min_episodes`, a pure function of the seed."""
        measured = [s for e in episodes[: self.min_episodes] for s in e.served[e.warm :]]
        sim_ms = [s.latency_ms for s in measured]
        e2e, per_kind = _cost_metrics([s.cost for s in measured], problems)
        e2e.update(
            _wall_metrics(
                sum(len(e.served) for e in episodes),
                sum(e.seconds * e.scale for e in episodes),
                [t for e in episodes for t in e.rank_scaled],
            )
        )
        e2e.update(
            sim_mean_ms=statistics.fmean(sim_ms),
            sim_p95_ms=percentile(sim_ms, 0.95),
            recall=statistics.fmean(built.recall(s) for s in measured),
            complete_share=sum(not s.degraded for s in measured) / len(measured),
        )
        return e2e, per_kind

    def _run_traced(self, seed: int) -> RunResult:
        tracer = Tracer()
        with install(tracer) as missing, tracer.active():
            built = self.setup(tracer)
        built.snapshot()
        self._episode(built, seed, "warm-up", events=self.warm_events)
        gc.collect()
        plain = [self._episode(built, seed, i) for i in range(TRACE_EPISODES)]
        gc.collect()
        traced = []
        with install(tracer):
            for index in range(TRACE_EPISODES):
                tracer.tag = index
                with tracer.active():
                    traced.append(self._episode(built, seed, index))
        problems = [e.error for e in plain + traced if e.error is not None]
        if problems:
            lost = len(problems) * self.episode_events
            return RunResult(lost, lost, problems, {}, LAYER_METRICS)
        failed = self._check(built, traced, problems)
        if _digest(e.output for e in plain) != _digest(e.output for e in traced):
            problems.append("traced and untraced runs served different answers")
        served = [s for e in traced for s in e.served]
        per_kind = _cost_metrics([s.cost for s in served], problems)[1]
        traced_qps = len(served) / sum(e.seconds for e in traced)
        plain_qps = sum(len(e.served) for e in plain) / sum(e.seconds for e in plain)
        metrics = {name: 0.0 for name in LAYER_METRICS}
        metrics.update(_span_metrics(tracer))
        metrics.update(per_kind)
        plan_lookups = sum(e.plan.lookups for e in traced)
        synopsis_lookups = sum(e.synopsis.lookups for e in traced)
        planned = sum(len(s.selected) for s in served)
        metrics.update(
            {
                "topology.scope_per_query": statistics.fmean(
                    built.scope(s.query) for s in served
                ),
                "simnet.msgs_sent": sum(e.msgs_sent for e in traced),
                "simnet.msgs_dropped": sum(e.msgs_dropped for e in traced),
                "serving.plan_lookups": plan_lookups,
                "serving.plan_hit_rate": sum(e.plan.hits for e in traced) / plan_lookups,
                "serving.plan_invalidated": sum(e.plan.invalidated for e in traced),
                "serving.plan_repaired": sum(e.plan.repaired for e in traced),
                "serving.synopsis_hit_rate": (
                    sum(e.synopsis.hits for e in traced) / synopsis_lookups
                    if synopsis_lookups
                    else 0.0
                ),
                "serving.entries_per_query": statistics.fmean(
                    s.entries_streamed for s in served
                ),
                "serving.peers_skipped_share": (
                    sum(s.peers_skipped for s in served) / planned if planned else 0.0
                ),
                "serving.rounds_per_query": statistics.fmean(s.batch_rounds for s in served),
                "churn.events": sum(e.churn_events for e in traced),
                "churn.maintenance_kbits": sum(e.maintenance_bits for e in traced) / 1000.0,
                "trace.queries": len(served),
                "trace.overhead_ratio": plain_qps / traced_qps,
            }
        )
        return RunResult(
            attempted=sum(len(e.served) for e in plain) + len(served),
            failed=failed,
            problems=problems,
            metrics=metrics,
            units=LAYER_METRICS,
            provenance={"untraced_calls": missing, "spans": len(tracer)},
            tracer=tracer,
        )


class _TimedIQN(IQNRouter):
    """``IQNRouter`` that records the wall time of each ranking it runs.

    The serving front end ranks only on plan-cache misses, so these are
    the per-query routing times of the queries that needed routing.  With
    a running speed probe, the times leave its kernel out and each
    ranking records the probe block it started in.
    """

    def __init__(self, probe: SpeedProbe | None = None) -> None:
        super().__init__()
        self.probe = probe
        self.times: list[float] = []
        self.blocks: list[int] = []

    def rank(self, context: Any, max_peers: int) -> list[str]:
        probe = self.probe
        clock = probe.clock if probe is not None else time.perf_counter
        self.blocks.append(probe.block if probe is not None else 0)
        started = clock()
        ranked = super().rank(context, max_peers)
        self.times.append(clock() - started)
        return ranked


@dataclass
class _Episode:
    served: list[ServedQuery]
    #: Leading queries that warm the caches (excluded from per-query metrics).
    warm: int
    seconds: float
    error: str | None = None
    rank_seconds: list[float] = field(default_factory=list)
    #: The same ranking times, each scaled by the probe samples around it.
    rank_scaled: list[float] = field(default_factory=list)
    #: Speed factor from the probe samples taken during the episode.
    scale: float = 1.0
    plan: CacheStats = CacheStats(hits=0, misses=0, size=0)
    synopsis: CacheStats = CacheStats(hits=0, misses=0, size=0)
    msgs_sent: int = 0
    msgs_dropped: int = 0
    churn_events: int = 0
    maintenance_bits: int = 0

    @property
    def output(self) -> list[tuple[Any, ...]]:
        return [
            (s.query.query_id, s.initiator_id, s.topk, s.queried, s.latency_ms)
            for s in self.served
        ]


@dataclass
class _ServingSetup:
    """The published engine plus memoized references for the checks."""

    engine: MinervaEngine
    queries: list[Query]
    _snapshot: bytes = b""
    _shared: dict[int, tuple[str, int]] = field(default_factory=dict)
    _shared_objects: dict[tuple[str, int], Any] = field(default_factory=dict)
    _twin: MinervaEngine | None = None
    _one_shot: dict[tuple[int, str], Any] = field(default_factory=dict)
    _answers: dict[tuple[str, tuple[str, ...]], tuple[Any, ...]] = field(default_factory=dict)
    _reference: dict[int, frozenset[int]] = field(default_factory=dict)
    _scope: dict[int, int] = field(default_factory=dict)

    def snapshot(self) -> None:
        """Freeze the just-published engine so episodes can start from it.

        Restoring the pickle is the same engine a fresh build plus
        publish yields, at a fraction of the cost; corpora and indexes
        are shared by reference, never copied (they are read-only).
        """
        shared: list[Any] = [self.engine.reference_index]
        for peer in self.engine.peers.values():
            shared += [peer.corpus, peer.index]
        self._shared = {id(obj): ("shared", i) for i, obj in enumerate(shared)}
        self._shared_objects = {("shared", i): obj for i, obj in enumerate(shared)}
        buffer = io.BytesIO()
        pickler = pickle.Pickler(buffer, protocol=pickle.HIGHEST_PROTOCOL)
        pickler.persistent_id = lambda obj: self._shared.get(id(obj))  # type: ignore[method-assign]
        pickler.dump(self.engine)
        self._snapshot = buffer.getvalue()

    def fresh_engine(self) -> MinervaEngine:
        unpickler = pickle.Unpickler(io.BytesIO(self._snapshot))
        unpickler.persistent_load = self._shared_objects.__getitem__  # type: ignore[method-assign]
        return unpickler.load()

    def one_shot_matches(self, served: ServedQuery) -> bool:
        key = (served.query.query_id, served.initiator_id)
        reference = self._one_shot.get(key)
        if reference is None:
            if self._twin is None:
                self._twin = self.fresh_engine()
            reference = self._twin.run_query_networked(
                served.query,
                IQNRouter(),
                initiator_id=served.initiator_id,
                max_peers=SERVING_MAX_PEERS,
                k=TOP_K,
                peer_k=PEER_K,
            )
            self._one_shot[key] = reference
        return (
            served.topk == tuple(reference.merged[:TOP_K])
            and served.queried == reference.selected
        )

    def _answer(self, peer_id: str, terms: tuple[str, ...]) -> tuple[Any, ...]:
        key = (peer_id, terms)
        answer = self._answers.get(key)
        if answer is None:
            answer = tuple(self.engine.peers[peer_id].answer_query(terms, k=PEER_K))
            self._answers[key] = answer
        return answer

    def merge_matches(self, served: ServedQuery) -> bool:
        """Top-k equals the merge of the initiator's and queried peers' answers.

        A queried peer that timed out may have answered some batches
        before it went silent, so each prefix it could have shipped
        (whole batches of ``TOP_K`` entries, the front end's batch size)
        is tried.
        """
        terms = served.query.terms
        lists = [self._answer(served.initiator_id, terms)]
        partial: list[list[tuple[Any, ...]]] = []
        for peer_id in served.queried:
            answer = self._answer(peer_id, terms)
            if peer_id in served.timed_out_peers:
                partial.append([answer[:cut] for cut in range(0, len(answer) + TOP_K, TOP_K)])
            else:
                lists.append(answer)
        for prefixes in itertools.product(*partial):
            if served.topk == tuple(merge_results([*lists, *prefixes], k=TOP_K)):
                return True
        return False

    def recall(self, served: ServedQuery) -> float:
        query = served.query
        reference = self._reference.get(query.query_id)
        if reference is None:
            reference = self.engine.reference_topk(query, k=TOP_K)
            self._reference[query.query_id] = reference
        return relative_recall(result_ids(served.topk), reference)

    def scope(self, query: Query) -> int:
        """Candidate peers of a plan: everyone who posted a query term."""
        scope = self._scope.get(query.query_id)
        if scope is None:
            scope = self._scope[query.query_id] = _candidate_scope(
                self.engine.directory, query
            )
        return scope


WORKLOADS: dict[str, RoutingWorkload | ServingWorkload] = {
    "superpeer-10k": RoutingWorkload("superpeer-10k"),
    "serve-zipf": ServingWorkload("serve-zipf"),
    # Three episodes: a churn episode's latencies depend on which queries
    # meet a departed peer, so its non-wall metrics need more of them.
    "serve-churn": ServingWorkload("serve-churn", churn_rate=0.1, min_episodes=3),
}
