"""In-memory span tracing around the public calls of each repro layer.

The benchmark measures its end-to-end numbers with tracing off.  A
separate traced run installs wrappers, from this file, around the public
functions listed in :data:`TARGETS` and records one span per call: name,
start, end, the enclosing open span (every wrapped call runs
synchronously, so a stack gives the parent) and a tag the workload sets
(the query index or serving episode, ``-1`` during set-up).  Nothing in
``src/`` changes.

Spans stay in memory as packed arrays and are summarized when the run
ends: per span name, the call count, the *total* time (outermost spans
of that name only, so a nested call of the same name is not counted
twice) and the *self* time (each span's duration minus its direct
children's durations).
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator

import numpy as np

__all__ = ["SpanTotals", "Tracer", "TARGETS", "span_totals", "install"]

#: ``(module, class, attribute, span name)`` for every wrapped public
#: call.  A ``None`` span name records counters only (for calls that
#: return before their work is done, such as an RPC send).
TARGETS: tuple[tuple[str, str, str, str | None], ...] = (
    ("repro.datasets.scale", "ScaledTestbed", "__init__", "datasets.generate"),
    ("repro.synopses.factory", "SynopsisSpec", "build", "synopses.build"),
    ("repro.serving.cache", "ReferenceSynopsisCache", "build", "synopses.cached_build"),
    ("repro.minerva.directory", "Directory", "publish_batch", "minerva.publish_batch"),
    ("repro.minerva.directory", "Directory", "publish", "minerva.publish"),
    ("repro.minerva.peer", "Peer", "answer_query", "minerva.answer_query"),
    ("repro.ir.index", "InvertedIndex", "__init__", "ir.index_build"),
    ("repro.dht.ring", "ChordRing", "lookup", "dht.lookup"),
    ("repro.topology.base", "RoutingTopology", "route", "topology.route"),
    ("repro.topology.flat", "FlatTopology", "assemble", "topology.assemble"),
    ("repro.topology.superpeer", "SuperPeerTopology", "assemble", "topology.assemble"),
    ("repro.topology.superpeer", "SuperPeerTopology", "ensure_clusters", "topology.cluster_build"),
    ("repro.topology.superpeer", "SuperPeerTopology", "rank_clusters", "topology.rank_clusters"),
    ("repro.topology.superpeer", "SuperPeerTopology", "member_posts", "topology.member_posts"),
    ("repro.core.iqn", "IQNRouter", "rank", "core.rank"),
    ("repro.simnet.clock", "SimClock", "run", "simnet.clock_run"),
    ("repro.simnet.rpc", "RpcLayer", "call", None),
    ("repro.serving.frontend", "ServingFrontend", "serve_log", "serving.serve_log"),
    ("repro.serving.streaming", "StreamMerger", "absorb", "serving.absorb"),
    ("repro.serving.streaming", "StreamMerger", "topk", "serving.topk"),
    ("repro.churn.maintenance", "DirectoryMaintainer", "repost_detailed", "churn.repost"),
    ("repro.churn.maintenance", "DirectoryMaintainer", "sweep_detailed", "churn.sweep"),
    ("repro.churn.maintenance", "DirectoryMaintainer", "evict_crashed", "churn.evict"),
)


@dataclass(frozen=True)
class SpanTotals:
    """Aggregate of every span sharing one name."""

    calls: int
    total_s: float
    self_s: float


def span_totals(
    name_ids: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
    parents: np.ndarray,
    outermost: np.ndarray,
    num_names: int,
) -> list[SpanTotals]:
    """Per-name calls, total and self time of a packed span table.

    ``parents[i]`` is the index of span ``i``'s enclosing span (``-1``
    for a root) and ``outermost[i]`` is true when no enclosing span has
    the same name.  Self time is a span's duration minus the durations
    of its direct children.
    """
    durations = ends - starts
    nested = parents >= 0
    children = np.bincount(
        parents[nested], weights=durations[nested], minlength=len(durations)
    )
    self_times = durations - children
    calls = np.bincount(name_ids, minlength=num_names)
    totals = np.bincount(
        name_ids[outermost], weights=durations[outermost], minlength=num_names
    )
    selfs = np.bincount(name_ids, weights=self_times, minlength=num_names)
    return [
        SpanTotals(int(calls[i]), float(totals[i]), float(selfs[i]))
        for i in range(num_names)
    ]


class Tracer:
    """Records spans and counters while :attr:`enabled` is true."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._name_id = array("q")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("q")
        self._tag = array("q")
        self._outermost = array("b")
        self._stack: list[int] = []
        self._open_by_name: dict[int, int] = {}
        self.counters: dict[str, float] = {}
        self.enabled = False
        self.tag = -1

    def __len__(self) -> int:
        return len(self._start)

    def name_id(self, name: str) -> int:
        index = self._name_ids.get(name)
        if index is None:
            index = len(self.names)
            self._name_ids[name] = index
            self.names.append(name)
        return index

    def open(self, name_id: int) -> int:
        index = len(self._start)
        depth = self._open_by_name.get(name_id, 0)
        self._open_by_name[name_id] = depth + 1
        self._name_id.append(name_id)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._tag.append(self.tag)
        self._outermost.append(1 if depth == 0 else 0)
        self._end.append(0.0)
        self._stack.append(index)
        self._start.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self._end[index] = time.perf_counter()
        self._stack.pop()
        self._open_by_name[self._name_id[index]] -= 1

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span opened by the workload code itself (no-op while disabled)."""
        if not self.enabled:
            yield
            return
        index = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(index)

    @contextmanager
    def active(self) -> Iterator[None]:
        """Record spans only inside this block."""
        self.enabled = True
        try:
            yield
        finally:
            self.enabled = False

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def summary(self) -> dict[str, SpanTotals]:
        """Calls, total and self time per span name."""
        totals = span_totals(
            np.frombuffer(self._name_id, dtype=np.int64),
            np.frombuffer(self._start, dtype=np.float64),
            np.frombuffer(self._end, dtype=np.float64),
            np.frombuffer(self._parent, dtype=np.int64),
            np.frombuffer(self._outermost, dtype=np.int8).astype(bool),
            len(self.names),
        )
        return dict(zip(self.names, totals))

    def save(self, path: Any) -> None:
        """Write the raw span table (``.npz``) for offline inspection."""
        np.savez(
            path,
            names=np.array(self.names, dtype=np.str_),
            name_id=np.frombuffer(self._name_id, dtype=np.int64),
            start=np.frombuffer(self._start, dtype=np.float64),
            end=np.frombuffer(self._end, dtype=np.float64),
            parent=np.frombuffer(self._parent, dtype=np.int64),
            tag=np.frombuffer(self._tag, dtype=np.int64),
        )


def _observe(tracer: Tracer, span: str | None, args: tuple, result: Any) -> None:
    """Counters read off a wrapped call's arguments or result."""
    if span == "minerva.publish_batch":
        tracer.count("minerva.posts_published", len(args[1]))
    elif span == "dht.lookup":
        tracer.count("dht.hops", result.hops)
    elif span == "core.rank":
        stats = args[0].last_stats
        if stats is not None:
            tracer.count("core.candidates", stats.candidates)
            tracer.count("core.novelty_evals", stats.novelty_evaluations)
            tracer.count("core.naive_evals", stats.naive_evaluations)
            tracer.count("core.columnar", stats.attach == "columns")
    elif span == "churn.repost":
        tracer.count("churn.reposts", result[0])
    elif span is None:  # RpcLayer.call: count the reply when it lands
        tracer.count("simnet.rpc_calls")

        def on_reply(future: Any) -> None:
            reply = future.value
            tracer.count("simnet.rpc_retries", reply.retries)
            tracer.count("simnet.rpc_timeouts", reply.timed_out)

        result.add_done_callback(on_reply)


def _wrapped(tracer: Tracer, original: Callable, span: str | None) -> Callable:
    name_id = None if span is None else tracer.name_id(span)

    @functools.wraps(original)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if not tracer.enabled:
            return original(*args, **kwargs)
        if name_id is None:
            result = original(*args, **kwargs)
        else:
            index = tracer.open(name_id)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(index)
        _observe(tracer, span, args, result)
        return result

    return wrapper


@contextmanager
def install(tracer: Tracer) -> Iterator[list[str]]:
    """Wrap every target for the duration of the block.

    Yields the targets that could not be found (a renamed or removed
    call is reported, not fatal); every wrapper is removed on exit.
    """
    restore: list[tuple[type, str, Any]] = []
    missing: list[str] = []
    try:
        for module_name, class_name, attribute, span in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            owner = getattr(module, class_name, None)
            original = getattr(owner, attribute, None)
            if owner is None or original is None:
                missing.append(f"{module_name}.{class_name}.{attribute}")
                continue
            restore.append((owner, attribute, owner.__dict__.get(attribute)))
            setattr(owner, attribute, _wrapped(tracer, original, span))
        yield missing
    finally:
        for owner, attribute, own in reversed(restore):
            if own is None:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, own)
