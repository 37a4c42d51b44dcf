"""Synthetic testbeds that scale to 10k–100k peers without object graphs.

The corpus-backed testbed (:class:`~repro.minerva.engine.MinervaEngine`
over :class:`~repro.ir.documents.Corpus` collections) materializes one
inverted index per peer — perfect for protocol fidelity, hopeless at
100k peers.  :class:`ScaledTestbed` keeps only what routing experiments
actually consume:

- a real :class:`~repro.minerva.directory.Directory` on a small Chord
  ring, populated through ``publish_batch`` in bounded chunks, so every
  stored PeerList lands in the packed columnar store;
- a *recomputable* document model: the doc-id set of ``(peer, term)``
  is a pure function of ``derive_seed(seed, "docs:<peer>:<term>")``, so
  nothing per-peer is retained — local views, coverage recall, and
  synopses are all derived on demand and discarded;
- topical structure: peers are partitioned over topics by a seeded
  balanced permutation, each topic owns a slice of the doc-id space and
  a few terms, and every peer additionally posts a couple of *noise*
  terms from foreign topics — the regime where cluster-level routing
  (:mod:`repro.topology`) should pay off, since topical neighbours hold
  overlapping results.

Recall here is **coverage recall**: the fraction of the union of all
posted doc ids for the query terms that the selected peers jointly
hold.  It is set-based like the engine's relative recall, with the
centralized reference replaced by the exact posted coverage (cached per
term from the directory's poster lists).

The testbed satisfies the :class:`~repro.topology.base.TopologyHost`
protocol (``directory``, ``spec``, ``num_peers``), so both
:class:`~repro.topology.flat.FlatTopology` and
:class:`~repro.topology.superpeer.SuperPeerTopology` bind to it
directly — that is how ``experiments/hierarchy.py`` compares the two
at sizes the engine cannot reach.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass

import numpy as np

from ..dht.ring import ChordRing
from ..minerva.directory import Directory
from ..minerva.posts import Post
from ..parallel.seeding import derive_seed
from ..routing.base import LocalView
from ..synopses.base import SetSynopsis
from ..synopses.factory import SynopsisSpec
from .queries import Query

__all__ = ["ScaledTestbedConfig", "ScaledTestbed"]

#: Peers per ``publish_batch`` call (and per batched synopsis build):
#: bounds transient Post objects.
_PUBLISH_CHUNK = 2_000


@dataclass(frozen=True)
class ScaledTestbedConfig:
    """Shape of a scaled testbed; everything is derived from ``seed``."""

    num_peers: int
    num_topics: int = 20
    terms_per_topic: int = 3
    #: Inclusive (min, max) doc ids a peer holds per posted term.
    docs_per_term: tuple[int, int] = (5, 30)
    #: Foreign-topic terms every peer additionally posts.
    noise_terms: int = 2
    #: Doc ids in each topic's slice of the id space.
    topic_pool: int = 400
    directory_nodes: int = 16
    ring_bits: int = 24
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_peers <= 0:
            raise ValueError(f"num_peers must be positive, got {self.num_peers}")
        if self.num_topics <= 0:
            raise ValueError(
                f"num_topics must be positive, got {self.num_topics}"
            )
        if self.terms_per_topic <= 0:
            raise ValueError(
                f"terms_per_topic must be positive, got {self.terms_per_topic}"
            )
        low, high = self.docs_per_term
        if not 0 < low <= high:
            raise ValueError(
                f"docs_per_term must be 0 < min <= max, got {self.docs_per_term}"
            )
        if self.noise_terms < 0:
            raise ValueError(
                f"noise_terms must be >= 0, got {self.noise_terms}"
            )
        if self.topic_pool < high:
            raise ValueError(
                "topic_pool must cover docs_per_term's maximum "
                f"({self.topic_pool} < {high})"
            )


class ScaledTestbed:
    """A directory-only MINERVA network at 10k+ peers (TopologyHost).

    Construction publishes one Post per (peer, posted term) into a real
    :class:`Directory` and retains nothing else per peer; every derived
    quantity (doc sets, local views, coverage recall) is recomputed
    from seeds on demand.
    """

    def __init__(self, config: ScaledTestbedConfig, *, spec: SynopsisSpec) -> None:
        self.config = config
        self.spec = spec
        self._width = max(2, len(str(config.num_peers - 1)))
        ring = ChordRing(
            [f"n{i}" for i in range(config.directory_nodes)],
            bits=config.ring_bits,
        )
        self.directory = Directory(ring)
        self._topic_of_peer = self._assign_topics()
        #: Exact posted coverage per term, filled lazily per query.
        self._reference_by_term: dict[str, frozenset[int]] = {}
        self._publish_all()

    # -- identity ---------------------------------------------------------

    @property
    def num_peers(self) -> int:
        return self.config.num_peers

    def peer_id(self, index: int) -> str:
        return f"p{index:0{self._width}d}"

    def peer_index(self, peer_id: str) -> int:
        return int(peer_id[1:])

    def topic_terms(self, topic: int) -> tuple[str, ...]:
        return tuple(
            f"topic{topic:04d}w{j}"
            for j in range(self.config.terms_per_topic)
        )

    def topic_of_term(self, term: str) -> int:
        return int(term[5:9])

    def topic_of_peer(self, index: int) -> int:
        return self._topic_of_peer[index]

    # -- the generative model ---------------------------------------------

    def _assign_topics(self) -> list[int]:
        """Balanced seeded peer→topic map (± one peer per topic)."""
        order = list(range(self.config.num_peers))
        random.Random(derive_seed(self.config.seed, "scale-topics")).shuffle(
            order
        )
        assignment = [0] * self.config.num_peers
        for rank, peer in enumerate(order):
            assignment[peer] = rank % self.config.num_topics
        return assignment

    def peer_terms(self, index: int) -> tuple[str, ...]:
        """The terms peer ``index`` posts: its topic's plus noise, sorted."""
        terms = set(self.topic_terms(self._topic_of_peer[index]))
        if self.config.noise_terms and self.config.num_topics > 1:
            rng = random.Random(
                derive_seed(self.config.seed, f"noise:{index}")
            )
            while len(terms) < (
                self.config.terms_per_topic + self.config.noise_terms
            ):
                topic = rng.randrange(self.config.num_topics)
                if topic == self._topic_of_peer[index]:
                    continue
                terms.add(
                    self.topic_terms(topic)[
                        rng.randrange(self.config.terms_per_topic)
                    ]
                )
        return tuple(sorted(terms))

    def doc_ids(self, index: int, term: str) -> frozenset[int]:
        """Doc ids peer ``index`` holds for ``term`` — pure in (seed, args).

        Ids live in the term's topic slice of the global id space, so
        topical neighbours overlap and foreign posts still carry
        on-topic documents.
        """
        return frozenset(self._sampled_doc_ids(index, term))

    def _sampled_doc_ids(self, index: int, term: str) -> list[int]:
        """:meth:`doc_ids` as drawn: distinct ids in sampling order."""
        config = self.config
        rng = random.Random(derive_seed(config.seed, f"docs:{index}:{term}"))
        low, high = config.docs_per_term
        count = rng.randint(low, high)
        base = self.topic_of_term(term) * config.topic_pool
        return [
            base + offset
            for offset in rng.sample(range(config.topic_pool), count)
        ]

    def _post_for(
        self, index: int, term: str, cdf: int, synopsis: SetSynopsis
    ) -> Post:
        rng = random.Random(
            derive_seed(self.config.seed, f"scores:{index}:{term}")
        )
        max_score = 0.2 + 0.8 * rng.random()
        return Post(
            peer_id=self.peer_id(index),
            term=term,
            cdf=cdf,
            max_score=max_score,
            avg_score=max_score * (0.3 + 0.4 * rng.random()),
            term_space_size=self.config.terms_per_topic
            + self.config.noise_terms,
            synopsis=synopsis,
        )

    def _publish_all(self) -> None:
        """Publish every peer's Posts, one synopsis batch per chunk.

        Each chunk's doc ids stream into one flat ``uint64`` buffer (no
        per-Post sets are held) and :meth:`SynopsisSpec.build_packed`
        builds all of the chunk's synopses in one vectorized pass.
        """
        num_peers = self.config.num_peers
        for first in range(0, num_peers, _PUBLISH_CHUNK):
            keys: list[tuple[int, str]] = []
            flat_ids = array("Q")
            counts: list[int] = []
            for index in range(first, min(first + _PUBLISH_CHUNK, num_peers)):
                for term in self.peer_terms(index):
                    ids = self._sampled_doc_ids(index, term)
                    keys.append((index, term))
                    flat_ids.extend(ids)
                    counts.append(len(ids))
            synopses = self.spec.build_packed(
                np.frombuffer(flat_ids, dtype=np.uint64), counts
            )
            self.directory.publish_batch(
                [
                    self._post_for(index, term, cdf, synopsis)
                    for (index, term), cdf, synopsis in zip(
                        keys, counts, synopses
                    )
                ]
            )

    # -- queries and measurement ------------------------------------------

    def queries(self, count: int, *, terms_per_query: int = 2) -> list[Query]:
        """``count`` topical queries cycling over the topics."""
        terms_per_query = min(terms_per_query, self.config.terms_per_topic)
        return [
            Query(
                qid,
                self.topic_terms(qid % self.config.num_topics)[
                    :terms_per_query
                ],
            )
            for qid in range(count)
        ]

    def initiator_index(self, query: Query) -> int:
        """A deterministic on-topic initiator for ``query``."""
        topic = self.topic_of_term(query.terms[0])
        members = [
            index
            for index in range(self.config.num_peers)
            if self._topic_of_peer[index] == topic
        ]
        return members[query.query_id % len(members)]

    def local_view(self, query: Query, index: int | None = None) -> LocalView:
        """The initiator's local knowledge (seeds IQN's novelty)."""
        if index is None:
            index = self.initiator_index(query)
        held = self.peer_terms(index)
        by_term = {
            term: (
                self.doc_ids(index, term) if term in held else frozenset()
            )
            for term in query.terms
        }
        result: frozenset[int] = frozenset().union(*by_term.values())
        return LocalView(
            peer_id=self.peer_id(index),
            result_doc_ids=result,
            doc_ids_by_term=by_term,
        )

    def reference_ids(self, terms: tuple[str, ...]) -> frozenset[int]:
        """Exact posted coverage of ``terms``: the recall denominator."""
        out: set[int] = set()
        for term in dict.fromkeys(terms):
            cached = self._reference_by_term.get(term)
            if cached is None:
                union: set[int] = set()
                stored = self.directory.stored_list(term)
                if stored is not None:
                    for peer_id in stored.posts:
                        union |= self.doc_ids(self.peer_index(peer_id), term)
                cached = frozenset(union)
                self._reference_by_term[term] = cached
            out |= cached
        return frozenset(out)

    def coverage_recall(
        self, selected: tuple[str, ...], query: Query
    ) -> float:
        """Fraction of the posted coverage the selected peers hold."""
        reference = self.reference_ids(query.terms)
        if not reference:
            return 0.0
        covered: set[int] = set()
        for peer_id in selected:
            index = self.peer_index(peer_id)
            held = self.peer_terms(index)
            for term in dict.fromkeys(query.terms):
                if term in held:
                    covered |= self.doc_ids(index, term)
        return len(covered & reference) / len(reference)

    def __repr__(self) -> str:
        return (
            f"ScaledTestbed(peers={self.num_peers}, "
            f"topics={self.config.num_topics}, spec={self.spec.label})"
        )
