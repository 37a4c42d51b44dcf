"""A MINERVA peer: local collection, local index, published summaries.

Each peer autonomously crawls (here: is assigned) a document collection,
indexes it locally, and derives the per-term Posts it publishes to the
distributed directory.  At query time a peer either *initiates* a query
(fetching PeerLists, routing, merging) or *answers* one forwarded to it
(local top-k only).
"""

from __future__ import annotations

from collections.abc import Iterable

from ..ir.documents import Corpus, Document
from ..ir.index import InvertedIndex
from ..ir.scoring import Scorer
from ..ir.topk import ScoredDocument, execute_query
from ..synopses.base import SetSynopsis
from ..synopses.factory import SynopsisSpec
from ..synopses.histogram import ScoreHistogramSynopsis
from .posts import Post

__all__ = ["Peer"]


class Peer:
    """One autonomous peer with a local collection and synopsis config."""

    def __init__(
        self,
        peer_id: str,
        corpus: Corpus,
        *,
        spec: SynopsisSpec,
        scorer: Scorer | None = None,
        histogram_cells: int | None = None,
        index: InvertedIndex | None = None,
    ) -> None:
        if not peer_id:
            raise ValueError("peer_id must be non-empty")
        if index is not None and index.corpus is not corpus:
            raise ValueError("a prebuilt index must be over the peer's corpus")
        self.peer_id = peer_id
        self.corpus = corpus
        self.spec = spec
        self.histogram_cells = histogram_cells
        # Experiments comparing synopsis configurations over identical
        # collections inject a prebuilt index so it is built only once.
        self.index = index if index is not None else InvertedIndex(corpus, scorer)
        self._synopsis_cache: dict[str, SetSynopsis] = {}
        self._histogram_cache: dict[str, ScoreHistogramSynopsis] = {}

    # -- published summaries ------------------------------------------------

    def synopsis(self, term: str) -> SetSynopsis:
        """The per-term docID synopsis this peer publishes (cached)."""
        cached = self._synopsis_cache.get(term)
        if cached is None:
            cached = self.spec.build(self.index.doc_ids(term))
            self._synopsis_cache[term] = cached
        return cached

    def prime_synopses(self, terms: Iterable[str]) -> None:
        """Build the uncached synopses of ``terms`` in one batch.

        Fills the same cache :meth:`synopsis` reads, with the same
        synopses (:meth:`SynopsisSpec.build_batch` equals per-term
        :meth:`SynopsisSpec.build`), so publishing many terms costs one
        vectorized hash pass instead of one build per term.
        """
        missing = [term for term in terms if term not in self._synopsis_cache]
        if not missing:
            return
        built = self.spec.build_batch(self.index.doc_ids(term) for term in missing)
        self._synopsis_cache.update(zip(missing, built))

    def histogram_synopsis(self, term: str) -> ScoreHistogramSynopsis:
        """The score-histogram synopsis of Section 7.1 (cached).

        Requires the peer to be configured with ``histogram_cells``.
        """
        if self.histogram_cells is None:
            raise ValueError(
                f"peer {self.peer_id} was not configured with histogram_cells"
            )
        cached = self._histogram_cache.get(term)
        if cached is None:
            cached = ScoreHistogramSynopsis.from_scored_ids(
                self.index.scored_doc_ids(term, normalized=True),
                spec=self.spec,
                num_cells=self.histogram_cells,
            )
            self._histogram_cache[term] = cached
        return cached

    def build_post(self, term: str, *, with_histogram: bool = False) -> Post:
        """Assemble the Post for ``term`` from local index statistics."""
        return Post(
            peer_id=self.peer_id,
            term=term,
            cdf=self.index.document_frequency(term),
            max_score=self.index.max_score(term),
            avg_score=self.index.average_score(term),
            term_space_size=self.index.term_space_size,
            synopsis=self.synopsis(term),
            histogram=self.histogram_synopsis(term) if with_histogram else None,
        )

    # -- dynamics (evolving crawls) ------------------------------------------

    def add_documents(
        self, documents: Iterable[Document], *, drift_factor: float = 1.5
    ) -> list[str]:
        """Grow the local collection and report terms needing re-posting.

        An autonomously crawling peer's collection evolves; Section 9
        names "dynamic and automatic adaptation to evolving data" as the
        goal.  This rebuilds the local index (simple and correct; an
        incremental index is an optimization the simulation does not
        need), invalidates the synopsis caches, and returns the terms
        whose index lists drifted past ``drift_factor``
        (:func:`repro.core.adaptive.needs_repost`) — the Posts worth
        re-publishing to the directory.
        """
        from ..core.adaptive import needs_repost

        old_lengths = {
            term: self.index.document_frequency(term)
            for term in self.index.vocabulary
        }
        for document in documents:
            self.corpus.add(document)
        self.index = InvertedIndex(self.corpus, self.index.scorer)
        self._synopsis_cache.clear()
        self._histogram_cache.clear()
        drifted = []
        for term in self.index.vocabulary:
            if needs_repost(
                old_lengths.get(term, 0),
                self.index.document_frequency(term),
                drift_factor=drift_factor,
            ):
                drifted.append(term)
        return sorted(drifted)

    # -- query answering ---------------------------------------------------

    def answer_query(
        self, terms: tuple[str, ...], *, k: int = 10, conjunctive: bool = False
    ) -> list[ScoredDocument]:
        """Local top-k execution for a forwarded query."""
        return execute_query(self.index, terms, k=k, conjunctive=conjunctive)

    def local_doc_ids(self, term: str) -> frozenset[int]:
        return self.index.doc_ids(term)

    @property
    def collection_size(self) -> int:
        return len(self.corpus)

    def __repr__(self) -> str:
        return (
            f"Peer({self.peer_id!r}, docs={len(self.corpus)}, "
            f"spec={self.spec.label})"
        )
