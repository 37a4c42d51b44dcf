"""Common interface for compact set synopses.

The paper evaluates three synopsis families — Bloom filters, hash
sketches, and min-wise independent permutations — against four criteria
(Section 3.4): estimation error, space, aggregability (union /
intersection / difference), and tolerance of heterogeneous sizes.  This
module pins down the shared contract so that routing code (``repro.core``)
is generic over the synopsis type.

Synopses are **immutable value objects**: every aggregation operation
returns a new instance.  IQN's Aggregate-Synopses step only ever combines
two synopses at a time, so a small, pure API suffices.
"""

from __future__ import annotations

import abc
from typing import Any, Iterable, Sequence

import numpy as np

__all__ = [
    "SynopsisError",
    "IncompatibleSynopsesError",
    "UnsupportedOperationError",
    "SetSynopsis",
]


class SynopsisError(Exception):
    """Base class for synopsis-related failures."""


class IncompatibleSynopsesError(SynopsisError):
    """Raised when two synopses cannot be combined.

    Typical causes: different hash-family seeds, or fixed-size structures
    (Bloom filters, hash sketches) of different bit lengths — the paper
    notes these families *require* globally agreed sizes, unlike MIPs.
    """


class UnsupportedOperationError(SynopsisError):
    """Raised when a synopsis family lacks an aggregation operation.

    For example, hash sketches have no known low-error intersection
    (Section 3.4), which matters for conjunctive multi-keyword queries.
    """


class SetSynopsis(abc.ABC):
    """A compact, mergeable summary of a set of integer document ids.

    Implementations must be hashable per identity of their parameters and
    must never mutate in place after construction.
    """

    __slots__ = ()

    # -- construction ----------------------------------------------------

    @classmethod
    @abc.abstractmethod
    def from_ids(cls, ids: Iterable[int], **params: Any) -> "SetSynopsis":
        """Build a synopsis summarizing ``ids``."""

    @classmethod
    def from_id_batch(
        cls, flat_ids: np.ndarray, counts: Sequence[int] | np.ndarray, **params: Any
    ) -> "list[SetSynopsis]":
        """One synopsis per set of a packed batch.

        ``flat_ids`` (uint64) holds every set's ids back to back,
        ``counts[i]`` of them for set ``i`` (see
        :func:`~repro.synopses.hashing.pack_id_sets`).  The result must be
        equal, payload for payload, to ``from_ids`` over each segment.
        This default is that map; families with a vectorized kernel
        (Bloom filters, MIPs) override it.
        """
        if len(counts) == 0:
            return []
        bounds = np.cumsum(np.asarray(counts, dtype=np.int64))[:-1]
        return [
            cls.from_ids(segment.tolist(), **params)
            for segment in np.split(flat_ids, bounds)
        ]

    @abc.abstractmethod
    def empty_like(self) -> "SetSynopsis":
        """Return an empty synopsis with the same parameters as ``self``.

        IQN seeds the reference synopsis from the initiator's local
        result; when that result is empty this provides a neutral element
        for the union aggregation.
        """

    # -- estimation ------------------------------------------------------

    @abc.abstractmethod
    def estimate_cardinality(self) -> float:
        """Estimate the number of distinct elements summarized."""

    @abc.abstractmethod
    def estimate_resemblance(self, other: "SetSynopsis") -> float:
        """Estimate Broder resemblance ``|A ∩ B| / |A ∪ B|`` in [0, 1]."""

    # -- aggregation (Section 5.3 / Section 6) ---------------------------

    @abc.abstractmethod
    def union(self, other: "SetSynopsis") -> "SetSynopsis":
        """Return a synopsis approximating the union of both sets."""

    @abc.abstractmethod
    def intersect(self, other: "SetSynopsis") -> "SetSynopsis":
        """Return a synopsis approximating the intersection of both sets.

        May raise :class:`UnsupportedOperationError` (hash sketches).
        """

    # -- bookkeeping ------------------------------------------------------

    @property
    @abc.abstractmethod
    def size_in_bits(self) -> int:
        """Wire size of the synopsis payload in bits.

        Used by the network cost model and by the adaptive length
        allocator of Section 7.2.
        """

    @property
    @abc.abstractmethod
    def is_empty(self) -> bool:
        """True when no element has been added."""

    def check_compatible(self, other: "SetSynopsis") -> None:
        """Raise :class:`IncompatibleSynopsesError` unless combinable.

        The default implementation only checks the types match; concrete
        classes extend it with parameter checks (seed, length, ...).
        """
        if type(self) is not type(other):
            raise IncompatibleSynopsesError(
                f"cannot combine {type(self).__name__} with {type(other).__name__}"
            )
