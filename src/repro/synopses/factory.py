"""Named synopsis configurations and a budget-aware factory.

The paper compares synopses under a common *bit budget* and refers to
configurations by short labels: "MIPs 64" (64 permutations = 2048 bits at
32 bits/minimum), "BF 2048" (a 2048-bit Bloom filter), "HSs 32" (32
Flajolet–Martin bitmaps of 64 bits = 2048 bits).  This module gives those
labels a canonical, parseable form — ``"mips-64"``, ``"bf-2048"``,
``"hs-32"`` — so experiments and the adaptive-budget allocator
(Section 7.2) can construct synopses uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Sequence

import numpy as np

from .base import SetSynopsis
from .bloom import BloomFilter
from .hashing import pack_id_sets
from .hashsketch import HashSketch
from .loglog import REGISTER_BITS as LOGLOG_REGISTER_BITS
from .loglog import LogLogCounter
from .mips import BITS_PER_POSITION, MinWisePermutations

__all__ = ["SynopsisSpec", "KINDS"]

#: Recognized synopsis kinds: the three the paper studies (in the order
#: it introduces them) plus the LogLog counter it cites as the
#: space-improved successor of hash sketches [16].
KINDS = ("bloom", "hash-sketch", "mips", "loglog")

_DEFAULT_NUM_HASHES = 5
_DEFAULT_BITMAP_LENGTH = 64


@dataclass(frozen=True)
class SynopsisSpec:
    """A fully determined synopsis configuration.

    ``parameter`` is the kind-specific size knob: permutation count for
    MIPs, bit length for Bloom filters, bitmap count for hash sketches —
    matching the numeric part of the paper's labels.
    """

    kind: str
    parameter: int
    seed: int = 0
    num_hashes: int = _DEFAULT_NUM_HASHES
    bitmap_length: int = _DEFAULT_BITMAP_LENGTH

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown synopsis kind {self.kind!r}; choose from {KINDS}")
        if self.parameter <= 0:
            raise ValueError(f"size parameter must be positive, got {self.parameter}")

    # -- parsing / formatting ---------------------------------------------

    @classmethod
    def parse(cls, label: str, *, seed: int = 0) -> "SynopsisSpec":
        """Parse ``"mips-64"``-style labels (case-insensitive).

        Accepted prefixes: ``mips``, ``bf``/``bloom``, ``hs``/``hash-sketch``.
        """
        text = label.strip().lower()
        prefix, _, number = text.rpartition("-")
        if not prefix or not number.isdigit():
            raise ValueError(
                f"cannot parse synopsis label {label!r}; expected e.g. 'mips-64'"
            )
        aliases = {
            "mips": "mips",
            "bf": "bloom",
            "bloom": "bloom",
            "hs": "hash-sketch",
            "hss": "hash-sketch",
            "hash-sketch": "hash-sketch",
            "ll": "loglog",
            "loglog": "loglog",
        }
        if prefix not in aliases:
            raise ValueError(f"unknown synopsis kind prefix {prefix!r} in {label!r}")
        return cls(kind=aliases[prefix], parameter=int(number), seed=seed)

    @classmethod
    def of(cls, synopsis: SetSynopsis) -> "SynopsisSpec":
        """Recover the configuration a concrete synopsis was built with.

        Every family's parameters are readable from the instance, so a
        deserialized synopsis can be matched back to a spec (used by the
        histogram wire format and by diagnostics).
        """
        if isinstance(synopsis, MinWisePermutations):
            return cls(
                kind="mips",
                parameter=synopsis.num_permutations,
                seed=synopsis.seed,
            )
        if isinstance(synopsis, BloomFilter):
            return cls(
                kind="bloom",
                parameter=synopsis.num_bits,
                seed=synopsis.seed,
                num_hashes=synopsis.num_hashes,
            )
        if isinstance(synopsis, HashSketch):
            return cls(
                kind="hash-sketch",
                parameter=synopsis.num_bitmaps,
                seed=synopsis.seed,
                bitmap_length=synopsis.bitmap_length,
            )
        if isinstance(synopsis, LogLogCounter):
            return cls(
                kind="loglog",
                parameter=synopsis.num_buckets,
                seed=synopsis.seed,
            )
        raise ValueError(
            f"cannot derive a spec from {type(synopsis).__name__}"
        )

    @classmethod
    def for_budget(cls, kind: str, budget_bits: int, *, seed: int = 0) -> "SynopsisSpec":
        """Largest configuration of ``kind`` fitting in ``budget_bits``.

        This is the equal-budget comparison rule of Section 3.3 ("we
        restricted all techniques to a synopsis size of 2,048 bits, and
        from this space constraint we derived the parameters").
        """
        if budget_bits <= 0:
            raise ValueError(f"budget_bits must be positive, got {budget_bits}")
        if kind == "mips":
            parameter = max(1, budget_bits // BITS_PER_POSITION)
        elif kind == "bloom":
            parameter = budget_bits
        elif kind == "hash-sketch":
            parameter = max(1, budget_bits // _DEFAULT_BITMAP_LENGTH)
        elif kind == "loglog":
            parameter = max(1, budget_bits // LOGLOG_REGISTER_BITS)
        else:
            raise ValueError(f"unknown synopsis kind {kind!r}; choose from {KINDS}")
        return cls(kind=kind, parameter=parameter, seed=seed)

    @property
    def label(self) -> str:
        """Paper-style display label, e.g. ``"MIPs 64"``."""
        names = {
            "mips": "MIPs",
            "bloom": "BF",
            "hash-sketch": "HSs",
            "loglog": "LL",
        }
        return f"{names[self.kind]} {self.parameter}"

    @property
    def size_in_bits(self) -> int:
        """Wire size of synopses this spec builds."""
        if self.kind == "mips":
            return self.parameter * BITS_PER_POSITION
        if self.kind == "bloom":
            return self.parameter
        if self.kind == "loglog":
            return self.parameter * LOGLOG_REGISTER_BITS
        return self.parameter * self.bitmap_length

    # -- construction -----------------------------------------------------

    def _family(self) -> tuple[type[SetSynopsis], dict[str, Any]]:
        """The synopsis class this spec builds and its ``from_ids`` params."""
        if self.kind == "mips":
            return MinWisePermutations, {
                "num_permutations": self.parameter,
                "seed": self.seed,
            }
        if self.kind == "bloom":
            return BloomFilter, {
                "num_bits": self.parameter,
                "num_hashes": self.num_hashes,
                "seed": self.seed,
            }
        if self.kind == "loglog":
            return LogLogCounter, {"num_buckets": self.parameter, "seed": self.seed}
        return HashSketch, {
            "num_bitmaps": self.parameter,
            "bitmap_length": self.bitmap_length,
            "seed": self.seed,
        }

    def build(self, ids: Iterable[int]) -> SetSynopsis:
        """Construct a synopsis of ``ids`` per this configuration."""
        cls, params = self._family()
        return cls.from_ids(ids, **params)

    def build_batch(self, id_sets: Iterable[Iterable[int]]) -> list[SetSynopsis]:
        """One synopsis per id set, equal to ``[self.build(s) for s in id_sets]``.

        Bloom filters and MIPs hash the whole batch in one vectorized
        pass; the other families map :meth:`build`.
        """
        return self.build_packed(*pack_id_sets(id_sets))

    def build_packed(
        self, flat_ids: np.ndarray, counts: Sequence[int] | np.ndarray
    ) -> list[SetSynopsis]:
        """:meth:`build_batch` over already packed ids.

        ``flat_ids`` (uint64) holds every set's ids back to back,
        ``counts[i]`` of them for set ``i``; callers that generate ids
        stream them straight into this form instead of holding sets.
        """
        cls, params = self._family()
        return cls.from_id_batch(flat_ids, counts, **params)

    def empty(self) -> SetSynopsis:
        """An empty synopsis of this configuration (IQN's initial reference)."""
        return self.build(())

    def resized(self, parameter: int) -> "SynopsisSpec":
        """Copy of this spec with a different size parameter.

        Used by the Section 7.2 budget allocator, which assigns each term
        its own synopsis length.
        """
        return SynopsisSpec(
            kind=self.kind,
            parameter=parameter,
            seed=self.seed,
            num_hashes=self.num_hashes,
            bitmap_length=self.bitmap_length,
        )

    @property
    def supports_heterogeneous_sizes(self) -> bool:
        """True for MIPs only (Section 3.4's fourth criterion)."""
        return self.kind == "mips"

    @property
    def supports_intersection(self) -> bool:
        """True unless the kind is a cardinality-only counter family
        (hash sketches and LogLog, Section 3.4)."""
        return self.kind not in ("hash-sketch", "loglog")
