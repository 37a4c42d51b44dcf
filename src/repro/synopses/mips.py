"""Min-wise independent permutations (Broder et al.) as collection synopses.

A MIPs synopsis stores, for each of ``N`` shared random linear
permutations ``h_i(x) = (a_i x + b_i) mod U``, the minimum permuted value
over the summarized set (Figure 1 of the paper).  Its key properties:

- **Resemblance** ``|A ∩ B| / |A ∪ B|`` is estimated *unbiasedly* by the
  fraction of vector positions where two synopses agree, because under a
  random permutation every element of ``A ∪ B`` is equally likely to be
  the minimum, and the minima agree exactly when that element lies in
  ``A ∩ B``.
- **Union** is exact on the synopsis level: position-wise minimum.
- **Intersection** has a conservative heuristic: position-wise maximum
  (Section 6.1 — the true minimum over ``A ∩ B`` can be no smaller than
  the max of the two per-set minima).
- **Heterogeneous lengths** work: two vectors built from the same hash
  family are comparable on their common prefix of permutations
  (Section 5.3), the property that distinguishes MIPs from Bloom filters
  and hash sketches in a loosely coupled P2P network.

Implementation notes
--------------------
Building a synopsis evaluates ``N`` linear hashes over the whole id set;
we vectorize this with NumPy, over a whole batch of sets at once
(:func:`mips_minima_rows`).  To keep ``a * x + b`` inside unsigned
64-bit arithmetic we first scramble ids with SplitMix64 and fold them to
31 bits, then permute within ``Z_p`` for the Mersenne prime
``p = 2^31 - 1``.  The 31-bit fold introduces a ~``n^2 / 2^32`` chance of
id collisions, which is far below the sketch's own estimation error for
the collection sizes of interest (up to a few million).

Positions never touched (empty set) hold the sentinel value ``p`` itself,
which is one larger than any achievable hash and is the neutral element
of the position-wise ``min``.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .base import IncompatibleSynopsesError, SetSynopsis
from .hashing import LinearHashFamily, ids_to_uint64_array, segment_rows

__all__ = [
    "MinWisePermutations",
    "MIPS_MODULUS",
    "BITS_PER_POSITION",
    "pack_minima_row",
    "pack_minima_rows",
    "batch_match_counts",
    "mips_minima_rows",
    "PERMUTED_BUDGET",
]

#: Modulus of the MIPs permutation family: the Mersenne prime 2^31 - 1.
MIPS_MODULUS = (1 << 31) - 1

#: Cap on the elements of the ``(permutations x ids)`` matrix one step of
#: :func:`mips_minima_rows` holds (8 MB of uint64), however many ids the
#: batch carries.
PERMUTED_BUDGET = 1 << 20

#: Wire width we account per stored minimum.  The paper equates 64
#: permutations with 2048 bits, i.e. 32 bits per position.
BITS_PER_POSITION = 32

_FAMILY_CACHE: dict[int, LinearHashFamily] = {}


def _family(seed: int) -> LinearHashFamily:
    """Return the (process-wide) permutation family for ``seed``.

    The family is the paper's "same sequence of hash functions" that all
    peers agree on; caching it makes repeated synopsis construction cheap
    and guarantees identical permutations across peers in one simulation.
    """
    family = _FAMILY_CACHE.get(seed)
    if family is None:
        family = LinearHashFamily(seed=seed, modulus=MIPS_MODULUS)
        _FAMILY_CACHE[seed] = family
    return family


_COEFFICIENT_CACHE: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}


def _coefficients(seed: int, num_permutations: int) -> tuple[np.ndarray, np.ndarray]:
    """``(a, b)`` of the first ``N`` permutations as ``(N, 1)`` uint64 columns."""
    key = (seed, num_permutations)
    cached = _COEFFICIENT_CACHE.get(key)
    if cached is None:
        permutations = _family(seed).permutations(num_permutations)
        cached = (
            np.array([[p.a] for p in permutations], dtype=np.uint64),
            np.array([[p.b] for p in permutations], dtype=np.uint64),
        )
        _COEFFICIENT_CACHE[key] = cached
    return cached


def pack_minima_row(synopsis: "MinWisePermutations") -> np.ndarray:
    """One MIPs vector as an ``int64`` row (sentinel ``p`` for empties)."""
    return np.fromiter(
        synopsis._minima, dtype=np.int64, count=len(synopsis._minima)
    )


def pack_minima_rows(
    synopses: Sequence["MinWisePermutations | None"], num_permutations: int
) -> np.ndarray:
    """Stack MIPs vectors into a ``(C, N)`` int64 matrix.

    ``None`` entries become all-sentinel rows (the empty synopsis), so
    row indices stay aligned with the candidate list.
    """
    rows = np.full((len(synopses), num_permutations), MIPS_MODULUS, dtype=np.int64)
    for index, synopsis in enumerate(synopses):
        if synopsis is not None:
            rows[index] = pack_minima_row(synopsis)
    return rows


def batch_match_counts(rows: np.ndarray, reference_row: np.ndarray) -> np.ndarray:
    """Per-row count of positions matching the reference (sentinels excluded).

    Vectorized core of :meth:`MinWisePermutations.estimate_resemblance`:
    ``matches / N`` is the resemblance estimate, so one pass over the
    matrix replaces C Python-level zip loops.
    """
    return ((rows == reference_row) & (reference_row != MIPS_MODULUS)).sum(
        axis=1, dtype=np.int64
    )


def _scramble_to_31_bits(ids: np.ndarray) -> np.ndarray:
    """SplitMix64-mix ``ids`` (uint64) and keep the top 31 bits."""
    x = ids + np.uint64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    x = x ^ (x >> np.uint64(31))
    return x >> np.uint64(33)


def mips_minima_rows(
    flat_ids: np.ndarray,
    counts: Sequence[int] | np.ndarray,
    num_permutations: int,
    seed: int,
) -> np.ndarray:
    """MIPs vectors of many id sets as a ``(C, N)`` int64 matrix.

    ``flat_ids`` (uint64) holds the ids of all ``C = len(counts)`` sets
    back to back, ``counts[i]`` of them for set ``i``.  The ids are
    permuted in slices of at most ``PERMUTED_BUDGET // N`` ids; within a
    slice a segmented ``minimum.reduceat`` takes each set's minima and
    folds them into its row, so a set split across slices still gets
    its exact minimum.  Empty sets keep the sentinel row.
    """
    minima = np.full(
        (len(counts), num_permutations), MIPS_MODULUS, dtype=np.int64
    )
    if flat_ids.size == 0:
        return minima
    keys = _scramble_to_31_bits(flat_ids)
    row_of_id = segment_rows(counts)
    coeff_a, coeff_b = _coefficients(seed, num_permutations)
    modulus = np.uint64(MIPS_MODULUS)
    step = max(1, PERMUTED_BUDGET // num_permutations)
    for low in range(0, keys.size, step):
        rows = row_of_id[low : low + step]
        # (N, slice) permuted values; a*key < 2^62 so uint64 is exact.
        permuted = coeff_a * keys[low : low + step]
        permuted += coeff_b
        permuted %= modulus
        starts = np.flatnonzero(rows[1:] != rows[:-1]) + 1
        starts = np.concatenate((np.zeros(1, dtype=np.intp), starts))
        touched = rows[starts]
        segment_minima = np.minimum.reduceat(permuted, starts, axis=1)
        minima[touched] = np.minimum(
            minima[touched], segment_minima.T.astype(np.int64)
        )
    return minima


class MinWisePermutations(SetSynopsis):
    """Immutable MIPs vector of ``num_permutations`` minima."""

    __slots__ = ("_minima", "_seed", "_cardinality")

    def __init__(self, minima: Sequence[int], seed: int = 0) -> None:
        if len(minima) == 0:
            raise ValueError("a MIPs synopsis needs at least one permutation")
        bad = [m for m in minima if not 0 <= m <= MIPS_MODULUS]
        if bad:
            raise ValueError(f"minima out of range [0, {MIPS_MODULUS}]: {bad[:3]}")
        self._minima = tuple(int(m) for m in minima)
        self._seed = seed
        self._cardinality: float | None = None

    # -- construction ----------------------------------------------------

    @classmethod
    def from_ids(  # type: ignore[override]
        cls,
        ids: Iterable[int],
        *,
        num_permutations: int = 64,
        seed: int = 0,
    ) -> "MinWisePermutations":
        """Build a MIPs vector over ``ids`` with ``num_permutations`` hashes.

        A batch of one through :meth:`from_id_batch`'s kernel.
        """
        id_array = ids_to_uint64_array(ids)
        return cls.from_id_batch(
            id_array,
            [id_array.size],
            num_permutations=num_permutations,
            seed=seed,
        )[0]

    @classmethod
    def from_id_batch(  # type: ignore[override]
        cls,
        flat_ids: np.ndarray,
        counts: Sequence[int] | np.ndarray,
        *,
        num_permutations: int = 64,
        seed: int = 0,
    ) -> "list[MinWisePermutations]":
        """One MIPs vector per set of a packed batch.

        See :func:`mips_minima_rows` for the kernel.
        """
        if num_permutations <= 0:
            raise ValueError(
                f"num_permutations must be positive, got {num_permutations}"
            )
        rows = mips_minima_rows(flat_ids, counts, num_permutations, seed)
        return [cls._from_kernel(tuple(row.tolist()), seed) for row in rows]

    @classmethod
    def _from_kernel(
        cls, minima: tuple[int, ...], seed: int
    ) -> "MinWisePermutations":
        """Wrap kernel minima (Python ints in ``[0, p]``) without re-checking."""
        synopsis = cls.__new__(cls)
        synopsis._minima = minima
        synopsis._seed = seed
        synopsis._cardinality = None
        return synopsis

    def empty_like(self) -> "MinWisePermutations":
        return MinWisePermutations([MIPS_MODULUS] * len(self._minima), self._seed)

    # -- estimation ------------------------------------------------------

    def estimate_resemblance(self, other: SetSynopsis) -> float:
        """Fraction of agreeing positions over the common prefix."""
        self.check_compatible(other)
        assert isinstance(other, MinWisePermutations)
        common = min(len(self._minima), len(other._minima))
        if self.is_empty or other.is_empty:
            return 0.0
        matches = sum(
            1
            for a, b in zip(self._minima[:common], other._minima[:common])
            if a == b and a != MIPS_MODULUS
        )
        return matches / common

    def estimate_cardinality(self) -> float:
        """Order-statistics cardinality estimate from the minima.

        Each minimum of ``n`` i.i.d. uniforms on ``[0, p)`` has expectation
        ``p / (n + 1)``, so ``n ≈ N / sum(min_i / p) - 1``.  Far noisier
        than the resemblance estimator — MINERVA posts carry exact index
        list lengths — but available when only the synopsis survives.
        """
        if self._cardinality is not None:
            return self._cardinality
        if self.is_empty:
            estimate = 0.0
        else:
            total = sum(m / MIPS_MODULUS for m in self._minima)
            estimate = (
                float("inf")
                if total <= 0.0
                else max(0.0, len(self._minima) / total - 1.0)
            )
        self._cardinality = estimate
        return estimate

    @property
    def distinct_fraction(self) -> float:
        """Fraction of distinct values among the stored minima.

        The paper (Section 3.2) notes this ratio on an aggregated vector
        gives a (biased) estimate related to the aggregate's cardinality.
        """
        filled = [m for m in self._minima if m != MIPS_MODULUS]
        if not filled:
            return 0.0
        return len(set(filled)) / len(self._minima)

    # -- aggregation -----------------------------------------------------

    def union(self, other: SetSynopsis) -> "MinWisePermutations":
        """Position-wise minimum over the common permutation prefix."""
        self.check_compatible(other)
        assert isinstance(other, MinWisePermutations)
        common = min(len(self._minima), len(other._minima))
        merged = [
            min(a, b) for a, b in zip(self._minima[:common], other._minima[:common])
        ]
        return MinWisePermutations(merged, self._seed)

    def intersect(self, other: SetSynopsis) -> "MinWisePermutations":
        """Conservative position-wise maximum heuristic (Section 6.1)."""
        self.check_compatible(other)
        assert isinstance(other, MinWisePermutations)
        common = min(len(self._minima), len(other._minima))
        merged = [
            max(a, b) for a, b in zip(self._minima[:common], other._minima[:common])
        ]
        return MinWisePermutations(merged, self._seed)

    # -- bookkeeping -----------------------------------------------------

    @property
    def minima(self) -> tuple[int, ...]:
        return self._minima

    @property
    def num_permutations(self) -> int:
        return len(self._minima)

    @property
    def seed(self) -> int:
        return self._seed

    @property
    def size_in_bits(self) -> int:
        return BITS_PER_POSITION * len(self._minima)

    @property
    def is_empty(self) -> bool:
        return all(m == MIPS_MODULUS for m in self._minima)

    def check_compatible(self, other: SetSynopsis) -> None:
        super().check_compatible(other)
        assert isinstance(other, MinWisePermutations)
        if self._seed != other._seed:
            raise IncompatibleSynopsesError(
                f"MIPs hash-family seeds differ: {self._seed} vs {other._seed}"
            )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MinWisePermutations):
            return NotImplemented
        return self._seed == other._seed and self._minima == other._minima

    def __hash__(self) -> int:
        return hash((self._seed, self._minima))

    def __repr__(self) -> str:
        return (
            f"MinWisePermutations(N={len(self._minima)}, seed={self._seed}, "
            f"empty={self.is_empty})"
        )
