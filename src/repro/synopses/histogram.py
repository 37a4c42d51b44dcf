"""Score-histogram synopses for score-conscious novelty (Section 7.1).

In ranked retrieval the interesting overlap is among the *high-scoring*
portions of index lists, not the full document sets.  The paper proposes
building one ordinary set synopsis per *histogram cell*, where each cell
covers a score range of the index list.  Novelty between two peers is
then a weighted sum of per-cell novelties, weighting high-score cells
more.

This module provides the composite data structure: equal-width score
cells over ``[0, 1]`` (scores are normalized), each holding a synopsis of
the docIDs whose score falls in the cell, plus the exact per-cell counts
known at build time.  The *weighted novelty* computation itself lives in
:mod:`repro.core.histogram_routing`, keeping this package free of routing
logic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .base import IncompatibleSynopsesError, SetSynopsis
from .factory import SynopsisSpec

__all__ = ["ScoreHistogramSynopsis", "cell_index"]


def cell_index(score: float, num_cells: int) -> int:
    """Map a normalized score in ``[0, 1]`` to its cell index.

    Cell ``i`` covers ``[i / num_cells, (i + 1) / num_cells)``; a score of
    exactly 1.0 belongs to the top cell.
    """
    if not 0.0 <= score <= 1.0:
        raise ValueError(f"scores must be normalized to [0, 1], got {score}")
    if num_cells <= 0:
        raise ValueError(f"num_cells must be positive, got {num_cells}")
    return min(int(score * num_cells), num_cells - 1)


@dataclass(frozen=True)
class ScoreHistogramSynopsis:
    """Per-score-cell synopses of one index list.

    Attributes
    ----------
    cells:
        ``num_cells`` synopses, low-score cell first.
    cell_cardinalities:
        Exact (at build time) or estimated (after aggregation) number of
        documents per cell.
    spec:
        The synopsis configuration every cell was built with; cells of
        two histograms are only combinable when their specs agree.
    """

    cells: tuple[SetSynopsis, ...]
    cell_cardinalities: tuple[float, ...]
    spec: SynopsisSpec

    def __post_init__(self) -> None:
        if not self.cells:
            raise ValueError("a histogram synopsis needs at least one cell")
        if len(self.cells) != len(self.cell_cardinalities):
            raise ValueError(
                f"{len(self.cells)} cells but "
                f"{len(self.cell_cardinalities)} cardinalities"
            )
        if any(c < 0 for c in self.cell_cardinalities):
            raise ValueError("cell cardinalities must be >= 0")

    # -- construction ----------------------------------------------------

    @classmethod
    def from_scored_ids(
        cls,
        scored_ids: Iterable[tuple[int, float]],
        *,
        spec: SynopsisSpec,
        num_cells: int = 4,
    ) -> "ScoreHistogramSynopsis":
        """Build from ``(doc_id, normalized_score)`` pairs.

        The per-cell synopsis budget is whatever ``spec`` prescribes; a
        caller wanting a fixed *total* budget should downsize the spec by
        ``num_cells`` first (see ``SynopsisSpec.for_budget``).
        """
        buckets: list[list[int]] = [[] for _ in range(num_cells)]
        for doc_id, score in scored_ids:
            buckets[cell_index(score, num_cells)].append(doc_id)
        cells = tuple(spec.build_batch(buckets))
        cardinalities = tuple(float(len(bucket)) for bucket in buckets)
        return cls(cells=cells, cell_cardinalities=cardinalities, spec=spec)

    @classmethod
    def empty(cls, *, spec: SynopsisSpec, num_cells: int = 4) -> "ScoreHistogramSynopsis":
        """An all-empty histogram (IQN's initial reference)."""
        return cls(
            cells=tuple(spec.empty() for _ in range(num_cells)),
            cell_cardinalities=(0.0,) * num_cells,
            spec=spec,
        )

    # -- aggregation -----------------------------------------------------

    def union(
        self,
        other: "ScoreHistogramSynopsis",
        merged_cardinalities: Sequence[float] | None = None,
    ) -> "ScoreHistogramSynopsis":
        """Cell-wise union with ``other``.

        Exact union cardinalities are unknowable from synopses alone, so
        callers that track per-cell estimates (the IQN reference update)
        pass them via ``merged_cardinalities``; otherwise the upper bound
        ``card_a + card_b`` is recorded.
        """
        self.check_compatible(other)
        cells = tuple(a.union(b) for a, b in zip(self.cells, other.cells))
        if merged_cardinalities is None:
            merged_cardinalities = [
                a + b
                for a, b in zip(self.cell_cardinalities, other.cell_cardinalities)
            ]
        if len(merged_cardinalities) != len(cells):
            raise ValueError(
                f"expected {len(cells)} merged cardinalities, "
                f"got {len(merged_cardinalities)}"
            )
        return ScoreHistogramSynopsis(
            cells=cells,
            cell_cardinalities=tuple(float(c) for c in merged_cardinalities),
            spec=self.spec,
        )

    # -- bookkeeping -----------------------------------------------------

    @property
    def num_cells(self) -> int:
        return len(self.cells)

    @property
    def total_cardinality(self) -> float:
        return sum(self.cell_cardinalities)

    @property
    def size_in_bits(self) -> int:
        return sum(cell.size_in_bits for cell in self.cells)

    def cell_midpoint_score(self, index: int) -> float:
        """Midpoint of cell ``index``'s score range — the default weight."""
        if not 0 <= index < self.num_cells:
            raise IndexError(f"cell index {index} out of range")
        return (index + 0.5) / self.num_cells

    def check_compatible(self, other: "ScoreHistogramSynopsis") -> None:
        if self.num_cells != other.num_cells:
            raise IncompatibleSynopsesError(
                f"histogram cell counts differ: {self.num_cells} vs {other.num_cells}"
            )
        if self.spec != other.spec:
            raise IncompatibleSynopsesError(
                f"histogram cell specs differ: {self.spec} vs {other.spec}"
            )
