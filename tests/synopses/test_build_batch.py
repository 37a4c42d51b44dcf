"""Batched synopsis builds: ``build_batch`` equals per-set ``build``.

``SynopsisSpec.build_batch`` hashes a whole batch of id sets in one
vectorized pass (Bloom filters, MIPs) or maps ``from_ids`` (hash
sketches, LogLog).  Its contract is bit-identity with the per-set path,
compared here both on equality and on the packed wire payload, plus
scalar oracles for the two vectorized kernels.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.synopses.bloom import BloomFilter, bloom_word_rows, pack_bit_row
from repro.synopses import mips
from repro.synopses.factory import SynopsisSpec
from repro.synopses.hashing import pack_id_sets, splitmix64
from repro.synopses.mips import (
    MIPS_MODULUS,
    PERMUTED_BUDGET,
    MinWisePermutations,
    _family,
    mips_minima_rows,
)
from repro.synopses.wire import dumps

LABELS = ("bf-2048", "bf-61", "mips-64", "mips-5", "hs-32", "ll-64")

#: Small ids (so duplicates are frequent) mixed with ids that wrap
#: through ``ids_to_uint64_array``: negative and >= 2^64.
ids = st.one_of(
    st.integers(min_value=0, max_value=20),
    st.integers(min_value=-(1 << 70), max_value=1 << 70),
)
id_lists = st.lists(ids, max_size=40)


def _with_empties(sets: list[list[int]]) -> list[list[int]]:
    middle = len(sets) // 2
    return [[], *sets[:middle], [], *sets[middle:], []]


#: Batches always carry an empty set at the start, middle and end.
batches = st.lists(id_lists, max_size=10).map(_with_empties)

UNEQUAL = [[7], list(range(-50, 3000)), [], [1, 1, 1], [1 << 64, -1]]


def _assert_batch_matches(spec: SynopsisSpec, sets: list[list[int]]) -> None:
    batched = spec.build_batch(sets)
    single = [spec.build(s) for s in sets]
    assert batched == single
    assert [dumps(s) for s in batched] == [dumps(s) for s in single]


@pytest.mark.parametrize("label", LABELS)
@given(sets=batches)
@settings(max_examples=40, deadline=None)
@example(sets=[[], [5], [], [5, 5, 5, 5], []])
@example(sets=UNEQUAL)
def test_build_batch_equals_per_set_build(label, sets):
    _assert_batch_matches(SynopsisSpec.parse(label, seed=3), sets)


@pytest.mark.parametrize("label", LABELS)
def test_build_packed_equals_build_batch(label):
    spec = SynopsisSpec.parse(label, seed=1)
    flat, counts = pack_id_sets(UNEQUAL)
    assert spec.build_packed(flat, counts) == spec.build_batch(UNEQUAL)


@pytest.mark.parametrize("label", LABELS)
def test_empty_batch(label):
    assert SynopsisSpec.parse(label).build_batch([]) == []


def test_pack_id_sets_wraps_like_single_builds():
    flat, counts = pack_id_sets([[1 << 64, -1], [], [3]])
    assert flat.dtype == np.uint64
    assert flat.tolist() == [0, (1 << 64) - 1, 3]
    assert counts.tolist() == [2, 0, 1]


class TestBloomKernel:
    @given(sets=batches, seed=st.integers(min_value=0, max_value=1 << 20))
    @settings(max_examples=40, deadline=None)
    def test_rows_match_scalar_insertion(self, sets, seed):
        """Each row is the filter built by ``add``-ing ids one at a time."""
        flat, counts = pack_id_sets(sets)
        rows = bloom_word_rows(flat, counts, 100, 3, seed)
        for row, id_set in zip(rows, sets):
            scalar = BloomFilter(100, 3, seed)
            for doc_id in id_set:
                scalar = scalar.add(doc_id)
            assert row.tolist() == pack_bit_row(scalar.raw_bits, 100).tolist()

    def test_rejects_nonpositive_bits(self):
        flat, counts = pack_id_sets([[1]])
        with pytest.raises(ValueError):
            BloomFilter.from_id_batch(flat, counts, num_bits=0)


def _scalar_minima(id_set: list[int], num_permutations: int, seed: int) -> list[int]:
    """MIPs minima by the module's documented construction, one id at a time."""
    keys = [splitmix64(i & ((1 << 64) - 1)) >> 33 for i in id_set]
    return [
        min(((p.a * k + p.b) % MIPS_MODULUS for k in keys), default=MIPS_MODULUS)
        for p in _family(seed).permutations(num_permutations)
    ]


class TestMipsKernel:
    @given(
        sets=batches,
        budget=st.integers(min_value=1, max_value=400),
        seed=st.integers(min_value=0, max_value=1 << 20),
    )
    @settings(max_examples=60, deadline=None)
    @example(sets=UNEQUAL, budget=7, seed=0)
    def test_rows_cross_slice_boundaries(self, sets, budget, seed):
        """Any element budget — sets split across slices included — gives
        the scalar minima."""
        flat, counts = pack_id_sets(sets)
        with mock.patch.object(mips, "PERMUTED_BUDGET", budget):
            rows = mips_minima_rows(flat, counts, 6, seed)
        assert rows.dtype == np.int64
        assert rows.tolist() == [_scalar_minima(s, 6, seed) for s in sets]

    def test_default_budget_slices_match_single_builds(self):
        """A batch several default-budget slices long equals per-set builds
        and one unsliced pass."""
        spec = SynopsisSpec.parse("mips-64", seed=2)
        per_slice = PERMUTED_BUDGET // 64
        sets = [
            list(range(0, per_slice - 3)),
            [],
            list(range(10**9, 10**9 + 7)),
            list(range(5, 5 + 2 * per_slice)),
        ]
        _assert_batch_matches(spec, sets)
        flat, counts = pack_id_sets(sets)
        with mock.patch.object(mips, "PERMUTED_BUDGET", 64 * flat.size):
            unsliced = mips_minima_rows(flat, counts, 64, 2)
        assert [list(s.minima) for s in spec.build_batch(sets)] == unsliced.tolist()

    def test_rejects_zero_permutations(self):
        flat, counts = pack_id_sets([[1]])
        with pytest.raises(ValueError):
            MinWisePermutations.from_id_batch(flat, counts, num_permutations=0)
