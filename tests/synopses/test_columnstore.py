"""The packed column store: round-trips, invariants, and bit-identical
routing plans against the naive loop.

The columnar representation is only admissible because it is *exact*:
``materialize(pack(s)) == s`` for every family, and a routing plan
computed from the stored matrices equals — float for float — the plan
the naive Select-Best-Peer loop produces over the materialized Posts,
whether the lists share one peer-id table or are re-interned onto one.
These tests pin both properties.
"""

import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregation import PerPeerAggregation, PerTermAggregation
from repro.core.iqn import IQNRouter
from repro.datasets.queries import Query
from repro.minerva.posts import PeerList, Post
from repro.routing.base import LocalView, RoutingContext
from repro.synopses.bloom import BloomFilter
from repro.synopses.columnstore import (
    BloomColumn,
    HashSketchColumn,
    LogLogColumn,
    MipsColumn,
    PeerIdTable,
    TermColumns,
    column_for,
)
from repro.synopses.factory import SynopsisSpec
from repro.synopses.hashsketch import HashSketch
from repro.synopses.histogram import ScoreHistogramSynopsis
from repro.synopses.loglog import LogLogCounter
from repro.synopses.mips import MinWisePermutations

id_sets = st.sets(st.integers(min_value=0, max_value=1 << 40), max_size=200)

FAMILIES = {
    "bloom": lambda ids: BloomFilter.from_ids(ids, num_bits=512, num_hashes=4),
    "mips": lambda ids: MinWisePermutations.from_ids(ids, num_permutations=32),
    "hash-sketch": lambda ids: HashSketch.from_ids(
        ids, num_bitmaps=16, bitmap_length=32
    ),
    "loglog": lambda ids: LogLogCounter.from_ids(ids, num_buckets=32),
}


class TestPeerIdTable:
    def test_intern_is_stable_and_lookup_inverts(self):
        table = PeerIdTable()
        a = table.intern("peer-a")
        b = table.intern("peer-b")
        assert a != b
        assert table.intern("peer-a") == a
        assert table.lookup("peer-b") == b
        assert table.lookup("peer-zzz") is None
        assert table.name(a) == "peer-a"
        assert len(table) == 2

    def test_names_array_tracks_growth(self):
        table = PeerIdTable()
        table.intern("x")
        first = table.names_array()
        assert first.tolist() == ["x"]
        table.intern("y")
        assert table.names_array().tolist() == ["x", "y"]

    def test_pickle_round_trip(self):
        table = PeerIdTable()
        for name in ("c", "a", "b"):
            table.intern(name)
        clone = pickle.loads(pickle.dumps(table))
        assert len(clone) == 3
        assert clone.lookup("a") == table.lookup("a")
        assert clone.names_array().tolist() == table.names_array().tolist()


class TestPackRoundTrip:
    """materialize(pack(s)) == s, bit for bit, for every family."""

    @given(id_sets)
    @settings(max_examples=40)
    def test_bloom(self, ids):
        synopsis = FAMILIES["bloom"](ids)
        column = column_for(synopsis)
        assert isinstance(column, BloomColumn)
        column.set_row(0, synopsis)
        assert column.materialize(0) == synopsis

    @given(id_sets)
    @settings(max_examples=40)
    def test_mips(self, ids):
        synopsis = FAMILIES["mips"](ids)
        column = column_for(synopsis)
        assert isinstance(column, MipsColumn)
        column.set_row(0, synopsis)
        assert column.materialize(0) == synopsis

    @given(id_sets)
    @settings(max_examples=40)
    def test_hash_sketch(self, ids):
        synopsis = FAMILIES["hash-sketch"](ids)
        column = column_for(synopsis)
        assert isinstance(column, HashSketchColumn)
        column.set_row(0, synopsis)
        assert column.materialize(0) == synopsis

    @given(id_sets)
    @settings(max_examples=40)
    def test_loglog(self, ids):
        synopsis = FAMILIES["loglog"](ids)
        column = column_for(synopsis)
        assert isinstance(column, LogLogColumn)
        column.set_row(0, synopsis)
        assert column.materialize(0) == synopsis

    def test_wide_sketch_bitmaps_are_not_packable(self):
        class Wide(HashSketch):
            pass

        base = HashSketch.from_ids([1, 2], num_bitmaps=4, bitmap_length=64)
        assert column_for(base) is not None
        subclassed = Wide(4, 64, 0, list(base.bitmaps))
        assert column_for(subclassed) is None

    def test_neutral_rows_materialize_as_empty(self):
        empty = FAMILIES["mips"](set())
        column = column_for(FAMILIES["mips"]({1, 2, 3}))
        assert column is not None
        assert column.materialize(0) == empty  # untouched row

    def test_gather_masks_to_neutral(self):
        synopsis = FAMILIES["bloom"]({1, 2, 3})
        column = column_for(synopsis)
        assert column is not None
        column.set_row(0, synopsis)
        rows = np.array([0, -1, 0], dtype=np.int64)
        mask = np.array([True, True, False])
        gathered = column.gather(rows, mask)
        assert gathered[0].tolist() == column._matrix[0].tolist()
        assert not gathered[1].any()  # absent row -> neutral
        assert not gathered[2].any()  # masked row -> neutral


class TestTermColumns:
    def make(self):
        return TermColumns("alpha", PeerIdTable())

    def post_args(self, peer, cdf, synopsis=None):
        return (peer, cdf, float(cdf), cdf / 2.0, 1000, synopsis, None)

    def test_upsert_overwrites_in_place(self):
        columns = self.make()
        row = columns.upsert(*self.post_args("p1", 10))
        assert columns.upsert(*self.post_args("p1", 25)) == row
        assert len(columns) == 1
        assert columns.cdf_values().tolist() == [25]

    def test_remove_swaps_last_and_clears_vacated(self):
        columns = self.make()
        synopsis = FAMILIES["bloom"]({1, 2, 3})
        for peer in ("p1", "p2", "p3"):
            columns.upsert(*self.post_args(peer, 5, synopsis))
        assert columns.remove("p1")
        assert len(columns) == 2
        survivors = {
            columns.table.name(i) for i in columns.interned_ids().tolist()
        }
        assert survivors == {"p2", "p3"}
        # The vacated physical slot holds neutral payloads.
        column = columns.synopsis_column
        assert column is not None
        assert not column._matrix[2].any()
        assert not columns.remove("p1")
        assert not columns.remove("ghost")

    def test_rows_stay_dense_after_removal(self):
        columns = self.make()
        for index in range(10):
            columns.upsert(*self.post_args(f"p{index}", index + 1))
        for peer in ("p0", "p5", "p9"):
            columns.remove(peer)
        assert len(columns) == 7
        interned = columns.interned_ids()
        for position, value in enumerate(interned.tolist()):
            assert columns.row_for(value) == position

    def test_quality_order_matches_sorted_and_is_cached(self):
        columns = self.make()
        rng = random.Random(11)
        posts = []
        for index in range(30):
            peer = f"p{index:02d}"
            cdf = rng.randrange(1, 50)
            max_score = rng.choice([0.5, 1.0, 1.5])  # force score ties
            columns.upsert(peer, cdf, max_score, 0.1, 100, None, None)
            posts.append((max_score, cdf, peer))
        order = columns.quality_order()
        assert columns.quality_order() is order  # cached
        expected = sorted(posts, reverse=True)
        names = columns.table.names_array()[columns.interned_ids()]
        got = [
            (
                float(columns.max_scores()[row]),
                int(columns.cdf_values()[row]),
                str(names[row]),
            )
            for row in order.tolist()
        ]
        assert got == expected
        columns.upsert(*self.post_args("zz", 99))
        assert columns.quality_order() is not order  # invalidated

    def test_peer_rows_inverse_tracks_table_growth(self):
        table = PeerIdTable()
        columns = TermColumns("alpha", table)
        columns.upsert("p1", 1, 1.0, 0.5, 10, None, None)
        assert columns.peer_rows(np.array([0], dtype=np.int64)).tolist() == [0]
        # Another term interns new peers into the shared table; the
        # cached inverse must grow with it.
        other = table.intern("p2")
        assert columns.peer_rows(
            np.array([other], dtype=np.int64)
        ).tolist() == [-1]

    def test_foreign_synopsis_breaks_purity(self):
        columns = self.make()
        columns.upsert(*self.post_args("p1", 5, FAMILIES["bloom"]({1})))
        assert columns.is_pure
        other_params = BloomFilter.from_ids({2}, num_bits=256, num_hashes=2)
        columns.upsert(*self.post_args("p2", 5, other_params))
        assert not columns.is_pure
        assert columns.synopsis_at(1) == other_params

    def test_pickle_round_trip_preserves_content(self):
        columns = self.make()
        synopsis = FAMILIES["mips"]({1, 2, 3})
        columns.upsert(*self.post_args("p1", 7, synopsis))
        clone = pickle.loads(pickle.dumps(columns))
        assert len(clone) == 1
        assert clone.synopsis_at(0) == synopsis
        assert clone.post_fields(0)[:2] == ("p1", 7)


#: Packs into no family column above: always a foreign synopsis.
FOREIGN = BloomFilter.from_ids({7, 8}, num_bits=256, num_hashes=2)
HISTOGRAM_SPEC = SynopsisSpec.parse("mips-8")


def mixed_list(family, *, peers=12, seed=3, table=None):
    """A stored-style list cycling packed, packed + histogram, foreign
    and absent synopses (the first row packs, fixing the column)."""
    rng = random.Random(seed)
    peer_list = PeerList(
        term="alpha", peer_table=table if table is not None else PeerIdTable()
    )
    for index in range(peers):
        docs = {rng.randrange(5000) for _ in range(rng.randrange(1, 40))}
        kind = index % 4
        synopsis = (
            FAMILIES[family](docs) if kind < 2 else FOREIGN if kind == 2 else None
        )
        histogram = (
            ScoreHistogramSynopsis.from_scored_ids(
                [(doc, rng.random()) for doc in sorted(docs)],
                spec=HISTOGRAM_SPEC,
                num_cells=2,
            )
            if kind == 1
            else None
        )
        peer_list.add(
            Post(
                peer_id=f"p{index:02d}",
                term="alpha",
                cdf=len(docs),
                max_score=rng.random(),
                avg_score=rng.random() / 2,
                term_space_size=rng.randrange(100, 900),
                synopsis=synopsis,
                histogram=histogram,
            ),
            retain=False,
        )
    return peer_list


def sliced(source, rows):
    return PeerList.from_columns(
        source.columns.take(np.asarray(rows, dtype=np.int64))
    )


class TestRowSlices:
    """``TermColumns.take`` / ``concat``: exact row gathers."""

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_rows_in_arbitrary_order(self, family):
        source = mixed_list(family)
        rows = [9, 0, 5, 2, 11, 6, 3]
        part = sliced(source, rows)
        posts = list(source)
        assert list(part) == [posts[row] for row in rows]
        assert list(part.posts) == [posts[row].peer_id for row in rows]
        assert part.size_in_bits == sum(posts[row].size_in_bits for row in rows)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_size_in_bits_is_sum_of_post_bits(self, family):
        source = mixed_list(family, peers=20)
        part = sliced(source, range(len(source)))
        assert part.size_in_bits == sum(post.size_in_bits for post in part)
        assert part.size_in_bits == source.size_in_bits

    def test_empty_and_single_row(self):
        source = mixed_list("bloom")
        empty = sliced(source, [])
        assert len(empty) == 0
        assert list(empty) == []
        assert empty.size_in_bits == 0
        single = sliced(source, [4])
        assert list(single) == [list(source)[4]]
        # Both grow like any list once written to.
        for part in (empty, single):
            for post in list(source)[:10]:
                part.add(post, retain=False)
        assert len(empty) == 10 and len(single) == 10

    def test_foreign_synopses_and_histograms_follow_their_rows(self):
        source = mixed_list("mips")
        assert not source.columns.is_pure
        packed = sliced(source, [0, 1, 4, 5])
        assert packed.columns.is_pure
        assert [post.histogram is not None for post in packed] == [
            False,
            True,
            False,
            True,
        ]
        foreign = sliced(source, [6, 1])
        assert not foreign.columns.is_pure
        assert [post.synopsis for post in foreign][0] == FOREIGN
        assert foreign.get("p01") == source.get("p01")

    def test_slice_mutation_leaves_source_untouched(self):
        source = mixed_list("hash-sketch")
        before = list(source)
        part = sliced(source, [3, 1, 2])
        replacement = Post(
            peer_id="p01", term="alpha", cdf=1, max_score=0.1, avg_score=0.1,
            term_space_size=5, synopsis=FAMILIES["hash-sketch"]({1}),
        )
        part.add(replacement, retain=False)
        part.add(before[8], retain=False)
        del part.posts["p03"]
        assert list(source) == before
        assert [post.peer_id for post in part] == ["p08", "p01", "p02"]
        assert part.get("p01") == replacement
        # ... and the other way round.
        del source.posts["p02"]
        source.add(replacement, retain=False)
        assert part.get("p02") == before[2]

    def test_pickle_round_trip(self):
        source = mixed_list("loglog")
        part = sliced(source, [7, 1, 2, 0])
        clone = pickle.loads(pickle.dumps(part))
        assert list(clone) == list(part)
        assert clone.size_in_bits == part.size_in_bits

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_reintern_remaps_ids_by_name(self, family):
        source = mixed_list(family)
        before = list(source)
        source_ids = source.columns.interned_ids().copy()
        table = PeerIdTable()
        table.intern("someone-else")
        table.intern("p05")
        moved = source.columns.reintern(table)
        assert moved.table is table
        names = [table.name(i) for i in moved.interned_ids().tolist()]
        assert names == [post.peer_id for post in before]
        assert moved.row_for(table.lookup("p05")) == 5
        assert table.lookup("p05") == 1 and len(table) == len(before) + 1
        # Row order, metadata, packed rows, foreign synopses and
        # histograms all follow their rows.
        copy = PeerList.from_columns(moved)
        assert list(copy) == before
        assert [post.histogram is not None for post in copy] == [
            post.histogram is not None for post in before
        ]
        assert not moved.is_pure
        np.testing.assert_array_equal(
            moved.synopsis_column.rows(len(moved)),
            source.columns.synopsis_column.rows(len(source)),
        )
        assert copy.size_in_bits == source.size_in_bits
        # The source keeps its table, ids and content, also after the
        # copy is written to.
        replacement = Post(
            peer_id="p03", term="alpha", cdf=1, max_score=0.1, avg_score=0.1,
            term_space_size=5, synopsis=FAMILIES[family]({1}),
        )
        copy.add(replacement, retain=False)
        del copy.posts["p00"]
        assert copy.get("p03") == replacement
        assert source.columns.table is not table
        np.testing.assert_array_equal(source.columns.interned_ids(), source_ids)
        assert list(source) == before

    def test_concat_joins_parts_in_order(self):
        table = PeerIdTable()
        source = mixed_list("bloom", table=table)
        left = source.columns.take(np.array([5, 1], dtype=np.int64))
        right = source.columns.take(np.array([0, 9, 2], dtype=np.int64))
        joined = PeerList.from_columns(
            TermColumns.concat("alpha", table, [left, right])
        )
        posts = list(source)
        assert list(joined) == [posts[row] for row in (5, 1, 0, 9, 2)]

    def test_concat_rejects_bad_parts(self):
        table = PeerIdTable()
        columns = mixed_list("bloom", table=table).columns
        part = columns.take(np.array([0, 1], dtype=np.int64))
        with pytest.raises(ValueError, match="repeat a peer"):
            TermColumns.concat("alpha", table, [part, part])
        with pytest.raises(ValueError, match="repeat a peer"):
            columns.take(np.array([3, 3], dtype=np.int64))
        with pytest.raises(ValueError, match="peer-id table"):
            TermColumns.concat("alpha", PeerIdTable(), [part])
        with pytest.raises(IndexError):
            columns.take(np.array([len(columns)], dtype=np.int64))
        with pytest.raises(IndexError):
            columns.take(np.array([-1], dtype=np.int64))
        other = mixed_list("mips", table=table).columns
        other_part = other.take(np.array([4], dtype=np.int64))
        with pytest.raises(ValueError, match="synopsis families"):
            TermColumns.concat("alpha", table, [part, other_part])


def seeded_lists(spec, *, peers=50, terms=("alpha", "beta", "gamma"), seed=42):
    """One shared-table and one equal private-table directory snapshot."""
    rng = random.Random(seed)
    table = PeerIdTable()
    shared = {t: PeerList(term=t, peer_table=table) for t in terms}
    posts_by_term = {t: [] for t in terms}
    for index in range(peers):
        peer = f"peer-{index:03d}"
        for term in terms:
            if rng.random() < 0.75:
                docs = frozenset(
                    rng.randrange(20000)
                    for _ in range(rng.randrange(1, 100))
                )
                posts_by_term[term].append(
                    Post(
                        peer_id=peer,
                        term=term,
                        cdf=len(docs),
                        max_score=rng.random(),
                        avg_score=rng.random() / 2,
                        term_space_size=rng.randrange(100, 9000),
                        synopsis=spec.build(docs),
                    )
                )
    for term in terms:
        for post in posts_by_term[term]:
            shared[term].add(post, retain=False)
    # Same content on per-list private tables: routing re-interns the
    # lists onto one table before the columnar kernels attach.
    private = {t: PeerList(term=t) for t in terms}
    for term in terms:
        for post in posts_by_term[term]:
            private[term].add(post)
    return shared, private


def make_context(lists, spec, *, conjunctive=False, peers=50):
    terms = tuple(lists)
    initiator = LocalView(
        peer_id="peer-000",
        result_doc_ids=frozenset(range(60)),
        doc_ids_by_term={t: frozenset(range(40)) for t in terms},
    )
    return RoutingContext(
        query=Query(query_id=1, terms=terms),
        peer_lists=lists,
        num_peers=peers,
        spec=spec,
        initiator=initiator,
        conjunctive=conjunctive,
    )


SPECS = [
    SynopsisSpec(kind="bloom", parameter=1024, seed=7),
    SynopsisSpec(kind="mips", parameter=64, seed=7),
    SynopsisSpec(kind="hash-sketch", parameter=32, seed=7),
    SynopsisSpec(kind="loglog", parameter=64, seed=7),
]


def plan_rows(plan):
    return [(s.peer_id, s.quality, s.novelty) for s in plan]


class TestBitIdenticalRouting:
    """Shared-table, re-interned and naive plans are equal exactly."""

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.kind)
    @pytest.mark.parametrize("conjunctive", [False, True], ids=["disj", "conj"])
    @pytest.mark.parametrize(
        "make_aggregation",
        [PerPeerAggregation, PerTermAggregation],
        ids=["perpeer", "perterm"],
    )
    def test_three_tiers_agree(self, spec, conjunctive, make_aggregation):
        shared, private = seeded_lists(spec)
        columnar_router = IQNRouter(make_aggregation())
        columnar = columnar_router.rank_detailed(
            make_context(shared, spec, conjunctive=conjunctive), 12
        )
        assert columnar_router.last_stats is not None
        assert columnar_router.last_stats.attach == "columns"
        private_router = IQNRouter(make_aggregation())
        private_plan = private_router.rank_detailed(
            make_context(private, spec, conjunctive=conjunctive), 12
        )
        assert private_router.last_stats is not None
        assert private_router.last_stats.attach == "columns"
        naive_router = IQNRouter(make_aggregation(), fast_path=False)
        naive = naive_router.rank_detailed(
            make_context(shared, spec, conjunctive=conjunctive), 12
        )
        assert naive_router.last_stats is not None
        assert naive_router.last_stats.mode == "naive"
        assert naive_router.last_stats.attach == "none"
        assert plan_rows(columnar) == plan_rows(private_plan) == plan_rows(naive)

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.kind)
    def test_novelty_only_ranking_agrees(self, spec):
        shared, private = seeded_lists(spec, seed=9)
        columnar = IQNRouter(quality_weighted=False).rank_detailed(
            make_context(shared, spec), 8
        )
        private_plan = IQNRouter(quality_weighted=False).rank_detailed(
            make_context(private, spec), 8
        )
        naive = IQNRouter(quality_weighted=False, fast_path=False).rank_detailed(
            make_context(shared, spec), 8
        )
        assert plan_rows(columnar) == plan_rows(private_plan) == plan_rows(naive)

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.kind)
    @pytest.mark.parametrize("conjunctive", [False, True], ids=["disj", "conj"])
    @pytest.mark.parametrize(
        "make_aggregation",
        [PerPeerAggregation, PerTermAggregation],
        ids=["perpeer", "perterm"],
    )
    def test_mixed_tables_route_on_columns(
        self, spec, conjunctive, make_aggregation
    ):
        # One directory-table list beside one private-table list.
        shared, private = seeded_lists(spec, terms=("alpha", "beta"), seed=5)
        directory_table = shared["alpha"].peer_table
        interned_before = len(directory_table)
        mixed = {"alpha": shared["alpha"], "beta": private["beta"]}
        router = IQNRouter(make_aggregation())
        plan = router.rank_detailed(
            make_context(mixed, spec, conjunctive=conjunctive), 12
        )
        assert router.last_stats is not None
        assert router.last_stats.attach == "columns"
        naive = IQNRouter(make_aggregation(), fast_path=False).rank_detailed(
            make_context(mixed, spec, conjunctive=conjunctive), 12
        )
        assert plan and plan_rows(plan) == plan_rows(naive)
        # Re-interning uses a fresh table; the directory's stays as is.
        assert len(directory_table) == interned_before

    def test_stats_counters_match_shared_table(self):
        spec = SPECS[0]
        shared, private = seeded_lists(spec, seed=3)
        shared_router = IQNRouter()
        shared_router.rank_detailed(make_context(shared, spec), 10)
        private_router = IQNRouter()
        private_router.rank_detailed(make_context(private, spec), 10)
        shared_stats = shared_router.last_stats
        private_stats = private_router.last_stats
        assert shared_stats is not None and private_stats is not None
        assert shared_stats == private_stats
        assert private_stats.attach == "columns"

    def test_empty_directory_routes_empty_via_columns(self):
        spec = SPECS[0]
        table = PeerIdTable()
        lists = {
            t: PeerList(term=t, peer_table=table) for t in ("alpha", "beta")
        }
        router = IQNRouter()
        assert router.rank_detailed(make_context(lists, spec), 5) == []
        assert router.last_stats is not None
        assert router.last_stats.attach == "columns"
        assert router.last_stats.mode == "empty"
