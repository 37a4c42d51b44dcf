"""Tests for the scaled synthetic testbed (datasets.scale)."""

from __future__ import annotations

import random

import pytest

from repro.core.iqn import IQNRouter
from repro.datasets import scale
from repro.datasets.scale import ScaledTestbed, ScaledTestbedConfig
from repro.parallel.seeding import derive_seed
from repro.synopses.factory import SynopsisSpec
from repro.synopses.wire import dumps
from repro.topology import FlatTopology, SuperPeerTopology

SPEC = SynopsisSpec.parse("mips-16")
CONFIG = ScaledTestbedConfig(num_peers=120, num_topics=6, seed=5)


@pytest.fixture(scope="module")
def testbed():
    return ScaledTestbed(CONFIG, spec=SPEC)


class TestConfigValidation:
    def test_rejects_nonpositive_peers(self):
        with pytest.raises(ValueError):
            ScaledTestbedConfig(num_peers=0)

    def test_rejects_bad_doc_range(self):
        with pytest.raises(ValueError):
            ScaledTestbedConfig(num_peers=10, docs_per_term=(5, 3))
        with pytest.raises(ValueError):
            ScaledTestbedConfig(num_peers=10, docs_per_term=(0, 3))

    def test_rejects_pool_smaller_than_max_docs(self):
        with pytest.raises(ValueError):
            ScaledTestbedConfig(
                num_peers=10, docs_per_term=(5, 50), topic_pool=40
            )


class TestGenerativeModel:
    def test_topic_assignment_is_balanced(self, testbed):
        counts = [0] * CONFIG.num_topics
        for index in range(CONFIG.num_peers):
            counts[testbed.topic_of_peer(index)] += 1
        assert max(counts) - min(counts) <= 1

    def test_doc_ids_live_in_the_terms_topic_slice(self, testbed):
        term = testbed.topic_terms(2)[0]
        ids = testbed.doc_ids(0, term)
        low, high = CONFIG.docs_per_term
        assert low <= len(ids) <= high
        assert all(
            2 * CONFIG.topic_pool <= i < 3 * CONFIG.topic_pool for i in ids
        )

    def test_doc_ids_recomputable(self, testbed):
        other = ScaledTestbed(CONFIG, spec=SPEC)
        term = testbed.peer_terms(7)[0]
        assert testbed.doc_ids(7, term) == other.doc_ids(7, term)

    def test_peer_terms_include_own_topic(self, testbed):
        for index in (0, 17, 119):
            topic = testbed.topic_of_peer(index)
            held = set(testbed.peer_terms(index))
            assert set(testbed.topic_terms(topic)) <= held
            assert len(held) == CONFIG.terms_per_topic + CONFIG.noise_terms

    def test_directory_has_one_post_per_peer_term(self, testbed):
        term = testbed.topic_terms(0)[0]
        stored = testbed.directory.stored_list(term)
        posters = set(stored.posts)
        expected = {
            testbed.peer_id(i)
            for i in range(CONFIG.num_peers)
            if term in testbed.peer_terms(i)
        }
        assert posters == expected


class TestMeasurement:
    def test_reference_is_union_over_posters(self, testbed):
        term = testbed.topic_terms(1)[0]
        expected = set()
        for index in range(CONFIG.num_peers):
            if term in testbed.peer_terms(index):
                expected |= testbed.doc_ids(index, term)
        assert testbed.reference_ids((term,)) == expected

    def test_full_selection_reaches_full_recall(self, testbed):
        query = testbed.queries(1)[0]
        everyone = tuple(
            testbed.peer_id(i) for i in range(CONFIG.num_peers)
        )
        assert testbed.coverage_recall(everyone, query) == 1.0

    def test_empty_selection_has_zero_recall(self, testbed):
        query = testbed.queries(1)[0]
        assert testbed.coverage_recall((), query) == 0.0

    def test_local_view_unions_term_doc_sets(self, testbed):
        query = testbed.queries(1)[0]
        view = testbed.local_view(query)
        index = testbed.peer_index(view.peer_id)
        assert testbed.topic_of_peer(index) == testbed.topic_of_term(
            query.terms[0]
        )
        expected = set()
        for term in query.terms:
            if term in testbed.peer_terms(index):
                expected |= testbed.doc_ids(index, term)
        assert view.result_doc_ids == expected

    def test_queries_cycle_topics(self, testbed):
        queries = testbed.queries(CONFIG.num_topics + 1, terms_per_query=2)
        assert queries[0].terms == queries[CONFIG.num_topics].terms
        assert all(len(q.terms) == 2 for q in queries)


class TestTopologyHost:
    def test_flat_topology_routes_over_the_testbed(self, testbed):
        topology = FlatTopology()
        topology.bind(testbed)
        query = testbed.queries(1)[0]
        view = testbed.local_view(query)
        plan = topology.route(
            query, IQNRouter(), 5, requester=view.peer_id, initiator=view
        )
        assert 0 < len(plan.selected) <= 5
        assert view.peer_id not in plan.selected

    def test_super_peer_topology_routes_over_the_testbed(self, testbed):
        topology = SuperPeerTopology(num_clusters=6, seed=2)
        topology.bind(testbed)
        query = testbed.queries(1)[0]
        view = testbed.local_view(query)
        plan = topology.route(
            query, IQNRouter(), 5, requester=view.peer_id, initiator=view
        )
        assert plan.selected
        assert plan.clusters_ranked
        assert plan.super_fetches == 1 + len(plan.clusters_ranked)


PIN_CONFIG = ScaledTestbedConfig(num_peers=300, num_topics=10, seed=11)


@pytest.fixture(scope="module", params=["bf-2048", "mips-64", "hs-32", "ll-64"])
def pinned_testbed(request):
    """A 300-peer testbed published in several chunks (batched builds)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scale, "_PUBLISH_CHUNK", 128)
        return ScaledTestbed(PIN_CONFIG, spec=SynopsisSpec.parse(request.param))


class TestBatchedPublish:
    """Stored Posts equal the per-Post construction they replaced."""

    def test_every_stored_row_matches_the_per_post_formula(self, pinned_testbed):
        testbed = pinned_testbed
        seen = 0
        for term in sorted(testbed.directory.stored_terms()):
            for post in testbed.directory.stored_list(term):
                index = testbed.peer_index(post.peer_id)
                ids = testbed.doc_ids(index, term)
                expected = testbed.spec.build(ids)
                assert post.synopsis == expected
                assert dumps(post.synopsis) == dumps(expected)
                rng = random.Random(
                    derive_seed(PIN_CONFIG.seed, f"scores:{index}:{term}")
                )
                max_score = 0.2 + 0.8 * rng.random()
                assert post.cdf == len(ids)
                assert post.max_score == max_score
                assert post.avg_score == max_score * (0.3 + 0.4 * rng.random())
                seen += 1
        assert seen == sum(
            len(testbed.peer_terms(i)) for i in range(PIN_CONFIG.num_peers)
        )
