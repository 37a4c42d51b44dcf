"""Tests for two-phase super-peer routing (SuperPeerTopology)."""

from __future__ import annotations

import pytest

from repro.core.iqn import IQNRouter
from repro.datasets.queries import Query
from repro.datasets.scale import ScaledTestbed, ScaledTestbedConfig
from repro.minerva.posts import PeerList
from repro.net.cost import CostModel, MessageKinds
from repro.net.latency import LatencyProfile
from repro.simnet.clock import spawn
from repro.simnet.executor import SimNetExecutor
from repro.synopses.factory import SynopsisSpec
from repro.topology import SuperPeerTopology
from repro.topology.base import ReElection

from .conftest import make_topical_engine

QUERY = Query(0, ("apple", "banana"))
INITIATOR = "p00"


def make_superpeer_engine(
    spec_label: str = "bf-512", *, num_clusters: int = 3, seed: int = 0, **kw
):
    return make_topical_engine(
        spec_label,
        topology=SuperPeerTopology(
            num_clusters=num_clusters, seed=seed, **kw
        ),
    )


class TestClusterState:
    def test_build_is_deterministic(self):
        first = make_superpeer_engine().topology
        second = make_superpeer_engine().topology
        assert first.ensure_clusters() == second.ensure_clusters()

    def test_every_peer_in_exactly_one_cluster(self):
        engine = make_superpeer_engine()
        clusters = engine.topology.ensure_clusters()
        seen = [p for c in clusters for p in c.members]
        assert sorted(seen) == sorted(engine.peers)

    def test_super_peer_is_a_member(self):
        for cluster in make_superpeer_engine().topology.ensure_clusters():
            assert cluster.super_peer in cluster.members

    def test_cache_signature_reflects_knobs(self):
        a = SuperPeerTopology(num_clusters=3, seed=0)
        b = SuperPeerTopology(num_clusters=4, seed=0)
        c = SuperPeerTopology(num_clusters=3, seed=1)
        assert len({a.cache_signature(), b.cache_signature(), c.cache_signature()}) == 3

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            SuperPeerTopology(num_clusters=0)
        with pytest.raises(ValueError):
            SuperPeerTopology(cluster_budget=0)
        with pytest.raises(ValueError):
            SuperPeerTopology(refine_rounds=-1)


class TestBudgetSplit:
    def test_explicit_budget_wins(self):
        assert SuperPeerTopology(cluster_budget=7).resolve_cluster_budget(100) == 7

    def test_isqrt_of_max_peers(self):
        topo = SuperPeerTopology()
        assert topo.resolve_cluster_budget(16) == 4
        assert topo.resolve_cluster_budget(1) == 1

    def test_default_without_max_peers(self):
        assert SuperPeerTopology().resolve_cluster_budget(None) == 3


class TestRouting:
    def test_selected_come_from_winning_clusters(self):
        engine = make_superpeer_engine()
        outcome = engine.run_query(
            QUERY, IQNRouter(), initiator_id=INITIATOR, max_peers=3
        )
        topology = engine.topology
        assert outcome.clusters_ranked
        winners = set(outcome.clusters_ranked)
        for peer_id in outcome.selected:
            assert topology.cluster_of(peer_id) in winners

    def test_super_fetches_counted(self):
        engine = make_superpeer_engine()
        outcome = engine.run_query(
            QUERY, IQNRouter(), initiator_id=INITIATOR, max_peers=3
        )
        assert outcome.super_fetches == 1 + len(outcome.clusters_ranked)

    def test_charges_cluster_and_member_fetches_not_hops(self):
        engine = make_superpeer_engine()
        outcome = engine.run_query(
            QUERY, IQNRouter(), initiator_id=INITIATOR, max_peers=3
        )
        assert outcome.cost.messages(MessageKinds.CLUSTER_FETCH) == 1
        assert outcome.cost.messages(MessageKinds.MEMBER_FETCH) == len(
            outcome.clusters_ranked
        )
        assert outcome.cost.messages(MessageKinds.DHT_HOP) == 0
        assert outcome.cost.messages(MessageKinds.PEERLIST_FETCH) == 0

    def test_fewer_messages_than_flat(self):
        flat_outcome = make_topical_engine("bf-512").run_query(
            QUERY, IQNRouter(), initiator_id=INITIATOR, max_peers=3
        )
        super_outcome = make_superpeer_engine().run_query(
            QUERY, IQNRouter(), initiator_id=INITIATOR, max_peers=3
        )
        assert (
            super_outcome.cost.total_messages
            < flat_outcome.cost.total_messages
        )

    def test_peer_list_limit_unsupported(self):
        engine = make_superpeer_engine()
        with pytest.raises(ValueError, match="peer_list_limit"):
            engine.run_query(
                QUERY,
                IQNRouter(),
                initiator_id=INITIATOR,
                max_peers=3,
                peer_list_limit=2,
            )

    def test_networked_matches_passive_without_faults(self):
        passive = make_superpeer_engine().run_query(
            QUERY, IQNRouter(), initiator_id=INITIATOR, max_peers=3
        )
        networked = make_superpeer_engine().run_query_networked(
            QUERY, IQNRouter(), initiator_id=INITIATOR, max_peers=3
        )
        assert networked.outcome.selected == passive.selected
        assert networked.clusters_ranked == passive.clusters_ranked
        assert networked.super_peer_fetches == passive.super_fetches
        assert networked.topology_fallbacks == 0


FAMILY_LABELS = ("bf-512", "mips-16", "hs-16", "ll-32")


def reference_member_posts(topology, label, terms):
    """The per-member ``stored.get`` walk the columnar fetch replaced."""
    directory = topology.host.directory
    out = {}
    bits = 0
    for term in dict.fromkeys(terms):
        stored = directory.stored_list(term)
        posts = []
        if stored is not None:
            for member in topology.live_members(label):
                post = stored.get(member)
                if post is not None:
                    posts.append(post)
                    bits += post.size_in_bits
        out[term] = posts
    return out, bits


def reference_join(topology, terms, fetched):
    """The per-Post upsert merge the columnar join replaced."""
    table = topology.host.directory.peer_table
    peer_lists = {term: PeerList(term=term, peer_table=table) for term in terms}
    for posts_by_term in fetched:
        for term, posts in posts_by_term.items():
            for post in posts:
                peer_lists[term].add(post, retain=False)
    return peer_lists


def assert_same_lists(got, expected):
    assert list(got) == list(expected)
    for term in expected:
        expected_posts = list(expected[term])
        assert [post.peer_id for post in got[term]] == [
            post.peer_id for post in expected_posts
        ]
        assert list(got[term]) == expected_posts


class TestColumnarMemberFetch:
    """Column-slice member fetch == the per-Post loop it replaced."""

    @pytest.fixture(scope="class", params=FAMILY_LABELS)
    def testbed(self, request):
        config = ScaledTestbedConfig(num_peers=150, num_topics=6, seed=4)
        testbed = ScaledTestbed(config, spec=SynopsisSpec.parse(request.param))
        topology = SuperPeerTopology(num_clusters=5, seed=1)
        topology.bind(testbed)
        topology.ensure_clusters()
        # Re-post some peers so stored row order differs from member
        # order (a removal swaps the last row into the hole).
        for term in testbed.topic_terms(0) + testbed.topic_terms(2):
            stored = testbed.directory.stored_list(term)
            for peer_id in sorted(stored.peer_ids)[::3]:
                post = stored.get(peer_id)
                del stored.posts[peer_id]
                stored.add(post, retain=False)
        # Every poster of one term goes down: it stays stored but no
        # live member holds it.
        silenced = testbed.topic_terms(1)[0]
        stored = testbed.directory.stored_list(silenced)
        for peer_id in sorted(stored.peer_ids) + ["p003", "p077", "p140"]:
            topology.handle_peer_down(peer_id)
        return testbed, topology, silenced

    def test_member_posts_match_per_post_loop(self, testbed):
        testbed, topology, silenced = testbed
        terms = testbed.topic_terms(0) + testbed.topic_terms(0)[:1] + (
            silenced,
            "never-posted",
        )
        assert "p003" not in topology.live_members(topology.cluster_of("p003"))
        fetched, expected = [], []
        winners = [cluster.label for cluster in topology.clusters][::-1]
        for label in winners:
            lists, bits = topology.member_posts(label, terms)
            reference, reference_bits = reference_member_posts(
                topology, label, terms
            )
            assert bits == reference_bits
            assert list(lists) == list(reference)
            for term, posts in reference.items():
                assert list(lists[term]) == posts
                assert lists[term].size_in_bits == sum(
                    post.size_in_bits for post in posts
                )
            assert len(lists[silenced]) == 0
            assert len(lists["never-posted"]) == 0
            fetched.append(lists)
            expected.append(reference)
        unique = tuple(dict.fromkeys(terms))
        merged = topology.join_member_lists(unique, fetched)
        assert_same_lists(merged, reference_join(topology, unique, expected))
        assert sum(len(merged[term]) for term in unique) > 0

    def test_assemble_scope_and_bits_match(self, testbed):
        testbed, topology, _ = testbed
        query = Query(7, testbed.topic_terms(2) + ("never-posted",))
        cost = testbed.directory.cost
        before = cost.snapshot()
        scoped = topology.assemble(query, max_peers=9)
        spent = cost.snapshot() - before
        winners = scoped.clusters_ranked
        references = [
            reference_member_posts(topology, label, query.terms)
            for label in winners
        ]
        unique = query.terms
        assert_same_lists(
            scoped.peer_lists,
            reference_join(topology, unique, [posts for posts, _ in references]),
        )
        assert spent.messages(MessageKinds.MEMBER_FETCH) == len(winners)
        assert spent.bits(MessageKinds.MEMBER_FETCH) == sum(
            bits for _, bits in references
        )
        assert scoped.scope == frozenset(
            peer for label in winners for peer in topology.live_members(label)
        )

    @pytest.mark.parametrize("label", FAMILY_LABELS)
    def test_simnet_fetch_matches_per_post_loop(self, label, monkeypatch):
        engine = make_superpeer_engine(label)
        topology = engine.topology
        topology.ensure_clusters()
        winners = [cluster.label for cluster in topology.clusters][::-1]
        for cluster in topology.clusters:
            topology.handle_peer_down(cluster.members[-1])
        monkeypatch.setattr(topology, "rank_clusters", lambda *a, **k: winners)
        query = Query(3, ("apple", "berry", "unposted"))
        unique = query.terms
        executor = SimNetExecutor(engine)
        references = []
        for winner in winners:
            served = executor._serve_members(topology.super_of_cluster(winner))
            lists, bits, _ = served((winner, unique + unique[:1]))
            reference, reference_bits = reference_member_posts(
                topology, winner, unique
            )
            assert bits == reference_bits
            assert {term: list(lists[term]) for term in lists} == reference
            references.append((reference, reference_bits))
        cost = CostModel()
        job = spawn(
            executor._fetch_scoped_lists(
                query,
                INITIATOR,
                cost,
                peer_k=5,
                conjunctive=False,
                max_peers=4,
                successor_fallback=False,
            )
        )
        executor.clock.run()
        peer_lists, failed, _, _, ranked, super_fetches, fallbacks = job.value
        assert (failed, ranked, fallbacks) == ([], tuple(winners), 0)
        assert super_fetches == 1 + len(winners)
        assert_same_lists(
            peer_lists,
            reference_join(topology, unique, [posts for posts, _ in references]),
        )
        assert cost.snapshot().bits(MessageKinds.MEMBER_FETCH) == sum(
            bits for _, bits in references
        )


class TestChurnHooks:
    def test_member_down_rebuilds_without_reelection(self):
        engine = make_superpeer_engine()
        topology = engine.topology
        topology.ensure_clusters()
        label = topology.clusters[0].label
        victim = next(
            p
            for p in topology.members_of(label)
            if p != topology.super_of_cluster(label)
        )
        assert topology.handle_peer_down(victim) is None
        assert victim not in topology.live_members(label)

    def test_super_down_triggers_deterministic_reelection(self):
        results = []
        for _ in range(2):
            engine = make_superpeer_engine()
            topology = engine.topology
            topology.ensure_clusters()
            label = topology.clusters[0].label
            old_super = topology.super_of_cluster(label)
            reelection = topology.handle_peer_down(old_super)
            results.append(reelection)
        first, second = results
        assert isinstance(first, ReElection)
        assert first == second
        assert first.old_super != first.new_super
        assert first.old_super not in first.members
        assert first.new_super in first.members

    def test_down_peer_excluded_from_routing_scope(self):
        engine = make_superpeer_engine()
        topology = engine.topology
        outcome = engine.run_query(
            QUERY, IQNRouter(), initiator_id=INITIATOR, max_peers=3
        )
        victim = outcome.selected[0]
        topology.handle_peer_down(victim)
        after = engine.run_query(
            QUERY, IQNRouter(), initiator_id=INITIATOR, max_peers=3
        )
        assert victim not in after.selected

    def test_unknown_or_repeated_down_is_noop(self):
        engine = make_superpeer_engine()
        topology = engine.topology
        topology.ensure_clusters()
        assert topology.handle_peer_down("nobody") is None
        label = topology.clusters[0].label
        super_peer = topology.super_of_cluster(label)
        assert topology.handle_peer_down(super_peer) is not None
        assert topology.handle_peer_down(super_peer) is None

    def test_peer_up_restores_membership(self):
        engine = make_superpeer_engine()
        topology = engine.topology
        topology.ensure_clusters()
        label = topology.clusters[0].label
        victim = next(
            p
            for p in topology.members_of(label)
            if p != topology.super_of_cluster(label)
        )

        def fetched():
            lists, _ = topology.member_posts(label, ("apple", "banana"))
            return set().union(*(peer_list.peer_ids for peer_list in lists.values()))

        assert victim in fetched()
        topology.handle_peer_down(victim)
        assert victim not in fetched()
        topology.handle_peer_up(victim)
        assert victim in topology.live_members(label)
        assert victim in fetched()


class TestLatencyProfiles:
    def test_intra_vs_inter_cluster_profile(self):
        intra = LatencyProfile(per_message_ms=1.0, per_kilobit_ms=0.0)
        inter = LatencyProfile(per_message_ms=9.0, per_kilobit_ms=0.0)
        engine = make_topical_engine(
            "bf-512",
            topology=SuperPeerTopology(
                num_clusters=3, seed=0, intra_profile=intra, inter_profile=inter
            ),
        )
        topology = engine.topology
        topology.ensure_clusters()
        label = topology.clusters[0].label
        members = topology.members_of(label)
        assert topology.latency_profile_of(members[0], members[-1]) is intra
        other = next(
            c.members[0] for c in topology.clusters if c.label != label
        )
        assert topology.latency_profile_of(members[0], other) is inter

    def test_unknown_peers_fall_back_to_base(self):
        topology = SuperPeerTopology(
            intra_profile=LatencyProfile(per_message_ms=1.0)
        )
        assert topology.latency_profile_of("x", "y") is None
