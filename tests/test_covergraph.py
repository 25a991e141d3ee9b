import random

import pytest
from hypothesis import given, settings, strategies as st

from midcache.covergraph import (CoverResult, FlowState, GraphError, InteractionGraph,
                                 min_weight_cover, prune_remainder,
                                 source_reachable)
from tests.oracles import (brute_force_cover_weight, check_cover, check_flow,
                           cover_weight, flow_value, graph_edges, residual_reachable)


def build(update_weights, query_weights, edges):
    g = InteractionGraph()
    for uid, w in update_weights.items():
        g.add_update(uid, w)
    for qid, w in query_weights.items():
        g.add_query(qid, w)
    for uid, qid in edges:
        g.add_edge(uid, qid)
    return g


def random_graph(rng, max_side=4, max_w=10):
    nu = rng.randint(0, max_side)
    nq = rng.randint(0, max_side)
    uw = {i: rng.randint(1, max_w) for i in range(nu)}
    qw = {100 + i: rng.randint(1, max_w) for i in range(nq)}
    edges = {(u, q) for u in uw for q in qw if rng.random() < 0.5}
    return uw, qw, edges


class TestMutations:
    def test_add_query_to_empty(self):
        g = InteractionGraph()
        g.add_query(7, 4)
        assert g.query_weight == {7: 4}
        assert g.n_edges == 0

    def test_worked_example_internal_subgraph(self):
        # the fully-cached part of the worked example: updates 1 and 6
        # against query 7
        g = build({1: 1, 6: 5}, {7: 4}, [(1, 7), (6, 7)])
        assert set(g.update_weight) == {1, 6}
        assert set(g.query_weight) == {7}
        assert graph_edges(g) == {(1, 7), (6, 7)}

    def test_duplicate_node_rejected(self):
        g = InteractionGraph()
        g.add_update(1, 1)
        with pytest.raises(GraphError):
            g.add_update(1, 2)

    def test_negative_weight_rejected(self):
        g = InteractionGraph()
        g.add_update(1, 0)
        g.add_query(2, 0)
        with pytest.raises(GraphError, match="non-negative"):
            g.add_update(3, -1)
        with pytest.raises(GraphError, match="non-negative"):
            g.add_query(4, -1)

    def test_dangling_edge_rejected(self):
        g = InteractionGraph()
        g.add_update(1, 1)
        with pytest.raises(GraphError):
            g.add_edge(1, 99)

    def test_random_adds_match_reference_multiset(self):
        rng = random.Random(20)
        g = InteractionGraph()
        ref_nodes, ref_edges = {}, set()
        for step in range(20):
            if rng.random() < 0.5:
                uid = 1000 + step
                w = rng.randint(1, 9)
                g.add_update(uid, w)
                ref_nodes[("u", uid)] = w
            else:
                qid = 2000 + step
                w = rng.randint(1, 9)
                g.add_query(qid, w)
                ref_nodes[("q", qid)] = w
            us = [n for k, n in ref_nodes if k == "u"]
            qs = [n for k, n in ref_nodes if k == "q"]
            if us and qs and rng.random() < 0.6:
                e = (rng.choice(us), rng.choice(qs))
                if e not in ref_edges:
                    g.add_edge(*e)
                    ref_edges.add(e)
        assert {("u", u): w for u, w in g.update_weight.items()} | \
               {("q", q): w for q, w in g.query_weight.items()} == ref_nodes
        assert graph_edges(g) == ref_edges

    def test_adds_leave_existing_flow_untouched(self):
        g = build({1: 3}, {10: 5}, [(1, 10)])
        cover, fs = min_weight_cover(g)
        before = (dict(fs.flow_su), dict(fs.flow_uq), dict(fs.flow_qt))
        g.add_update(2, 4)
        g.add_query(11, 2)
        g.add_edge(2, 11)
        assert (fs.flow_su, fs.flow_uq, fs.flow_qt) == before
        check_flow(g, fs)   # still a valid (non-maximum) flow


class TestMinWeightCover:
    def test_empty_graph(self):
        g = InteractionGraph()
        cover, fs = min_weight_cover(g)
        assert cover_weight(g, cover) == 0
        assert not cover.cover_queries and not cover.cover_updates

    def test_updates_win_when_query_heavier(self):
        # the worked-example internal subgraph with the query made expensive
        g = build({1: 1, 6: 5}, {7: 9}, [(1, 7), (6, 7)])
        cover, _ = min_weight_cover(g)
        assert cover.cover_updates == {1, 6}
        assert not cover.cover_queries
        assert cover_weight(g, cover) == 6

    def test_query_wins_at_example_weights(self):
        g = build({1: 1, 6: 5}, {7: 4}, [(1, 7), (6, 7)])
        cover, _ = min_weight_cover(g)
        assert cover.cover_queries == {7}
        assert cover_weight(g, cover) == 4

    def test_tie_prefers_covering_updates(self):
        g = build({1: 5}, {10: 5}, [(1, 10)])
        cover, _ = min_weight_cover(g)
        assert cover.cover_updates == {1}
        assert not cover.cover_queries

    def test_exhaustive_small_graphs(self):
        rng = random.Random(1)
        for _ in range(300):
            uw, qw, edges = random_graph(rng)
            g = build(uw, qw, edges)
            cover, fs = min_weight_cover(g)
            check_cover(g, cover)
            check_flow(g, fs)
            assert cover_weight(g, cover) == flow_value(fs)
            assert cover_weight(g, cover) == brute_force_cover_weight(uw, qw, edges)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_cover_valid_and_optimal_property(self, data):
        nu = data.draw(st.integers(0, 4))
        nq = data.draw(st.integers(0, 4))
        uw = {i: data.draw(st.integers(0, 10)) for i in range(nu)}
        qw = {100 + i: data.draw(st.integers(0, 10)) for i in range(nq)}
        edges = set()
        for u in uw:
            for q in qw:
                if data.draw(st.booleans()):
                    edges.add((u, q))
        g = build(uw, qw, edges)
        cover, fs = min_weight_cover(g)
        check_cover(g, cover)
        assert cover_weight(g, cover) == flow_value(fs) == brute_force_cover_weight(uw, qw, edges)


class TestIncremental:
    def test_interleaved_equals_from_scratch(self):
        # mutations mirror everything the cover policy does to its graph:
        # adds, covers, prunes, and eviction-driven update-node drops
        rng = random.Random(7)
        for _ in range(60):
            g = InteractionGraph()
            fs = FlowState()
            next_u, next_q = 0, 1000
            for _ in range(rng.randint(3, 25)):
                op = rng.random()
                if op < 0.3 or not g.update_weight:
                    g.add_update(next_u, rng.randint(1, 10))
                    next_u += 1
                elif op < 0.6 or not g.query_weight:
                    qid = next_q
                    next_q += 1
                    g.add_query(qid, rng.randint(1, 10))
                    for u in list(g.update_weight):
                        if rng.random() < 0.5:
                            g.add_edge(u, qid)
                elif op < 0.72:
                    doomed = {u for u in g.update_weight if rng.random() < 0.4}
                    g.remove_nodes(fs, drop_updates=doomed)
                    check_flow(g, fs)
                else:
                    cover, fs = min_weight_cover(g, fs)
                    scratch, _ = min_weight_cover(g, FlowState())
                    assert cover_weight(g, cover) == cover_weight(g, scratch)
                    check_flow(g, fs)
                    if rng.random() < 0.5:
                        prune_remainder(g, cover, fs)
                        check_flow(g, fs)
            cover, fs = min_weight_cover(g, fs)
            scratch, _ = min_weight_cover(g, FlowState())
            assert cover_weight(g, cover) == cover_weight(g, scratch)

    def test_augmentation_reuse_measured(self):
        # incremental reuse should keep total augmenting-path work in the
        # neighborhood of one from-scratch run on the final graph; this is a
        # measured quantity, not a hard bound, so record and sanity-check only
        rng = random.Random(3)
        g = InteractionGraph()
        fs = FlowState()
        for i in range(40):
            g.add_update(i, rng.randint(1, 10))
            qid = 1000 + i
            g.add_query(qid, rng.randint(1, 10))
            for u in list(g.update_weight)[-3:]:
                g.add_edge(u, qid)
            _, fs = min_weight_cover(g, fs)
        scratch, sfs = min_weight_cover(g, FlowState())
        incr_total = fs.augmentations
        print(f"augmentations: incremental-cumulative={incr_total} "
              f"from-scratch={sfs.augmentations}")
        assert incr_total >= sfs.augmentations >= 0


class TestScopedCover:
    def test_scoped_covers_equal_whole_graph_covers(self):
        # Like the interleaving above, plus zero weights, edges between nodes
        # already on the graph, query drops, re-added ids and queries added
        # between a cover and its prune. A flow settled
        # by a prune searches only the touched components, yet every cover
        # must equal the from-scratch cover of the whole graph.
        rng = random.Random(12)
        for _ in range(300):
            g = InteractionGraph()
            fs = FlowState()
            next_u, next_q = 0, 1000
            for _ in range(rng.randint(3, 30)):
                op = rng.random()
                if op < 0.2 or not g.update_weight:
                    uid = rng.choice([next_u, rng.randrange(next_u + 1)])
                    if uid not in g.update_weight:
                        g.add_update(uid, rng.randint(0, 8))
                    next_u += 1
                elif op < 0.5 or not g.query_weight:
                    g.add_query(next_q, rng.randint(0, 8))
                    for u in list(g.update_weight):
                        if rng.random() < 0.4:
                            g.add_edge(u, next_q)
                    next_q += 1
                elif op < 0.6:
                    u, q = rng.choice(list(g.update_weight)), rng.choice(list(g.query_weight))
                    if q not in g.update_edges[u]:
                        g.add_edge(u, q)
                elif op < 0.7:
                    g.remove_nodes(fs,
                                   drop_updates={u for u in g.update_weight if rng.random() < 0.3},
                                   drop_queries={q for q in g.query_weight if rng.random() < 0.2})
                    check_flow(g, fs)
                else:
                    cover, fs = min_weight_cover(g, fs)
                    assert cover == min_weight_cover(g, FlowState())[0]
                    check_flow(g, fs)
                    if rng.random() < 0.2:
                        # A query added between a cover and its prune.
                        g.add_query(next_q, rng.randint(1, 8))
                        for u in list(g.update_weight):
                            if rng.random() < 0.4:
                                g.add_edge(u, next_q)
                        next_q += 1
                    if rng.random() < 0.8:
                        prune_remainder(g, cover, fs)
                        check_flow(g, fs)
                        reach = residual_reachable(g, fs)
                        assert reach == ({("u", u) for u in g.update_weight}
                                         | {("q", q) for q in g.query_weight})
                        assert source_reachable(g, fs) == reach
                        assert all(fs.flow_qt.get(q, 0) == w for q, w in g.query_weight.items())
            cover, fs = min_weight_cover(g, fs)
            assert cover == min_weight_cover(g, FlowState())[0]

    def test_flow_is_mutated_in_place(self):
        g = build({1: 3}, {10: 5}, [(1, 10)])
        fs = FlowState()
        cover, out = min_weight_cover(g, fs)
        assert out is fs and flow_value(fs) == 3


class TestCycleExits:
    """Every way a flow leaves the cover -> prune cycle other than a prune of
    its own cover on the unchanged graph. In each, the next cover must still
    equal the from-scratch cover."""

    @staticmethod
    def next_cover_from_scratch(g, fs):
        cover, _ = min_weight_cover(g, fs)
        assert cover == min_weight_cover(g, FlowState())[0]
        check_flow(g, fs)

    def test_settled_on_one_graph_then_covered_on_another(self):
        g = build({1: 5}, {10: 1}, [(1, 10)])
        cover, fs = min_weight_cover(g)
        prune_remainder(g, cover, fs)
        # Same ids and add counts, and the flow is valid on it, but query 10
        # now outweighs update 1.
        self.next_cover_from_scratch(build({1: 5}, {10: 9}, [(1, 10)]), fs)

    def test_remove_nodes_between_a_cover_and_its_prune(self):
        g = build({1: 3, 2: 3}, {10: 5}, [(1, 10), (2, 10)])
        cover, fs = min_weight_cover(g)
        assert cover.cover_queries == {10}
        g.remove_nodes(fs, drop_updates={1})
        prune_remainder(g, cover, fs)
        self.next_cover_from_scratch(g, fs)

    def test_prune_handed_a_cover_its_flow_did_not_compute(self):
        g = build({1: 1, 2: 5}, {10: 5, 11: 1}, [(1, 10), (2, 11)])
        _, fs = min_weight_cover(g)
        prune_remainder(g, CoverResult(frozenset(g.query_weight), frozenset()), fs)
        self.next_cover_from_scratch(g, fs)

    def test_query_added_between_a_cover_and_its_prune(self):
        # The prune drops the new query, which the cover did not cover; the
        # zero-weight update that came with it stays, and no source arc
        # reaches it.
        g = build({1: 5}, {10: 1}, [(1, 10)])
        cover, fs = min_weight_cover(g)
        g.add_update(2, 0)
        g.add_query(11, 3)
        g.add_edge(1, 11)
        g.add_edge(2, 11)
        prune_remainder(g, cover, fs)
        assert set(g.update_weight) == {1, 2}
        self.next_cover_from_scratch(g, fs)


class TestPrune:
    def test_cover_all_updates_drops_them_and_the_answered_query(self):
        g = build({1: 2, 2: 3}, {10: 9}, [(1, 10), (2, 10)])
        cover, fs = min_weight_cover(g)
        assert cover.cover_updates == {1, 2}
        prune_remainder(g, cover, fs)
        assert not g.update_weight
        assert not g.query_weight   # answered at cache, so not retained
        check_flow(g, fs)

    def test_shipped_queries_keep_weights_when_updates_all_covered(self):
        # two components: updates of query 10 get covered (shipped), while
        # query 11 itself is covered (shipped) and must survive the prune
        g = build({1: 2, 2: 3, 3: 9}, {10: 9, 11: 5},
                  [(1, 10), (2, 10), (3, 11)])
        cover, fs = min_weight_cover(g)
        assert cover.cover_updates == {1, 2}
        assert cover.cover_queries == {11}
        prune_remainder(g, cover, fs)
        assert g.query_weight == {11: 5}   # shipped query keeps its weight
        assert set(g.update_weight) == {3}
        check_flow(g, fs)

    def test_covered_query_keeps_uncovered_updates_and_edges(self):
        g = build({1: 7, 2: 8}, {10: 5}, [(1, 10), (2, 10)])
        cover, fs = min_weight_cover(g)
        assert cover.cover_queries == {10}
        prune_remainder(g, cover, fs)
        assert set(g.update_weight) == {1, 2}
        assert graph_edges(g) == {(1, 10), (2, 10)}
        check_flow(g, fs)

    def test_remove_nodes_skips_absent_ids(self):
        # Eviction hands over every queued uid of the object, on the graph or not.
        g = build({1: 3, 2: 4}, {10: 5, 11: 2}, [(1, 10), (2, 10), (2, 11)])
        _, fs = min_weight_cover(g)
        g.remove_nodes(fs, drop_updates={1})
        before = (dict(g.update_weight), dict(g.query_weight), graph_edges(g), g.n_edges,
                  dict(fs.flow_su), {q: dict(i) for q, i in fs.flow_uq.items()},
                  dict(fs.flow_qt), set(fs.touched))
        g.remove_nodes(fs, drop_updates={1, 7}, drop_queries={99})
        assert before == (g.update_weight, g.query_weight, graph_edges(g), g.n_edges,
                          fs.flow_su, fs.flow_uq, fs.flow_qt, fs.touched)
        assert fs.touched == {10}
        check_flow(g, fs)

    def test_random_prune_matches_set_algebra(self):
        rng = random.Random(11)
        for _ in range(100):
            uw, qw, edges = random_graph(rng, max_side=3)
            g = build(uw, qw, edges)
            cover, fs = min_weight_cover(g)
            keep_u = set(uw) - set(cover.cover_updates)
            keep_q = set(cover.cover_queries)
            expect_edges = {(u, q) for u, q in edges if u in keep_u and q in keep_q}
            prune_remainder(g, cover, fs)
            assert set(g.update_weight) == keep_u
            assert set(g.query_weight) == keep_q
            assert graph_edges(g) == expect_edges
            assert g.n_edges == len(expect_edges)
            check_flow(g, fs)
