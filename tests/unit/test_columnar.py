"""Unit tests for the columnar graph core (:mod:`repro.graph.columnar`).

Everything here is differential against the dict-based structures the
store shadows: CSR rows vs adjacency dicts, compiled masks vs
``AttributeIndex.matching_nodes``, interned codes vs raw-value grouping,
in-place patches vs a freshly built store. The mixed-type attribute-table
guard (typed sort keys) is covered at the bottom.
"""

import gc
import threading
import weakref

import pytest

from repro.core.distance import (
    GowerTupleDistance,
    pair_sum_categorical,
    pair_sum_interned,
)
from repro.graph.attributed_graph import AttributedGraph, _sort_key
from repro.graph.builder import GraphBuilder
from repro.graph.columnar import (
    HAVE_NUMPY,
    MISSING,
    UNHASHABLE,
    AttributeColumn,
    ColumnarStore,
    CompiledColumn,
    bits_from_mask,
    mask_from_bits,
)
from repro.graph.indexes import BitsetIndex, GraphIndexes
from repro.graph.sampling import d_hop_neighborhood
from repro.graph.statistics import compute_statistics
from repro.matching.delta import GraphDelta
from repro.obs.registry import MetricsRegistry
from repro.query.predicates import Literal, Op
from repro.scoring.state import AttributeStats
from repro.streaming.graph_ops import apply_delta_in_place


def sample_graph():
    builder = GraphBuilder("columnar-sample")
    ages = [25, 30, 30, None, 41, 25, 58, None, 30, 17]
    cities = ["ny", "sf", None, "ny", "la", "sf", "ny", "la", None, "sf"]
    for i in range(10):
        attrs = {}
        if ages[i] is not None:
            attrs["age"] = ages[i]
        if cities[i] is not None:
            attrs["city"] = cities[i]
        builder.node_with_id(i, "person" if i % 2 == 0 else "org", **attrs)
    edges = [
        (0, 1, "knows"),
        (0, 2, "knows"),
        (1, 2, "knows"),
        (2, 4, "works"),
        (4, 6, "works"),
        (6, 0, "knows"),
        (3, 5, "works"),
        (5, 7, "knows"),
        (8, 9, "works"),
        (9, 0, "knows"),
    ]
    for source, target, label in edges:
        builder.edge(source, target, label)
    return builder.build()


def store_of(graph):
    return GraphIndexes(graph).enable_columnar()


class TestStoreLayout:
    def test_orders_match_bitset_enumerations(self):
        graph = sample_graph()
        store = store_of(graph)
        bitset = BitsetIndex(graph)
        for label in graph.node_labels():
            assert store.label_orders[label] == bitset.order(label)
        assert store.node_order == sorted(graph._nodes)

    def test_cross_index_arrays_roundtrip(self):
        graph = sample_graph()
        store = store_of(graph)
        for node_id in graph._nodes:
            gpos = store.node_pos[node_id]
            label = store.label_names[store.label_codes[gpos]]
            local = store.label_local[gpos]
            assert graph.label(node_id) == label
            assert store.label_orders[label][local] == node_id

    def test_enable_columnar_is_idempotent(self):
        indexes = GraphIndexes(sample_graph())
        first = indexes.enable_columnar()
        assert indexes.enable_columnar() is first
        assert indexes.columnar is first

    def test_graph_with_built_store_is_freed_by_refcounting(self):
        # The graph caches its store; a strong back-link would make the
        # pair a cycle that only the cyclic collector frees.
        graph = sample_graph()
        store = graph.columnar()
        store.csr("knows", True)
        store.column("person", "age").compiled()
        alive = weakref.ref(graph)
        enabled = gc.isenabled()
        gc.disable()
        try:
            del graph
            assert alive() is None
        finally:
            if enabled:
                gc.enable()
        with pytest.raises(ReferenceError):
            store.graph

    def test_unfrozen_graph_rejected(self):
        graph = AttributedGraph("unfrozen")
        graph.add_node(0, "a", {})
        from repro.errors import GraphError

        with pytest.raises(GraphError):
            graph.columnar()


class TestCSR:
    def test_rows_equal_adjacency_dicts(self):
        graph = sample_graph()
        store = store_of(graph)
        for edge_label in graph.edge_labels():
            for outgoing in (True, False):
                csr = store.csr(edge_label, outgoing)
                for node_id in graph._nodes:
                    expected = (
                        graph.successors(node_id, edge_label)
                        if outgoing
                        else graph.predecessors(node_id, edge_label)
                    )
                    row = csr.row(store.node_pos[node_id])
                    got = {store.node_order[int(g)] for g in row}
                    assert got == set(expected)

    def test_und_rows_equal_neighbors(self):
        graph = sample_graph()
        store = store_of(graph)
        und = store.und_csr()
        for node_id in graph._nodes:
            row = und.row(store.node_pos[node_id])
            got = {store.node_order[int(g)] for g in row}
            assert got == graph.neighbors(node_id)

    def test_adjacency_mask_equals_bitset_rows(self):
        graph = sample_graph()
        store = store_of(graph)
        bitset = BitsetIndex(graph)
        for node_id in graph._nodes:
            for edge_label in graph.edge_labels():
                for outgoing in (True, False):
                    for neighbor_label in graph.node_labels():
                        assert store.adjacency_mask(
                            node_id, edge_label, outgoing, neighbor_label
                        ) == bitset.adjacency_row(
                            node_id, edge_label, outgoing, neighbor_label
                        )

    def test_degrees_equal_graph_degree(self):
        graph = sample_graph()
        store = store_of(graph)
        degrees = store.degrees()
        for node_id in graph._nodes:
            assert degrees[store.node_pos[node_id]] == graph.degree(node_id)

    def test_statistics_identical_with_and_without_store(self):
        plain = compute_statistics(sample_graph())
        graph = sample_graph()
        GraphIndexes(graph).enable_columnar()
        assert compute_statistics(graph) == plain


class TestCompiledPredicates:
    OPS = (Op.EQ, Op.GE, Op.GT, Op.LE, Op.LT)

    def test_masks_equal_attribute_index(self):
        graph = sample_graph()
        indexes = GraphIndexes(graph)
        store = indexes.enable_columnar()
        bitset = indexes.bitsets
        for label in graph.node_labels():
            for attribute in ("age", "city"):
                for op in self.OPS:
                    for constant in (17, 25, 30, 30.0, 58, 99, "ny", "sf", "zz"):
                        literal = Literal(attribute, op, constant)
                        expected = bitset.mask_of(
                            label,
                            indexes.attributes.matching_nodes(
                                label, attribute, op, constant
                            ),
                        )
                        assert store.literal_mask(label, literal) == expected

    def test_unknown_label_and_attribute(self):
        graph = sample_graph()  # the store links to its graph weakly
        store = store_of(graph)
        assert store.literal_mask("ghost", Literal("age", Op.GE, 0)) == 0
        assert store.literal_mask("person", Literal("ghost", Op.GE, 0)) == 0
        assert store.column("ghost", "age") is None

    def test_numeric_cross_type_equality(self):
        # 30 and 30.0 are one sort key: EQ 30.0 must hit int-30 nodes.
        graph = sample_graph()  # the store links to its graph weakly
        store = store_of(graph)
        column = store.column("person", "age").compiled()
        assert column.mask_for(Op.EQ, 30) == column.mask_for(Op.EQ, 30.0)

    def test_present_mask(self):
        graph = sample_graph()
        store = store_of(graph)
        column = store.column("person", "age")
        order = store.label_orders["person"]
        expected = 0
        for local, node_id in enumerate(order):
            if graph.attribute(node_id, "age") is not None:
                expected |= 1 << local
        assert column.compiled().present_mask == expected
        assert column.present == bin(expected).count("1")


class TestInterning:
    def test_equal_values_share_codes(self):
        column = AttributeColumn("l", "a", ["x", "y", "x", None, "y"])
        assert column.codes[0] == column.codes[2]
        assert column.codes[1] == column.codes[4]
        assert column.codes[3] == MISSING
        assert column.num_interned == 2
        assert column.interned_value(column.codes[0]) == "x"

    def test_numeric_equality_merges_like_dict_keys(self):
        # 5 == 5.0 == True is False, but 1 == True: dict-key semantics.
        column = AttributeColumn("l", "a", [5, 5.0, 1, True, 0])
        assert column.codes[0] == column.codes[1]
        assert column.codes[2] == column.codes[3]
        assert column.codes[0] != column.codes[2]

    def test_unhashable_values_flagged(self):
        column = AttributeColumn("l", "a", [[1, 2], "ok"])
        assert column.codes[0] == UNHASHABLE
        assert column.has_unhashable

    def test_pair_sum_interned_matches_categorical(self):
        values = ["a", "b", "a", "c", "b", "a"]
        column = AttributeColumn("l", "a", values)
        assert pair_sum_interned(column.codes) == pair_sum_categorical(values)
        assert pair_sum_interned([]) == 0.0
        assert pair_sum_interned([0]) == 0.0

    def test_gower_interned_path_matches_dict_path(self):
        plain_graph = sample_graph()
        col_graph = sample_graph()
        GraphIndexes(col_graph).enable_columnar()
        plain = GowerTupleDistance(plain_graph, "person")
        fast = GowerTupleDistance(col_graph, "person")
        people = sorted(plain_graph.nodes_with_label("person"))
        for v in people:
            for w in people:
                assert plain(v, w) == fast(v, w)

    def test_gower_interned_path_follows_in_place_patches(self):
        plain_graph = sample_graph()
        col_graph = sample_graph()
        GraphIndexes(col_graph).enable_columnar()
        plain = GowerTupleDistance(plain_graph, "person")
        fast = GowerTupleDistance(col_graph, "person")
        people = sorted(plain_graph.nodes_with_label("person"))
        for kernel in (plain, fast):
            kernel(people[0], people[1])  # resolves ranges (and columns)
        # Node 2 holds neither age extreme, so the normalizing spread holds.
        delta = GraphDelta(set_attributes=((2, "city", "la"), (2, "age", 41)))
        for graph, kernel in ((plain_graph, plain), (col_graph, fast)):
            apply_delta_in_place(graph, delta)
            kernel.invalidate_nodes([2])
        for w in people:
            assert fast(2, w) == plain(2, w)
        assert fast(2, 4) == 0.0  # node 4: age 41, city "la"


class TestAttributeStatsFromValues:
    def test_equals_repeated_add(self):
        values = [3, "x", 1.5, None, 3, "y", 2, None, "x", 1.5]
        incremental = AttributeStats()
        for value in values:
            if value is not None:
                incremental.add(value)
        bulk = AttributeStats.from_values(values)
        assert bulk.present == incremental.present
        assert bulk.non_numeric == incremental.non_numeric
        assert bulk.numeric == incremental.numeric
        assert bulk.counts == incremental.counts
        assert list(bulk.counts) == list(incremental.counts)


class TestDhop:
    def test_matches_dict_bfs(self):
        plain = sample_graph()
        graph = sample_graph()
        GraphIndexes(graph).enable_columnar()
        for seeds in ([0], [3, 8], [5], list(plain._nodes)):
            for d in range(4):
                assert d_hop_neighborhood(graph, seeds, d) == d_hop_neighborhood(
                    plain, seeds, d
                )

    def test_unknown_seeds_kept_unexpanded(self):
        graph = sample_graph()
        GraphIndexes(graph).enable_columnar()
        ball = d_hop_neighborhood(graph, [0, 999], 1)
        assert 999 in ball
        assert ball - {999} == d_hop_neighborhood(sample_graph(), [0], 1)


class TestInPlaceRepair:
    def delta(self):
        return GraphDelta(
            insert_edges=((7, 0, "knows"), (3, 6, "works")),
            delete_edges=((0, 1, "knows"),),
            set_attributes=((0, "age", 99), (1, "city", "tokyo"), (4, "age", None)),
        )

    def test_patched_store_equals_fresh_store(self):
        graph = sample_graph()
        store = store_of(graph)
        store.warm()
        # Touch columns and compiled masks so patches hit live structures.
        for label in graph.node_labels():
            for attribute in ("age", "city"):
                store.literal_mask(label, Literal(attribute, Op.GE, 0))
        apply_delta_in_place(graph, self.delta())
        fresh = ColumnarStore(graph)
        for edge_label in graph.edge_labels():
            for outgoing in (True, False):
                patched_csr = store.csr(edge_label, outgoing)
                fresh_csr = fresh.csr(edge_label, outgoing)
                for gpos in range(len(store.node_order)):
                    assert list(map(int, patched_csr.row(gpos))) == list(
                        map(int, fresh_csr.row(gpos))
                    )
        for label in graph.node_labels():
            for attribute in ("age", "city"):
                patched = store.column(label, attribute)
                expected = fresh.column(label, attribute)
                assert patched.values == expected.values
                for op in (Op.EQ, Op.GE, Op.LT):
                    for constant in (25, 99, "ny", "tokyo"):
                        assert patched.compiled().mask_for(
                            op, constant
                        ) == expected.compiled().mask_for(op, constant)

    @pytest.mark.skipif(not HAVE_NUMPY, reason="numpy-only kernel")
    def test_support_masks_after_repeated_patches_equal_fresh_store(self):
        graph = sample_graph()
        store = store_of(graph)
        bitset = BitsetIndex(graph)
        deltas = (
            self.delta(),
            # Re-patches rows already overridden (after the patched-row
            # block was used) and empties node 2's outgoing "knows" row.
            GraphDelta(delete_edges=((7, 0, "knows"), (2, 4, "works"))),
            GraphDelta(insert_edges=((0, 1, "knows"), (5, 3, "works"))),
        )
        for delta in deltas:
            apply_delta_in_place(graph, delta)
            fresh = ColumnarStore(graph)
            for edge_label in graph.edge_labels():
                for outgoing in (True, False):
                    for mine in graph.node_labels():
                        for other in graph.node_labels():
                            full = bitset.full_mask(other)
                            for other_mask in (full, full & 0b101, 1):
                                args = (edge_label, outgoing, mine, other, other_mask)
                                assert store.support_mask(*args) == fresh.support_mask(
                                    *args
                                )

    def test_und_csr_patched(self):
        graph = sample_graph()
        store = store_of(graph)
        store.und_csr()
        apply_delta_in_place(graph, self.delta())
        for node_id in graph._nodes:
            row = store.und_csr().row(store.node_pos[node_id])
            assert {store.node_order[int(g)] for g in row} == graph.neighbors(node_id)

    def test_metrics_count_patches(self):
        graph = sample_graph()
        indexes = GraphIndexes(graph)
        metrics = MetricsRegistry()
        store = indexes.enable_columnar(metrics=metrics)
        store.warm()
        store.column("person", "age")
        apply_delta_in_place(graph, self.delta())
        counters = metrics.counters()
        assert counters["graph.columnar.builds"] == 1
        assert counters["graph.columnar.csr_patches"] > 0
        assert counters["graph.columnar.column_patches"] > 0

    def test_metrics_follow_the_attaching_thread(self):
        # Daemon workers share one graph, hence one store; each thread's
        # builds must land in the registry that thread attached.
        graph = sample_graph()
        store = graph.columnar()
        mine, theirs = MetricsRegistry(), MetricsRegistry()
        store.attach_metrics(mine)

        def other_worker():
            store.attach_metrics(theirs)
            store.csr("works", True)

        thread = threading.Thread(target=other_worker)
        thread.start()
        thread.join(timeout=30)
        assert not thread.is_alive()
        store.csr("knows", True)
        assert mine.value("graph.columnar.csr_builds") == 1
        assert theirs.value("graph.columnar.csr_builds") == 1


class TestMaskHelpers:
    @pytest.mark.skipif(not HAVE_NUMPY, reason="numpy-only helpers")
    def test_roundtrip(self):
        for mask in (0, 1, 0b1011, (1 << 70) | 5):
            size = max(71, mask.bit_length())
            assert mask_from_bits(bits_from_mask(mask, size)) == mask

    @pytest.mark.skipif(not HAVE_NUMPY, reason="numpy-only helpers")
    def test_support_mask_with_overrides(self):
        graph = sample_graph()
        store = store_of(graph)
        bitset = BitsetIndex(graph)
        full_org = bitset.full_mask("org")
        before = store.support_mask("knows", True, "person", "org", full_org)
        apply_delta_in_place(
            graph, GraphDelta(delete_edges=((0, 1, "knows"),))
        )
        after = store.support_mask("knows", True, "person", "org", full_org)
        expected = 0
        for local, node_id in enumerate(store.label_orders["person"]):
            if any(
                graph.label(t) == "org" for t in graph.successors(node_id, "knows")
            ):
                expected |= 1 << local
        assert after == expected
        assert before != after  # the deleted edge was load-bearing


class TestMixedTypeAttributeTables:
    """Satellite: typed sort keys keep mixed-type columns sortable."""

    def mixed_graph(self):
        builder = GraphBuilder("mixed")
        values = [3, "three", 1.5, "one", 2, None, "two"]
        for i, value in enumerate(values):
            attrs = {"v": value} if value is not None else {}
            builder.node_with_id(i, "n", **attrs)
        return builder.build()

    def test_attribute_index_sort_does_not_raise(self):
        graph = self.mixed_graph()
        indexes = GraphIndexes(graph)
        # Building the table sorts mixed int/str values — must not TypeError.
        assert indexes.attributes.matching_nodes("n", "v", Op.GE, 2) >= {0, 4}

    def test_typed_total_order_semantics(self):
        # Numbers form the lower type group: GE over a number includes all
        # strings above it in the total order, GE over a string never
        # reaches back down into the numbers, and LT over a string does.
        graph = self.mixed_graph()
        indexes = GraphIndexes(graph)
        assert indexes.attributes.matching_nodes("n", "v", Op.GE, 0) == {
            0, 1, 2, 3, 4, 6,
        }
        assert indexes.attributes.matching_nodes("n", "v", Op.GE, "a") == {1, 3, 6}
        assert indexes.attributes.matching_nodes("n", "v", Op.LT, "a") == {0, 2, 4}

    def test_compiled_masks_agree_on_mixed_columns(self):
        graph = self.mixed_graph()
        indexes = GraphIndexes(graph)
        store = indexes.enable_columnar()
        for op in (Op.EQ, Op.GE, Op.GT, Op.LE, Op.LT):
            for constant in (0, 1.5, 2, 3, "one", "three", "zz"):
                literal = Literal("v", op, constant)
                expected = indexes.bitsets.mask_of(
                    "n",
                    indexes.attributes.matching_nodes("n", "v", op, constant),
                )
                assert store.literal_mask("n", literal) == expected

    def test_sort_key_distinguishes_types_with_equal_str(self):
        class Weird:
            def __str__(self):
                return "3"

        keys = sorted([_sort_key(3), _sort_key("3"), _sort_key(Weird())])
        assert len(set(keys)) == 3


class TestCompiledColumnDirect:
    def test_empty_column(self):
        compiled = CompiledColumn([None, None])
        assert compiled.present_mask == 0
        for op in (Op.EQ, Op.GE, Op.GT, Op.LE, Op.LT):
            assert compiled.mask_for(op, 1) == 0

    def test_patch_to_new_and_removed_keys(self):
        compiled = CompiledColumn(["a", "b", "a"])
        compiled.patch(1, "b", "c")  # "b" key disappears, "c" appears
        assert compiled.mask_for(Op.EQ, "b") == 0
        assert compiled.mask_for(Op.EQ, "c") == 0b010
        compiled.patch(0, "a", None)  # bit leaves, "a" keeps one member
        assert compiled.mask_for(Op.EQ, "a") == 0b100
        assert compiled.present_mask == 0b110
