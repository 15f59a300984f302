"""Secondary indexes over an attributed graph.

The matching engine evaluates literal predicates ``u.A op c`` over all nodes
with a given label; a naive scan is O(|V(label)|) per evaluation. The
:class:`AttributeIndex` keeps, per (label, attribute), node ids sorted by
attribute value, so a range predicate resolves with two binary searches.

The :class:`BitsetIndex` additionally owns, per node label, a *dense
enumeration* of the label's nodes (bit position ↔ node id) plus lazily
materialized adjacency rows — one Python integer per
``(data node, edge label, direction, neighbor label)`` — which is the
substrate of the bitset matching engine
(:mod:`repro.matching.bitset`): candidate pools become integer bitmasks
and support checks become single AND operations.
"""

from __future__ import annotations

import bisect
from typing import TYPE_CHECKING, Any, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.graph.attributed_graph import AttributedGraph, _sort_key
from repro.query.predicates import Op

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.graph.columnar import ColumnarStore


class LabelIndex:
    """Maps node labels to node-id sets (thin wrapper for symmetry).

    The raw graph already answers ``nodes_with_label``; this class exists so
    that matcher code depends on an index interface rather than the store,
    and caches frozensets to avoid re-materializing.
    """

    def __init__(self, graph: AttributedGraph) -> None:
        self._graph = graph
        self._cache: Dict[str, FrozenSet[int]] = {}

    def nodes(self, label: str) -> FrozenSet[int]:
        """All node ids with ``label``."""
        if label not in self._cache:
            self._cache[label] = self._graph.nodes_with_label(label)
        return self._cache[label]

    def count(self, label: str) -> int:
        """Number of nodes with ``label``."""
        return len(self.nodes(label))


class AttributeIndex:
    """Sorted per-(label, attribute) index supporting range predicates.

    For each (label, attribute) pair accessed, lazily builds a list of
    ``(value, node_id)`` entries sorted by value, plus the parallel list of
    sort keys for binary search. Nodes lacking the attribute are excluded —
    a literal on a missing attribute never matches, mirroring SQL-like
    three-valued semantics collapsed to False.
    """

    def __init__(self, graph: AttributedGraph) -> None:
        self._graph = graph
        self._sorted: Dict[Tuple[str, str], Tuple[List[Any], List[int]]] = {}

    def _table(self, label: str, attribute: str) -> Tuple[List[Any], List[int]]:
        key = (label, attribute)
        table = self._sorted.get(key)
        if table is None:
            entries: List[Tuple[Tuple[int, Any], Any, int]] = []
            for node_id in self._graph.nodes_with_label(label):
                value = self._graph.attribute(node_id, attribute)
                if value is not None:
                    entries.append((_sort_key(value), value, node_id))
            entries.sort(key=lambda item: item[0])
            keys = [item[0] for item in entries]
            ids = [item[2] for item in entries]
            table = (keys, ids)
            self._sorted[key] = table
        return table

    def drop_tables(self, pairs: Iterable[Tuple[str, str]]) -> int:
        """Invalidate the sorted tables of the given (label, attribute) pairs.

        The streaming repair path calls this after in-place attribute
        updates — only the touched pairs rebuild on next access; every
        other table stays warm. Returns how many live tables were dropped.
        """
        dropped = 0
        for key in pairs:
            if self._sorted.pop(key, None) is not None:
                dropped += 1
        return dropped

    def matching_nodes(self, label: str, attribute: str, op: Op, constant: Any) -> Set[int]:
        """Node ids with ``label`` whose ``attribute op constant`` holds."""
        keys, ids = self._table(label, attribute)
        pivot = _sort_key(constant)
        if op is Op.GE:
            lo = bisect.bisect_left(keys, pivot)
            return set(ids[lo:])
        if op is Op.GT:
            lo = bisect.bisect_right(keys, pivot)
            return set(ids[lo:])
        if op is Op.LE:
            hi = bisect.bisect_right(keys, pivot)
            return set(ids[:hi])
        if op is Op.LT:
            hi = bisect.bisect_left(keys, pivot)
            return set(ids[:hi])
        if op is Op.EQ:
            lo = bisect.bisect_left(keys, pivot)
            hi = bisect.bisect_right(keys, pivot)
            return set(ids[lo:hi])
        raise ValueError(f"unsupported operator {op}")  # pragma: no cover

    def count_matching(self, label: str, attribute: str, op: Op, constant: Any) -> int:
        """Selectivity counter: how many nodes satisfy the literal."""
        keys, _ = self._table(label, attribute)
        pivot = _sort_key(constant)
        if op is Op.GE:
            return len(keys) - bisect.bisect_left(keys, pivot)
        if op is Op.GT:
            return len(keys) - bisect.bisect_right(keys, pivot)
        if op is Op.LE:
            return bisect.bisect_right(keys, pivot)
        if op is Op.LT:
            return bisect.bisect_left(keys, pivot)
        if op is Op.EQ:
            return bisect.bisect_right(keys, pivot) - bisect.bisect_left(keys, pivot)
        raise ValueError(f"unsupported operator {op}")  # pragma: no cover

    def values(self, label: str, attribute: str) -> List[Any]:
        """Sorted distinct values of ``attribute`` over nodes with ``label``."""
        keys, ids = self._table(label, attribute)
        out: List[Any] = []
        previous: Optional[Tuple[int, Any]] = None
        for key, node_id in zip(keys, ids):
            if key != previous:
                out.append(self._graph.attribute(node_id, attribute))
                previous = key
        return out


class BitsetIndex:
    """Per-label node enumerations and adjacency-row bitmasks.

    Each label gets a stable enumeration — node ids sorted ascending, bit
    ``i`` of a mask standing for the i-th id — so every candidate pool of
    a query node with that label is one arbitrary-precision integer.
    Adjacency rows answer "which nodes of label ``L`` are successors
    (resp. predecessors) of data node ``v`` under edge label ``l``" as a
    mask over ``L``'s enumeration; rows are built on first touch and
    cached for the lifetime of the index, which one generation run shares
    across thousands of lattice siblings.
    """

    def __init__(self, graph: AttributedGraph) -> None:
        self._graph = graph
        self._order: Dict[str, Tuple[int, ...]] = {}
        self._position: Dict[str, Dict[int, int]] = {}
        self._full: Dict[str, int] = {}
        self._rows: Dict[Tuple[int, str, bool, str], int] = {}
        self._store: Optional["ColumnarStore"] = None

    def use_store(self, store: "ColumnarStore") -> None:
        """Back this index with a columnar store.

        Adjacency rows are then derived from CSR slices and mask
        materialization is vectorized; the per-label enumerations are
        shared with the store (both sort ids ascending), so every mask
        stays bit-compatible with the store-less index.
        """
        self._store = store

    # -- Enumeration ----------------------------------------------------- #

    def order(self, label: str) -> Tuple[int, ...]:
        """Node ids of ``label`` in bit-position order (ascending ids)."""
        cached = self._order.get(label)
        if cached is None:
            if self._store is not None:
                cached = self._store.label_orders.get(label)
            if cached is None:
                cached = tuple(sorted(self._graph.nodes_with_label(label)))
            self._order[label] = cached
        return cached

    def positions(self, label: str) -> Dict[int, int]:
        """Inverse enumeration: node id → bit position."""
        cached = self._position.get(label)
        if cached is None:
            cached = {v: i for i, v in enumerate(self.order(label))}
            self._position[label] = cached
        return cached

    def full_mask(self, label: str) -> int:
        """Mask with one bit set per node of ``label`` (the label pool)."""
        cached = self._full.get(label)
        if cached is None:
            cached = (1 << len(self.order(label))) - 1
            self._full[label] = cached
        return cached

    def mask_of(self, label: str, nodes: Iterable[int]) -> int:
        """Mask over ``label``'s enumeration for an id collection.

        Ids not carrying ``label`` are ignored (a restrict set may be an
        arbitrary superset bound).
        """
        positions = self.positions(label)
        mask = 0
        for v in nodes:
            position = positions.get(v)
            if position is not None:
                mask |= 1 << position
        return mask

    def to_ids(self, label: str, mask: int) -> Set[int]:
        """Materialize a mask back into a node-id set."""
        if self._store is not None:
            return self._store.to_ids(label, mask)
        order = self.order(label)
        out: Set[int] = set()
        while mask:
            low = mask & -mask
            out.add(order[low.bit_length() - 1])
            mask ^= low
        return out

    # -- Adjacency rows --------------------------------------------------- #

    def adjacency_row(
        self, node_id: int, edge_label: str, outgoing: bool, neighbor_label: str
    ) -> int:
        """Mask of ``neighbor_label`` nodes adjacent to ``node_id``.

        ``outgoing=True`` reads successors (edges ``node_id → ·``),
        ``False`` predecessors.
        """
        key = (node_id, edge_label, outgoing, neighbor_label)
        row = self._rows.get(key)
        if row is None:
            if self._store is not None:
                row = self._store.adjacency_mask(
                    node_id, edge_label, outgoing, neighbor_label
                )
            else:
                neighbors = (
                    self._graph.successors(node_id, edge_label)
                    if outgoing
                    else self._graph.predecessors(node_id, edge_label)
                )
                row = self.mask_of(neighbor_label, neighbors)
            self._rows[key] = row
        return row

    def drop_rows(self, nodes: Iterable[int]) -> int:
        """Invalidate the cached adjacency rows of the given data nodes.

        An edge delta only changes rows anchored at a touched endpoint;
        the per-label enumerations, inverse positions and full masks are
        node-set properties and survive every edge/attribute update, so
        this is the *whole* bitset repair for an in-place delta. Returns
        how many rows were dropped.
        """
        touched = set(nodes)
        stale = [key for key in self._rows if key[0] in touched]
        for key in stale:
            del self._rows[key]
        return len(stale)

    @property
    def cached_rows(self) -> int:
        """Number of adjacency rows materialized so far (observability)."""
        return len(self._rows)


class GraphIndexes:
    """Bundle of all per-graph indexes, built lazily and shared.

    Algorithms receive a single :class:`GraphIndexes` so index construction
    is amortized across the many instance verifications of one generation
    run.
    """

    def __init__(self, graph: AttributedGraph) -> None:
        self.graph = graph
        self.labels = LabelIndex(graph)
        self.attributes = AttributeIndex(graph)
        self.bitsets = BitsetIndex(graph)
        self.columnar: Optional["ColumnarStore"] = None

    def enable_columnar(self, metrics=None) -> "ColumnarStore":
        """Switch this bundle onto the graph's columnar core.

        Builds (or reuses) the graph's :class:`ColumnarStore`, backs the
        bitset index with CSR slices and points literal-pool computation
        (:class:`~repro.matching.bitset.LiteralPoolCache` reads
        ``indexes.columnar``) at compiled column masks. Idempotent; with
        ``metrics`` the store's ``graph.columnar.*`` counters land in
        that registry.
        """
        store = self.columnar
        if store is None:
            store = self.columnar = self.graph.columnar()
            self.bitsets.use_store(store)
        if metrics is not None:
            store.attach_metrics(metrics)
        return store

    def candidate_pool(self, label: str) -> FrozenSet[int]:
        """Initial candidate set for a query node: all nodes with its label."""
        return self.labels.nodes(label)

    def repair(
        self,
        touched_nodes: Iterable[int],
        touched_attributes: Iterable[Tuple[str, str]] = (),
    ) -> Tuple[int, int]:
        """Scoped invalidation after an in-place graph delta.

        Drops exactly the cached state the delta can have stale-ified:
        adjacency rows anchored at touched nodes (edge inserts/deletes)
        and sorted attribute tables for touched (label, attribute) pairs.
        Label pools, bitset enumerations and full masks describe the node
        set, which in-place deltas never change, so they survive — that
        asymmetry is the streaming layer's headline saving over a full
        ``GraphContext.invalidate()``.

        The columnar store needs no action here: the graph's in-place
        hooks already patched its CSR rows and column cells cell-by-cell
        when the delta applied, so by repair time it is current again —
        only the mask/table caches derived from it are dropped.

        Returns ``(rows_dropped, tables_dropped)``.
        """
        rows = self.bitsets.drop_rows(touched_nodes)
        tables = self.attributes.drop_tables(touched_attributes)
        return rows, tables

    def warm(self, labels: Optional[Iterable[str]] = None) -> None:
        """Pre-build the cheap per-label state (serving cold-start cut).

        Materializes the label pools, bitset enumerations, inverse
        positions and full masks for ``labels`` (default: every node
        label), so the first request served from a shared
        :class:`GraphIndexes` does not pay them. Adjacency rows and
        attribute tables stay lazy — their key space is workload-dependent
        and pre-building all of them would dwarf a request.
        """
        for label in labels if labels is not None else self.graph.node_labels():
            self.labels.nodes(label)
            self.bitsets.positions(label)
            self.bitsets.full_mask(label)
        if self.columnar is not None:
            self.columnar.warm()
