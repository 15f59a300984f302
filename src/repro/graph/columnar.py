"""Columnar graph core: CSR adjacency + compiled column-mask predicates.

The dict-of-sets / frozen-dataclass store in
:mod:`repro.graph.attributed_graph` is convenient to mutate but every hot
loop of the generation pipeline pays for it per node: adjacency-row masks
hash through Python sets, literal pools re-evaluate predicates node by
node, scoring statistics re-hash raw attribute values, and d-hop sampling
BFS materializes a fresh neighbor set per visit.

:class:`ColumnarStore` is a flat companion representation built once per
(frozen) graph:

* **Enumerations** — one global node order (ids ascending) and one
  per-label order (matching :class:`~repro.graph.indexes.BitsetIndex`
  bit positions), plus cross-index arrays mapping global position →
  label code / label-local position.
* **CSR adjacency** — per ``(edge label, direction)`` an offsets/targets
  pair over global positions, built lazily in one pass, plus a combined
  undirected CSR for BFS. Streaming deltas patch CSRs in place through
  per-row overrides, so a repaired store never rebuilds.
* **Attribute columns** — per ``(label, attribute)`` a value column
  aligned with the label order, with categorical values interned to
  dense integer codes at build time (scoring kernels compare/count codes
  instead of re-hashing raw values).
* **Compiled predicates** — per column a one-shot bitmap index: distinct
  sort keys ascending, a value mask per key and lazily derived suffix
  masks, so any literal ``(label, attribute, op, constant)`` becomes a
  single O(log m) mask lookup. Masks agree bit-for-bit with
  :meth:`~repro.graph.indexes.AttributeIndex.matching_nodes`.

Everything degrades gracefully without numpy (``HAVE_NUMPY``): arrays
become plain lists and the vectorized kernels fall back to Python loops
or to the callers' original paths — numpy is an accelerator, never a
dependency. The store is observable through ``graph.columnar.*``
counters on an attached registry (the columnar engine attaches its run
registry; runs on the set or bitset engines see none).
"""

from __future__ import annotations

import threading
import weakref
from bisect import bisect_left, bisect_right
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.graph.attributed_graph import AttributedGraph, AttrValue, _sort_key
from repro.query.predicates import Literal, Op

try:  # pragma: no cover - exercised implicitly by both CI variants
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

#: True when numpy is importable; vector kernels gate on this.
HAVE_NUMPY = _np is not None

#: Column code for "attribute missing on this node".
MISSING = -1
#: Column code for "value present but unhashable" (cannot be interned).
UNHASHABLE = -2


# ---------------------------------------------------------------------- #
# Mask <-> array helpers
# ---------------------------------------------------------------------- #


def bits_from_mask(mask: int, size: int):
    """Arbitrary-precision mask → numpy bool array of length ``size``."""
    nbytes = (size + 7) // 8
    buf = mask.to_bytes(nbytes or 1, "little")
    bits = _np.unpackbits(
        _np.frombuffer(buf, dtype=_np.uint8), bitorder="little", count=size
    )
    return bits.astype(bool, copy=False)


def mask_from_bits(bits) -> int:
    """Numpy bool array → arbitrary-precision mask (bit i ↔ bits[i])."""
    if bits.size == 0:
        return 0
    packed = _np.packbits(bits, bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


def _gather_rows(offsets, targets, rows):
    """Concatenate CSR rows (numpy): targets[offsets[r]:offsets[r+1]] for r in rows."""
    starts = offsets[rows]
    lengths = offsets[rows + 1] - starts
    total = int(lengths.sum())
    if total == 0:
        return _np.empty(0, dtype=targets.dtype)
    exclusive = _np.cumsum(lengths) - lengths
    index = (
        _np.arange(total, dtype=_np.int64)
        - _np.repeat(exclusive, lengths)
        + _np.repeat(starts, lengths)
    )
    return targets[index]


# ---------------------------------------------------------------------- #
# CSR adjacency
# ---------------------------------------------------------------------- #


class CSRAdjacency:
    """One (edge label, direction) adjacency in compressed sparse row form.

    ``offsets``/``targets`` index *global* node positions; rows are sorted
    ascending so slices are deterministic. In-place graph deltas never
    rebuild the arrays — a patched row is recorded in ``overrides``
    (global position → replacement row, set through :meth:`set_row`) and
    shadows the CSR slice.
    """

    __slots__ = ("offsets", "targets", "overrides", "_patched")

    def __init__(self, offsets: Sequence[int], targets: Sequence[int]) -> None:
        if HAVE_NUMPY:
            self.offsets = _np.asarray(offsets, dtype=_np.int64)
            self.targets = _np.asarray(targets, dtype=_np.int64)
        else:
            self.offsets = list(offsets)
            self.targets = list(targets)
        self.overrides: Dict[int, Any] = {}
        self._patched = None

    def set_row(self, gpos: int, row) -> None:
        """Shadow one row with its repaired neighbor list."""
        self.overrides[gpos] = row
        self._patched = None

    def patched_rows(self):
        """The overridden rows as one small CSR (numpy only).

        Returns ``(positions, offsets, targets)``: row ``i`` of the block
        is the override of global position ``positions[i]``. Cached until
        the next :meth:`set_row`, so kernels handle any number of patched
        rows with a few array operations instead of one per row — a long
        streaming session accumulates hundreds of them.
        """
        if self._patched is None:
            positions = _np.fromiter(
                self.overrides, dtype=_np.int64, count=len(self.overrides)
            )
            rows = list(self.overrides.values())
            offsets = _np.zeros(len(rows) + 1, dtype=_np.int64)
            _np.cumsum([len(row) for row in rows], out=offsets[1:])
            targets = (
                _np.concatenate(rows).astype(_np.int64, copy=False)
                if rows
                else _np.empty(0, dtype=_np.int64)
            )
            self._patched = (positions, offsets, targets)
        return self._patched

    def row(self, gpos: int):
        """The (possibly overridden) neighbor row of one global position."""
        override = self.overrides.get(gpos)
        if override is not None:
            return override
        return self.targets[self.offsets[gpos] : self.offsets[gpos + 1]]

    @property
    def nnz(self) -> int:
        """Stored entries in the base arrays (overrides not counted)."""
        return len(self.targets)


# ---------------------------------------------------------------------- #
# Compiled predicate index
# ---------------------------------------------------------------------- #


class CompiledColumn:
    """Bitmap predicate index over one attribute column.

    Built in a single pass over the column: distinct sort keys ascending,
    one value mask per key (bit = label-local position). Suffix masks
    (``suffix[i] = OR of masks[i:]``) derive lazily and make every
    comparison operator a bisect plus one lookup:

    * ``GE c`` → ``suffix[bisect_left(keys, key(c))]``
    * ``GT c`` → ``suffix[bisect_right(keys, key(c))]``
    * ``LE c`` → ``present ^ suffix[bisect_right(keys, key(c))]``
    * ``LT c`` → ``present ^ suffix[bisect_left(keys, key(c))]``
    * ``EQ c`` → the value mask at ``key(c)`` (or 0)

    XOR is valid for the prefix forms because every suffix mask is a
    subset of ``present`` (the mask of nodes carrying the attribute).
    Bit-for-bit these equal
    :meth:`~repro.graph.indexes.AttributeIndex.matching_nodes` masks.
    """

    __slots__ = ("keys", "masks", "_suffix")

    def __init__(self, values: Sequence[Optional[AttrValue]]) -> None:
        groups: Dict[Tuple[int, str, Any], int] = {}
        for position, value in enumerate(values):
            if value is None:
                continue
            key = _sort_key(value)
            groups[key] = groups.get(key, 0) | (1 << position)
        self.keys: List[Tuple[int, str, Any]] = sorted(groups)
        self.masks: List[int] = [groups[key] for key in self.keys]
        self._suffix: Optional[List[int]] = None

    def _suffixes(self) -> List[int]:
        suffix = self._suffix
        if suffix is None:
            suffix = [0] * (len(self.masks) + 1)
            acc = 0
            for i in range(len(self.masks) - 1, -1, -1):
                acc |= self.masks[i]
                suffix[i] = acc
            self._suffix = suffix
        return suffix

    @property
    def present_mask(self) -> int:
        """Mask of nodes carrying the attribute at all."""
        return self._suffixes()[0]

    def mask_for(self, op: Op, constant: AttrValue) -> int:
        """The mask of label-local positions satisfying ``· op constant``."""
        pivot = _sort_key(constant)
        keys = self.keys
        suffix = self._suffixes()
        if op is Op.GE:
            return suffix[bisect_left(keys, pivot)]
        if op is Op.GT:
            return suffix[bisect_right(keys, pivot)]
        if op is Op.LE:
            return suffix[0] ^ suffix[bisect_right(keys, pivot)]
        if op is Op.LT:
            return suffix[0] ^ suffix[bisect_left(keys, pivot)]
        if op is Op.EQ:
            i = bisect_left(keys, pivot)
            if i < len(keys) and keys[i] == pivot:
                return self.masks[i]
            return 0
        raise ValueError(f"unsupported operator {op}")  # pragma: no cover

    def patch(
        self, position: int, old: Optional[AttrValue], new: Optional[AttrValue]
    ) -> None:
        """Move one node's bit between value masks after an in-place update."""
        bit = 1 << position
        if old is not None:
            key = _sort_key(old)
            i = bisect_left(self.keys, key)
            remaining = self.masks[i] & ~bit
            if remaining:
                self.masks[i] = remaining
            else:
                del self.keys[i]
                del self.masks[i]
        if new is not None:
            key = _sort_key(new)
            i = bisect_left(self.keys, key)
            if i < len(self.keys) and self.keys[i] == key:
                self.masks[i] |= bit
            else:
                self.keys.insert(i, key)
                self.masks.insert(i, bit)
        self._suffix = None


# ---------------------------------------------------------------------- #
# Attribute columns
# ---------------------------------------------------------------------- #


class AttributeColumn:
    """One (label, attribute) value column aligned with the label order.

    ``values[i]`` is the raw value of the label's i-th node (None when
    missing); ``codes[i]`` is the interned id of that value (``MISSING``
    / ``UNHASHABLE`` sentinels otherwise). Values equal under ``==`` share
    one code — exactly the grouping of the dict-based categorical
    kernels — so code-level counting reproduces value-level counting.
    """

    __slots__ = (
        "label",
        "attribute",
        "values",
        "codes",
        "has_unhashable",
        "_interned",
        "_code_of",
        "_compiled",
    )

    def __init__(
        self, label: str, attribute: str, values: List[Optional[AttrValue]]
    ) -> None:
        self.label = label
        self.attribute = attribute
        self.values = values
        self.has_unhashable = False
        self._interned: List[AttrValue] = []
        self._code_of: Dict[AttrValue, int] = {}
        self.codes: List[int] = [self._intern(value) for value in values]
        self._compiled: Optional[CompiledColumn] = None

    def _intern(self, value: Optional[AttrValue]) -> int:
        if value is None:
            return MISSING
        try:
            code = self._code_of.get(value, MISSING)
        except TypeError:
            self.has_unhashable = True
            return UNHASHABLE
        if code == MISSING:
            code = len(self._interned)
            self._code_of[value] = code
            self._interned.append(value)
        return code

    def interned_value(self, code: int) -> AttrValue:
        """The representative raw value of an interned code."""
        return self._interned[code]

    @property
    def num_interned(self) -> int:
        """Distinct interned values (observability)."""
        return len(self._interned)

    @property
    def present(self) -> int:
        """How many nodes carry the attribute."""
        return sum(1 for value in self.values if value is not None)

    def compiled(self) -> CompiledColumn:
        """The (lazily built) predicate index of this column."""
        compiled = self._compiled
        if compiled is None:
            compiled = self._compiled = CompiledColumn(self.values)
        return compiled

    def patch(self, position: int, new: Optional[AttrValue]) -> None:
        """Replace one cell after an in-place attribute update."""
        old = self.values[position]
        self.values[position] = new
        self.codes[position] = self._intern(new)
        if self._compiled is not None:
            self._compiled.patch(position, old, new)


# ---------------------------------------------------------------------- #
# The store
# ---------------------------------------------------------------------- #


class ColumnarStore:
    """Flat columnar companion of one frozen :class:`AttributedGraph`.

    All sub-structures (CSRs, columns, compiled predicates) build lazily
    on first touch and are repaired in place by the graph's streaming
    hooks, so a store stays valid for the graph's whole lifetime. The
    node set is fixed at construction (in-place deltas never add or
    remove nodes).

    The graph caches its store, so the store's back-link is weak: a
    strong one would make the pair a reference cycle that only the
    cyclic garbage collector frees, and code that builds and drops
    graph copies would pile up garbage until it runs.
    """

    def __init__(self, graph: AttributedGraph) -> None:
        self._graph_ref = weakref.ref(graph)
        self.node_order: List[int] = sorted(graph._nodes)
        self.node_pos: Dict[int, int] = {
            node_id: i for i, node_id in enumerate(self.node_order)
        }
        self.label_names: List[str] = sorted(graph._by_label)
        self.label_code: Dict[str, int] = {
            name: i for i, name in enumerate(self.label_names)
        }
        self.label_orders: Dict[str, Tuple[int, ...]] = {
            name: tuple(sorted(graph._by_label[name])) for name in self.label_names
        }
        self.label_codes: List[int] = [0] * len(self.node_order)
        self.label_local: List[int] = [0] * len(self.node_order)
        label_global: Dict[str, List[int]] = {}
        for name in self.label_names:
            code = self.label_code[name]
            positions = []
            for local, node_id in enumerate(self.label_orders[name]):
                gpos = self.node_pos[node_id]
                self.label_codes[gpos] = code
                self.label_local[gpos] = local
                positions.append(gpos)
            label_global[name] = positions
        if HAVE_NUMPY:
            self._order_np = _np.asarray(self.node_order, dtype=_np.int64)
            self._label_codes_np = _np.asarray(self.label_codes, dtype=_np.int64)
            self._label_local_np = _np.asarray(self.label_local, dtype=_np.int64)
            self._label_global = {
                name: _np.asarray(positions, dtype=_np.int64)
                for name, positions in label_global.items()
            }
            self._label_order_np = {
                name: _np.asarray(order, dtype=_np.int64)
                for name, order in self.label_orders.items()
            }
        else:
            self._label_global = label_global
        self._csr: Dict[Tuple[str, bool], CSRAdjacency] = {}
        self._und: Optional[CSRAdjacency] = None
        self._columns: Dict[Tuple[str, str], AttributeColumn] = {}
        # The attached registry, per thread: the serving daemon's worker
        # threads share one graph, hence one store, but each writes its
        # counters only to its own worker's registry.
        self._local = threading.local()

    @property
    def graph(self) -> AttributedGraph:
        """The graph this store shadows (it must still be alive)."""
        graph = self._graph_ref()
        if graph is None:
            raise ReferenceError("the columnar store's graph has been freed")
        return graph

    # -- Observability --------------------------------------------------- #

    def attach_metrics(self, metrics) -> None:
        """Route ``graph.columnar.*`` counters to ``metrics`` (opt-in).

        Counters fire at build/repair time only — never on per-literal or
        per-row hot paths shared with baseline-pinned engines — so
        attaching a registry cannot perturb pinned ``matcher.*`` counts.
        The registry is attached for the calling thread only.
        """
        self._local.metrics = metrics
        for name in (
            "graph.columnar.builds",
            "graph.columnar.csr_builds",
            "graph.columnar.column_builds",
            "graph.columnar.compiled_columns",
            "graph.columnar.csr_patches",
            "graph.columnar.column_patches",
        ):
            metrics.counter(name)
        # The store existed before this registry saw it: record the build
        # retroactively (once per registry — attach is idempotent).
        builds = metrics.counter("graph.columnar.builds")
        if builds.value == 0:
            builds.inc()

    def _count(self, name: str, value: int = 1) -> None:
        metrics = getattr(self._local, "metrics", None)
        if metrics is not None:
            metrics.inc(name, value)

    # -- CSR adjacency ---------------------------------------------------- #

    def csr(self, edge_label: str, outgoing: bool) -> CSRAdjacency:
        """The (lazily built) CSR for one edge label and direction."""
        key = (edge_label, outgoing)
        csr = self._csr.get(key)
        if csr is None:
            adjacency = self.graph._out if outgoing else self.graph._in
            node_pos = self.node_pos
            offsets = [0]
            targets: List[int] = []
            for node_id in self.node_order:
                neighbors = adjacency.get(node_id, {}).get(edge_label)
                if neighbors:
                    targets.extend(sorted(node_pos[w] for w in neighbors))
                offsets.append(len(targets))
            csr = self._csr[key] = CSRAdjacency(offsets, targets)
            self._count("graph.columnar.csr_builds")
        return csr

    def und_csr(self) -> CSRAdjacency:
        """Combined undirected CSR (all edge labels, both directions)."""
        csr = self._und
        if csr is None:
            node_pos = self.node_pos
            graph = self.graph
            offsets = [0]
            targets: List[int] = []
            for node_id in self.node_order:
                neighbors: Set[int] = set()
                for targets_of in graph._out.get(node_id, {}).values():
                    neighbors.update(targets_of)
                for sources_of in graph._in.get(node_id, {}).values():
                    neighbors.update(sources_of)
                if neighbors:
                    targets.extend(sorted(node_pos[w] for w in neighbors))
                offsets.append(len(targets))
            csr = self._und = CSRAdjacency(offsets, targets)
            self._count("graph.columnar.csr_builds")
        return csr

    def _row_from_ids(self, ids: Iterable[int]):
        row = sorted(self.node_pos[node_id] for node_id in ids)
        if HAVE_NUMPY:
            return _np.asarray(row, dtype=_np.int64)
        return row

    def adjacency_mask(
        self, node_id: int, edge_label: str, outgoing: bool, neighbor_label: str
    ) -> int:
        """CSR-backed equivalent of :meth:`BitsetIndex.adjacency_row`."""
        gpos = self.node_pos.get(node_id)
        if gpos is None:
            return 0
        code = self.label_code.get(neighbor_label)
        if code is None:
            return 0
        row = self.csr(edge_label, outgoing).row(gpos)
        if len(row) == 0:
            return 0
        if HAVE_NUMPY:
            row = _np.asarray(row, dtype=_np.int64)
            selected = row[self._label_codes_np[row] == code]
            if selected.size == 0:
                return 0
            size = len(self.label_orders[neighbor_label])
            bits = _np.zeros(size, dtype=bool)
            bits[self._label_local_np[selected]] = True
            return mask_from_bits(bits)
        codes = self.label_codes
        local = self.label_local
        mask = 0
        for gtarget in row:
            if codes[gtarget] == code:
                mask |= 1 << local[gtarget]
        return mask

    def to_ids(self, label: str, mask: int) -> Set[int]:
        """Materialize a label-enumeration mask into a node-id set."""
        if mask == 0:
            return set()
        order = self.label_orders.get(label)
        if not order:
            return set()
        if HAVE_NUMPY:
            bits = bits_from_mask(mask, len(order))
            return set(self._label_order_np[label][bits].tolist())
        out: Set[int] = set()
        while mask:
            low = mask & -mask
            out.add(order[low.bit_length() - 1])
            mask ^= low
        return out

    def support_mask(
        self,
        edge_label: str,
        outgoing: bool,
        node_label: str,
        other_label: str,
        other_mask: int,
    ) -> int:
        """Vectorized AC-3 support: ``node_label`` nodes with an
        (``edge_label``, ``outgoing``) neighbor inside ``other_mask``.

        One membership scatter plus a cumulative-sum row reduction over
        the CSR replaces the per-candidate adjacency-row walk of the
        bitset engine; the surviving set is identical. Requires numpy
        (callers gate on :data:`HAVE_NUMPY`).
        """
        if other_mask == 0:
            return 0
        other_global = self._label_global.get(other_label)
        mine_global = self._label_global.get(node_label)
        if other_global is None or mine_global is None:
            return 0
        member = _np.zeros(len(self.node_order), dtype=bool)
        member[other_global[bits_from_mask(other_mask, len(other_global))]] = True
        csr = self.csr(edge_label, outgoing)
        if csr.nnz:
            hits = member[csr.targets]
            cumulative = _np.concatenate(
                ([0], _np.cumsum(hits, dtype=_np.int64))
            )
            row_counts = cumulative[csr.offsets[1:]] - cumulative[csr.offsets[:-1]]
        else:
            row_counts = _np.zeros(len(self.node_order), dtype=_np.int64)
        if csr.overrides:
            positions, offsets, targets = csr.patched_rows()
            patched = _np.concatenate(
                ([0], _np.cumsum(member[targets], dtype=_np.int64))
            )
            row_counts[positions] = patched[offsets[1:]] - patched[offsets[:-1]]
        return mask_from_bits(row_counts[mine_global] > 0)

    # -- d-hop BFS --------------------------------------------------------- #

    def d_hop(self, seeds: Iterable[int], d: int) -> FrozenSet[int]:
        """Nodes within ``d`` undirected hops of ``seeds`` (CSR BFS).

        Mirrors :func:`repro.graph.sampling.d_hop_neighborhood` exactly,
        including its tolerance for unknown seed ids (kept in the result,
        never expanded).
        """
        result: Set[int] = set(seeds)
        known = [self.node_pos[s] for s in result if s in self.node_pos]
        if d <= 0 or not known:
            return frozenset(result)
        und = self.und_csr()
        if HAVE_NUMPY and not und.overrides:
            seen = _np.zeros(len(self.node_order), dtype=bool)
            frontier = _np.unique(_np.asarray(known, dtype=_np.int64))
            seen[frontier] = True
            for _ in range(d):
                neighbors = _gather_rows(und.offsets, und.targets, frontier)
                if neighbors.size == 0:
                    break
                neighbors = _np.unique(neighbors)
                neighbors = neighbors[~seen[neighbors]]
                if neighbors.size == 0:
                    break
                seen[neighbors] = True
                frontier = neighbors
            result.update(self._order_np[seen].tolist())
            return frozenset(result)
        seen_positions = set(known)
        frontier_list = known
        for _ in range(d):
            next_frontier: List[int] = []
            for gpos in frontier_list:
                for gtarget in und.row(gpos):
                    gtarget = int(gtarget)
                    if gtarget not in seen_positions:
                        seen_positions.add(gtarget)
                        next_frontier.append(gtarget)
            if not next_frontier:
                break
            frontier_list = next_frontier
        order = self.node_order
        result.update(order[gpos] for gpos in seen_positions)
        return frozenset(result)

    # -- Attribute columns ------------------------------------------------- #

    def column(self, label: str, attribute: str) -> Optional[AttributeColumn]:
        """The (lazily built) column for ``(label, attribute)``.

        Returns None for labels absent from the graph; unknown attributes
        yield an all-missing column (a literal on them never matches).
        """
        key = (label, attribute)
        column = self._columns.get(key)
        if column is None:
            order = self.label_orders.get(label)
            if order is None:
                return None
            nodes = self.graph._nodes
            values = [nodes[node_id].attributes.get(attribute) for node_id in order]
            column = self._columns[key] = AttributeColumn(label, attribute, values)
            self._count("graph.columnar.column_builds")
        return column

    def literal_mask(self, label: str, literal: Literal) -> int:
        """Compiled-mask equivalent of ``matching_nodes`` + ``mask_of``."""
        column = self.column(label, literal.attribute)
        if column is None:
            return 0
        if column._compiled is None:
            self._count("graph.columnar.compiled_columns")
        return column.compiled().mask_for(literal.op, literal.constant)

    def columns_for_nodes(
        self, nodes: Sequence[int], attributes: Iterable[str]
    ) -> Optional[Tuple[Dict[str, AttributeColumn], List[int]]]:
        """Columns + label-local positions when ``nodes`` share one label.

        The scoring fast path gathers attribute values as column slices;
        mixed-label node sets (never produced by the generators, possible
        through the public API) return None and fall back to per-node
        dict reads.
        """
        if not nodes:
            return None
        node_pos = self.node_pos
        label_codes = self.label_codes
        label_local = self.label_local
        first = node_pos.get(nodes[0])
        if first is None:
            return None
        code = label_codes[first]
        positions = [label_local[first]]
        for node_id in nodes[1:]:
            gpos = node_pos.get(node_id)
            if gpos is None or label_codes[gpos] != code:
                return None
            positions.append(label_local[gpos])
        label = self.label_names[code]
        columns = {name: self.column(label, name) for name in attributes}
        if any(column is None for column in columns.values()):
            return None  # pragma: no cover - label known, so columns exist
        return columns, positions

    # -- Degrees (statistics fast path) ------------------------------------ #

    def degrees(self) -> List[int]:
        """Total degree per global position (out + in over all edge labels)."""
        totals = [0] * len(self.node_order)
        for edge_label in self.graph.edge_labels():
            for outgoing in (True, False):
                csr = self.csr(edge_label, outgoing)
                if HAVE_NUMPY:
                    lengths = csr.offsets[1:] - csr.offsets[:-1]
                    for gpos, row in csr.overrides.items():
                        lengths[gpos] = len(row)
                    totals = [t + int(l) for t, l in zip(totals, lengths)]
                else:
                    for gpos in range(len(self.node_order)):
                        totals[gpos] += len(csr.row(gpos))
        return totals

    # -- In-place repair ---------------------------------------------------- #

    def patch_edge(self, source: int, target: int, label: str) -> None:
        """Re-derive the CSR rows an edge insert/delete can have changed.

        Called by the graph's in-place hooks *after* the adjacency dicts
        are updated, so the replacement rows are read straight off the
        graph. Only already-built CSRs are touched; lazy ones rebuild
        fresh later.
        """
        patched = False
        for (edge_label, outgoing), csr in self._csr.items():
            if edge_label != label:
                continue
            anchor = source if outgoing else target
            adjacency = self.graph._out if outgoing else self.graph._in
            neighbors = adjacency.get(anchor, {}).get(label, ())
            csr.set_row(self.node_pos[anchor], self._row_from_ids(neighbors))
            patched = True
        if self._und is not None:
            for node_id in (source, target):
                self._und.set_row(
                    self.node_pos[node_id],
                    self._row_from_ids(self.graph.neighbors(node_id)),
                )
            patched = True
        if patched:
            self._count("graph.columnar.csr_patches")

    def patch_attribute(self, node_id: int, name: str) -> None:
        """Re-derive one column cell after an in-place attribute update."""
        label = self.graph._nodes[node_id].label
        column = self._columns.get((label, name))
        if column is None:
            return
        gpos = self.node_pos[node_id]
        new = self.graph._nodes[node_id].attributes.get(name)
        column.patch(self.label_local[gpos], new)
        self._count("graph.columnar.column_patches")

    # -- Warming ------------------------------------------------------------ #

    def warm(self) -> None:
        """Pre-build every CSR (both directions) plus the undirected CSR.

        Attribute columns stay lazy — their key space is
        workload-dependent (see :meth:`GraphIndexes.warm`).
        """
        for edge_label in self.graph.edge_labels():
            self.csr(edge_label, True)
            self.csr(edge_label, False)
        self.und_csr()

    # -- Introspection ------------------------------------------------------ #

    @property
    def num_csrs(self) -> int:
        """Directed CSRs built so far (observability)."""
        return len(self._csr)

    @property
    def num_columns(self) -> int:
        """Attribute columns built so far (observability)."""
        return len(self._columns)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ColumnarStore(|V|={len(self.node_order)}, "
            f"labels={len(self.label_names)}, csrs={self.num_csrs}, "
            f"columns={self.num_columns}, numpy={HAVE_NUMPY})"
        )
