"""Pairwise node-dissimilarity kernels ``d(v, v') ∈ [0, 1]``.

The paper instantiates ``d`` as the normalized edit distance between the
attribute tuples ``T(v)`` and ``T(v')`` [25]. We provide:

* :func:`levenshtein` / :func:`normalized_levenshtein` — classic string
  edit distance;
* :class:`EditTupleDistance` — exact per-attribute distance (edit distance
  on strings, range-normalized difference on numbers), averaged over the
  attribute union; the ground-truth kernel, O(len²) per string pair;
* :class:`GowerTupleDistance` — the standard Gower simplification
  (categorical mismatch = 1), which admits an O(n log n) *sum over all
  pairs* decomposition used by the fast diversity path
  (:mod:`repro.core.measures`).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Mapping, Optional, Sequence, Tuple

from repro.graph.attributed_graph import AttributedGraph

try:  # pragma: no cover - exercised implicitly by both CI variants
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None


def levenshtein(a: str, b: str) -> int:
    """Classic Levenshtein edit distance (two-row dynamic program)."""
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    if len(a) < len(b):
        a, b = b, a
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            cost = 0 if ca == cb else 1
            current.append(min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + cost))
        previous = current
    return previous[-1]


def normalized_levenshtein(a: str, b: str) -> float:
    """Levenshtein distance divided by the longer length (``[0, 1]``)."""
    longest = max(len(a), len(b))
    if longest == 0:
        return 0.0
    return levenshtein(a, b) / longest


class AttributeRanges:
    """Per-attribute numeric ranges over one node label (for normalization)."""

    def __init__(self, graph: AttributedGraph, label: str) -> None:
        self._graph = graph
        self._label = label
        self._ranges: Dict[str, Tuple[float, float]] = {}

    def range_of(self, attribute: str) -> Tuple[float, float]:
        """(min, max) of numeric values of ``attribute``; (0, 0) if none."""
        cached = self._ranges.get(attribute)
        if cached is None:
            values = [
                v
                for v in self._graph.active_domain(attribute, self._label)
                if isinstance(v, (int, float)) and not isinstance(v, bool)
            ]
            cached = (min(values), max(values)) if values else (0.0, 0.0)
            self._ranges[attribute] = cached
        return cached

    def spread(self, attribute: str) -> float:
        lo, hi = self.range_of(attribute)
        return float(hi - lo)

    def drop(self, attributes: Iterable[str]) -> int:
        """Forget cached ranges for ``attributes`` (streaming repair).

        After an in-place attribute update the cached (min, max) of a
        touched attribute may be stale; dropping it makes the next
        :meth:`range_of` re-scan the active domain. Returns how many live
        entries were dropped.
        """
        dropped = 0
        for name in attributes:
            if self._ranges.pop(name, None) is not None:
                dropped += 1
        return dropped


class _TupleDistanceBase:
    """Shared plumbing: attribute selection, per-pair caching."""

    def __init__(
        self,
        graph: AttributedGraph,
        label: str,
        attributes: Optional[Sequence[str]] = None,
    ) -> None:
        self.graph = graph
        self.label = label
        if attributes is None:
            names: set = set()
            for node_id in graph.nodes_with_label(label):
                names.update(graph.attributes(node_id).keys())
            attributes = sorted(names)
        self.attributes: Tuple[str, ...] = tuple(attributes)
        self.ranges = AttributeRanges(graph, label)
        self._cache: Dict[Tuple[int, int], float] = {}

    def invalidate_nodes(self, nodes: Iterable[int]) -> int:
        """Drop cached pair distances involving ``nodes`` (streaming repair).

        A node's attribute update stale-ifies exactly the cached pairs it
        participates in; every other pair's distance is unchanged (given
        the normalizing spreads are unchanged — when they are not, the
        caller must rebuild the kernel instead). Returns the number of
        dropped pairs.
        """
        touched = set(nodes)
        stale = [key for key in self._cache if key[0] in touched or key[1] in touched]
        for key in stale:
            del self._cache[key]
        return len(stale)

    def __call__(self, v: int, w: int) -> float:
        """Cached distance between two node ids."""
        if v == w:
            return 0.0
        key = (v, w) if v < w else (w, v)
        cached = self._cache.get(key)
        if cached is None:
            cached = self._compute(v, w)
            self._cache[key] = cached
        return cached

    def _compute(self, v: int, w: int) -> float:  # pragma: no cover - abstract
        raise NotImplementedError

    def _attribute_distance_numeric(self, attribute: str, a: Any, b: Any) -> float:
        spread = self.ranges.spread(attribute)
        if spread == 0:
            return 0.0 if a == b else 1.0
        return min(1.0, abs(float(a) - float(b)) / spread)


class EditTupleDistance(_TupleDistanceBase):
    """Exact tuple distance: edit distance on strings, range-normalized on
    numbers, averaged over the configured attributes.

    Missing-value convention: both missing → 0 (identically unknown);
    exactly one missing → 1 (maximally different).
    """

    def _compute(self, v: int, w: int) -> float:
        if not self.attributes:
            return 0.0
        a_attrs = self.graph.attributes(v)
        b_attrs = self.graph.attributes(w)
        total = 0.0
        for attribute in self.attributes:
            a = a_attrs.get(attribute)
            b = b_attrs.get(attribute)
            if a is None and b is None:
                continue
            if a is None or b is None:
                total += 1.0
            elif _is_number(a) and _is_number(b):
                total += self._attribute_distance_numeric(attribute, a, b)
            else:
                total += normalized_levenshtein(str(a), str(b))
        return total / len(self.attributes)


class GowerTupleDistance(_TupleDistanceBase):
    """Gower distance: numeric attributes range-normalized, categorical
    attributes contribute 0/1 on exact (mis)match.

    Equals :class:`EditTupleDistance` whenever categorical values are either
    identical or share no characters; in general it upper-bounds the edit
    variant on categorical attributes. Its decomposable pair-sum makes the
    O(n log n) diversity path possible.
    """

    def __init__(
        self,
        graph: AttributedGraph,
        label: str,
        attributes: Optional[Sequence[str]] = None,
    ) -> None:
        super().__init__(graph, label, attributes)
        # Per label code of the graph's columnar store: this kernel's
        # (attribute, column) pairs, resolved on first use.
        self._columns_of: Dict[int, Tuple[Tuple[str, Any], ...]] = {}

    def _compute(self, v: int, w: int) -> float:
        if not self.attributes:
            return 0.0
        store = self.graph.columnar_store()
        if store is not None:
            gpos_v = store.node_pos.get(v)
            gpos_w = store.node_pos.get(w)
            if (
                gpos_v is not None
                and gpos_w is not None
                and store.label_codes[gpos_v] == store.label_codes[gpos_w]
            ):
                return self._compute_interned(store, gpos_v, gpos_w)
        a_attrs = self.graph.attributes(v)
        b_attrs = self.graph.attributes(w)
        total = 0.0
        for attribute in self.attributes:
            a = a_attrs.get(attribute)
            b = b_attrs.get(attribute)
            if a is None and b is None:
                continue
            if a is None or b is None:
                total += 1.0
            elif _is_number(a) and _is_number(b):
                total += self._attribute_distance_numeric(attribute, a, b)
            else:
                total += 0.0 if a == b else 1.0
        return total / len(self.attributes)

    def _compute_interned(self, store, gpos_v: int, gpos_w: int) -> float:
        """Column-backed pair distance: categorical branch compares codes.

        Values equal under ``==`` share one interned code per column, so
        code equality reproduces value equality without re-hashing raw
        strings; numeric branches read the same raw values the dict path
        reads, so the result is bitwise identical.
        """
        label_code = store.label_codes[gpos_v]
        columns = self._columns_of.get(label_code)
        if columns is None:
            # Columns are never replaced (in-place deltas patch their
            # cells), so one lookup per label serves every later pair.
            label = store.label_names[label_code]
            columns = self._columns_of[label_code] = tuple(
                (attribute, store.column(label, attribute))
                for attribute in self.attributes
            )
        pv = store.label_local[gpos_v]
        pw = store.label_local[gpos_w]
        total = 0.0
        for attribute, column in columns:
            a = column.values[pv]
            b = column.values[pw]
            if a is None and b is None:
                continue
            if a is None or b is None:
                total += 1.0
            elif _is_number(a) and _is_number(b):
                total += self._attribute_distance_numeric(attribute, a, b)
            else:
                ca = column.codes[pv]
                cb = column.codes[pw]
                if ca >= 0 and cb >= 0:
                    total += 0.0 if ca == cb else 1.0
                else:  # unhashable value: fall back to raw equality
                    total += 0.0 if a == b else 1.0
        return total / len(self.attributes)


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def pair_sum_numeric(values: Sequence[float]) -> float:
    """``Σ_{i<j} |x_i − x_j|`` in O(n log n) via sorted prefix sums.

    With ``x`` sorted ascending, each ``x_k`` appears as the larger element
    of ``k`` pairs and the smaller of ``n−1−k``, so the sum telescopes to
    ``Σ_k x_k · (2k − n + 1)``.
    """
    ordered = sorted(values)
    n = len(ordered)
    return sum(x * (2 * k - n + 1) for k, x in enumerate(ordered))


def pair_sum_categorical(values: Sequence[Any]) -> float:
    """``Σ_{i<j} 1[x_i ≠ x_j]`` via value counts: ``(n² − Σ m_c²)/2``."""
    counts: Dict[Any, int] = {}
    for value in values:
        counts[value] = counts.get(value, 0) + 1
    return pair_sum_categorical_counts(len(values), counts)


def pair_sum_categorical_counts(total: int, counts: Mapping[Any, int]) -> float:
    """:func:`pair_sum_categorical` from pre-maintained value counts.

    The arithmetic is all-integer until the final halving, so the result
    is exactly :func:`pair_sum_categorical` of the multiset the counts
    describe regardless of dict iteration order — which is what lets the
    delta-scoring engine maintain the counts incrementally and still
    reproduce the from-scratch value bit-for-bit.
    """
    return (total * total - sum(m * m for m in counts.values())) / 2.0


def pair_sum_interned(codes: Sequence[int]) -> float:
    """:func:`pair_sum_categorical` over interned value codes.

    ``codes`` are the dense ids of one
    :class:`~repro.graph.columnar.AttributeColumn` — values equal under
    ``==`` share one code — so counting codes counts values, without
    re-hashing raw strings on the scoring hot path. All codes must be
    ≥ 0 (callers exclude missing/unhashable sentinels). All-integer until
    the final halving, hence exactly equal to the raw-value formula; with
    numpy the counting is one ``bincount``.
    """
    n = len(codes)
    if n < 2:
        return 0.0
    if _np is not None:
        counts = _np.bincount(_np.asarray(codes, dtype=_np.int64))
        return (n * n - int((counts * counts).sum())) / 2.0
    tallies: Dict[int, int] = {}
    for code in codes:
        tallies[code] = tallies.get(code, 0) + 1
    return (n * n - sum(m * m for m in tallies.values())) / 2.0
