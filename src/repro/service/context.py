"""Process-lifetime graph state for the serving layer (cache tier 1).

A :class:`GraphContext` pins everything that is a pure function of one
frozen graph — the built :class:`~repro.graph.indexes.GraphIndexes`
(label pools, attribute tables, bitset enumerations, adjacency rows) and
the workload-scoped literal-pool cache
(:class:`~repro.matching.bitset.WorkloadLiteralPools`) — so a workload of
k generation requests pays the build cost once instead of k times.

Invalidation: graphs themselves are immutable (``freeze()``), so the
indexes never silently go stale; what changes is *which* graph the
service answers for. :meth:`GraphContext.apply_delta` materializes
``G ⊕ Δ`` via :func:`repro.matching.delta.apply_delta` and swaps in the
new graph, and :meth:`GraphContext.invalidate` is the explicit hook that
rebuilds the indexes and drops every cached mask (bumping
``generation`` so stale references are detectable). Run-level state —
per-run ε-Pareto archives (:mod:`repro.core.update`) and verifier memos —
is never shared here, so nothing of it can leak across an invalidation.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (streaming → here)
    from repro.streaming.graph_ops import DeltaReceipt

from repro.core.config import GenerationConfig
from repro.errors import ServiceError
from repro.graph.attributed_graph import AttributedGraph
from repro.graph.indexes import GraphIndexes
from repro.matching.bitset import WorkloadLiteralPools
from repro.matching.delta import GraphDelta, apply_delta
from repro.obs.registry import MetricsRegistry


class GraphContext:
    """Shared per-graph serving state: indexes + workload literal pools.

    Args:
        graph: The (frozen) data graph to serve.
        metrics: Registry receiving the ``service.*`` counters; the
            scheduler built on top shares it by default. A private one is
            created when omitted.
        workload_pool_max_entries: LRU bound of the workload literal-pool
            cache (None = unbounded).
        warm: Pre-build the per-label index state eagerly
            (:meth:`GraphIndexes.warm`) so the first request served is
            not a cold start. The graph's columnar core
            (:class:`~repro.graph.columnar.ColumnarStore`) is enabled on
            the shared indexes by the first request that runs the
            (default) columnar engine; a later :meth:`warm` pre-builds
            its CSRs too.

    Example:
        >>> context = GraphContext(graph)                   # doctest: +SKIP
        >>> config = context.bind(GenerationConfig(graph, template, groups))
        ...                                                 # doctest: +SKIP
        >>> BiQGen(config).run()  # reuses the shared indexes  # doctest: +SKIP
    """

    def __init__(
        self,
        graph: AttributedGraph,
        metrics: Optional[MetricsRegistry] = None,
        workload_pool_max_entries: Optional[int] = 4096,
        warm: bool = False,
    ) -> None:
        self.metrics = metrics or MetricsRegistry()
        self._graph = graph
        self._pool_bound = workload_pool_max_entries
        self._generation = 0
        self._revision = 0
        self.metrics.counter("service.context.invalidations")
        self.metrics.counter("service.context.configs_bound")
        self.metrics.counter("service.context.inplace_deltas")
        self._build(warm)

    def _build(self, warm: bool) -> None:
        self._indexes = GraphIndexes(self._graph)
        self._pools = WorkloadLiteralPools(
            metrics=self.metrics, max_entries=self._pool_bound
        )
        if warm:
            self._indexes.warm()

    # ------------------------------------------------------------------ #
    # Views
    # ------------------------------------------------------------------ #

    @property
    def graph(self) -> AttributedGraph:
        """The graph currently served."""
        return self._graph

    @property
    def indexes(self) -> GraphIndexes:
        """The shared indexes (tier 1 of the cache hierarchy)."""
        return self._indexes

    @property
    def literal_pools(self) -> WorkloadLiteralPools:
        """The workload literal-pool cache (tier 2)."""
        return self._pools

    @property
    def generation(self) -> int:
        """Invalidation epoch — bumped by every invalidate/apply_delta."""
        return self._generation

    @property
    def revision(self) -> int:
        """In-place mutation counter — bumped by every in-place delta.

        Unlike :attr:`generation`, a revision bump means the *same* graph
        object changed underneath; bound configs stay valid (the shared
        indexes were repaired in place) but any state keyed on raw answer
        sets — verifier memos, evaluator memos — must be refreshed by the
        caller, which is exactly what the streaming session does.
        """
        return self._revision

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"GraphContext({self._graph.name!r}, generation={self._generation}, "
            f"pools={len(self._pools)})"
        )

    # ------------------------------------------------------------------ #
    # Binding configurations
    # ------------------------------------------------------------------ #

    def bind(self, config: GenerationConfig) -> GenerationConfig:
        """A copy of ``config`` wired to this context's shared caches.

        Raises :class:`~repro.errors.ServiceError` when the config was
        built for a different graph object — its masks and pools would be
        meaningless here.
        """
        if config.graph is not self._graph:
            raise ServiceError(
                "config.graph is not the context's graph; rebuild the config "
                "against context.graph (or apply_delta first)"
            )
        self.metrics.inc("service.context.configs_bound")
        return replace(
            config,
            shared_indexes=self._indexes,
            shared_literal_pools=self._pools,
        )

    def configure(self, template, groups, **options) -> GenerationConfig:
        """Build a :class:`GenerationConfig` bound to this context."""
        return self.bind(
            GenerationConfig(self._graph, template, groups, **options)
        )

    # ------------------------------------------------------------------ #
    # Warm-up / invalidation
    # ------------------------------------------------------------------ #

    def warm(self) -> None:
        """Pre-build the per-label index state (cold-start cut)."""
        self._indexes.warm()

    def invalidate(self) -> None:
        """Drop every cached structure and rebuild against the graph.

        Call after replacing the served graph out-of-band; configs bound
        before the invalidation keep the *old* indexes (sound — they
        describe the old graph) and must be re-bound to see the new state.
        """
        self._generation += 1
        self.metrics.inc("service.context.invalidations")
        self._build(warm=False)

    def apply_delta(self, delta: GraphDelta) -> AttributedGraph:
        """Serve ``G ⊕ Δ``: materialize the delta, swap, invalidate.

        Returns the new graph so callers can rebuild their configs
        against it.
        """
        self._graph = apply_delta(self._graph, delta)
        self.invalidate()
        return self._graph

    def apply_delta_in_place(self, delta: GraphDelta) -> "DeltaReceipt":
        """Serve ``G ⊕ Δ`` without rebuilding: mutate, repair, keep identity.

        The streaming fast path. The served graph object is mutated in
        place (so configs bound to it remain bound — :meth:`bind`'s
        identity check still passes), the shared indexes drop exactly the
        rows/tables the delta staled (:meth:`GraphIndexes.repair`), and
        the workload literal-pool cache drops masks over touched
        (label, attribute) pairs. ``generation`` is untouched; the new
        :attr:`revision` counter records the mutation. Returns the
        :class:`~repro.streaming.graph_ops.DeltaReceipt` describing what
        changed, for the caller's own repair (verifier memos, scores).
        """
        from repro.streaming.graph_ops import apply_delta_in_place

        receipt = apply_delta_in_place(self._graph, delta)
        self._indexes.repair(receipt.touched_nodes, receipt.touched_attributes)
        self._pools.invalidate_attributes(receipt.touched_attributes)
        self._revision += 1
        self.metrics.inc("service.context.inplace_deltas")
        return receipt
