"""Columnar differential suite: byte-identical archives, columnar on or off.

The columnar core replaces *representations* — CSR slices for adjacency
dicts, compiled column masks for attribute-table scans, interned codes
for raw values — never semantics. These tests run the full generators,
the delta-scoring engine and the serving context with the columnar
engine (and with a store enabled under the default engines) and compare
archives exactly: instantiation keys, match sets and the float δ/f
coordinates with ``==``.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro import CBM, BiQGen, EnumQGen, GenerationConfig, Kungs, RfQGen
from repro.graph.indexes import GraphIndexes
from repro.matching.matcher import SubgraphMatcher
from repro.obs import MetricsRegistry
from repro.service.context import GraphContext

ALGORITHMS = [EnumQGen, Kungs, CBM, RfQGen, BiQGen]


def _fingerprint(result):
    """Order-sensitive, exact archive fingerprint (floats compared by ==)."""
    return [
        (e.instance.instantiation.key, frozenset(e.matches), e.delta, e.coverage,
         e.feasible)
        for e in result.instances
    ]


@pytest.mark.parametrize("algo_cls", ALGORITHMS)
def test_columnar_engine_is_bit_identical(algo_cls, talent_config):
    baseline = algo_cls(replace(talent_config, matcher_engine="set")).run()
    columnar = algo_cls(replace(talent_config, matcher_engine="columnar")).run()
    assert _fingerprint(columnar) == _fingerprint(baseline)
    assert columnar.epsilon == baseline.epsilon


@pytest.mark.parametrize("algo_cls", [RfQGen, BiQGen])
def test_columnar_with_delta_scoring(algo_cls, talent_config):
    baseline = algo_cls(replace(talent_config, matcher_engine="set")).run()
    fast = algo_cls(
        replace(
            talent_config, matcher_engine="columnar", use_delta_scoring=True
        )
    ).run()
    assert _fingerprint(fast) == _fingerprint(baseline)


def test_store_under_default_engine_is_inert(talent_config):
    """Enabling the store on shared indexes must not change set-engine
    results: the store only reroutes lookups, bit-for-bit."""
    baseline = RfQGen(talent_config).run()
    indexes = GraphIndexes(talent_config.graph)
    indexes.enable_columnar()
    shared = replace(talent_config, shared_indexes=indexes)
    with_store = RfQGen(shared).run()
    assert _fingerprint(with_store) == _fingerprint(baseline)


def test_columnar_context_serves_identical_results(
    talent_graph, talent_template, talent_groups
):
    plain = GraphContext(talent_graph)
    columnar = GraphContext(talent_graph)
    columnar.indexes.enable_columnar()
    columnar.warm()
    # Warming pre-built every (edge label, direction) CSR plus undirected.
    expected = 2 * len(talent_graph.edge_labels())
    assert columnar.indexes.columnar.num_csrs == expected
    for context, engine in ((plain, "set"), (columnar, "columnar")):
        config = context.configure(
            talent_template,
            talent_groups,
            epsilon=0.25,
            max_domain_values=6,
            matcher_engine=engine,
        )
        result = RfQGen(config).run()
        context.result = _fingerprint(result)
    assert plain.indexes.columnar is None
    assert columnar.result == plain.result


def test_columnar_engine_counters(talent_config):
    """The engine surfaces its own matcher counters plus the store's
    build/patch counters on the run registry."""
    registry = MetricsRegistry()
    config = replace(talent_config, matcher_engine="columnar", metrics=registry)
    RfQGen(config).run()
    counters = registry.counters()
    assert counters["graph.columnar.builds"] == 1
    assert counters["graph.columnar.csr_builds"] >= 0
    assert "matcher.columnar.support_sweeps" in counters
    assert "matcher.columnar.fallback_propagations" in counters


def test_default_runs_see_no_columnar_counters(talent_config):
    """Baseline safety: without opting in, no ``graph.columnar.*`` or
    ``matcher.columnar.*`` counter may appear in a run snapshot."""
    registry = MetricsRegistry()
    config = replace(talent_config, matcher_engine="bitset", metrics=registry)
    RfQGen(config).run()
    leaked = [
        name for name in registry.counters() if "columnar" in name
    ]
    assert leaked == []


def test_matcher_rejects_unknown_engine(talent_graph):
    with pytest.raises(Exception):
        SubgraphMatcher(talent_graph, engine="rowwise")
