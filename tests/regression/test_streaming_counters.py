"""Streaming work-counter regression gate plus a mid-stream chaos case.

A fixed session — toy talent graph, 24 generated instances, 8 seeded
mixed deltas — pins every ``streaming.*`` counter (and the evaluator /
matcher work it induces) against a checked-in baseline. Counter drift
here means the incremental repair *algorithm* changed: a wider influence
ball shows up as ``streaming.recheck_pool_nodes`` growth, a lost
score-repair tier as ``streaming.full_rescores``.

Refresh after an intentional change with::

    PYTHONPATH=src python -m pytest tests/regression --update-baselines

The chaos case reuses the runtime ``FaultInjector`` to poison a repair
mid-stream and asserts the session recovers onto the exact cold-rebuild
archive — the differential invariant must survive the fault path too.
"""

from __future__ import annotations

from pathlib import Path

from repro.core.evaluator import InstanceEvaluator
from repro.core.update import EpsilonParetoArchive
from repro.graph.builder import GraphBuilder
from repro.groups import GroupSet, NodeGroup
from repro.matching.delta import apply_delta
from repro.obs.baselines import compare_counters, load_baseline, save_baseline
from repro.query import Literal, Op, QueryTemplate
from repro.runtime.faults import FaultInjector, FaultKind, FaultSpec
from repro.service.context import GraphContext
from repro.streaming import StreamingSession
from repro.workload import random_delta_stream

from tests.regression.engine_paths import pinned

BASELINE_DIR = Path(__file__).parent / "baselines"
BASELINE = BASELINE_DIR / "streaming.json"

OPTIONS = dict(epsilon=0.15, max_domain_values=4)
GENERATE_COUNT = 24
GENERATE_SEED = 3
STREAM_COUNT = 8
STREAM_SEED = 11


def build_graph():
    b = GraphBuilder("talent-toy")
    b.node("org", name="smallco", employees=100)
    b.node("org", name="bigco", employees=1000)
    b.node("person", name="r1", title="analyst", yearsOfExp=5,
           gender="M", major="CS")
    b.node("person", name="r2", title="analyst", yearsOfExp=12,
           gender="F", major="Business")
    b.node("person", name="d1", title="director", yearsOfExp=15,
           gender="M", major="CS")
    b.node("person", name="d2", title="director", yearsOfExp=18,
           gender="F", major="Business")
    b.node("person", name="d3", title="director", yearsOfExp=20,
           gender="M", major="CS")
    b.node("person", name="d4", title="director", yearsOfExp=9,
           gender="F", major="Design")
    b.edge(2, 0, "worksAt")
    b.edge(3, 1, "worksAt")
    b.edge(2, 4, "recommend")
    b.edge(2, 5, "recommend")
    b.edge(2, 7, "recommend")
    b.edge(3, 5, "recommend")
    b.edge(3, 6, "recommend")
    return b.build()


def build_template():
    return (
        QueryTemplate.builder("toy-talent")
        .node("u0", "person", Literal("title", Op.EQ, "director"))
        .node("u1", "person")
        .node("u2", "org")
        .fixed_edge("u1", "u0", "recommend")
        .fixed_edge("u1", "u2", "worksAt")
        .range_var("xl1", "u1", "yearsOfExp", Op.GE)
        .range_var("xl2", "u2", "employees", Op.GE)
        .output("u0")
        .build()
    )


def build_groups():
    return GroupSet(
        [
            NodeGroup("M", frozenset({4, 6}), 1),
            NodeGroup("F", frozenset({5, 7}), 1),
        ]
    )


def run_stream(faults=None):
    graph = build_graph()
    session = StreamingSession(
        graph, build_template(), build_groups(), faults=faults, **OPTIONS
    )
    session.generate(count=GENERATE_COUNT, seed=GENERATE_SEED)
    deltas = list(
        random_delta_stream(
            graph, count=STREAM_COUNT, seed=STREAM_SEED, edge_ops=2, attr_ops=1
        )
    )
    reports = [session.update(delta) for delta in deltas]
    return session, deltas, reports


def archive_fingerprint(archive):
    return sorted(
        (box, ev.instance.instantiation.key, tuple(sorted(ev.matches)),
         ev.delta, ev.coverage, ev.feasible)
        for box, ev in archive.boxes().items()
    )


def test_streaming_counters_match_baseline(update_baselines):
    session, _, _ = run_stream()
    counters = dict(session.metrics.counters())
    if update_baselines:
        save_baseline(BASELINE, counters)
        import pytest

        pytest.skip(f"baseline rewritten: {BASELINE.name}")
    assert BASELINE.exists(), (
        f"missing baseline {BASELINE}; "
        "run: pytest tests/regression --update-baselines"
    )
    baseline = load_baseline(BASELINE)
    report = compare_counters(
        counters, pinned(baseline["counters"]), baseline["tolerance"]
    )
    assert report.ok, report.describe()


def test_baseline_pins_streaming_headliners():
    """The baseline must cover the counters the streaming claim rests on."""
    counters = load_baseline(BASELINE)["counters"]
    for suffix in (
        "deltas_applied",
        "instances_rechecked",
        "instances_skipped",
        "scores_kept",
        "full_rescores",
    ):
        assert f"streaming.{suffix}" in counters
    # Incrementality, pinned: edge-only deltas keep scores verbatim
    # instead of rescoring, and full rescore cascades stay rare. (On the
    # toy graph the diameter-2 influence ball reaches every node, so the
    # skip counter is exercised by the unit suite on sparser graphs.)
    assert counters["streaming.scores_kept"] > 0
    assert (
        counters["streaming.full_rescores"]
        < counters["streaming.deltas_applied"]
    )


def test_clean_run_has_no_fallbacks():
    session, _, reports = run_stream()
    counters = session.metrics.counters()
    assert counters["streaming.fault_recoveries"] == 0
    assert counters["streaming.budget_fallbacks"] == 0
    assert all(r.recovered is None for r in reports)


def test_chaos_mid_stream_recovers_onto_cold_rebuild():
    """An injected evaluator fault during update 3's repair loop must be
    absorbed: the session falls back to a cold re-evaluation and the final
    archive still matches a from-scratch build on the final graph."""
    faults = FaultInjector([FaultSpec(FaultKind.ERROR, batch_index=3)])
    session, deltas, reports = run_stream(faults=faults)
    assert reports[3].recovered == "fault"
    assert session.metrics.counters()["streaming.fault_recoveries"] == 1

    final = build_graph()
    for delta in deltas:
        final = apply_delta(final, delta)
    context = GraphContext(final)
    config = context.configure(build_template(), build_groups(), **OPTIONS)
    evaluator = InstanceEvaluator(config)
    cold = EpsilonParetoArchive(config.epsilon)
    for instance in session.ledger_instances():
        evaluated = evaluator.evaluate(instance)
        if evaluated.feasible:
            cold.offer(evaluated)
    assert archive_fingerprint(session.archive) == archive_fingerprint(cold)
