"""Membership-churn counter regression gate (the surgical patch tier).

A fixed session — toy talent graph, a rule-built overlapping
``GroupSystem``, delta scoring on, 10 seeded membership-moving deltas —
pins the patch path's counters (``streaming.membership_moves``,
``groups.membership_repairs``, ``scoring.patched_entries``, and the
work they replace) against ``baselines/streaming_membership.json``.
Counter drift here means the repair tiering changed: lost surgical
patches show up as ``scoring.invalidated_entries`` growth, a broken
membership diff as ``streaming.full_rescores``.

The suite also guards the flip side: the *legacy* streaming baseline —
taken with a static ``GroupSet`` and delta scoring off — must stay free
of every patch-path counter, pinning the promise that default runs are
counter-silent and byte-identical.

Refresh after an intentional change with::

    PYTHONPATH=src python -m pytest tests/regression --update-baselines
"""

from __future__ import annotations

from pathlib import Path

from repro.core.evaluator import InstanceEvaluator
from repro.core.update import EpsilonParetoArchive
from repro.graph.builder import GraphBuilder
from repro.groups import GroupRule, system_from_rules
from repro.matching.delta import apply_delta
from repro.obs.baselines import compare_counters, load_baseline, save_baseline
from repro.query import Literal, Op, QueryTemplate
from repro.service.context import GraphContext
from repro.streaming import StreamingSession, graph_signature
from repro.workload import random_delta_stream

from tests.regression.engine_paths import pinned

BASELINE_DIR = Path(__file__).parent / "baselines"
BASELINE = BASELINE_DIR / "streaming_membership.json"
LEGACY_BASELINE = BASELINE_DIR / "streaming.json"

#: Counters that exist only on the patch path — rule-built systems with
#: delta scoring; the legacy baseline must never contain any of them.
PATCH_PATH_COUNTERS = (
    "streaming.membership_moves",
    "groups.membership_repairs",
    "scoring.patched_entries",
)

OPTIONS = dict(epsilon=0.15, max_domain_values=4, use_delta_scoring=True)
GENERATE_COUNT = 24
GENERATE_SEED = 3
STREAM_COUNT = 10
STREAM_SEED = 7

RULES = [
    GroupRule("M", {"gender": "M"}, 1, label="person"),
    GroupRule("F", {"gender": "F"}, 1, label="person"),
    GroupRule("tech", {"major": ("CS", "Design")}, 1, label="person"),
]


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


def archive_fingerprint(archive):
    return sorted(
        (box, ev.instance.instantiation.key, tuple(sorted(ev.matches)),
         ev.delta, ev.coverage, ev.feasible)
        for box, ev in archive.boxes().items()
    )


def run_stream(assert_identity=False):
    graph = build_graph()
    groups = system_from_rules(graph, RULES, clamp=True)
    session = StreamingSession(
        graph, build_template(), groups, **OPTIONS
    )
    session.generate(count=GENERATE_COUNT, seed=GENERATE_SEED)
    reference = build_graph() if assert_identity else None
    deltas = list(
        random_delta_stream(
            graph, count=STREAM_COUNT, seed=STREAM_SEED,
            edge_ops=1, attr_ops=2, attributes=["gender", "major"],
        )
    )
    for step, delta in enumerate(deltas):
        session.update(delta)
        if reference is None:
            continue
        reference = apply_delta(reference, delta)
        assert graph_signature(session.graph) == graph_signature(reference)
        context = GraphContext(reference)
        config = context.configure(
            build_template(),
            system_from_rules(reference, RULES, clamp=True),
            **OPTIONS,
        )
        evaluator = InstanceEvaluator(config)
        cold = EpsilonParetoArchive(config.epsilon)
        for instance in session.ledger_instances():
            evaluated = evaluator.evaluate(instance)
            if evaluated.feasible:
                cold.offer(evaluated)
        assert archive_fingerprint(session.archive) == archive_fingerprint(
            cold
        ), f"archive drifted from cold rebuild at step {step}"
    return session


def test_membership_counters_match_baseline(update_baselines):
    session = run_stream()
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


def test_baseline_pins_patch_path_headliners():
    """The baseline must carry the counters the patch claim rests on."""
    counters = load_baseline(BASELINE)["counters"]
    for name in PATCH_PATH_COUNTERS:
        assert name in counters
    # The surgical tier actually engages: memberships move, entries get
    # patched rather than dropped, and the diffs never escalate the
    # stream into full-rescore cascades.
    assert counters["streaming.membership_moves"] > 0
    assert counters["scoring.patched_entries"] > 0
    assert counters["groups.membership_repairs"] == STREAM_COUNT
    assert (
        counters["streaming.full_rescores"]
        < counters["streaming.deltas_applied"]
    )


def test_legacy_baseline_free_of_patch_counters():
    """Static-GroupSet streams must never register patch-path counters —
    the default path stays counter-silent and its baseline byte-stable."""
    counters = load_baseline(LEGACY_BASELINE)["counters"]
    for name in PATCH_PATH_COUNTERS:
        assert name not in counters, (
            f"{name} leaked into the legacy streaming baseline"
        )


def test_membership_stream_matches_cold_rebuild():
    """The CI membership-churn smoke: 10 updates, identity at every step."""
    run_stream(assert_identity=True)
