"""Daemon work-counter regression gate plus a mid-chaos recovery case.

A fixed workload — toy talent graph, one worker, a deterministic mix of
tenants, SLO classes, duplicates, a malformed line and a forced
queue-full shed — pins every ``service.daemon.*`` / ``service.admission.*``
counter (and the generation work absorbed from the worker registry)
against a checked-in baseline. Counter drift here means the serving
*policy* changed: a different DRR rotation shows up as admission order
churn, a lost dedup tier as ``service.daemon.deduplicated`` going to
zero, a widened retry loop as ``service.daemon.retries`` growth.

Determinism notes: one worker serializes execution; only wall-clock-free
budgets (explicit ``max_instances``) and deadline-free SLO classes
(``batch``) appear, so no counter depends on timing; ``counters()``
excludes histograms.

Refresh after an intentional change with::

    PYTHONPATH=src python -m pytest tests/regression --update-baselines

The chaos case injects an evaluator fault mid-workload and pins the
recovery counters too — outcomes must match the fault-free run exactly.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.obs.baselines import compare_counters, load_baseline, save_baseline
from repro.runtime.faults import FaultInjector, FaultKind, FaultSpec
from repro.service.daemon import ServingDaemon
from repro.service.requests import GenerationRequest, outcome_to_dict
from repro.session import BatchSession

from tests.regression.engine_paths import pinned
from tests.regression.test_streaming_counters import (
    build_graph,
    build_groups,
    build_template,
)

BASELINE_DIR = Path(__file__).parent / "baselines"
BASELINE = BASELINE_DIR / "daemon.json"
CHAOS_BASELINE = BASELINE_DIR / "daemon_chaos.json"

OPTIONS = {"epsilon": 0.15, "options": {"max_domain_values": 4}}


def build_workload(template):
    """The pinned submission list (5 admitted + 1 shed + 2 rejected)."""
    def request(request_id, client, **kwargs):
        params = dict(OPTIONS)
        params.update(kwargs)
        return GenerationRequest(request_id, template, client=client, **params)

    return [
        request("a1", "alice"),
        request("a2", "alice", algorithm="rfqgen"),
        request("a3", "alice", max_instances=2),       # truncated partial
        request("a4", "alice"),                        # dedup twin of a1
        request("a5", "alice"),                        # shed: queue_depth=4
        request("b1", "bob", algorithm="enum", slo="batch"),
        "this is not json",                            # rejected
        '{"id": "b1", "unknown_key": 1}',              # rejected (bad key)
    ]


def run_daemon(faults=None, max_retries=2):
    graph = build_graph()
    daemon = ServingDaemon(
        graph,
        build_groups(),
        workers=1,
        queue_depth=4,
        max_retries=max_retries,
        default_template=build_template(),
        faults=faults,
    )
    try:
        outcomes = daemon.serve(build_workload(build_template()))
    finally:
        daemon.shutdown()
    return daemon, outcomes


def fingerprints(outcomes):
    rows = []
    for outcome in outcomes:
        payload = outcome_to_dict(outcome)
        payload.pop("elapsed_seconds", None)
        rows.append(payload)
    return rows


def check_baseline(path, counters, update_baselines):
    if update_baselines:
        save_baseline(path, counters)
        pytest.skip(f"baseline rewritten: {path.name}")
    assert path.exists(), (
        f"missing baseline {path}; "
        "run: pytest tests/regression --update-baselines"
    )
    baseline = load_baseline(path)
    report = compare_counters(
        counters, pinned(baseline["counters"]), baseline["tolerance"]
    )
    assert report.ok, report.describe()


def test_daemon_counters_match_baseline(update_baselines):
    daemon, outcomes = run_daemon()
    assert len(outcomes) == 8
    check_baseline(BASELINE, dict(daemon.metrics.counters()), update_baselines)


def test_chaos_counters_match_baseline_and_outcomes_recover(update_baselines):
    """An injected evaluator fault on submission 1 must be retried away:
    outcomes identical to the fault-free run, recovery visible only in
    the retry counters."""
    _, clean = run_daemon()
    faults = FaultInjector([FaultSpec(FaultKind.ERROR, batch_index=1)])
    daemon, chaotic = run_daemon(faults=faults)
    assert fingerprints(chaotic) == fingerprints(clean)
    counters = dict(daemon.metrics.counters())
    assert counters["service.daemon.retries"] == 1
    check_baseline(CHAOS_BASELINE, counters, update_baselines)


def test_baseline_pins_daemon_headliners():
    """The baseline must cover the counters the serving claims rest on."""
    counters = load_baseline(BASELINE)["counters"]
    for name in (
        "service.daemon.requests",
        "service.daemon.completed",
        "service.daemon.deduplicated",
        "service.daemon.truncated",
        "service.daemon.shed",
        "service.requests.rejected",
        "service.admission.admitted",
        "service.admission.shed.queue_full",
    ):
        assert name in counters, name
    assert counters["service.daemon.requests"] == 6
    # a1, a2, a3, b1 execute; a4 replays (dedup); a5 is shed.
    assert counters["service.daemon.completed"] == 4
    assert counters["service.daemon.deduplicated"] == 1
    assert counters["service.daemon.shed"] == 1
    assert counters["service.requests.rejected"] == 2
    # Worker generation work is absorbed next to the serving counters so
    # one snapshot tells the whole story.
    assert any(name.startswith("gen.") for name in counters)
    # The fault-free and chaos runs may differ only in retry accounting.
    chaos = load_baseline(CHAOS_BASELINE)["counters"]
    differing = {
        name
        for name in set(counters) | set(chaos)
        if counters.get(name, 0) != chaos.get(name, 0)
    }
    assert "service.daemon.retries" in differing
    assert all(
        name.startswith(("service.daemon.retries", "evaluator.", "matcher.",
                         "gen.", "runtime."))
        for name in differing
    ), differing


def test_default_serving_path_stays_counter_silent():
    """The daemon is opt-in: a plain batch session registers none of the
    ``service.daemon.*`` / ``service.admission.*`` counters, keeping the
    default path's snapshots byte-identical to previous releases."""
    session = BatchSession(
        build_graph(), build_groups(), max_domain_values=4
    )
    request = GenerationRequest("r1", build_template(), epsilon=0.15)
    outcomes = session.run([request])
    assert outcomes[0].ok
    for name in session.metrics.counters():
        assert not name.startswith("service.daemon.")
        assert not name.startswith("service.admission.")
