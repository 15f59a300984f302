"""Tests of the benchmark itself: statistics, tracing, checks, names.

Run from the repository root::

    python3 -m pytest e2ebench/tests -q
"""

import asyncio
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import measure
import report
import spans
from golden import agrees, fingerprint
from measure import (
    OpRecord,
    assign_slowdowns,
    busy_seconds,
    calibrated_busy_seconds,
    min_samples_for,
    percentile,
    percentile_supported,
    samples_beyond,
    self_times,
    union_length,
)
from workloads import GeneratePaper, ServeOpen, Workload

BENCH_DIR = Path(__file__).resolve().parent.parent
REPO_ROOT = BENCH_DIR.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def benchmark_json():
    with open(REPO_ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


# ---------------------------------------------------------------------- #
# Percentiles
# ---------------------------------------------------------------------- #


def test_p90_needs_ten_samples_beyond():
    assert samples_beyond(100, 0.9) == 10
    assert percentile_supported(100, 0.9)
    assert not percentile_supported(99, 0.9)
    assert min_samples_for(0.9) == 100
    assert min_samples_for(0.5) == 20
    assert not percentile_supported(19, 0.5)


def test_percentile_is_harrell_davis():
    values = [float(v) for v in range(1, 101)]
    assert percentile(values, 0.5) == pytest.approx(50.5, abs=1e-6)
    assert percentile(values, 0.9) == pytest.approx(90.5, abs=0.05)
    assert percentile([7.0] * 30, 0.9) == pytest.approx(7.0)
    assert percentile([3.0], 0.9) == 3.0  # too few samples: interpolation
    assert percentile([1.0, 2.0, 3.0, 4.0], 0.9) == pytest.approx(3.7)
    with pytest.raises(ValueError):
        percentile([], 0.5)


def test_percentile_blurs_a_gap_between_clusters():
    # 90 fast requests and 10 slow ones: p90 sits at the gap. Moving one
    # request across it shifts a single-rank p90 by most of the 100 ms
    # gap, and this estimate by a small part of it.
    base = [100.0] * 90 + [200.0] * 10
    crossed = [100.0] * 89 + [200.0] * 11
    assert abs(percentile(crossed, 0.9) - percentile(base, 0.9)) < 20.0


def test_open_loop_busy_time_merges_overlaps():
    records = [OpRecord(0.0, 0.0, 1.0), OpRecord(0.5, 0.5, 2.0), OpRecord(3.0, 3.0, 4.0)]
    assert busy_seconds(records) == pytest.approx(3.0)
    assert union_length([(0.0, 1.0), (1.0, 2.0)]) == pytest.approx(2.0)


def test_calibrated_timings_divide_by_the_host_slowdown():
    slow = OpRecord(0.0, 0.0, 0.3, slowdown=1.5)
    assert slow.latency == pytest.approx(0.3)
    assert slow.calibrated_latency == pytest.approx(0.2)
    # Closed loop: each op divided by its own slowdown.
    closed = [OpRecord(0.0, 0.0, 0.3, slowdown=1.5), OpRecord(1.0, 1.0, 1.1, slowdown=1.0)]
    assert calibrated_busy_seconds(closed) == pytest.approx(0.2 + 0.1)
    # Open loop: an overlapping stretch divided by its median slowdown.
    overlapping = [
        OpRecord(0.0, 0.0, 1.0, slowdown=1.0),
        OpRecord(0.5, 0.5, 2.0, slowdown=2.0),
        OpRecord(1.5, 1.5, 2.0, slowdown=4.0),
        OpRecord(3.0, 3.0, 4.0, slowdown=0.5),
    ]
    assert calibrated_busy_seconds(overlapping) == pytest.approx(2.0 / 2.0 + 1.0 / 0.5)
    metrics = report.latency_metrics(closed)
    assert metrics["op_p50_ms"][0] == pytest.approx(150.0)
    assert metrics["ops_per_s"][0] == pytest.approx(2 / 0.3)
    raw = report.raw_latency_metrics(closed)
    assert raw["raw.op_p50_ms"][0] == pytest.approx(200.0)
    assert raw["raw.ops_per_s"][0] == pytest.approx(2 / 0.4)


# ---------------------------------------------------------------------- #
# Self time
# ---------------------------------------------------------------------- #


def test_self_time_nested_and_back_to_back_children():
    recorded = [
        (1, "parent", 0.0, 10.0, None, 0),
        (2, "child", 1.0, 3.0, 1, 0),
        (3, "child", 3.0, 6.0, 1, 0),  # starts where the first one ends
        (4, "grandchild", 1.5, 2.5, 2, 0),
    ]
    totals = self_times(recorded)
    assert totals["parent"] == pytest.approx(5.0)
    assert totals["child"] == pytest.approx(1.0 + 3.0)
    assert totals["grandchild"] == pytest.approx(1.0)


def test_self_time_clips_overlapping_children():
    recorded = [
        (1, "parent", 0.0, 4.0, None, 0),
        (2, "child", 1.0, 3.0, 1, 0),
        (3, "child", 2.0, 5.0, 1, 0),  # overlaps its sibling and overruns
    ]
    assert self_times(recorded)["parent"] == pytest.approx(1.0)


def test_recorder_nests_spans_and_attributes_ops():
    ticks = iter(range(100))
    recorder = spans.SpanRecorder(clock=lambda: float(next(ticks)))

    def leaf():
        return "leaf"

    wrapped_leaf = recorder.timed(leaf, "leaf")

    def outer():
        wrapped_leaf()
        wrapped_leaf()
        return "outer"

    wrapped_outer = recorder.timed(outer, "outer")
    token = spans.CURRENT_OP.set(7)
    try:
        assert wrapped_outer() == "outer"
    finally:
        spans.CURRENT_OP.reset(token)
    with spans.untraced():
        wrapped_outer()
    by_name = {}
    for span_id, name, start, end, parent, op in recorder.spans:
        by_name.setdefault(name, []).append((span_id, start, end, parent, op))
    assert len(by_name["outer"]) == 1 and len(by_name["leaf"]) == 2
    outer_id = by_name["outer"][0][0]
    assert all(parent == outer_id and op == 7 for _, _, _, parent, op in by_name["leaf"])
    # outer: ticks 0..5, leaves 1..2 and 3..4 -> self 5 - 2 = 3
    assert self_times(recorder.spans)["outer"] == pytest.approx(3.0)


def test_instrumentation_restores_every_original():
    from repro.core.biqgen import BiQGen
    from repro.core.update import EpsilonParetoArchive
    import repro.streaming.session as session_module

    before = (BiQGen.__dict__["run"], EpsilonParetoArchive.__dict__["offer"], session_module.reverify_matches)
    with spans.Instrumentation(spans.SpanRecorder()):
        assert BiQGen.__dict__["run"] is not before[0]
    after = (BiQGen.__dict__["run"], EpsilonParetoArchive.__dict__["offer"], session_module.reverify_matches)
    assert after == before


# ---------------------------------------------------------------------- #
# Open-loop latency is measured from the due time
# ---------------------------------------------------------------------- #


class _StallingDaemon:
    """Answers after 10 ms; the first request also blocks the event loop."""

    def __init__(self):
        self.calls = 0

    async def serve_async(self, requests):
        self.calls += 1
        if self.calls == 1:
            import time

            time.sleep(0.2)  # stalls the generator's loop
        await asyncio.sleep(0.01)
        return [SimpleNamespace(ok=False, shed=False, result=None)]


def test_latency_counts_from_due_time_when_generator_runs_late():
    workload = ServeOpen(seed=0, goldens={})
    workload.daemon = _StallingDaemon()
    loop = asyncio.new_event_loop()
    try:
        entries = [(0.0, (0, 0), "first"), (0.05, (0, 1), "second")]
        records = loop.run_until_complete(workload._drive(entries))
    finally:
        loop.close()
    late = records[1]
    assert late.lateness >= 0.14  # sent ~0.2 s after start, due at 0.05 s
    assert late.latency >= late.lateness + 0.01
    assert late.latency == pytest.approx(late.end - late.due)


def test_open_loop_samples_host_speed_only_while_idle(monkeypatch):
    samples = iter(range(1, 100))
    monkeypatch.setattr(measure, "host_slowdown", lambda: float(next(samples)))
    workload = ServeOpen(seed=0, goldens={})
    workload.daemon = _StallingDaemon()
    loop = asyncio.new_event_loop()
    try:
        entries = [
            (0.0, (0, 0), "first"),  # stalls the loop 0.2 s, so the next is sent late
            (0.04, (0, 1), "late"),  # due too soon to sample: keeps the first one
            (0.6, (0, 2), "idle"),  # the daemon is idle well before it is due
        ]
        records = loop.run_until_complete(workload._drive(entries))
    finally:
        loop.close()
    # Samples: 1 at the start, 2 once the daemon is idle before "idle",
    # 3 after the last answer. Each request gets the mean of the samples
    # around it.
    assert [r.slowdown for r in records] == [1.5, 1.5, 2.5]


def test_closed_loop_ops_get_the_samples_around_them():
    records = [OpRecord(1.0, 1.0, 2.0), OpRecord(3.0, 3.0, 4.0), OpRecord(5.0, 5.0, 6.0)]
    assign_slowdowns(records, [(0.5, 1.0), (2.5, 3.0), (4.5, 2.0)])
    assert [r.slowdown for r in records] == [2.0, 2.5, 2.0]


# ---------------------------------------------------------------------- #
# Output checks
# ---------------------------------------------------------------------- #


def _evaluated(key, delta, coverage, matches=(1, 2)):
    return SimpleNamespace(
        instance=SimpleNamespace(instantiation=SimpleNamespace(key=key)),
        delta=delta,
        coverage=coverage,
        matches=frozenset(matches),
    )


def test_fingerprint_tolerates_ulps_but_not_changes():
    archive = [_evaluated((("xl1", 3),), 12.5, 4.0), _evaluated((("xl1", 5),), 3.25, 8.0)]
    golden = fingerprint(archive, 0.02)
    nudged = [_evaluated((("xl1", 3),), 12.5 * (1 + 1e-13), 4.0), archive[1]]
    assert agrees(fingerprint(nudged, 0.02), golden)
    moved = [_evaluated((("xl1", 3),), 12.5 * (1 + 1e-6), 4.0), archive[1]]
    assert not agrees(fingerprint(moved, 0.02), golden)
    other_answer = [_evaluated((("xl1", 3),), 12.5, 4.0, matches=(1, 3)), archive[1]]
    assert not agrees(fingerprint(other_answer, 0.02), golden)
    assert not agrees(fingerprint(archive[:1], 0.02), golden)
    assert not agrees(golden, None)


class _ToyWorkload(Workload):
    """Ops whose outputs are checked against a golden table."""

    name = "toy"

    def __init__(self, goldens):
        super().__init__(0, goldens)
        self._items = list(range(4))

    def next_op(self):
        return self._items.pop(0) if self._items else None

    def execute(self, item):
        return [_evaluated((("x", item),), float(item + 1), 1.0)]

    def verify(self, item, output, record):
        return agrees(fingerprint(output, 0.01), self.goldens.get(str(item)))


def test_forced_golden_mismatch_lowers_ok_frac():
    truth = {str(i): fingerprint([_evaluated((("x", i),), float(i + 1), 1.0)], 0.01) for i in range(4)}
    clean = _ToyWorkload(truth).run_phase(seconds=0.0, min_ops=4)
    assert report.latency_metrics(clean)["ok_frac"][0] == 1.0
    forced = dict(truth)
    forced["2"] = fingerprint([_evaluated((("x", 2),), 99.0, 1.0)], 0.01)
    records = _ToyWorkload(forced).run_phase(seconds=0.0, min_ops=4)
    assert [r.ok for r in records] == [True, True, False, True]
    assert report.latency_metrics(records)["ok_frac"][0] == pytest.approx(0.75)


def test_generate_paper_goldens_catch_a_wrong_archive():
    from golden import load_goldens

    goldens = load_goldens(GeneratePaper.name)
    workload = GeneratePaper(seed=3, goldens=goldens)
    first = workload._schedule[0]
    key = GeneratePaper.request_id(*first)
    tampered = dict(goldens)
    tampered[key] = dict(goldens[key], exact="0" * 24)
    workload.goldens = tampered
    workload._bundles = GeneratePaper.bundles()
    records = workload.run_phase(seconds=0.0, min_ops=2)
    assert [r.ok for r in records] == [False, True]


# ---------------------------------------------------------------------- #
# Names, units and BENCHMARK.json
# ---------------------------------------------------------------------- #


def test_every_emitted_name_is_valid_and_declared():
    declared = benchmark_json()
    e2e = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in declared["per_layer"]}
    records = [OpRecord(float(i), float(i), float(i) + 0.5, ok=True) for i in range(20)]
    emitted_e2e = report.end_to_end(records, [0.1, 0.2, 0.3], 50.0)
    emitted_layers = report.per_layer(
        records, records, [], {}, {}, {}, {}, [], 10.0, open_loop=False
    )
    for emitted, table, declared_table in (
        (emitted_e2e, report.END_TO_END, e2e),
        (emitted_layers, report.PER_LAYER, layers),
    ):
        assert set(emitted) == set(table) == set(declared_table)
        for name, (value, unit, samples) in emitted.items():
            assert NAME.match(name), name
            assert UNIT.match(unit), unit
            assert declared_table[name] == unit
            assert isinstance(value, float) and isinstance(samples, int)


def test_benchmark_json_shape():
    declared = benchmark_json()
    assert set(declared) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    names = [w["name"] for w in declared["workloads"]]
    assert names == ["generate-paper", "serve-open", "stream-churn"]
    from workloads import WORKLOADS

    assert set(names) == set(WORKLOADS)
    e2e = {m["name"]: m for m in declared["end_to_end"]}
    assert e2e["setup_s"]["unit"] == "s" and e2e["setup_s"]["better"] == "lower"
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    assert all(0 < m["bound"] <= 0.25 for m in e2e.values())
    everything = names + list(e2e) + [m["name"] for m in declared["per_layer"]]
    assert len(everything) == len(set(everything))


def test_no_engine_knobs_are_passed():
    knob = re.compile(
        r"\b(matcher_engine|use_delta_scoring|diversity_mode|membership_patching|columnar)\b\s*[=:]"
        r"|[\"'](matcher_engine|use_delta_scoring|diversity_mode|membership_patching|columnar)[\"']"
    )
    for path in BENCH_DIR.glob("*.py"):
        assert not knob.search(path.read_text(encoding="utf-8")), path


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "e2ebench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(REPO_ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    command = benchmark_json()["command"]
    done = subprocess.run(
        [sys.executable, *command[1:], "--workload", "generate-paper", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
