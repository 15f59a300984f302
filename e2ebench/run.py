"""End-to-end benchmark of the FairSQG library: one workload per process.

Usage, from the repository root::

    python3 e2ebench/run.py --workload generate-paper --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics untraced, every timing at
the reference host speed (each op divided by the host slowdown sampled
around it; the wall-clock figures are printed as diagnostics).
``--trace 1``
alternates untraced and traced quarters of ``--seconds`` and reports the
per-layer table instead (self time per layer, counts from the program's
registries, the tracing overhead). Both print a human-readable table
and then, as the last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import time
from typing import Dict, List, Tuple

from measure import host_probe_ms, host_slowdown, min_samples_for, peak_rss_mb
from paths import use_source_tree
from report import (
    end_to_end,
    format_table,
    lateness_p90_ms,
    per_layer,
    percentile_note,
    raw_latency_metrics,
    slowdown_metric,
)
from spans import Instrumentation, SpanRecorder

#: In-process set-ups per untraced run, setup_s being their median: at
#: least SETUP_REPEATS[0], then more until SETUP_SECONDS have passed, at
#: most SETUP_REPEATS[1]. Cheap set-ups get more samples that way.
SETUP_REPEATS = (5, 25)
SETUP_SECONDS = 2.0
#: Untraced / traced alternation of a traced run.
TRACE_PHASES = (False, True, False, True)


def _timed_setups(workload, repeats=(1, 1)) -> Tuple[List[float], List[float]]:
    """Repeated set-ups: (wall seconds, seconds at the reference host speed).

    Each set-up is divided by the mean of the host slowdowns sampled
    just before and just after it.
    """
    seconds: List[float] = []
    calibrated: List[float] = []
    fewest, most = repeats
    while len(seconds) < fewest or (len(seconds) < most and sum(seconds) < SETUP_SECONDS):
        workload.teardown()
        gc.collect()
        before = host_slowdown()
        start = time.perf_counter()
        workload.setup()
        seconds.append(time.perf_counter() - start)
        calibrated.append(seconds[-1] / statistics.mean([before, host_slowdown()]))
    gc.collect()
    return seconds, calibrated


def measure(workload, seconds: float) -> Dict:
    probe_before = host_probe_ms()
    setups, calibrated_setups = _timed_setups(workload, SETUP_REPEATS)
    # At least enough ops for p90 to have ten samples beyond it.
    records = workload.run_phase(seconds, min_samples_for(0.9))
    final_ok = workload.finish()
    probe_after = host_probe_ms()
    metrics = end_to_end(records, calibrated_setups, peak_rss_mb())
    notes = {
        "op_p50_ms": percentile_note(len(records), 0.5),
        "op_p90_ms": percentile_note(len(records), 0.9),
        "ops_per_s": "completed ops / busy time",
        "setup_s": f"median of {len(setups)} set-ups",
    }
    print(f"== {workload.name} seed={workload.seed} untraced, timings at the reference host speed ==")
    for line in format_table(metrics, notes):
        print(line)
    diagnostics = {
        **raw_latency_metrics(records),
        "raw.setup_s": (statistics.median(setups), "s", len(setups)),
        "host.slowdown": slowdown_metric(records),
        "host.probe_ms": (statistics.median([probe_before, probe_after]), "ms", 2),
        "serve.late_p90_ms": lateness_p90_ms(_lateness(workload, records)),
    }
    print("-- diagnostics (not gated) --")
    for line in format_table(diagnostics):
        print(line)
    return _result(records, final_ok, metrics)


def measure_traced(workload, seconds: float) -> Dict:
    probe_before = host_probe_ms()
    _timed_setups(workload)
    recorder = SpanRecorder()
    registry = workload.registry
    registry.reset(prefix="service.daemon.queue_wait_seconds")
    registry.reset(prefix="service.daemon.request_seconds")
    untraced, traced = [], []
    counters: Dict[str, int] = {}
    for is_traced in TRACE_PHASES:
        phase_seconds = seconds / len(TRACE_PHASES)
        if not is_traced:
            untraced.extend(workload.run_phase(phase_seconds, 1))
            continue
        before = registry.counters()
        with Instrumentation(recorder), workload.traced_scope():
            traced.extend(workload.run_phase(phase_seconds, 1))
        for name, value in registry.counters().items():
            counters[name] = counters.get(name, 0) + value - before.get(name, 0)
    records = untraced + traced
    final_ok = workload.finish()
    probe_ms = statistics.median([probe_before, host_probe_ms()])
    snapshot = registry.snapshot()
    histograms = {
        name: registry.histogram(name)
        for name in ("service.daemon.queue_wait_seconds", "service.daemon.request_seconds")
        if name in snapshot["histograms"]
    }
    metrics = per_layer(
        traced,
        untraced,
        recorder.spans,
        recorder.counts,
        counters,
        snapshot["gauges"],
        histograms,
        _lateness(workload, records),
        probe_ms,
        open_loop=workload.open_loop,
    )
    print(f"== {workload.name} seed={workload.seed} traced: {len(recorder.spans)} spans ==")
    for line in format_table(metrics):
        print(line)
    return _result(records, final_ok, metrics)


def _lateness(workload, records) -> List[float]:
    """How late the open-loop generator sent each request (closed loops: none)."""
    return [r.lateness for r in records] if workload.open_loop else []


def _result(records, final_ok: bool, metrics: Dict) -> Dict:
    failed = sum(not r.ok for r in records)
    return {
        "correct": bool(final_ok and failed == 0 and records),
        "attempted": len(records),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not use_source_tree():
        print("e2ebench: no program source tree (src/repro) next to the benchmark", file=sys.stderr)
        return 2
    # These import the program, so only once its source tree is on the path.
    from golden import load_goldens
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"e2ebench: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    cls = WORKLOADS[args.workload]
    workload = cls(args.seed, load_goldens(cls.name) if cls.uses_goldens else {})
    try:
        if args.trace:
            result = measure_traced(workload, args.seconds)
        else:
            result = measure(workload, args.seconds)
    finally:
        workload.teardown()
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
