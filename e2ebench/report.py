"""Turn op records, spans and counters into named metrics.

Every metric is ``name → (value, unit, samples)``. ``END_TO_END`` and
``PER_LAYER`` list every name a run can emit, with its unit; each run
emits all of them (a layer a workload never enters reads 0 there).
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from measure import (
    OpRecord,
    busy_seconds,
    calibrated_busy_seconds,
    percentile,
    percentile_supported,
    samples_beyond,
    self_times,
)
from spans import SPAN_NAMES

Metric = Tuple[float, str, int]

END_TO_END: Dict[str, str] = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "ok_frac": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Counters reported per traced op, read from the program's registry.
PER_OP_COUNTERS = (
    "lattice.refine_calls",
    "lattice.relax_calls",
    "evaluator.verify_calls",
    "matcher.backtrack_calls",
    "scoring.patched_entries",
    "scoring.invalidated_entries",
    "streaming.membership_moves",
    "streaming.recheck_pool_nodes",
    "streaming.full_rescores",
)

#: Counters reported as totals over the traced phases.
TOTAL_COUNTERS = {
    "service.shed": "service.daemon.shed",
    "service.retries": "service.daemon.retries",
    "service.deduplicated": "service.daemon.deduplicated",
}

#: Gauges reported as read at the end of the run.
SIZE_GAUGES = (
    "scoring.cache_size",
    "evaluator.cache_size",
    "service.workload_pool.size",
    "streaming.ledger_size",
)

PER_LAYER: Dict[str, str] = {}
for _span in SPAN_NAMES:
    PER_LAYER[f"{_span}.self_ms"] = "ms"
    PER_LAYER[f"{_span}.share"] = "ratio"
PER_LAYER.update(
    {
        "trace.op_mean_ms": "ms",
        "unattributed.share": "ratio",
        "core.witness_checks": "count",
        "graph.sampling.calls": "count",
        "gen.pruned_ratio": "ratio",
        "lattice.ball_cache_hit_ratio": "ratio",
        "evaluator.incremental_ratio": "ratio",
        "evaluator.memo_hit_ratio": "ratio",
        "streaming.recheck_frac": "ratio",
        "streaming.scores_kept_ratio": "ratio",
        "service.queue_wait_p50_ms": "ms",
        "service.queue_wait_p90_ms": "ms",
        "service.request_p50_ms": "ms",
        "service.workload_pool.hit_ratio": "ratio",
        "obs.trace_overhead": "ratio",
        "serve.late_p90_ms": "ms",
        "host.probe_ms": "ms",
        "host.slowdown": "ratio",
    }
)
PER_LAYER.update({name: "count" for name in PER_OP_COUNTERS})
PER_LAYER.update({name: "count" for name in TOTAL_COUNTERS})
PER_LAYER.update({name: "count" for name in SIZE_GAUGES})


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _ms(seconds: float) -> float:
    return 1000.0 * seconds


def latency_metrics(records: Sequence[OpRecord]) -> Dict[str, Metric]:
    """ops_per_s, op_p50_ms, op_p90_ms and ok_frac of one set of ops.

    Timings are at the reference host speed: each op's time divided by
    the host slowdown sampled around it (see ``measure.assign_slowdowns``).
    """
    latencies = [r.calibrated_latency for r in records]
    count = len(records)
    return {
        "ops_per_s": (_ratio(count, calibrated_busy_seconds(records)), "1/s", count),
        "op_p50_ms": (_ms(percentile(latencies, 0.5)), "ms", count),
        "op_p90_ms": (_ms(percentile(latencies, 0.9)), "ms", count),
        "ok_frac": (_ratio(sum(r.ok for r in records), count), "ratio", count),
    }


def raw_latency_metrics(records: Sequence[OpRecord]) -> Dict[str, Metric]:
    """The wall-clock timings :func:`latency_metrics` calibrates (diagnostic)."""
    latencies = [r.latency for r in records]
    count = len(records)
    return {
        "raw.ops_per_s": (_ratio(count, busy_seconds(records)), "1/s", count),
        "raw.op_p50_ms": (_ms(percentile(latencies, 0.5)), "ms", count),
        "raw.op_p90_ms": (_ms(percentile(latencies, 0.9)), "ms", count),
    }


def end_to_end(
    records: Sequence[OpRecord], setup_seconds: Sequence[float], rss_mb: float
) -> Dict[str, Metric]:
    """The end-to-end table; ``setup_seconds`` are calibrated set-up times."""
    metrics = latency_metrics(records)
    metrics["setup_s"] = (statistics.median(setup_seconds), "s", len(setup_seconds))
    metrics["peak_rss_mb"] = (rss_mb, "MB", 1)
    return metrics


def lateness_p90_ms(lateness: Sequence[float]) -> Metric:
    if not lateness:
        return (0.0, "ms", 0)
    return (_ms(percentile(lateness, 0.9)), "ms", len(lateness))


def trace_overhead(
    untraced: Sequence[OpRecord], traced: Sequence[OpRecord], open_loop: bool
) -> float:
    """Traced cost ÷ untraced cost (> 1 means tracing slowed ops down).

    Closed loops compare ops_per_s (untraced ÷ traced); the open loop,
    whose throughput is just the offered rate, compares p50 latency
    (traced ÷ untraced).
    """
    if not untraced or not traced:
        return 0.0
    before = latency_metrics(untraced)
    after = latency_metrics(traced)
    if open_loop:
        return _ratio(after["op_p50_ms"][0], before["op_p50_ms"][0])
    return _ratio(before["ops_per_s"][0], after["ops_per_s"][0])


def per_layer(
    traced: Sequence[OpRecord],
    untraced: Sequence[OpRecord],
    spans: Sequence[tuple],
    call_counts: Mapping[str, int],
    counters: Mapping[str, int],
    gauges: Mapping[str, float],
    histograms: Mapping[str, object],
    lateness: Sequence[float],
    probe_ms: float,
    open_loop: bool,
) -> Dict[str, Metric]:
    """The per-layer table of one traced run.

    Self times and counts are per traced op; shares are of the total
    traced op latency (for the open loop that includes queueing).
    ``histograms`` maps the daemon's histogram names to the program's
    own histogram objects (nearest-rank ``quantile`` and ``count``).
    """
    ops = len(traced)
    op_seconds = sum(r.latency for r in traced)
    selfs = self_times(spans)
    metrics: Dict[str, Metric] = {}
    for name in SPAN_NAMES:
        total = selfs.get(name, 0.0)
        metrics[f"{name}.self_ms"] = (_ms(_ratio(total, ops)), "ms", ops)
        metrics[f"{name}.share"] = (_ratio(total, op_seconds), "ratio", ops)
    roots = sum(end - start for _, _, start, end, parent, _ in spans if parent is None)
    metrics["trace.op_mean_ms"] = (_ms(_ratio(op_seconds, ops)), "ms", ops)
    metrics["unattributed.share"] = (max(0.0, 1.0 - _ratio(roots, op_seconds)), "ratio", ops)

    def count(name: str) -> int:
        return counters.get(name, 0)

    def prefixed(suffix: str) -> int:
        return sum(v for k, v in counters.items() if k.startswith("gen.") and k.endswith(suffix))

    for name in ("core.witness_checks", "graph.sampling.calls"):
        metrics[name] = (_ratio(call_counts.get(name, 0), ops), "count", ops)
    for name in PER_OP_COUNTERS:
        metrics[name] = (_ratio(count(name), ops), "count", ops)
    for name, source in TOTAL_COUNTERS.items():
        metrics[name] = (float(count(source)), "count", ops)
    metrics["gen.pruned_ratio"] = (_ratio(prefixed(".pruned"), prefixed(".generated")), "ratio", ops)
    hits, misses = count("lattice.ball_cache_hits"), count("lattice.ball_cache_misses")
    metrics["lattice.ball_cache_hit_ratio"] = (_ratio(hits, hits + misses), "ratio", hits + misses)
    metrics["evaluator.incremental_ratio"] = (
        _ratio(count("evaluator.incremental"), count("evaluator.verify_calls")), "ratio", ops
    )
    metrics["evaluator.memo_hit_ratio"] = (
        _ratio(count("evaluator.memo_hits"), count("evaluator.eval_calls")), "ratio", ops
    )
    ledger = gauges.get("streaming.ledger_size", 0.0)
    metrics["streaming.recheck_frac"] = (
        _ratio(count("streaming.instances_rechecked"), ledger * ops), "ratio", ops
    )
    kept, rescored = count("streaming.scores_kept"), count("streaming.rescored")
    metrics["streaming.scores_kept_ratio"] = (_ratio(kept, kept + rescored), "ratio", ops)
    for name, source, q in (
        ("service.queue_wait_p50_ms", "service.daemon.queue_wait_seconds", 0.5),
        ("service.queue_wait_p90_ms", "service.daemon.queue_wait_seconds", 0.9),
        ("service.request_p50_ms", "service.daemon.request_seconds", 0.5),
    ):
        histogram = histograms.get(source)
        if histogram is None or not histogram.count:
            metrics[name] = (0.0, "ms", 0)
        else:
            metrics[name] = (_ms(histogram.quantile(q)), "ms", histogram.count)
    pool_hits, pool_misses = count("service.workload_pool.hits"), count("service.workload_pool.misses")
    metrics["service.workload_pool.hit_ratio"] = (
        _ratio(pool_hits, pool_hits + pool_misses), "ratio", pool_hits + pool_misses
    )
    for name in SIZE_GAUGES:
        metrics[name] = (float(gauges.get(name, 0.0)), "count", 1)
    metrics["obs.trace_overhead"] = (
        trace_overhead(untraced, traced, open_loop), "ratio", len(untraced) + len(traced)
    )
    metrics["serve.late_p90_ms"] = lateness_p90_ms(lateness)
    metrics["host.probe_ms"] = (probe_ms, "ms", 2)
    metrics["host.slowdown"] = slowdown_metric(list(untraced) + list(traced))
    return metrics


def slowdown_metric(records: Sequence[OpRecord]) -> Metric:
    """Median host slowdown over the ops (1.0: the reference host speed)."""
    if not records:
        return (0.0, "ratio", 0)
    return (statistics.median(r.slowdown for r in records), "ratio", len(records))


def format_table(metrics: Mapping[str, Metric], notes: Optional[Mapping[str, str]] = None) -> List[str]:
    """Human-readable lines: name, value, unit, sample count, note."""
    notes = notes or {}
    width = max((len(name) for name in metrics), default=10)
    lines = []
    for name, (value, unit, samples) in metrics.items():
        note = notes.get(name, "")
        lines.append(f"{name:<{width}}  {value:>14.6g} {unit:<6} n={samples:<6} {note}".rstrip())
    return lines


def percentile_note(count: int, q: float) -> str:
    verdict = "supported" if percentile_supported(count, q) else "UNSUPPORTED"
    return f"{samples_beyond(count, q)} samples beyond ({verdict})"
