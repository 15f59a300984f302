"""Baseline counters that depend on whether numpy is installed.

The default ``columnar`` engine sweeps arc-consistency supports with
numpy and falls back to the inherited bitset loop without it. Answers
and every other counter are the same either way; the counters below
only say which propagation loop ran. The baselines are recorded with
numpy (the production path), so these are pinned only when numpy is
present — an interpreter without numpy compares everything else.
"""

from __future__ import annotations

from typing import Dict

from repro.graph.columnar import HAVE_NUMPY

PROPAGATION_PATH_COUNTERS = frozenset(
    {
        "matcher.bitset.mask_intersections",
        "matcher.columnar.fallback_propagations",
        "matcher.columnar.support_sweeps",
    }
)


def pinned(baseline_counters: Dict[str, int]) -> Dict[str, int]:
    """The baseline counters this interpreter can reproduce."""
    if HAVE_NUMPY:
        return dict(baseline_counters)
    return {
        name: value
        for name, value in baseline_counters.items()
        if name not in PROPAGATION_PATH_COUNTERS
    }
