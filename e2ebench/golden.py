"""Archive fingerprints and the golden files they are checked against.

A fingerprint has an exact part and a numeric part. The exact part is a
digest of every archived instance's instantiation key, ε-box coordinates
and answer set; the numeric part lists each instance's (δ, f). Two
fingerprints agree when the digests are equal and every δ and f agrees
within a relative 1e-9, so a last-bit change in how δ is summed still
passes while any change to which instances are kept does not.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import Dict, Iterable, Optional

from repro.core.pareto import box_of

GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"

#: Relative tolerance on δ and f.
REL_TOL = 1e-9


def fingerprint(instances: Iterable, epsilon: float) -> Dict[str, object]:
    """Fingerprint of an ε-Pareto archive's evaluated instances."""
    rows = sorted(
        (
            repr(ev.instance.instantiation.key),
            tuple(box_of(ev, epsilon)),
            sorted(ev.matches),
            ev.delta,
            ev.coverage,
        )
        for ev in instances
    )
    exact = json.dumps([[key, list(box), matches] for key, box, matches, _, _ in rows])
    return {
        "exact": hashlib.sha256(exact.encode("utf-8")).hexdigest()[:24],
        "values": [[delta, coverage] for _, _, _, delta, coverage in rows],
    }


def agrees(found: Dict[str, object], golden: Optional[Dict[str, object]]) -> bool:
    """True iff ``found`` matches ``golden`` (a missing golden never does)."""
    if golden is None or found["exact"] != golden["exact"]:
        return False
    if len(found["values"]) != len(golden["values"]):
        return False
    return all(
        math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)
        for pair, ref in zip(found["values"], golden["values"])
        for a, b in zip(pair, ref)
    )


def golden_path(workload: str, directory: Path = GOLDEN_DIR) -> Path:
    return directory / f"{workload}.json"


def load_goldens(workload: str, directory: Path = GOLDEN_DIR) -> Dict[str, Dict[str, object]]:
    """The request-id → fingerprint table of one workload."""
    with open(golden_path(workload, directory), encoding="utf-8") as handle:
        return json.load(handle)["requests"]


def save_goldens(
    workload: str,
    table: Dict[str, Dict[str, object]],
    note: str,
    directory: Path = GOLDEN_DIR,
) -> Path:
    """Write ``table`` with one request per line, so diffs stay readable."""
    path = golden_path(workload, directory)
    path.parent.mkdir(parents=True, exist_ok=True)
    rows = ",\n".join(
        f"{json.dumps(key)}: {json.dumps(table[key], separators=(',', ':'), sort_keys=True)}"
        for key in sorted(table)
    )
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f'{{"note": {json.dumps(note)}, "requests": {{\n{rows}\n}}}}\n')
    return path
