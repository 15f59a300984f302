"""Regenerate the golden fingerprints in ``goldens/``.

Each request of a workload's request space is run through the plain
library path (a standalone ``FairSQGSession``, no serving context) and
its archive fingerprinted. serve-open's daemon outputs are checked
against these, so the goldens are an independent reference for them.

Usage, from the repository root::

    python3 e2ebench/make_goldens.py [--workload generate-paper|serve-open] [--jobs 2]

Only rerun it when a change is meant to alter generation results, and
say so: the goldens are what ``ok_frac`` is measured against.
"""

from __future__ import annotations

import argparse
import multiprocessing
import sys

from paths import use_source_tree

_STATE = {}


def _init_worker(workload: str) -> None:
    use_source_tree()
    from workloads import GeneratePaper, ServeOpen

    if workload == GeneratePaper.name:
        _STATE["inputs"] = GeneratePaper.bundles()
    else:
        _STATE["inputs"] = ServeOpen.build_inputs()


def _golden(job):
    from repro import BiQGen, FairSQGSession

    from golden import fingerprint
    from workloads import DOMAIN_CAP, GeneratePaper, ServeOpen

    workload, first, second = job
    if workload == GeneratePaper.name:
        epsilon = GeneratePaper.GRID[second]
        result = GeneratePaper.suggest(_STATE["inputs"], first, epsilon)
        key = GeneratePaper.request_id(first, second)
    else:
        bundle, templates = _STATE["inputs"]
        epsilon = ServeOpen.GRID[second]
        result = FairSQGSession(
            bundle.graph,
            templates[first],
            bundle.groups,
            epsilon=epsilon,
            algorithm=BiQGen,
            max_domain_values=DOMAIN_CAP,
        ).suggest()
        key = ServeOpen.request_id(first, second)
    if result.truncated:
        raise RuntimeError(f"golden run {key} was truncated")
    return key, fingerprint(result.instances, epsilon)


def build(workload: str, jobs: int) -> None:
    from golden import save_goldens
    from workloads import WORKLOADS

    space = [(workload, a, b) for a, b in WORKLOADS[workload].request_space()]
    context = multiprocessing.get_context("spawn")
    with context.Pool(jobs, initializer=_init_worker, initargs=(workload,)) as pool:
        table = dict(pool.map(_golden, space, chunksize=8))
    note = (
        f"{workload}: archive fingerprints of {len(table)} requests, "
        "from a standalone FairSQGSession per request"
    )
    print(save_goldens(workload, table, note))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("generate-paper", "serve-open"), action="append")
    parser.add_argument("--jobs", type=int, default=2)
    args = parser.parse_args(argv)
    if not use_source_tree():
        print("no program source tree (src/repro) next to the benchmark", file=sys.stderr)
        return 2
    for workload in args.workload or ("generate-paper", "serve-open"):
        build(workload, args.jobs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
