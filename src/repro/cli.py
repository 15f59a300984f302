"""Command-line interface: ``fairsqg`` (or ``python -m repro``).

Subcommands:

* ``datasets`` — build the dataset emulations and print their Table II row;
* ``generate`` — run one generation algorithm on a dataset and print the
  returned ε-Pareto instance set;
* ``online`` — run OnlineQGen over a random instance stream;
* ``stream`` — maintain a live archive incrementally over a seeded
  graph-update stream (``repro.streaming``), printing per-update repair
  work and the final ε-Pareto set;
* ``batch`` — serve a JSONL file of generation requests through the
  shared-cache batch service (``repro.service``);
* ``daemon`` — the persistent multi-tenant serving daemon: one-shot a
  request file through the SLO-aware admission/worker-pool path, serve a
  Unix socket, or act as the socket client (``--client``);
* ``experiment`` — run a paper-figure experiment driver and print its table.

``generate``, ``online``, ``stream``, ``batch`` and ``experiment``
accept ``--metrics PATH`` to write the run's full work-counter snapshot
(the ``repro.obs`` registry) as JSON; a ``.prom`` suffix selects the
Prometheus text format instead.

``generate`` and ``online`` accept execution-budget flags
(``--deadline`` / ``--max-instances`` / ``--max-backtracks``); on
exhaustion the run stops at the next checkpoint and prints its current
ε-Pareto set as a flagged partial result (exit code stays 0 — a
truncated anytime result is a valid result). For ``stream`` the same
flags bound each *update*: a tripped budget makes that update fall back
to a cold re-evaluation (flagged in the per-update table) instead of
truncating.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, Optional, Sequence

from repro.bench.harness import ExperimentContext, make_config
from repro.bench.reporting import print_table
from repro.bench.settings import BenchSettings
from repro.core import BiQGen, CBM, EnumQGen, Kungs, OnlineQGen, RfQGen
from repro.datasets.registry import dataset_bundle, dataset_names
from repro.workload.stream import random_instance_stream

ALGORITHMS = {
    "enum": EnumQGen,
    "kungs": Kungs,
    "cbm": CBM,
    "rfqgen": RfQGen,
    "biqgen": BiQGen,
}


def _experiment_registry() -> Dict[str, Callable]:
    from repro.bench import experiments as E

    return {
        "table2": E.table2_datasets,
        "fig9a": E.fig9a_effectiveness,
        "fig9b": E.fig9b_vary_epsilon,
        "fig9c": E.fig9c_vary_xl,
        "fig9d": E.fig9d_vary_xe,
        "fig9e": E.fig9e_anytime_rindicator,
        "fig9f": E.fig9f_vary_coverage,
        "fig9gh": E.fig9gh_vary_groups,
        "cbm": E.cbm_comparison,
        "fig10a": E.fig10a_efficiency,
        "fig10b": E.fig10b_vary_epsilon,
        "fig10c": E.fig10c_vary_xl,
        "fig10d": E.fig10d_vary_xe,
        "fig11a": E.fig11a_online_delay,
        "fig11b": E.fig11b_online_effectiveness,
        "ablation-pruning": E.ablation_pruning,
        "ablation-incverify": E.ablation_incverify,
        "ablation-template-refinement": E.ablation_template_refinement,
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairsqg",
        description="FairSQG: subgraph query generation with fairness and "
        "diversity constraints (ICDE 2022 reproduction).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    datasets = sub.add_parser("datasets", help="print dataset statistics")
    datasets.add_argument("--scale", type=float, default=0.15)

    generate = sub.add_parser("generate", help="run a generation algorithm")
    generate.add_argument("--dataset", choices=dataset_names(), default="lki")
    generate.add_argument("--algorithm", choices=sorted(ALGORITHMS), default="biqgen")
    generate.add_argument("--epsilon", type=float, default=0.05)
    generate.add_argument("--scale", type=float, default=0.15)
    generate.add_argument("--coverage", type=int, default=16)
    generate.add_argument("--groups", type=int, default=2)
    generate.add_argument("--group-system", default=None, metavar="SPEC.json",
                          help="JSON group-system spec (attribute-combination "
                          "rules, overlap allowed; see docs/fairness.md) "
                          "replacing the dataset's default groups")
    generate.add_argument("--domain-cap", type=int, default=5)
    generate.add_argument("--engine", choices=("set", "bitset", "columnar"), default="columnar",
                          help="matching engine verifying instances "
                          "(columnar = vectorized arc consistency over CSR "
                          "arrays; set = the reference engine)")
    generate.add_argument("--delta-scoring", action="store_true",
                          help="maintain δ/f by answer-set deltas along "
                          "lattice edges (same values, less work)")
    generate.add_argument("--show-queries", action="store_true")
    generate.add_argument("--report", action="store_true",
                          help="print the full run report")
    generate.add_argument("--metrics", default=None, metavar="PATH",
                          help="write the work-counter snapshot here "
                          "(JSON; use a .prom suffix for Prometheus text)")
    _add_budget_flags(generate)

    online = sub.add_parser("online", help="run OnlineQGen over a stream")
    online.add_argument("--dataset", choices=dataset_names(), default="lki")
    online.add_argument("--k", type=int, default=10)
    online.add_argument("--window", type=int, default=40)
    online.add_argument("--count", type=int, default=100)
    online.add_argument("--epsilon", type=float, default=0.05)
    online.add_argument("--scale", type=float, default=0.15)
    online.add_argument("--coverage", type=int, default=16)
    online.add_argument("--engine", choices=("set", "bitset", "columnar"), default="columnar",
                        help="matching engine verifying instances")
    online.add_argument("--delta-scoring", action="store_true",
                        help="maintain δ/f by answer-set deltas (same "
                        "values, less work)")
    online.add_argument("--seed", type=int, default=0)
    online.add_argument("--metrics", default=None, metavar="PATH",
                        help="write the work-counter snapshot here")
    _add_budget_flags(online)

    batch = sub.add_parser(
        "batch", help="serve a JSONL request batch through repro.service"
    )
    batch.add_argument("requests", metavar="REQUESTS.jsonl",
                       help="request file, one JSON object per line "
                       "(see docs/serving.md for the schema)")
    batch.add_argument("--dataset", choices=dataset_names(), default="lki",
                       help="graph + groups + default template served")
    batch.add_argument("--scale", type=float, default=0.15)
    batch.add_argument("--coverage", type=int, default=16)
    batch.add_argument("--groups", type=int, default=2)
    batch.add_argument("--group-system", default=None, metavar="SPEC.json",
                       help="JSON group-system spec replacing the dataset's "
                       "default groups for the whole batch (requests may "
                       "also carry per-request 'group_system' specs)")
    batch.add_argument("--engine", choices=("set", "bitset", "columnar"), default="columnar",
                       help="default matching engine (columnar and bitset "
                       "use the workload literal-pool cache tier)")
    batch.add_argument("--domain-cap", type=int, default=5)
    batch.add_argument("--no-warm", action="store_true",
                       help="skip pre-building the per-label index state")
    batch.add_argument("--out", default=None, metavar="PATH",
                       help="write per-request results as JSONL here")
    batch.add_argument("--metrics", default=None, metavar="PATH",
                       help="write the service-registry snapshot here "
                       "(service.* + aggregated run counters)")

    daemon = sub.add_parser(
        "daemon", help="multi-tenant serving daemon (SLO admission + worker pool)"
    )
    daemon.add_argument("--requests", default=None, metavar="REQUESTS.jsonl",
                        help="serve this request file (one-shot mode, or the "
                        "payload replayed in --client mode)")
    daemon.add_argument("--socket", default=None, metavar="PATH",
                        help="serve JSONL batches over this Unix socket "
                        "until interrupted (one batch per connection)")
    daemon.add_argument("--client", action="store_true",
                        help="act as the socket client instead: replay "
                        "--requests against --socket and print the outcomes")
    daemon.add_argument("--dataset", choices=dataset_names(), default="lki",
                        help="graph + groups + default template served")
    daemon.add_argument("--scale", type=float, default=0.15)
    daemon.add_argument("--coverage", type=int, default=16)
    daemon.add_argument("--groups", type=int, default=2)
    daemon.add_argument("--group-system", default=None, metavar="SPEC.json",
                        help="JSON group-system spec replacing the dataset's "
                        "default groups (requests may also carry per-request "
                        "'group_system' specs)")
    daemon.add_argument("--engine", choices=("set", "bitset", "columnar"), default="columnar",
                        help="default matching engine")
    daemon.add_argument("--domain-cap", type=int, default=5)
    daemon.add_argument("--no-warm", action="store_true",
                        help="skip pre-building the per-label index state")
    daemon.add_argument("--workers", type=int, default=2,
                        help="replicated worker contexts (threads)")
    daemon.add_argument("--queue-depth", type=int, default=64,
                        help="per-tenant admission queue bound; offers "
                        "beyond it are shed with a truncated partial")
    daemon.add_argument("--max-retries", type=int, default=2,
                        help="infrastructure-fault retries per request")
    daemon.add_argument("--attempt-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="abandon an attempt as a straggler after this "
                        "long and retry on another worker")
    daemon.add_argument("--chaos-rate", type=float, default=0.0,
                        help="inject seeded worker faults at this rate "
                        "(crash/error per request; exercises the retry path)")
    daemon.add_argument("--chaos-seed", type=int, default=0,
                        help="seed of the chaos schedule")
    daemon.add_argument("--out", default=None, metavar="PATH",
                        help="write per-request results as JSONL here")
    daemon.add_argument("--metrics", default=None, metavar="PATH",
                        help="write the daemon registry snapshot here "
                        "(service.daemon.* + service.admission.* + run "
                        "counters)")

    stream = sub.add_parser(
        "stream", help="maintain a live archive over a graph-update stream"
    )
    stream.add_argument("--dataset", choices=dataset_names(), default="lki")
    stream.add_argument("--scale", type=float, default=0.15)
    stream.add_argument("--coverage", type=int, default=16)
    stream.add_argument("--groups", type=int, default=2)
    stream.add_argument("--group-system", default=None, metavar="SPEC.json",
                        help="JSON group-system spec replacing the dataset's "
                        "default groups for the streamed archive")
    stream.add_argument("--epsilon", type=float, default=0.05)
    stream.add_argument("--domain-cap", type=int, default=5)
    stream.add_argument("--engine", choices=("set", "bitset", "columnar"), default="columnar",
                        help="matching engine verifying instances")
    stream.add_argument("--delta-scoring", action="store_true",
                        help="maintain δ/f by answer-set deltas (same "
                        "values, less work)")
    stream.add_argument("--generate", type=int, default=24, metavar="N",
                        help="instances adopted into the ledger before "
                        "the stream starts")
    stream.add_argument("--updates", type=int, default=10, metavar="N",
                        help="number of graph deltas applied")
    stream.add_argument("--edge-ops", type=int, default=2, metavar="N",
                        help="edge insertions/deletions per delta")
    stream.add_argument("--attr-ops", type=int, default=1, metavar="N",
                        help="attribute updates per delta")
    stream.add_argument("--seed", type=int, default=0)
    stream.add_argument("--show-queries", action="store_true",
                        help="print the final archive's queries")
    stream.add_argument("--metrics", default=None, metavar="PATH",
                        help="write the session's work-counter snapshot "
                        "here (includes the streaming.* family)")
    _add_budget_flags(stream)

    experiment = sub.add_parser("experiment", help="run a paper-figure experiment")
    experiment.add_argument(
        "name", choices=sorted(_experiment_registry()) + ["all"]
    )
    experiment.add_argument("--scale", type=float, default=None)
    experiment.add_argument("--out", default=None,
                            help="also write a combined markdown results file")
    experiment.add_argument("--metrics", default=None, metavar="PATH",
                            help="write the accumulated work-counter snapshot here")

    rpq = sub.add_parser("rpq", help="FairSQG over a regular path query")
    rpq.add_argument("--dataset", choices=dataset_names(), default="cite")
    rpq.add_argument("--path", default="cites+",
                     help="edge-label regex, e.g. 'cites+' or 'recommend/recommend'")
    rpq.add_argument("--epsilon", type=float, default=0.2)
    rpq.add_argument("--scale", type=float, default=0.15)
    rpq.add_argument("--coverage", type=int, default=8)
    rpq.add_argument("--groups", type=int, default=2)
    rpq.add_argument("--lattice", action="store_true",
                     help="use the refinement-lattice RPQ generator")

    workload = sub.add_parser(
        "workload", help="union group-coverage benchmark workload"
    )
    workload.add_argument("--dataset", choices=dataset_names(), default="lki")
    workload.add_argument("--fraction", type=float, default=0.1)
    workload.add_argument("--max-queries", type=int, default=6)
    workload.add_argument("--scale", type=float, default=0.15)
    workload.add_argument("--coverage", type=int, default=8)
    workload.add_argument("--out", default=None, help="write the workload JSON here")

    profile = sub.add_parser(
        "profile", help="candidate-funnel profile of a dataset's root query"
    )
    profile.add_argument("--dataset", choices=dataset_names(), default="lki")
    profile.add_argument("--scale", type=float, default=0.15)
    profile.add_argument("--coverage", type=int, default=16)

    audit = sub.add_parser("audit", help="fairness audit of a generated set")
    audit.add_argument("--dataset", choices=dataset_names(), default="lki")
    audit.add_argument("--algorithm", choices=sorted(ALGORITHMS), default="biqgen")
    audit.add_argument("--epsilon", type=float, default=0.05)
    audit.add_argument("--scale", type=float, default=0.15)
    audit.add_argument("--coverage", type=int, default=16)
    audit.add_argument("--lambda-r", type=float, default=0.5, dest="lambda_r")

    return parser


def _add_budget_flags(parser: argparse.ArgumentParser) -> None:
    budget = parser.add_argument_group("execution budget")
    budget.add_argument("--deadline", type=float, default=None, metavar="SECONDS",
                        help="wall-clock budget; on expiry the run returns "
                        "its current ε-Pareto set as a partial result")
    budget.add_argument("--max-instances", type=int, default=None, metavar="N",
                        help="stop after N verified instances")
    budget.add_argument("--max-backtracks", type=int, default=None, metavar="N",
                        help="stop after N matcher backtrack calls")


def _budget_from_args(args):
    """A Budget built from the CLI flags, or None when all are unset."""
    deadline = getattr(args, "deadline", None)
    max_instances = getattr(args, "max_instances", None)
    max_backtracks = getattr(args, "max_backtracks", None)
    if deadline is None and max_instances is None and max_backtracks is None:
        return None
    from repro.runtime import Budget

    return Budget(
        deadline_seconds=deadline,
        max_instances=max_instances,
        max_backtracks=max_backtracks,
    )


def _print_truncation_notice(result) -> None:
    if result.truncated:
        print(
            f"NOTE: run truncated ({result.stats.truncation_reason}); "
            "the printed set is a valid ε-Pareto front of the verified prefix."
        )


def _metrics_registry(args):
    """A fresh registry when ``--metrics`` was given, else None."""
    if getattr(args, "metrics", None):
        from repro.obs import MetricsRegistry

        return MetricsRegistry()
    return None


def _load_group_system(args, graph, registry=None):
    """Materialize ``--group-system SPEC.json`` over ``graph``.

    Returns ``None`` when the flag was not given (callers fall back to
    the dataset bundle's default disjoint groups — the legacy path).
    Coverage targets are clamped to matched populations so a hand-written
    spec can never be unsatisfiable by construction.
    """
    path = getattr(args, "group_system", None)
    if path is None:
        return None
    import json
    from pathlib import Path

    from repro.groups.system import system_from_dict

    data = json.loads(Path(path).read_text())
    return system_from_dict(data, graph, clamp=True, metrics=registry)


def _write_metrics(registry, path: str) -> None:
    """Write a registry snapshot (JSON, or Prometheus for ``.prom``)."""
    from pathlib import Path

    from repro.obs import write_json, write_prometheus

    Path(path).parent.mkdir(parents=True, exist_ok=True)
    if path.endswith(".prom"):
        write_prometheus(registry, path)
    else:
        write_json(registry, path)
    print(f"wrote metrics snapshot to {path}")


def _cmd_datasets(args) -> int:
    from repro.bench.experiments import table2_datasets

    settings = BenchSettings(
        scale=args.scale, coverage_total=16, max_domain_values=5, epsilon=0.01
    )
    print_table(table2_datasets(ExperimentContext(settings)), "Datasets (Table II)")
    return 0


def _cmd_generate(args) -> int:
    bundle = dataset_bundle(
        args.dataset,
        scale=args.scale,
        num_groups=args.groups,
        coverage_total=args.coverage,
    )
    registry = _metrics_registry(args)
    config = make_config(
        bundle,
        BenchSettings(args.scale, args.coverage, args.domain_cap, args.epsilon),
        epsilon=args.epsilon,
        max_domain_values=args.domain_cap,
        metrics=registry,
        matcher_engine=args.engine,
        use_delta_scoring=args.delta_scoring,
        budget=_budget_from_args(args),
        groups=_load_group_system(args, bundle.graph, registry),
    )
    algorithm = ALGORITHMS[args.algorithm](config)
    result = algorithm.run()
    _print_truncation_notice(result)
    if registry is not None:
        _write_metrics(registry, args.metrics)
    if getattr(args, "report", False):
        from repro.core.report import build_report

        print(build_report(config, result, evaluator=algorithm.evaluator))
        return 0
    rows = []
    for point in result.instances:
        overlaps = config.groups.overlaps(point.matches)
        rows.append(
            {
                "δ": round(point.delta, 3),
                "f": round(point.coverage, 1),
                "|q(G)|": point.cardinality,
                **{f"#{name}": count for name, count in overlaps.items()},
            }
        )
    print_table(rows, f"{result.algorithm} ε-Pareto set over {bundle.name}")
    print_table([result.stats.as_row()], "run statistics")
    if args.show_queries:
        for point in result.instances:
            print()
            print(point.instance.describe())
    return 0


def _cmd_online(args) -> int:
    bundle = dataset_bundle(
        args.dataset, scale=args.scale, coverage_total=args.coverage
    )
    registry = _metrics_registry(args)
    config = make_config(
        bundle,
        BenchSettings(args.scale, args.coverage, 5, args.epsilon),
        epsilon=args.epsilon,
        metrics=registry,
        matcher_engine=args.engine,
        use_delta_scoring=args.delta_scoring,
        budget=_budget_from_args(args),
    )
    online = OnlineQGen(config, k=args.k, window=args.window)
    stream = random_instance_stream(
        config.template, online.lattice.domains, args.count, seed=args.seed
    )
    result = online.run(stream)
    _print_truncation_notice(result)
    if registry is not None:
        _write_metrics(registry, args.metrics)
    rows = [
        {"δ": round(p.delta, 3), "f": round(p.coverage, 1), "|q(G)|": p.cardinality}
        for p in result.instances
    ]
    print_table(rows, f"OnlineQGen size-{args.k} set (final ε = {result.epsilon:.4f})")
    print(
        f"\nprocessed {result.stats.generated} instances, "
        f"mean delay {result.stats.mean_delay * 1000:.2f} ms"
    )
    return 0


def _cmd_stream(args) -> int:
    from repro.streaming import StreamingSession
    from repro.workload import random_delta_stream

    bundle = dataset_bundle(
        args.dataset,
        scale=args.scale,
        num_groups=args.groups,
        coverage_total=args.coverage,
    )
    session = StreamingSession(
        bundle.graph,
        bundle.template,
        _load_group_system(args, bundle.graph) or bundle.groups,
        epsilon=args.epsilon,
        max_domain_values=args.domain_cap,
        matcher_engine=args.engine,
        use_delta_scoring=args.delta_scoring,
    )
    session.generate(count=args.generate, seed=args.seed)
    budget = _budget_from_args(args)
    deltas = random_delta_stream(
        session.graph,
        count=args.updates,
        seed=args.seed,
        edge_ops=args.edge_ops,
        attr_ops=args.attr_ops,
    )
    rows = []
    for step, delta in enumerate(deltas):
        report = session.update(delta, budget=budget)
        receipt = report.receipt
        rows.append(
            {
                "step": step,
                "+e": receipt.edges_inserted,
                "-e": receipt.edges_deleted,
                "attrs": receipt.attributes_set,
                "rechecked": report.rechecked,
                "skipped": report.skipped,
                "changed": report.changed,
                "rescored": report.rescored,
                "kept": report.scores_kept,
                "|archive|": report.archive_size,
                "ms": round(report.seconds * 1000, 2),
                "note": report.recovered or "",
            }
        )
    print_table(
        rows,
        f"{args.updates} updates over {bundle.name} "
        f"(ledger {len(session.ledger)}, engine {args.engine})",
    )
    final = [
        {
            "δ": round(ev.delta, 3),
            "f": round(ev.coverage, 1),
            "|q(G)|": len(ev.matches),
        }
        for ev in session.archive.instances()
    ]
    print_table(final, f"live ε-Pareto set after the stream (ε = {args.epsilon})")
    if args.show_queries:
        for ev in session.archive.instances():
            print()
            print(ev.instance.describe())
    if args.metrics:
        _write_metrics(session.metrics, args.metrics)
    return 0


def _cmd_batch(args) -> int:
    from repro.service import iter_requests_jsonl, save_outcomes_jsonl
    from repro.session import BatchSession

    bundle = dataset_bundle(
        args.dataset,
        scale=args.scale,
        num_groups=args.groups,
        coverage_total=args.coverage,
    )
    session = BatchSession(
        bundle.graph,
        _load_group_system(args, bundle.graph) or bundle.groups,
        engine=args.engine,
        warm=not args.no_warm,
        max_domain_values=args.domain_cap,
    )
    requests = list(
        iter_requests_jsonl(args.requests, default_template=bundle.template)
    )
    if not requests:
        print(f"no requests in {args.requests}")
        return 1
    outcomes = []
    for outcome in session.stream(requests):
        outcomes.append(outcome)
    print_table(
        [o.as_row() for o in outcomes],
        f"batch of {len(outcomes)} requests over {bundle.name} "
        f"(engine default: {args.engine})",
    )
    metrics = session.metrics
    failed = metrics.value("service.failed")
    print(
        f"\ncompleted {metrics.value('service.completed')}"
        f" / deduplicated {metrics.value('service.deduplicated')}"
        f" / failed {failed}"
        f" / rejected {metrics.value('service.requests.rejected')}"
        f" / truncated {metrics.value('service.truncated')}"
        f"; workload literal-pool hit rate "
        f"{session.literal_pool_hit_rate:.2f}"
    )
    if args.out:
        save_outcomes_jsonl(outcomes, args.out)
        print(f"wrote per-request results to {args.out}")
    if args.metrics:
        _write_metrics(metrics, args.metrics)
    return 0 if failed == 0 else 1


def _cmd_daemon(args) -> int:
    import json as json_module
    from pathlib import Path

    if args.client:
        from repro.service import replay_unix

        if not args.socket or not args.requests:
            print("daemon --client needs both --socket and --requests")
            return 2
        lines = Path(args.requests).read_text().splitlines()
        results = replay_unix(args.socket, lines)
        for result in results:
            print(json_module.dumps(result))
        failed = sum(1 for r in results if not r.get("ok"))
        print(f"# {len(results)} outcomes, {failed} not ok", file=sys.stderr)
        if args.out:
            Path(args.out).write_text(
                "".join(json_module.dumps(r) + "\n" for r in results)
            )
        return 0

    from repro.service.daemon import ServingDaemon
    from repro.service import save_outcomes_jsonl

    bundle = dataset_bundle(
        args.dataset,
        scale=args.scale,
        num_groups=args.groups,
        coverage_total=args.coverage,
    )
    faults = None
    if args.chaos_rate > 0.0:
        from repro.runtime.faults import FaultInjector

        faults = FaultInjector.random(
            num_batches=10_000, rate=args.chaos_rate, seed=args.chaos_seed
        )
        print(f"chaos: {len(faults)} scheduled faults "
              f"(rate {args.chaos_rate}, seed {args.chaos_seed})")
    daemon = ServingDaemon(
        bundle.graph,
        _load_group_system(args, bundle.graph) or bundle.groups,
        workers=args.workers,
        engine=args.engine,
        defaults={"max_domain_values": args.domain_cap},
        queue_depth=args.queue_depth,
        max_retries=args.max_retries,
        attempt_timeout=args.attempt_timeout,
        warm=not args.no_warm,
        faults=faults,
        default_template=bundle.template,
    )
    if args.socket:
        import asyncio

        print(f"serving {bundle.name} on {args.socket} "
              f"({args.workers} workers, queue depth {args.queue_depth})")
        try:
            asyncio.run(daemon.serve_unix(args.socket))
        except KeyboardInterrupt:
            print("daemon interrupted; shutting down")
        finally:
            daemon.shutdown()
            if args.metrics:
                _write_metrics(daemon.metrics, args.metrics)
        return 0
    if not args.requests:
        print("daemon needs --requests (one-shot) or --socket (serve mode)")
        return 2
    lines = Path(args.requests).read_text().splitlines()
    outcomes = daemon.serve(lines)
    daemon.shutdown()
    if not outcomes:
        print(f"no requests in {args.requests}")
        return 1
    print_table(
        [o.as_row() for o in outcomes],
        f"daemon workload of {len(outcomes)} submissions over {bundle.name} "
        f"({args.workers} workers, engine default: {args.engine})",
    )
    metrics = daemon.metrics
    failed = metrics.value("service.daemon.failed")
    print(
        f"\ncompleted {metrics.value('service.daemon.completed')}"
        f" / deduplicated {metrics.value('service.daemon.deduplicated')}"
        f" / failed {failed}"
        f" / rejected {metrics.value('service.requests.rejected')}"
        f" / shed {metrics.value('service.daemon.shed')}"
        f" / retries {metrics.value('service.daemon.retries')}"
    )
    if args.out:
        save_outcomes_jsonl(outcomes, args.out)
        print(f"wrote per-request results to {args.out}")
    if args.metrics:
        _write_metrics(metrics, args.metrics)
    return 0 if failed == 0 else 1


def _cmd_experiment(args) -> int:
    from repro.obs import collecting

    registry = _experiment_registry()
    metrics = _metrics_registry(args)
    settings = None
    if args.scale is not None:
        settings = BenchSettings(
            scale=args.scale, coverage_total=16, max_domain_values=5, epsilon=0.01
        )
    if getattr(args, "out", None):
        from repro.bench.runner import run_all

        only = None if args.name == "all" else [args.name]
        with collecting(metrics) as collected:
            run_all(settings, output_path=args.out, only=only)
        print(f"wrote combined results to {args.out}")
        if metrics is not None:
            _write_metrics(collected, args.metrics)
        return 0
    ctx = ExperimentContext(settings)
    names = sorted(registry) if args.name == "all" else [args.name]
    with collecting(metrics) as collected:
        for name in names:
            result = registry[name](ctx)
            rows = result[0] if isinstance(result, tuple) else result
            print_table(rows, name)
    if metrics is not None:
        _write_metrics(collected, args.metrics)
    return 0


def _cmd_rpq(args) -> int:
    from repro.query.predicates import Op
    from repro.query.variables import RangeVariable
    from repro.rpq import RPQGen, RPQRfGen, RPQTemplate

    bundle = dataset_bundle(
        args.dataset, scale=args.scale,
        num_groups=args.groups, coverage_total=args.coverage,
    )
    # Anchor one range variable on each endpoint using the first numeric
    # attribute of the output label.
    output_label = bundle.template.node(bundle.template.output_node).label
    numeric = bundle.schema.numeric_attributes(output_label)
    variables = []
    if numeric:
        variables.append(
            RangeVariable("min_src", "source", numeric[0].name, Op.GE)
        )
        variables.append(
            RangeVariable("min_dst", "target", numeric[0].name, Op.GE)
        )
    template = RPQTemplate(
        f"{args.dataset}-rpq",
        source_label=output_label,
        path=args.path,
        range_variables=variables,
    )
    generator_cls = RPQRfGen if args.lattice else RPQGen
    result = generator_cls(
        bundle.graph, template, bundle.groups, epsilon=args.epsilon,
        max_domain_values=5,
    ).run()
    rows = [
        {
            "δ": round(p.delta, 3),
            "f": round(p.coverage, 1),
            "|q(G)|": p.cardinality,
            "query": p.instance.describe(),
        }
        for p in result.instances
    ]
    print_table(rows, f"{result.algorithm} over {bundle.name} path {args.path!r}")
    print_table([result.stats.as_row()], "run statistics")
    return 0


def _cmd_workload(args) -> int:
    from repro.query.serialization import save_workload
    from repro.workload.benchmark_suite import CoverageWorkloadGenerator

    bundle = dataset_bundle(
        args.dataset, scale=args.scale, coverage_total=args.coverage
    )
    config = make_config(
        bundle, BenchSettings(args.scale, args.coverage, 5, 0.05), epsilon=0.05
    )
    generator = CoverageWorkloadGenerator(config)
    workload = generator.generate(
        {name: args.fraction for name in bundle.groups.names},
        max_queries=args.max_queries,
    )
    print_table(
        workload.summary_rows(),
        f"union-coverage workload over {bundle.name} "
        f"({'goal satisfied' if workload.satisfied else 'goal NOT met'})",
    )
    for i, query in enumerate(workload.queries, start=1):
        print(f"\n[{i}] δ={query.delta:.2f} |q(G)|={query.cardinality}")
        print(query.instance.describe())
    if args.out:
        save_workload([q.instance for q in workload.queries], args.out)
        print(f"\nwrote {len(workload.queries)} queries to {args.out}")
    return 0


def _cmd_profile(args) -> int:
    from repro.core.lattice import InstanceLattice
    from repro.matching.profiling import profile_instance

    bundle = dataset_bundle(
        args.dataset, scale=args.scale, coverage_total=args.coverage
    )
    config = make_config(
        bundle, BenchSettings(args.scale, args.coverage, 5, 0.05)
    )
    instance = InstanceLattice(config).root()
    print(instance.describe())
    profile = profile_instance(bundle.graph, instance)
    print_table(profile.as_rows(), "candidate funnel (root instance)")
    print()
    print(profile.summary())
    return 0


def _cmd_audit(args) -> int:
    from repro.core.preferences import select_by_preference
    from repro.groups.auditing import audit_answer

    bundle = dataset_bundle(
        args.dataset, scale=args.scale, coverage_total=args.coverage
    )
    config = make_config(
        bundle,
        BenchSettings(args.scale, args.coverage, 5, args.epsilon),
        epsilon=args.epsilon,
    )
    result = ALGORITHMS[args.algorithm](config).run()
    pick = select_by_preference(result.instances, args.lambda_r)
    if pick is None:
        print("no feasible instances to audit")
        return 1
    audit = audit_answer(pick.matches, config.groups)
    print(f"preferred instance (λ_R = {args.lambda_r}):")
    print(pick.instance.describe())
    print()
    print_table(audit.as_rows(), "fairness audit")
    print()
    print(audit.summary())
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "datasets": _cmd_datasets,
        "generate": _cmd_generate,
        "online": _cmd_online,
        "stream": _cmd_stream,
        "batch": _cmd_batch,
        "daemon": _cmd_daemon,
        "experiment": _cmd_experiment,
        "rpq": _cmd_rpq,
        "workload": _cmd_workload,
        "profile": _cmd_profile,
        "audit": _cmd_audit,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
