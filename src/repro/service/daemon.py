"""The persistent serving daemon: async front-end over the batch layer.

:class:`~repro.service.scheduler.BatchScheduler` is a library loop — it
admits a finite list and runs it to completion on the caller's thread.
:class:`ServingDaemon` is the process around it: an asyncio front-end
speaking the existing JSONL request/outcome wire format (over a Unix
socket, stdio, or directly as parsed requests), SLO-aware admission with
per-tenant bounded queues and deficit-round-robin scheduling
(:mod:`repro.service.admission`), and a pool of replicated
:class:`~repro.service.context.GraphContext` workers executing requests
off the event loop.

The contract the chaos/property harness enforces
(``tests/integration/test_daemon_chaos.py``,
``tests/property/test_admission_properties.py``):

* **exactly-once outcomes** — every submitted line yields exactly one
  outcome, under worker crashes, stragglers and injected evaluator
  errors included. Attempts are retried with a bounded budget; late
  results of abandoned attempts are discarded at the publication point
  (first completed attempt wins — results are deterministic, so either
  attempt's answer is *the* answer), counted under
  ``service.daemon.duplicate_results_ignored``;
* **result fidelity** — an executed request's result is byte-identical
  to the synchronous :class:`~repro.session.BatchSession` path for the
  same request, because both build the same
  :class:`~repro.core.config.GenerationConfig` against a context of the
  same graph;
* **graceful degradation** — overload never errors: a request that
  cannot be queued (tenant queue full) or whose SLO deadline elapsed
  while queued is answered with an **empty truncated ε-Pareto partial**
  whose ``truncation_reason`` names the shed
  (:func:`~repro.service.requests.shed_outcome`), and malformed request
  lines are answered with structured rejection objects
  (``service.requests.rejected``) instead of poisoning the stream.

Fault injection reuses the runtime layer's seeded
:class:`~repro.runtime.faults.FaultInjector` schedules, keyed by
``(submission seq, attempt, call)``. Inside the in-process worker pool
the fault kinds are reinterpreted (a real ``os._exit`` would take the
daemon down, which is the *parallel pool's* failure mode, not a worker
task's): CRASH kills the worker — its context is torn down and rebuilt
(``service.daemon.worker_restarts``) and the request is retried
elsewhere; SLOW sleeps inside the attempt (a straggler, abandoned when
``attempt_timeout`` is set); ERROR raises from the attempt (a transient
poisoned request, retried with the same bounded budget).

Every counter lives under ``service.daemon.*`` / ``service.admission.*``
and is registered only when a daemon is constructed — the default
(daemon unused) serving path stays counter-silent and byte-identical.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import socket as socket_module
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from repro.core.config import GenerationConfig
from repro.errors import ReproError, ServiceError
from repro.graph.attributed_graph import AttributedGraph
from repro.groups.system import GroupSystem
from repro.obs.registry import MetricsRegistry
from repro.runtime.faults import FaultInjectionError, FaultInjector, FaultKind
from repro.service.admission import AdmissionController
from repro.service.context import GraphContext
from repro.service.requests import (
    ALLOWED_OPTIONS,
    GenerationRequest,
    RequestOutcome,
    RequestRejection,
    outcome_to_dict,
    parse_request_line,
    shed_outcome,
)
from repro.service.scheduler import ALGORITHMS, resolve_request_groups

__all__ = [
    "DedupLedger",
    "ServingDaemon",
    "WorkerCrashed",
    "fire_inline",
    "replay_unix",
]

Submission = Union[GenerationRequest, RequestRejection, str]
Outcome = Union[RequestOutcome, RequestRejection]


class WorkerCrashed(RuntimeError):
    """An injected worker death inside the in-process pool.

    The in-process analogue of the parallel pool's ``os._exit``: the
    worker's context is discarded and rebuilt, and the in-flight request
    is retried on another worker.
    """


def fire_inline(
    injector: FaultInjector, index: int, attempt: int, call: int = 0
) -> None:
    """Fire an injected fault inside an in-process worker attempt.

    Mirrors :meth:`FaultInjector.maybe_fire`'s ``(index, attempt, call)``
    keying and attempt semantics (a spec fires on attempts
    ``0..times-1``), but maps CRASH to :class:`WorkerCrashed` instead of
    ``os._exit`` — killing the daemon process would end the test, not
    the worker.
    """
    for spec in injector.faults:
        if spec.batch_index != index or spec.call_index != call:
            continue
        if attempt >= spec.times:
            continue
        if spec.kind is FaultKind.CRASH:
            raise WorkerCrashed(
                f"injected worker crash: request {index}, attempt {attempt}"
            )
        if spec.kind is FaultKind.SLOW:
            time.sleep(spec.delay_seconds)
        else:
            raise FaultInjectionError(
                f"injected evaluator fault: request {index}, "
                f"call {call}, attempt {attempt}"
            )


# ---------------------------------------------------------------------- #
# Deduplication ledger
# ---------------------------------------------------------------------- #


class DedupLedger:
    """Canonical-signature dedup with in-flight parking.

    The synchronous scheduler sees requests one at a time, so "replay
    the earlier result" is a dictionary lookup. Under concurrency an
    identical request may arrive while the first is still *executing*;
    running it anyway would waste a worker on work whose answer is
    already being computed. The ledger therefore routes each request to
    one of three fates:

    * ``EXECUTE`` — first of its signature (or every earlier attempt
      failed): runs on a worker;
    * ``WAIT`` — an identical request is in flight: parked until it
      completes, then replayed (success) or promoted to execute
      (failure — matching the synchronous semantics where a failed
      outcome never serves as a dedup source);
    * a completed :class:`RequestOutcome` — an identical request already
      succeeded: replayed immediately.

    Soundness invariant (property-tested): distinct signatures are never
    conflated, every signature with at least one routed request executes
    at least once, and no parked request is dropped.
    """

    EXECUTE = "execute"
    WAIT = "wait"

    def __init__(self) -> None:
        self._done: Dict[str, RequestOutcome] = {}
        self._inflight: Dict[str, List[int]] = {}

    def route(self, signature: str, seq: int) -> Union[str, RequestOutcome]:
        """Decide one request's fate (see class docstring)."""
        earlier = self._done.get(signature)
        if earlier is not None:
            return earlier
        if signature in self._inflight:
            self._inflight[signature].append(seq)
            return self.WAIT
        self._inflight[signature] = []
        return self.EXECUTE

    def complete(
        self, signature: str, outcome: RequestOutcome
    ) -> Tuple[List[int], Optional[int]]:
        """Record an executed outcome; release or promote parked peers.

        Returns ``(replay_seqs, promote_seq)``: on success every parked
        peer replays the shared result; on failure the *first* parked
        peer is promoted to execute (the rest keep waiting on it).
        """
        waiting = self._inflight.pop(signature, [])
        if outcome.ok:
            self._done[signature] = outcome
            return waiting, None
        if waiting:
            promoted, rest = waiting[0], waiting[1:]
            self._inflight[signature] = rest
            return [], promoted
        return [], None

    def pending(self, signature: str) -> List[int]:
        """Seqs currently parked on ``signature`` (tests/diagnostics)."""
        return list(self._inflight.get(signature, ()))

    @property
    def orphans(self) -> List[int]:
        """Every parked seq across all signatures — must be empty after
        a drained batch (the no-orphans chaos assertion)."""
        return [seq for seqs in self._inflight.values() for seq in seqs]


# ---------------------------------------------------------------------- #
# The daemon
# ---------------------------------------------------------------------- #


class _Entry:
    """Ledger row: one submitted request and its (single) outcome."""

    __slots__ = (
        "seq",
        "request",
        "signature",
        "done",
        "outcome",
        "attempts",
        "future",
        "tasks",
    )

    def __init__(
        self, seq: int, request: GenerationRequest, tasks: set
    ) -> None:
        self.seq = seq
        self.request = request
        self.signature = request.canonical_signature()
        self.done = False
        self.outcome: Optional[RequestOutcome] = None
        self.attempts = 0
        self.future: Optional[asyncio.Future] = None
        # The tasks started for the serve call that submitted this entry;
        # that call awaits exactly these before it returns.
        self.tasks = tasks


class ServingDaemon:
    """Persistent multi-tenant serving daemon over one frozen graph.

    Args:
        graph: The (frozen) data graph served.
        groups: Groups/constraints every request is generated under.
        workers: Replicated :class:`GraphContext` count — each worker
            owns its own indexes, literal pools and metrics registry, so
            concurrent attempts never share mutable cache state.
        engine: Default matching engine (per-request ``options`` may
            override).
        defaults: Further per-request config defaults, same whitelist as
            request options.
        queue_depth: Per-tenant admission queue bound; offers beyond it
            are shed with :data:`~repro.service.admission.SHED_QUEUE_FULL`.
        max_retries: Infrastructure-fault retry budget per request
            (crashes, stragglers, injected evaluator errors). Library
            errors (:class:`~repro.errors.ReproError`) are *not*
            retried — they are deterministic and answer the request,
            matching the synchronous path.
        attempt_timeout: Optional per-attempt wall-clock bound; an
            attempt exceeding it is abandoned as a straggler and the
            request retried on another worker.
        warm / workload_pool_max_entries: Forwarded to every worker
            context.
        faults: Optional seeded :class:`FaultInjector`; specs are keyed
            by submission sequence number (chaos harness hook).
        metrics: The daemon registry (``service.daemon.*`` /
            ``service.admission.*``); private if omitted.
    """

    def __init__(
        self,
        graph: AttributedGraph,
        groups: GroupSystem,
        *,
        workers: int = 2,
        engine: str = "columnar",
        defaults: Optional[Dict[str, object]] = None,
        queue_depth: int = 64,
        max_retries: int = 2,
        attempt_timeout: Optional[float] = None,
        warm: bool = True,
        workload_pool_max_entries: Optional[int] = 4096,
        faults: Optional[FaultInjector] = None,
        metrics: Optional[MetricsRegistry] = None,
        default_template=None,
    ) -> None:
        if workers <= 0:
            raise ServiceError("workers must be positive")
        if max_retries < 0:
            raise ServiceError("max_retries must be non-negative")
        defaults = dict(defaults or {})
        defaults.setdefault("matcher_engine", engine)
        unknown = set(defaults) - ALLOWED_OPTIONS
        if unknown:
            raise ServiceError(
                f"unknown daemon default option(s) {sorted(unknown)}; "
                f"allowed: {sorted(ALLOWED_OPTIONS)}"
            )
        self.graph = graph
        self.groups = groups
        # Materialized per-request group systems (requests carrying a
        # `group_system` scenario spec), keyed by canonical spec. The
        # serving graph is pinned for the daemon's lifetime, so entries
        # never go stale; shared across workers (worst case under races:
        # one redundant build).
        self._systems: Dict[str, GroupSystem] = {}
        self.defaults = defaults
        self.max_retries = max_retries
        self.attempt_timeout = attempt_timeout
        self.faults = faults
        self.default_template = default_template
        self._warm = warm
        self._pool_bound = workload_pool_max_entries
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.admission = AdmissionController(
            metrics=self.metrics, queue_depth=queue_depth
        )
        self._contexts: List[GraphContext] = [
            self._build_context() for _ in range(workers)
        ]
        self._executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-daemon"
        )
        self._seq = itertools.count()
        self._entries: Dict[int, _Entry] = {}
        self._loop_token: Optional[int] = None
        self._free: Optional[asyncio.Queue] = None
        for name in (
            "service.daemon.requests",
            "service.daemon.completed",
            "service.daemon.failed",
            "service.daemon.deduplicated",
            "service.daemon.truncated",
            "service.daemon.shed",
            "service.daemon.retries",
            "service.daemon.worker_crashes",
            "service.daemon.worker_restarts",
            "service.daemon.stragglers_abandoned",
            "service.daemon.duplicate_results_ignored",
            "service.requests.rejected",
        ):
            self.metrics.counter(name)

    # ------------------------------------------------------------------ #
    # Worker pool
    # ------------------------------------------------------------------ #

    def _build_context(self) -> GraphContext:
        """One replicated worker context with a private registry."""
        return GraphContext(
            self.graph,
            metrics=MetricsRegistry(),
            workload_pool_max_entries=self._pool_bound,
            warm=self._warm,
        )

    @property
    def workers(self) -> int:
        return len(self._contexts)

    def _ensure_loop_state(self) -> None:
        """(Re)build loop-affine plumbing when serving from a new loop."""
        token = id(asyncio.get_running_loop())
        if self._loop_token == token and self._free is not None:
            return
        self._loop_token = token
        self._free = asyncio.Queue()
        for index in range(len(self._contexts)):
            self._free.put_nowait(index)

    # ------------------------------------------------------------------ #
    # One-shot serving
    # ------------------------------------------------------------------ #

    def serve(self, submissions: Iterable[Submission]) -> List[Outcome]:
        """Serve a workload to completion on a private event loop.

        ``submissions`` may mix parsed :class:`GenerationRequest`s, raw
        JSONL lines and pre-made rejections. Outcomes come back in
        submission order, exactly one per submission.
        """
        return asyncio.run(self.serve_async(submissions))

    async def serve_async(self, submissions: Iterable[Submission]) -> List[Outcome]:
        """:meth:`serve` for callers already inside an event loop."""
        self._ensure_loop_state()
        ledger = DedupLedger()
        tasks: set = set()
        batch: List[Tuple[int, Outcome]] = []
        entries: List[_Entry] = []
        immediate: List[Tuple[int, Outcome]] = []
        for item in self._parse(submissions):
            if isinstance(item, RequestRejection):
                self.metrics.inc("service.requests.rejected")
                immediate.append((next(self._seq), item))
                continue
            seq = next(self._seq)
            self.metrics.inc("service.daemon.requests")
            entry = _Entry(seq, item, tasks)
            entry.future = asyncio.get_running_loop().create_future()
            self._entries[seq] = entry
            shed = self.admission.offer(seq, item)
            if shed is not None:
                self._publish(entry, shed_outcome(item, shed))
            entries.append(entry)
        self._dispatch_admitted(ledger)
        for entry in entries:
            await entry.future
        # Only this call's tasks: abandoned stragglers of its own requests
        # may still be running. Overlapping calls wait for their own.
        while tasks:
            await asyncio.gather(*list(tasks))
        assert not ledger.orphans, f"orphaned queue entries: {ledger.orphans}"
        for entry in entries:
            batch.append((entry.seq, entry.outcome))
            del self._entries[entry.seq]
        batch.extend(immediate)
        batch.sort(key=lambda pair: pair[0])
        return [outcome for _, outcome in batch]

    def _parse(self, submissions: Iterable[Submission]) -> Iterable[
        Union[GenerationRequest, RequestRejection]
    ]:
        index = 0
        seen_ids: set = set()
        for line_no, item in enumerate(submissions, start=1):
            from_wire = isinstance(item, str)
            if from_wire:
                stripped = item.strip()
                if not stripped or stripped.startswith("#"):
                    continue
                item = parse_request_line(
                    stripped,
                    self.default_template,
                    index=index,
                    line_no=line_no,
                )
            if isinstance(item, GenerationRequest):
                if from_wire:
                    # Wire batches share the lenient parser's contract:
                    # an id names exactly one outcome, first line wins.
                    if item.request_id in seen_ids:
                        yield RequestRejection(
                            request_id=item.request_id,
                            reason=(
                                "duplicate request id "
                                f"{item.request_id!r}"
                            ),
                            line_no=line_no,
                            client=item.client,
                        )
                        continue
                    seen_ids.add(item.request_id)
                index += 1
            yield item

    # ------------------------------------------------------------------ #
    # Dispatch
    # ------------------------------------------------------------------ #

    def _dispatch_admitted(self, ledger: DedupLedger) -> None:
        """Drain the admission queues into routed worker tasks (DRR order)."""
        while True:
            item = self.admission.next()
            if item is None:
                return
            queued, shed = item
            entry = self._entries[queued.seq]
            self.metrics.observe(
                "service.daemon.queue_wait_seconds",
                self.admission.clock() - queued.enqueued_at,
            )
            if shed is not None:
                self._publish(entry, shed_outcome(entry.request, shed))
                continue
            self._route(entry, ledger)

    def _route(self, entry: _Entry, ledger: DedupLedger) -> None:
        fate = ledger.route(entry.signature, entry.seq)
        if isinstance(fate, RequestOutcome):
            self._publish(entry, self._dedup_outcome(entry, fate))
        elif fate == DedupLedger.EXECUTE:
            self._spawn(self._run_attempts(entry, ledger), entry)
        # WAIT: parked; completion of the in-flight twin resumes us.

    def _spawn(self, coro, entry: _Entry) -> None:
        """Start ``coro`` as a task owned by ``entry``'s serve call."""
        task = asyncio.get_running_loop().create_task(coro)
        entry.tasks.add(task)
        task.add_done_callback(entry.tasks.discard)

    def _dedup_outcome(
        self, entry: _Entry, earlier: RequestOutcome
    ) -> RequestOutcome:
        self.metrics.inc("service.daemon.deduplicated")
        return RequestOutcome(
            request=entry.request,
            result=earlier.result,
            elapsed_seconds=0.0,
            deduplicated=True,
        )

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    async def _run_attempts(self, entry: _Entry, ledger: DedupLedger) -> None:
        """Execute one request with bounded infrastructure retries."""
        loop = asyncio.get_running_loop()
        error: Optional[str] = None
        while True:
            if entry.done:
                # A previously abandoned straggler beat us to the answer.
                return
            attempt = entry.attempts
            entry.attempts += 1
            wait_start = self.admission.clock()
            worker = await self._free.get()
            self.metrics.observe(
                "service.daemon.worker_wait_seconds",
                self.admission.clock() - wait_start,
            )
            future = loop.run_in_executor(
                self._executor, self._attempt_sync, worker, entry, attempt
            )
            future.add_done_callback(
                lambda f, w=worker: self._release_worker(f, w)
            )
            try:
                if self.attempt_timeout is not None:
                    outcome = await asyncio.wait_for(
                        asyncio.shield(future), self.attempt_timeout
                    )
                else:
                    outcome = await future
            except asyncio.TimeoutError:
                # Straggler: the thread keeps running (its late result is
                # discarded at publication); retry on another worker.
                self.metrics.inc("service.daemon.stragglers_abandoned")
                self._spawn(self._ignore_late(future, entry, ledger), entry)
                error = "attempt timed out"
            except WorkerCrashed as exc:
                self.metrics.inc("service.daemon.worker_crashes")
                self._restart_worker(worker)
                error = str(exc)
            except Exception as exc:  # noqa: BLE001 - fault boundary
                if isinstance(exc, ReproError):
                    # Deterministic library error: the request's answer,
                    # not an infrastructure fault. No retry — matches the
                    # synchronous scheduler.
                    self._finish(entry, self._error_outcome(entry, str(exc)), ledger)
                    return
                error = str(exc)
            else:
                self._finish(entry, outcome, ledger)
                return
            if entry.attempts > self.max_retries:
                self._finish(
                    entry,
                    self._error_outcome(
                        entry,
                        f"retries exhausted after {entry.attempts} attempts: "
                        f"{error}",
                    ),
                    ledger,
                )
                return
            self.metrics.inc("service.daemon.retries")

    def _release_worker(self, future: asyncio.Future, worker: int) -> None:
        # Runs on the event loop once the executor thread is truly done
        # (shield keeps the future alive past wait_for timeouts), so a
        # slot can never be handed out while its thread still runs. That
        # also makes this the one safe point to fold the attempt's run
        # counters out of the worker registry: no thread writes to it
        # until the slot is handed out again.
        del future
        context = self._contexts[worker]
        self.metrics.absorb(context.metrics)
        context.metrics.reset()
        if self._free is not None:
            self._free.put_nowait(worker)

    async def _ignore_late(
        self, future: asyncio.Future, entry: _Entry, ledger: DedupLedger
    ) -> None:
        """Await an abandoned straggler; keep its answer iff it is first."""
        try:
            outcome = await future
        except Exception:  # noqa: BLE001 - abandoned attempt, any fate ok
            return
        self._finish(entry, outcome, ledger)

    def _restart_worker(self, worker: int) -> None:
        """Replace a crashed worker's context (fresh indexes and caches)."""
        self._contexts[worker] = self._build_context()
        self.metrics.inc("service.daemon.worker_restarts")

    def _attempt_sync(
        self, worker: int, entry: _Entry, attempt: int
    ) -> RequestOutcome:
        """One execution attempt, on a worker thread.

        Fault hooks fire at call 0 (before any work — a worker dying on
        pickup) and call 1 (after the result exists but before it is
        published — the crash-after-work case exactly-once accounting
        must absorb).
        """
        request = entry.request
        if self.faults is not None:
            fire_inline(self.faults, entry.seq, attempt, call=0)
        start = time.perf_counter()
        context = self._contexts[worker]
        options = dict(self.defaults)
        options.update(request.options)
        algorithm_cls = ALGORITHMS.get(request.algorithm)
        if algorithm_cls is None:
            raise ServiceError(
                f"unknown algorithm {request.algorithm!r}; "
                f"known: {sorted(ALGORITHMS)}"
            )
        groups = resolve_request_groups(
            request,
            context.graph,
            self.groups,
            cache=self._systems,
            metrics=context.metrics,
        )
        config = context.bind(
            GenerationConfig(
                context.graph,
                request.template,
                groups,
                epsilon=request.epsilon,
                budget=request.budget(),
                metrics=context.metrics,
                **options,
            )
        )
        result = algorithm_cls(config).run()
        if self.faults is not None:
            fire_inline(self.faults, entry.seq, attempt, call=1)
        return RequestOutcome(
            request=request,
            result=result,
            elapsed_seconds=time.perf_counter() - start,
        )

    def _error_outcome(self, entry: _Entry, message: str) -> RequestOutcome:
        return RequestOutcome(request=entry.request, error=message)

    # ------------------------------------------------------------------ #
    # Publication (the exactly-once merge point)
    # ------------------------------------------------------------------ #

    def _finish(
        self, entry: _Entry, outcome: RequestOutcome, ledger: DedupLedger
    ) -> None:
        """Publish an *executed* outcome and settle its dedup peers."""
        if not self._publish(entry, outcome):
            return
        replay, promote = ledger.complete(entry.signature, outcome)
        for seq in replay:
            peer = self._entries[seq]
            self._publish(peer, self._dedup_outcome(peer, outcome))
        if promote is not None:
            promoted = self._entries[promote]
            self._spawn(self._run_attempts(promoted, ledger), promoted)

    def _publish(self, entry: _Entry, outcome: RequestOutcome) -> bool:
        """Record ``entry``'s single outcome; duplicates are discarded."""
        if entry.done:
            self.metrics.inc("service.daemon.duplicate_results_ignored")
            return False
        entry.done = True
        entry.outcome = outcome
        if outcome.shed:
            self.metrics.inc("service.daemon.shed")
        elif outcome.deduplicated:
            pass  # counted at construction in _dedup_outcome
        elif outcome.ok:
            self.metrics.inc("service.daemon.completed")
            if outcome.result.truncated:
                self.metrics.inc("service.daemon.truncated")
        else:
            self.metrics.inc("service.daemon.failed")
        self.metrics.observe(
            "service.daemon.request_seconds", outcome.elapsed_seconds
        )
        if entry.future is not None and not entry.future.done():
            entry.future.set_result(outcome)
        return True

    # ------------------------------------------------------------------ #
    # Wire front-ends
    # ------------------------------------------------------------------ #

    async def handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """One JSONL batch per connection: read to EOF, answer, close."""
        raw = await reader.read()
        lines = raw.decode("utf-8", errors="replace").splitlines()
        outcomes = await self.serve_async(lines)
        for outcome in outcomes:
            writer.write(
                (json.dumps(outcome_to_dict(outcome)) + "\n").encode("utf-8")
            )
        await writer.drain()
        writer.close()
        await writer.wait_closed()

    async def serve_unix(
        self,
        path: str,
        ready: Optional[asyncio.Event] = None,
    ) -> None:
        """Serve JSONL batches over a Unix socket until cancelled."""
        server = await asyncio.start_unix_server(self.handle_connection, path)
        if ready is not None:
            ready.set()
        async with server:
            await server.serve_forever()

    def shutdown(self) -> None:
        """Tear down the worker thread pool (idempotent)."""
        self._executor.shutdown(wait=True)


def replay_unix(path: str, lines: Iterable[str], timeout: float = 120.0) -> List[Dict[str, Any]]:
    """Minimal synchronous client: send a JSONL batch, read the outcomes.

    The CLI's ``daemon --client`` path and the CI smoke job use this; it
    needs nothing but the standard library, so any process can speak to
    the daemon.
    """
    with socket_module.socket(socket_module.AF_UNIX) as sock:
        sock.settimeout(timeout)
        sock.connect(path)
        payload = "".join(line.rstrip("\n") + "\n" for line in lines)
        sock.sendall(payload.encode("utf-8"))
        sock.shutdown(socket_module.SHUT_WR)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    raw = b"".join(chunks).decode("utf-8")
    return [json.loads(line) for line in raw.splitlines() if line.strip()]
