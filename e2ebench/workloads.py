"""The benchmark's three workloads, driven only through the public API.

No workload passes an engine, delta-scoring, diversity-mode,
membership-patching or columnar argument: each measures what a user gets
by default. Inputs come from the ``--seed`` argument alone; the program
only ever sees the generated requests, ledgers and deltas.

Every request a seed can produce lies in a finite request space
(dataset or template × a grid of ε values), so the golden fingerprints
in ``goldens/`` cover every seed, not only the ones tried while the
benchmark was written. A seed picks an order through that space without
repeating a request (serve-open adds a stated share of deliberate
repeats).
"""

from __future__ import annotations

import asyncio
import contextlib
import random
import time
import traceback
from typing import Dict, Iterator, List, Optional, Tuple

from repro import (
    BiQGen,
    EpsilonParetoArchive,
    FairSQGSession,
    GenerationRequest,
    GraphContext,
    GraphDelta,
    InstanceEvaluator,
    RfQGen,
    StreamingSession,
    TemplateGenerator,
    TemplateSpec,
    dataset_bundle,
    random_delta_stream,
)
from repro.groups.system import system_from_dict
from repro.matching.delta import apply_delta
from repro.obs.registry import MetricsRegistry
from repro.obs.tracing import collecting
from repro.service.daemon import ServingDaemon
from repro.workload.scenarios import ScenarioGenerator

from golden import agrees, fingerprint
from measure import OpRecord, assign_slowdowns, host_sample
from spans import CURRENT_OP, untraced

#: The paper's reference settings: total coverage C, groups, domain cap.
COVERAGE_TOTAL = 16
NUM_GROUPS = 2
DOMAIN_CAP = 8


def epsilon_grid(steps: int, low: float = 0.01, high: float = 0.05) -> List[float]:
    """``steps + 1`` evenly spaced ε values from ``low`` to ``high``."""
    return [round(low + (high - low) * k / steps, 10) for k in range(steps + 1)]


class Workload:
    """Base: a closed loop with one client.

    Subclasses build their inputs and state in :meth:`setup`, hand out
    one op at a time from :meth:`next_op` (None once the request space
    is used up), run it in :meth:`execute` (the only timed call) and
    judge its output in :meth:`verify`.
    """

    name = ""
    open_loop = False
    #: Whether ops are checked against ``goldens/<name>.json``.
    uses_goldens = True

    def __init__(self, seed: int, goldens: Dict[str, dict]) -> None:
        self.seed = seed
        self.goldens = goldens
        self.registry = MetricsRegistry()

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        """Release what :meth:`setup` built."""

    def next_op(self):
        raise NotImplementedError

    def execute(self, item):
        raise NotImplementedError

    def verify(self, item, output, record: OpRecord) -> bool:
        raise NotImplementedError

    def finish(self) -> bool:
        """Checks after timing; returns False if the final state is wrong."""
        return True

    def traced_scope(self):
        """Context entered around traced phases (counts collection)."""
        return contextlib.nullcontext()

    def run_phase(self, seconds: float, min_ops: int) -> List[OpRecord]:
        """Run ops back to back for ``seconds`` and at least ``min_ops``."""
        records: List[OpRecord] = []
        samples = []
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or len(records) < min_ops:
            item = self.next_op()
            if item is None:
                break
            samples.append(host_sample())
            token = CURRENT_OP.set(len(records))
            start = time.perf_counter()
            output: object = None
            try:
                output = self.execute(item)
                end = time.perf_counter()
            except Exception:  # noqa: BLE001 - a failed op is counted, not fatal
                end = time.perf_counter()
                traceback.print_exc()
            finally:
                CURRENT_OP.reset(token)
            record = OpRecord(due=start, start=start, end=end)
            record.ok = output is not None and self.verify(item, output, record)
            records.append(record)
        samples.append(host_sample())
        assign_slowdowns(records, samples)
        return records


# ---------------------------------------------------------------------- #
# generate-paper
# ---------------------------------------------------------------------- #


class GeneratePaper(Workload):
    """Fresh ``FairSQGSession(...).suggest()`` calls on the paper rows.

    Rotates dbp BiQGen → lki RfQGen → cite BiQGen, each op with its own
    ε from a 401-value grid over [0.01, 0.05], so no two ops of a run
    are the same request.
    """

    name = "generate-paper"
    ROWS = (("dbp", BiQGen, 0.25), ("lki", RfQGen, 0.25), ("cite", BiQGen, 0.25))
    GRID = epsilon_grid(400)
    #: Warm-up ε, outside the grid so warm-up never repeats a timed request.
    WARMUP_EPSILON = 0.055

    def __init__(self, seed: int, goldens: Dict[str, dict]) -> None:
        super().__init__(seed, goldens)
        rng = random.Random(f"{self.name}:{seed}")
        orders = []
        for _ in self.ROWS:
            order = list(range(len(self.GRID)))
            rng.shuffle(order)
            orders.append(order)
        rows = len(self.ROWS)
        self._schedule = [
            (i % rows, orders[i % rows][i // rows]) for i in range(rows * len(self.GRID))
        ]
        self._cursor = 0
        self._bundles: list = []

    @staticmethod
    def request_id(row: int, index: int) -> str:
        return f"{GeneratePaper.ROWS[row][0]}:{index}"

    @classmethod
    def request_space(cls) -> Iterator[Tuple[int, int]]:
        for row in range(len(cls.ROWS)):
            for index in range(len(cls.GRID)):
                yield row, index

    @classmethod
    def bundles(cls) -> list:
        return [
            dataset_bundle(name, scale=scale, coverage_total=COVERAGE_TOTAL, num_groups=NUM_GROUPS)
            for name, _, scale in cls.ROWS
        ]

    @classmethod
    def suggest(cls, bundles: list, row: int, epsilon: float):
        bundle = bundles[row]
        return FairSQGSession(
            bundle.graph,
            bundle.template,
            bundle.groups,
            epsilon=epsilon,
            algorithm=cls.ROWS[row][1],
            max_domain_values=DOMAIN_CAP,
        ).suggest()

    def setup(self) -> None:
        self._bundles = self.bundles()
        for row in range(len(self.ROWS)):
            self.suggest(self._bundles, row, self.WARMUP_EPSILON)

    def teardown(self) -> None:
        self._bundles = []

    def next_op(self):
        if self._cursor >= len(self._schedule):
            return None
        item = self._schedule[self._cursor]
        self._cursor += 1
        return item

    def execute(self, item):
        row, index = item
        return self.suggest(self._bundles, row, self.GRID[index])

    def verify(self, item, output, record: OpRecord) -> bool:
        row, index = item
        if output.truncated:
            return False
        found = fingerprint(output.instances, self.GRID[index])
        return agrees(found, self.goldens.get(self.request_id(row, index)))

    def traced_scope(self):
        return collecting(self.registry)


# ---------------------------------------------------------------------- #
# serve-open
# ---------------------------------------------------------------------- #


class ServeOpen(Workload):
    """An open-loop arrival schedule fed to one :class:`ServingDaemon`.

    The benchmark's own event loop calls ``serve_async([request])`` at
    each due time: no sockets, no extra threads. Requests are generated
    templates × ε from a 21-value grid, from two clients; every fifth
    request repeats an earlier one verbatim.

    The arrival times and the template sequence come from a fixed seed,
    the same in every run; ``--seed`` picks each request's ε and client.
    A request's latency depends on which requests overlap it, so
    per-seed schedules made the percentiles swing by 20–45% between
    seeds. The load is about a quarter of one core, not a half: at half
    load ``serve_async``, which returns only once the daemon has no task
    left, turned host slowdowns into p90 swings of 30–45%, and at a
    third of a core a contended host still doubled the p90.
    """

    name = "serve-open"
    open_loop = True
    SCALE = 0.15
    TEMPLATE_SEED = 9
    TEMPLATE_SPEC = TemplateSpec("person", size=3, num_range_vars=2, num_edge_vars=1)
    #: Many templates, so the cost distribution has no gap for a
    #: percentile to straddle.
    TEMPLATES = 48
    GRID = epsilon_grid(20)
    #: Offered load: about a quarter of one core at the default settings.
    RATE = 3.0
    #: Worker contexts (the nproc of the 2-vCPU host it was tuned on).
    WORKERS = 2
    CLIENTS = ("tenant-a", "tenant-b")
    #: Every REPEAT_EVERY-th request repeats an earlier one (20%).
    REPEAT_EVERY = 5
    SCHEDULE_SEED = "serve-open-schedule"
    #: The generator samples the host speed before a send only when the
    #: send is at least this far off (a sample takes a few ms).
    CALIBRATION_GAP = 0.05
    WARMUP_EPSILON = 0.055

    def __init__(self, seed: int, goldens: Dict[str, dict]) -> None:
        super().__init__(seed, goldens)
        self._shape = random.Random(self.SCHEDULE_SEED)
        self._rng = random.Random(f"{self.name}:{seed}")
        self._orders = []
        for _ in range(self.TEMPLATES):
            order = list(range(len(self.GRID)))
            self._rng.shuffle(order)
            self._orders.append(order)
        self._block: List[int] = []
        self._issued: List[Tuple[int, int]] = []
        self._sent = 0
        self.daemon: Optional[ServingDaemon] = None
        self.loop: Optional[asyncio.AbstractEventLoop] = None

    @staticmethod
    def request_id(template: int, index: int) -> str:
        return f"t{template}:{index}"

    @classmethod
    def request_space(cls) -> Iterator[Tuple[int, int]]:
        for template in range(cls.TEMPLATES):
            for index in range(len(cls.GRID)):
                yield template, index

    @classmethod
    def build_inputs(cls):
        bundle = dataset_bundle(
            "lki", scale=cls.SCALE, coverage_total=COVERAGE_TOTAL, num_groups=NUM_GROUPS
        )
        generator = TemplateGenerator(bundle.schema, seed=cls.TEMPLATE_SEED)
        templates = generator.generate_many(cls.TEMPLATE_SPEC, cls.TEMPLATES, prefix="serve")
        return bundle, templates

    def setup(self) -> None:
        self.bundle, self.templates = self.build_inputs()
        self.daemon = ServingDaemon(
            self.bundle.graph,
            self.bundle.groups,
            workers=self.WORKERS,
            defaults={"max_domain_values": DOMAIN_CAP},
            metrics=self.registry,
        )
        self.loop = asyncio.new_event_loop()
        warmup = [
            GenerationRequest(f"warmup-{w}", self.templates[w], epsilon=self.WARMUP_EPSILON)
            for w in range(self.WORKERS)
        ]
        self.loop.run_until_complete(self.daemon.serve_async(warmup))

    def teardown(self) -> None:
        if self.daemon is not None:
            self.daemon.shutdown()
            self.daemon = None
        if self.loop is not None:
            self.loop.close()
            self.loop = None

    def _next_request(self) -> Tuple[int, int]:
        """The next (template, ε index); fresh ones cycle through blocks
        holding every template once."""
        if self._sent % self.REPEAT_EVERY == 0 and self._issued:
            return self._issued[self._shape.randrange(len(self._issued))]
        if not self._block:
            self._block = list(range(self.TEMPLATES))
            self._shape.shuffle(self._block)
        template = self._block.pop()
        order = self._orders[template]
        if not order:  # request space used up: repeat instead
            return self._issued[self._shape.randrange(len(self._issued))]
        pair = (template, order.pop())
        self._issued.append(pair)
        return pair

    def schedule(self, count: int) -> List[Tuple[float, Tuple[int, int], GenerationRequest]]:
        """``count`` requests with due offsets (seconds from start).

        Gaps are uniform in [0.5, 1.5] × 1/RATE: the mean rate is RATE,
        with less burstiness than Poisson arrivals.
        """
        entries = []
        offset = 0.0
        for _ in range(count):
            self._sent += 1
            template, index = self._next_request()
            request = GenerationRequest(
                f"r{self._sent}",
                self.templates[template],
                epsilon=self.GRID[index],
                client=self._rng.choice(self.CLIENTS),
            )
            entries.append((offset, (template, index), request))
            offset += self._shape.uniform(0.5, 1.5) / self.RATE
        return entries

    def run_phase(self, seconds: float, min_ops: int) -> List[OpRecord]:
        count = max(min_ops, round(seconds * self.RATE), 1)
        return self.loop.run_until_complete(self._drive(self.schedule(count)))

    async def _drive(self, entries) -> List[OpRecord]:
        tasks: List[asyncio.Future] = []
        samples = [host_sample()]
        origin = time.perf_counter()
        for number, (offset, key, request) in enumerate(entries):
            due = origin + offset
            # Sample the host speed only while the daemon is idle, so the
            # sample neither competes with requests for the interpreter
            # nor delays the next send.
            pending = [t for t in tasks if not t.done()]
            spare = due - time.perf_counter() - self.CALIBRATION_GAP
            if pending and spare > 0:
                _, pending = await asyncio.wait(pending, timeout=spare)
            if not pending and due - time.perf_counter() > self.CALIBRATION_GAP:
                samples.append(host_sample())
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            sent = time.perf_counter()
            token = CURRENT_OP.set(number)
            tasks.append(asyncio.ensure_future(self._one(due, sent, key, request)))
            CURRENT_OP.reset(token)
        records = list(await asyncio.gather(*tasks))
        samples.append(host_sample())
        assign_slowdowns(records, samples)
        return records

    async def _one(self, due: float, sent: float, key, request) -> OpRecord:
        outcome = None
        try:
            outcome = (await self.daemon.serve_async([request]))[0]
        except Exception:  # noqa: BLE001 - a failed op is counted, not fatal
            traceback.print_exc()
        record = OpRecord(due=due, start=sent, end=time.perf_counter())
        record.ok = outcome is not None and self.verify(key, outcome, record)
        return record

    def verify(self, item, outcome, record: OpRecord) -> bool:
        template, index = item
        if not outcome.ok or outcome.shed or outcome.result.truncated:
            return False
        found = fingerprint(outcome.result.instances, self.GRID[index])
        return agrees(found, self.goldens.get(self.request_id(template, index)))


# ---------------------------------------------------------------------- #
# stream-churn
# ---------------------------------------------------------------------- #


class StreamChurn(Workload):
    """Seeded graph updates applied through ``StreamingSession.update``.

    dbp at scale 1.0, a generated ledger and a rule-built overlapping
    group system from :mod:`repro.workload.scenarios`, so attribute
    deltas move members between groups. Each op is one delta of edge
    inserts/deletes plus attribute sets. The ledger and the group system
    come from fixed seeds, the same in every run, and ``--seed`` picks
    the delta stream: with per-seed ledgers the update cost swung by
    15% between seeds, because a few ledger instances dominate it.

    Every ``CHECK_EVERY`` ops, and after the last one, the live archive
    is compared (untimed) with a cold rebuild of the ledger on a copy of
    the current graph; the ops since the previous check pass only if it
    agrees.
    """

    name = "stream-churn"
    uses_goldens = False
    SCALE = 1.0
    LEDGER = 40
    EPSILON = 0.02
    EDGE_OPS = 2
    ATTR_OPS = 2
    ATTRIBUTES = ("genre", "country", "rating", "awards")
    GROUP_LABEL = "movie"
    GROUP_ATTRIBUTES = ("genre", "country")
    CHECK_EVERY = 40
    LEDGER_SEED = 0
    SCENARIO_SEED = 0
    #: Length of the lazily consumed delta stream (never reached).
    STREAM_LENGTH = 1_000_000

    def __init__(self, seed: int, goldens: Dict[str, dict]) -> None:
        super().__init__(seed, goldens)
        self._pending: List[OpRecord] = []
        self.session: Optional[StreamingSession] = None

    def setup(self) -> None:
        bundle = dataset_bundle(
            "dbp", scale=self.SCALE, coverage_total=COVERAGE_TOTAL, num_groups=NUM_GROUPS
        )
        self.template = bundle.template
        self.spec = ScenarioGenerator(
            bundle.graph, self.GROUP_LABEL, self.GROUP_ATTRIBUTES, seed=self.SCENARIO_SEED
        ).spec(0)
        groups = system_from_dict(self.spec, bundle.graph, clamp=True)
        self.session = StreamingSession(
            bundle.graph,
            self.template,
            groups,
            epsilon=self.EPSILON,
            max_domain_values=DOMAIN_CAP,
        )
        self.registry = self.session.metrics
        self.session.generate(count=self.LEDGER, seed=self.LEDGER_SEED)
        self._deltas = random_delta_stream(
            bundle.graph,
            count=self.STREAM_LENGTH,
            seed=self.seed,
            edge_ops=self.EDGE_OPS,
            attr_ops=self.ATTR_OPS,
            attributes=self.ATTRIBUTES,
        )
        self.session.update(next(self._deltas))  # warm-up
        self._pending = []

    def teardown(self) -> None:
        self.session = None

    def next_op(self):
        return next(self._deltas)

    def execute(self, delta):
        return self.session.update(delta)

    def verify(self, delta, report, record: OpRecord) -> bool:
        record.ok = report.recovered is None
        self._pending.append(record)
        if len(self._pending) >= self.CHECK_EVERY:
            self._checkpoint()
        return record.ok

    def _checkpoint(self) -> bool:
        with untraced():
            same = agrees(self.live_fingerprint(), self.cold_fingerprint())
        if not same:
            for record in self._pending:
                record.ok = False
        self._pending = []
        return same

    def finish(self) -> bool:
        return self._checkpoint()

    def live_fingerprint(self) -> dict:
        return fingerprint(self.session.archive, self.EPSILON)

    def cold_fingerprint(self) -> dict:
        """The archive rebuilt from scratch: fresh graph copy, groups,
        context and evaluator, every ledger instance re-evaluated."""
        graph = apply_delta(self.session.graph, GraphDelta())
        groups = system_from_dict(self.spec, graph, clamp=True)
        config = GraphContext(graph).configure(
            self.template, groups, epsilon=self.EPSILON, max_domain_values=DOMAIN_CAP
        )
        evaluator = InstanceEvaluator(config)
        archive = EpsilonParetoArchive(config.epsilon)
        for instance in self.session.ledger_instances():
            evaluated = evaluator.evaluate(instance)
            if evaluated.feasible:
                archive.offer(evaluated)
        return fingerprint(archive, self.EPSILON)


WORKLOADS = {cls.name: cls for cls in (GeneratePaper, ServeOpen, StreamChurn)}
