"""The four workloads, measured end to end with nothing instrumented.

Each ``run_*`` function is the body of one workload child process: it
builds the inputs from the seeds, sets up (three times; the median is
``setup_s``), measures for ``seconds``, checks every output against the
oracle and returns a :class:`Report`.  The traced, per-layer view of the
same operations lives in ledger.py.

The five latency metrics are shared across workloads (the benchmark
contract wants every end-to-end metric on every workload), so they are
named by slot; ``CLASSES`` says which request class fills each slot on each
workload, and every printed row carries that label.
"""

from __future__ import annotations

import gc
import os
import resource
import shutil
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import paths

from repro import Database
from repro.analyses.ordering import Ordering
from repro.server.client import BlockingClient, ServerError
from repro.server.protocol import ProtocolError

import configs
import oracle
from inputs import ProgramInput, ServeInput, batch_inputs, serve_input
from procs import ServerProcess, split_cpus
from stats import median, percentile

#: workload -> slot -> (request class, statistic).  All slots are in ms.
CLASSES: Dict[str, Dict[str, Tuple[str, str]]] = {
    "batch_cold": {
        "a": ("tc cold query", "p50"), "b": ("cspa cold query", "p50"),
        "c": ("csda cold query", "p50"), "d": ("andersen cold query", "p50"),
        "e": ("all four (sum of medians)", "sum"),
    },
    "batch_adaptive": {
        "a": ("tc worst-order JIT", "p50"), "b": ("cspa worst-order JIT", "p50"),
        "c": ("csda worst-order JIT", "p50"),
        "d": ("andersen worst-order JIT", "p50"),
        "e": ("all four (sum of medians)", "sum"),
    },
    # Statistics chosen for what repeats (README, "Steadiness").
    "serve_read": {
        "a": ("page read", "p50"), "b": ("governed page read", "p50"),
        "c": ("page read", "p90"), "d": ("full read", "p50"),
        "e": ("page read, wall / completed", "mean"),
    },
    # The insert, retract and memoised-read medians all sit on a cliff
    # between a fast and a queued mode; the quantile inside the fast mode,
    # the mean over the pinned stream and the p90 over all reads stand in.
    "serve_churn": {
        "a": ("fresh read (first at a new version)", "p50"),
        "b": ("SIGKILL -> first correct full answer", "once"),
        "c": ("page read, fresh or memoised, due -> decoded", "p90"),
        "d": ("insert batch, due -> ack", "p25"),
        "e": ("retract batch, due -> ack", "mean"),
    },
}

WORKLOADS = tuple(CLASSES)
BATCH_WORKLOADS = {
    "batch_cold": (configs.PRODUCTION, Ordering.OPTIMIZED),
    "batch_adaptive": (configs.ADAPTIVE, Ordering.WORST),
}


@dataclass
class Report:
    """What one workload child hands back to the runner."""

    workload: str
    attempted: int = 0
    failed: int = 0
    #: name -> {"value", "unit", "n", "label"?}
    metrics: Dict[str, dict] = field(default_factory=dict)
    failures: List[str] = field(default_factory=list)
    notes: Dict[str, object] = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def fail(self, message: str, count: int = 1) -> None:
        with self._lock:
            self.attempted += count
            self.failed += count
            if len(self.failures) < 20:
                self.failures.append(message)

    def check(self, condition: bool, message: str) -> None:
        """Count one attempted operation; failed unless ``condition``."""
        if condition:
            with self._lock:
                self.attempted += 1
        else:
            self.fail(message)

    def put(self, name: str, value: float, unit: str, n: int,
            label: Optional[str] = None) -> None:
        entry = {"value": value, "unit": unit, "n": n}
        if label:
            entry["label"] = label
        self.metrics[name] = entry

    def put_class(self, slot: str, value_ms: float, n: int) -> None:
        label, statistic = CLASSES[self.workload][slot]
        self.put(f"class_{slot}_ms", value_ms, "ms", n, f"{label}, {statistic}")

    def as_dict(self) -> dict:
        return {
            "workload": self.workload, "attempted": self.attempted,
            "failed": self.failed, "correct": self.failed == 0,
            "metrics": self.metrics, "failures": self.failures,
            "notes": self.notes,
        }


@dataclass
class Args:
    """The parsed command line a workload needs."""

    seed: int
    structure_seed: int
    seconds: float
    scale: configs.Scale
    scale_name: str
    expected_path: str


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_setups(build: Callable[[], object], report: Report, repeats: int):
    """Run set-up ``repeats`` times; keep the last, report the median."""
    samples, built = [], None
    for _ in range(repeats):
        built = None  # drop the previous build before timing the next
        gc.collect()
        started = time.perf_counter()
        built = build()
        samples.append(time.perf_counter() - started)
    report.put("setup_s", median(samples), "s", len(samples))
    return built


# -- batch -------------------------------------------------------------------------


def cold_query(program, relation: str, config) -> Tuple[float, list]:
    """One cold one-shot evaluation, timed: open, evaluate, materialise
    every row in deterministic order, close."""
    started = time.perf_counter()
    database = Database(program.copy(), config)
    rows = list(database.query(relation).rows())
    database.close()
    return time.perf_counter() - started, rows


def check_program_rows(report: Report, item: ProgramInput, rows,
                       expected: Dict[str, oracle.Digest]) -> None:
    got = oracle.digest_rows(rows, item.inverse)
    report.check(
        got == tuple(expected[item.name]),
        f"{item.name}: got {got[0]} rows {got[1][:12]}, "
        f"oracle says {expected[item.name][0]} rows {expected[item.name][1][:12]}",
    )


def run_batch(workload: str, args: Args) -> Report:
    report = Report(workload)
    config, ordering = BATCH_WORKLOADS[workload]
    expected = oracle.expected_digests(
        args.scale, args.scale_name, args.structure_seed, args.expected_path
    )

    def build():
        items = batch_inputs(args.scale, args.structure_seed, args.seed)
        return [(item, item.build(ordering)) for item in items]

    programs = timed_setups(build, report, args.scale.setup_repeats)

    samples: Dict[str, List[float]] = {item.name: [] for item, _ in programs}
    deadline = time.perf_counter() + args.seconds
    rounds = 0
    round_seconds = 0.0
    while rounds < args.scale.min_rounds or (
        time.perf_counter() + round_seconds < deadline
    ):
        round_started = time.perf_counter()
        for item, program in programs:
            gc.collect()
            seconds, rows = cold_query(program, item.relation, config)
            samples[item.name].append(seconds)
            check_program_rows(report, item, rows, expected)
            del rows
        rounds += 1
        round_seconds = time.perf_counter() - round_started

    medians = [median(samples[item.name]) for item, _ in programs]
    for slot, value in zip("abcd", medians):
        report.put_class(slot, value * 1e3, rounds)
    report.put_class("e", sum(medians) * 1e3, rounds)
    report.put("peak_rss_mb", own_peak_rss_mb(), "MB", 1)
    report.notes["rounds"] = rounds
    return report


# -- served: shared plumbing ---------------------------------------------------------


class ServedRun:
    """Scratch files and CPU placement of one served run.

    Pins this process (the load generator) to one CPU and hands the other
    to every server it spawns (see ``procs.split_cpus``); removes the
    scratch files on exit."""

    def __init__(self, workload: str) -> None:
        cpus = split_cpus()
        self.server_cpu = None
        if cpus is not None:
            self.server_cpu, own_cpu = cpus
            os.sched_setaffinity(0, {own_cpu})
        self.dir = str(paths.OUT / f"{workload}-{os.getpid()}")
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.program_path = os.path.join(self.dir, "tc.dl")
        self.log_path = os.path.join(self.dir, "server.log")
        self._next_dir = 0

    def write_program(self, source: str) -> None:
        with open(self.program_path, "w", encoding="utf-8") as handle:
            handle.write(source)

    def fresh_durability_dir(self) -> str:
        self._next_dir += 1
        return os.path.join(self.dir, f"durable-{self._next_dir}")

    def server(self, scale: configs.Scale,
               durability_dir: Optional[str] = None) -> ServerProcess:
        """A server child (not yet started) over this run's program."""
        return ServerProcess(
            self.program_path, self.log_path, durability_dir=durability_dir,
            checkpoint_every_records=scale.checkpoint_every_records,
            cpu=self.server_cpu,
        )

    def __enter__(self) -> "ServedRun":
        return self

    def __exit__(self, *exc_info) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


_WIRE_ERRORS = (ServerError, ProtocolError, OSError)


def connect(port: int) -> BlockingClient:
    return BlockingClient("127.0.0.1", port, timeout=60.0)


def read_full(client: BlockingClient) -> dict:
    return client.request({"op": "query", "relation": "path"})


def server_iterations(port: int) -> int:
    """Semi-naive iterations the server has run so far (its own counter)."""
    with connect(port) as client:
        return int(client.metrics().get("engine_iterations_total", 0))


def expected_path_digest(args: Args) -> oracle.Digest:
    return oracle.expected_digests(
        args.scale, args.scale_name, args.structure_seed, args.expected_path
    )["tc"]


def boot_and_first_read(run: ServedRun, report: Report, served: ServeInput,
                        args: Args, durable: bool, repeats: int):
    """Set-up of a served workload, timed ``repeats`` times: spawn -> parse
    -> initial fixpoint -> listening -> first full read.  The last server
    stays up; its first answer is checked against the oracle and returned
    as the reference every later read of the static relation must equal."""
    state: dict = {}

    def build():
        previous = state.pop("server", None)
        if previous is not None:
            previous.kill()
        directory = run.fresh_durability_dir() if durable else None
        server = run.server(args.scale, directory)
        state["server"] = server  # registered before start: always reaped
        server.start()
        with connect(server.port) as client:
            state["response"] = read_full(client)
        state["directory"] = directory
        return server

    try:
        server = timed_setups(build, report, repeats)
    except BaseException:
        if "server" in state:
            state["server"].kill()
        raise
    rows = state["response"]["rows"]
    expected = expected_path_digest(args)
    got = oracle.digest_rows(rows, served.inverse)
    report.check(
        got == tuple(expected),
        f"initial path: got {got[0]} rows, oracle says {expected[0]}",
    )
    return server, rows, state["directory"]


# -- serve_read --------------------------------------------------------------------


def _closed_loop(port: int, seconds: float, make_request, on_response,
                 report: Report, latencies: List[float]) -> None:
    """One closed-loop connection: next request only after the reply."""
    client = connect(port)
    try:
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            message = make_request()
            started = time.perf_counter()
            try:
                response = client.request(message)
            except _WIRE_ERRORS as exc:
                report.fail(f"{message.get('op')}: {exc!r}")
                if not isinstance(exc, ServerError):
                    return  # the transport is gone
                continue
            latencies.append(time.perf_counter() - started)
            on_response(message, response)
    finally:
        client.close()


def read_phase(port: int, seconds: float, make_request, on_response,
               report: Report) -> Tuple[List[float], float]:
    """``READ_CONNECTIONS`` closed-loop connections for ``seconds``.
    Returns (all latencies, phase wall seconds)."""
    per_thread: List[List[float]] = [[] for _ in range(configs.READ_CONNECTIONS)]
    threads = [
        threading.Thread(
            target=_closed_loop,
            args=(port, seconds, make_request, on_response, report, sink),
        )
        for sink in per_thread
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    return [value for sink in per_thread for value in sink], wall


def page_request_factory(served: ServeInput, row_count: int, governed: bool):
    """Page requests at seeded random offsets (shared by both connections;
    ``random.Random`` methods are atomic under the GIL)."""
    top = max(1, row_count - configs.PAGE_LIMIT)

    def make() -> dict:
        message = {
            "op": "query", "relation": "path",
            "offset": served.rng.randrange(top), "limit": configs.PAGE_LIMIT,
        }
        if governed:
            message["deadline_ms"] = configs.GOVERNED_DEADLINE_MS
        return message

    return make


@dataclass
class ReadWire:
    """What the wire phase of ``serve_read`` measured."""

    served: ServeInput
    reference_rows: list
    pages: List[float]
    page_wall: float
    fulls: List[float]
    governed: List[float]
    iterations_after_setup: int   # fixpoint iterations run while reading
    peak_rss_mb: float


def serve_read_wire(args: Args, report: Report, seconds: float,
                    setup_repeats: int) -> Optional[ReadWire]:
    """Boot the server, then three sequential closed-loop phases: page
    reads, full reads, governed page reads.  Every response is checked
    against the verified first answer.  None when a phase got nowhere."""
    served = serve_input(args.scale, args.structure_seed, args.seed)
    with ServedRun("serve_read") as run:
        run.write_program(served.source)
        server, reference_rows, _ = boot_and_first_read(
            run, report, served, args, durable=False, repeats=setup_repeats
        )
        try:
            iterations_at_setup = server_iterations(server.port)
            shares = dict(configs.READ_PHASES)

            def check_page(message: dict, response: dict) -> None:
                offset = message["offset"]
                report.check(
                    response["rows"]
                    == reference_rows[offset:offset + message["limit"]],
                    f"page at offset {offset} differs from the verified answer",
                )

            def check_full(_message: dict, response: dict) -> None:
                report.check(
                    response["rows"] == reference_rows,
                    "full read differs from the verified answer",
                )

            pages, page_wall = read_phase(
                server.port, seconds * shares["page"],
                page_request_factory(served, len(reference_rows), False),
                check_page, report,
            )
            fulls, _ = read_phase(
                server.port, seconds * shares["full"],
                lambda: {"op": "query", "relation": "path"},
                check_full, report,
            )
            governed, _ = read_phase(
                server.port, seconds * shares["governed"],
                page_request_factory(served, len(reference_rows), True),
                check_page, report,
            )
            ran = server_iterations(server.port) - iterations_at_setup
            report.check(
                ran == 0, f"{ran} fixpoint iterations ran while only reading"
            )
        finally:
            server.kill()
    if not (pages and fulls and governed):
        report.fail("a read phase completed no request")
        return None
    return ReadWire(served, reference_rows, pages, page_wall, fulls, governed,
                    ran, server.peak_rss_mb)


def run_serve_read(args: Args) -> Report:
    report = Report("serve_read")
    wire = serve_read_wire(args, report, args.seconds, args.scale.setup_repeats)
    if wire is None:
        return report
    pages = wire.pages
    report.put_class("a", median(pages) * 1e3, len(pages))
    report.put_class("b", median(wire.governed) * 1e3, len(wire.governed))
    report.put_class("c", percentile(pages, 0.90) * 1e3, len(pages))
    report.put_class("d", median(wire.fulls) * 1e3, len(wire.fulls))
    report.put_class("e", wire.page_wall / len(pages) * 1e3, len(pages))
    report.put("peak_rss_mb", wire.peak_rss_mb, "MB", 1)
    report.notes["page_reads_per_s"] = len(pages) / wire.page_wall
    return report


# -- serve_churn -------------------------------------------------------------------


@dataclass
class ChurnSamples:
    insert: List[float] = field(default_factory=list)
    retract: List[float] = field(default_factory=list)
    fresh: List[float] = field(default_factory=list)
    memoised: List[float] = field(default_factory=list)
    writer_lag: List[float] = field(default_factory=list)
    reader_lag: List[float] = field(default_factory=list)
    #: The wire ``report`` of each mutation batch, in stream order.
    write_reports: List[dict] = field(default_factory=list)
    #: ``server_stats`` queue depths polled by the reader (ledger pass only).
    queue_depths: List[int] = field(default_factory=list)


def _sleep_until(due: float) -> float:
    """Sleep to ``due`` (perf_counter); returns how late we woke up."""
    delay = due - time.perf_counter()
    if delay > 0:
        time.sleep(delay)
    return max(0.0, time.perf_counter() - due)


def _writer(port: int, served: ServeInput, epoch: float, report: Report,
            samples: ChurnSamples) -> None:
    """Open loop: batch k is due at epoch + k / WRITE_RATE, sent as soon
    after that as the previous ack allows, and timed from its due time."""
    client = connect(port)
    try:
        for index, mutation in enumerate(served.mutations):
            due = epoch + index / configs.WRITE_RATE
            samples.writer_lag.append(_sleep_until(due))
            send = client.insert if mutation.kind == "insert" else client.retract
            try:
                response = send("edge", mutation.rows)
            except _WIRE_ERRORS as exc:
                report.fail(f"{mutation.kind} batch {index}: {exc!r}")
                if not isinstance(exc, ServerError):
                    remaining = len(served.mutations) - index - 1
                    if remaining:
                        report.fail("writer connection lost", remaining)
                    return
                continue
            latency = time.perf_counter() - due
            applied = response["report"][
                "inserted" if mutation.kind == "insert" else "retracted"
            ]
            report.check(
                applied == len(mutation.rows),
                f"{mutation.kind} batch {index} applied {applied} of "
                f"{len(mutation.rows)} rows",
            )
            getattr(samples, mutation.kind).append(latency)
            samples.write_reports.append(response["report"])
    finally:
        client.close()


def _reader(port: int, served: ServeInput, epoch: float, stop: threading.Event,
            row_count: int, report: Report, samples: ChurnSamples,
            poll_stats: bool) -> None:
    """Open loop at READ_RATE page reads/s.  A response is *fresh* when it
    is the first seen at its snapshot version (it paid the re-sort and
    decode of the whole relation), memoised otherwise.  ``poll_stats``
    (ledger pass) also samples the mutation queue depth, untimed, on the
    same connection — the workload has two connections, not three."""
    client = connect(port)
    # Retractions shrink the closure while we read: stay in its first half.
    top = max(1, row_count // 2 - configs.PAGE_LIMIT)
    seen_version = None
    index = 0
    try:
        while not stop.is_set():
            due = epoch + index / configs.READ_RATE
            index += 1
            samples.reader_lag.append(_sleep_until(due))
            message = {
                "op": "query", "relation": "path",
                "offset": served.rng.randrange(top),
                "limit": configs.PAGE_LIMIT,
            }
            try:
                response = client.request(message)
            except _WIRE_ERRORS as exc:
                report.fail(f"churn page read: {exc!r}")
                if not isinstance(exc, ServerError):
                    return
                continue
            latency = time.perf_counter() - due
            report.check(
                len(response["rows"]) == configs.PAGE_LIMIT,
                f"churn page read returned {len(response['rows'])} rows",
            )
            version = response.get("snapshot_version")
            if version != seen_version and seen_version is not None:
                samples.fresh.append(latency)
            else:
                samples.memoised.append(latency)
            seen_version = version
            if poll_stats and index % 25 == 0:
                samples.queue_depths.append(client.server_stats()["queue_depth"])
    finally:
        client.close()


def churn_load(port: int, served: ServeInput, row_count: int,
               report: Report, poll_stats: bool) -> ChurnSamples:
    """Writer and reader side by side until every batch is acknowledged."""
    samples = ChurnSamples()
    stop = threading.Event()
    epoch = time.perf_counter() + 0.05
    reader = threading.Thread(
        target=_reader,
        args=(port, served, epoch, stop, row_count, report, samples,
              poll_stats),
    )
    writer = threading.Thread(
        target=_writer, args=(port, served, epoch, report, samples)
    )
    reader.start()
    writer.start()
    writer.join()
    stop.set()
    reader.join()
    return samples


def churn_batches(seconds: float) -> int:
    return max(4, int(round(seconds * configs.WRITE_RATE)))


@dataclass
class ChurnWire:
    """What the wire phase of ``serve_churn`` measured."""

    served: ServeInput
    samples: ChurnSamples
    stats: dict               # ``server_stats`` after the last ack
    iterations: int           # fixpoint iterations the mutations ran
    restart_s: float
    recovery: dict            # the restarted server's recovery report
    peak_rss_mb: float


def serve_churn_wire(args: Args, report: Report, setup_repeats: int,
                     poll_stats: bool = False) -> Optional[ChurnWire]:
    """Boot a durable server, run the open-loop churn, check the end state,
    SIGKILL, respawn on the same directory, check the recovered state."""
    served = serve_input(
        args.scale, args.structure_seed, args.seed, churn_batches(args.seconds)
    )
    # The reference for the end state: outside every timed region.
    final_digest = oracle.tc_reference_digest(served.final_structural_edges)

    def check_final(response: dict, what: str) -> None:
        got = oracle.digest_rows(response["rows"], served.inverse)
        report.check(
            got == tuple(final_digest),
            f"{what}: got {got[0]} rows {got[1][:12]}, oracle says "
            f"{final_digest[0]} rows {final_digest[1][:12]}",
        )

    with ServedRun("serve_churn") as run:
        run.write_program(served.source)
        server, reference_rows, directory = boot_and_first_read(
            run, report, served, args, durable=True, repeats=setup_repeats
        )
        restarted = None
        try:
            iterations_at_setup = server_iterations(server.port)
            samples = churn_load(
                server.port, served, len(reference_rows), report, poll_stats
            )
            with connect(server.port) as client:
                check_final(read_full(client), "state after the last ack")
                stats = client.server_stats()
            iterations = server_iterations(server.port) - iterations_at_setup

            # Crash: SIGKILL, respawn on the same directory, first full answer.
            crashed_at = time.perf_counter()
            server.kill()
            restarted = run.server(args.scale, directory).start()
            with connect(restarted.port) as client:
                response = read_full(client)
                restart_s = time.perf_counter() - crashed_at
            check_final(response, "state recovered after SIGKILL")
        finally:
            server.kill()
            if restarted is not None:
                restarted.kill()

    report.check(
        stats["shed_total"] == 0 and stats["rejected_total"] == 0,
        "the server shed or rejected mutations",
    )
    for name in ("insert", "retract", "fresh", "memoised"):
        if not getattr(samples, name):
            report.fail(f"no {name} sample was collected")
            return None
    return ChurnWire(
        served, samples, stats, iterations, restart_s,
        restarted.ready.get("recovery", {}),
        max(server.peak_rss_mb, restarted.peak_rss_mb),
    )


def run_serve_churn(args: Args) -> Report:
    report = Report("serve_churn")
    wire = serve_churn_wire(args, report, args.scale.setup_repeats)
    if wire is None:
        return report
    samples = wire.samples
    reads = samples.fresh + samples.memoised
    report.put_class("a", median(samples.fresh) * 1e3, len(samples.fresh))
    report.put_class("b", wire.restart_s * 1e3, 1)
    report.put_class("c", percentile(reads, 0.90) * 1e3, len(reads))
    report.put_class("d", percentile(samples.insert, 0.25) * 1e3,
                     len(samples.insert))
    report.put_class(
        "e", sum(samples.retract) / len(samples.retract) * 1e3,
        len(samples.retract),
    )
    report.put("peak_rss_mb", wire.peak_rss_mb, "MB", 2)
    report.notes.update({
        "batches": len(wire.served.mutations),
        "checkpoints_written": (wire.stats.get("durability") or {}).get(
            "checkpoints_written"
        ),
        "replayed_records": wire.recovery.get("replayed_records"),
    })
    return report


RUNNERS: Dict[str, Callable[[Args], Report]] = {
    "batch_cold": lambda args: run_batch("batch_cold", args),
    "batch_adaptive": lambda args: run_batch("batch_adaptive", args),
    "serve_read": run_serve_read,
    "serve_churn": run_serve_churn,
}
