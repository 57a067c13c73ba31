"""The ledger pass (``--trace 1``): where each request's time goes, by layer.

Nothing under ``src/`` is instrumented.  For every request class of a
workload this module replays a sample of the workload's own operations
*in this process*, stage by stage, through the public function each layer
exposes, under benchmark-owned spans (id, trace id, parent, name, layer,
start, end — kept in memory, written to ``out/trace.<workload>.jsonl`` at
exit).  Next to every staged replay runs the same operation as one untraced
call; ``ledger_gap.*`` is (staged sum - one-shot) / one-shot, i.e. what the
staging and the spans cost.  Counts come from public outputs only:
``engine.profile``, ``UpdateReport``, the wire ``report`` and
``server_stats``.

Served workloads also run their wire phase here (it is the only source of
queue, lag and recovery numbers, and of the wire medians the transport
residual is taken against): ``server.transport_ms.*`` = wire p50 - staged
in-process sum — event-loop scheduling, syscalls and the socket.

A layer a workload leaves idle reports nothing here; the runner prints it
as 0 in the contract line.
"""

from __future__ import annotations

import contextlib
import gc
import os
import random
import time
from typing import Callable, Dict, List, Tuple

import paths

from repro import Database, DurabilityConfig, ExecutionEngine, parse_program
from repro.analyses.ordering import Ordering
from repro.core.join_order import JoinOrderOptimizer
from repro.durability import CheckpointStore, WalRecord, WriteAheadLog
from repro.engine.indexing import select_indexes
from repro.ir.builder import build_program_ir, collect_loop_plans
from repro.ir.encoding import encode_tree
from repro.ir.ops import JoinProjectOp, count_nodes, find_nodes
from repro.relational.operators import evaluate_subquery
from repro.relational.symbols import SymbolTable
from repro.server.protocol import decode_payload, encode_frame, jsonify_rows

import configs
import oracle
from inputs import batch_inputs
from spans import Tracer, stage_ms, stage_table
from stats import median, percentile, supported_tail
from workloads import (
    BATCH_WORKLOADS,
    Args,
    Report,
    ServedRun,
    check_program_rows,
    cold_query,
    page_request_factory,
    serve_churn_wire,
    serve_read_wire,
)

@contextlib.contextmanager
def gc_paused():
    """Pause the cyclic collector around a read replay.

    A full or fresh read allocates tens of thousands of containers, so
    generation-0..2 collections land inside it at a phase that depends on
    the heap, not on the code: with the collector on, the same stage reads
    25 or 38 ms from one replay to the next.  Paused, a stage is charged
    its own work only; what the collector costs is reported separately
    (``server.gc_ms.full``: one-shot with the collector on minus off)."""
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def timed(call: Callable[[], object]) -> Tuple[float, object]:
    started = time.perf_counter()
    result = call()
    return time.perf_counter() - started, result


def put_tail(report: Report, name: str, samples: List[float]) -> None:
    tail = supported_tail(samples)
    if tail is not None:
        report.put(name, tail[1] * 1e3, "ms", len(samples), tail[0])


# -- batch workloads ----------------------------------------------------------------------


def staged_cold_query(tracer: Tracer, klass: str, program, relation: str,
                      config):
    """The cold one-shot evaluation, one public call per layer."""
    with tracer.request(klass):
        with tracer.stage("api.copy", "api"):
            copy = program.copy()
        with tracer.stage("engine.prepare", "engine"):
            engine = ExecutionEngine(copy, config)
        with tracer.stage("core.fixpoint", "core"):
            results = engine.evaluate()
        with tracer.stage("api.materialize", "api"):
            rows = list(results[relation].rows())
    return engine, results, rows


def recursive_seed_plan(engine):
    """The seed plan (every atom reads Derived) of the program's first
    recursive join — the sub-query the kernel probe evaluates on the final
    storage."""
    idb = set(engine.program.idb_relations())
    for stratum in engine.tree.strata:
        for node in find_nodes(stratum.seed, JoinProjectOp):
            atoms = node.plan.positive_atom_sources()
            if len(atoms) >= 2 and any(s.literal.relation in idb for s in atoms):
                return node.plan
    return None


def put_profile_counts(report: Report, engines: dict, results: dict,
                       fixpoint_s: float) -> None:
    """Counts the engine itself reports (``engine.profile``), summed over
    the programs' last staged evaluations."""
    profiles = [engine.profile for engine in engines.values()]
    n = len(profiles)
    rows_derived = sum(result.total_rows() for result in results.values())
    report.put("core.iterations", sum(p.iteration_count() for p in profiles),
               "count", n)
    report.put("core.compile_s", sum(p.total_compile_seconds() for p in profiles),
               "s", n)
    report.put("core.compilations", sum(len(p.compile_events) for p in profiles),
               "count", n)
    report.put("core.reorders", sum(p.reorder_count() for p in profiles),
               "count", n)
    report.put("core.reorders_changed",
               sum(p.reorder_count(changed_only=True) for p in profiles),
               "count", n)
    report.put("relational.rows_derived", rows_derived, "rows", n)
    report.put("relational.derive_rows_per_s", rows_derived / fixpoint_s,
               "rows/s", n)
    for kind in ("index", "build"):
        report.put(f"relational.batch_joins.{kind}",
                   sum(p.block_joins.get(kind, 0) for p in profiles), "count", n)
    report.put("relational.symbols",
               sum(p.symbol_stats.get("symbols", 0) for p in profiles), "count", n)


def put_standalone_probes(report: Report, programs, engines: dict, config,
                          adaptive: bool) -> None:
    """One public call per probe, on the real inputs and the final storage:
    IR build, interning the EDB, resolving the result, the planner on the
    loop plans (adaptive only), the join kernel on ``tc``'s recursive rule."""
    ir_seconds = intern_seconds = resolve_seconds = reorder_seconds = 0.0
    ir_ops = indexes = intern_rows = resolve_rows = reorder_calls = 0
    optimizer = JoinOrderOptimizer(config.selectivity)
    for item, program in programs:
        engine = engines[item.name]
        copy = program.copy()
        seconds, tree = timed(
            lambda: encode_tree(build_program_ir(copy), SymbolTable())
        )
        ir_seconds += seconds
        ir_ops += count_nodes(tree)
        indexes += len(select_indexes(program))
        facts = [row for rows in item.facts.values() for row in rows]
        seconds, _ = timed(lambda: SymbolTable().intern_rows(facts))
        intern_seconds += seconds
        intern_rows += len(facts)
        encoded = engine.storage.tuples(item.relation)
        seconds, _ = timed(lambda: engine.storage.symbols.resolve_rows(encoded))
        resolve_seconds += seconds
        resolve_rows += len(encoded)
        if not adaptive:
            continue
        for stratum in engine.tree.strata:
            groups = collect_loop_plans(stratum.loop) if stratum.loop else None
            for _, plans in groups or ():
                for plan in plans:
                    seconds, _ = timed(
                        lambda: optimizer.optimize_with_storage(plan, engine.storage)
                    )
                    reorder_seconds += seconds
                    reorder_calls += 1
    n = len(programs)
    report.put("ir.build_s", ir_seconds, "s", n)
    report.put("ir.ops", ir_ops, "count", n)
    report.put("engine.indexes", indexes, "count", n)
    report.put("relational.intern_rows_per_s", intern_rows / intern_seconds,
               "rows/s", intern_rows)
    report.put("relational.resolve_rows_per_s", resolve_rows / resolve_seconds,
               "rows/s", resolve_rows)
    if reorder_calls:
        report.put("core.reorder_us", reorder_seconds / reorder_calls * 1e6,
                   "us", reorder_calls)
    tc_engine = engines["tc"]
    plan = recursive_seed_plan(tc_engine)
    if plan is not None:
        seconds, produced = timed(
            lambda: evaluate_subquery(tc_engine.storage, plan,
                                      executor=config.executor)
        )
        report.put("relational.subquery_rows_per_s", len(produced) / seconds,
                   "rows/s", len(produced))


def ledger_batch(workload: str, args: Args, tracer: Tracer) -> Report:
    report = Report(workload)
    config, ordering = BATCH_WORKLOADS[workload]
    adaptive = workload == "batch_adaptive"
    expected = oracle.expected_digests(
        args.scale, args.scale_name, args.structure_seed, args.expected_path
    )
    items = batch_inputs(args.scale, args.structure_seed, args.seed)
    programs = [(item, item.build(ordering)) for item in items]

    # Rounds of (untraced one-shot, staged replay) per program.
    one_shot: Dict[str, List[float]] = {item.name: [] for item in items}
    engines, results = {}, {}
    deadline = time.perf_counter() + args.seconds
    rounds, round_seconds = 0, 0.0
    while rounds < 2 or time.perf_counter() + round_seconds < deadline:
        round_started = time.perf_counter()
        for item, program in programs:
            gc.collect()
            seconds, rows = cold_query(program, item.relation, config)
            one_shot[item.name].append(seconds)
            check_program_rows(report, item, rows, expected)
            del rows
            gc.collect()
            engines[item.name], results[item.name], rows = staged_cold_query(
                tracer, f"cold_query:{item.name}", program, item.relation, config
            )
            check_program_rows(report, item, rows, expected)
            del rows
        rounds += 1
        round_seconds = time.perf_counter() - round_started

    tables = {
        item.name: stage_table(
            tracer, f"cold_query:{item.name}", one_shot[item.name]
        )
        for item in items
    }

    def total_s(stage: str) -> float:
        return sum(stage_ms(table, stage) for table in tables.values()) / 1e3

    one_shot_total = sum(t["one_shot_ms"] for t in tables.values()) / 1e3
    staged_total = sum(t["staged_ms"] for t in tables.values()) / 1e3
    for name, table in tables.items():
        report.put(f"query_s.{name}", table["one_shot_ms"] / 1e3, "s", rounds)
    report.put("query_s", one_shot_total, "s", rounds)
    report.put("engine.prepare_s", total_s("engine.prepare"), "s", rounds)
    report.put("core.fixpoint_s", total_s("core.fixpoint"), "s", rounds)
    report.put("api.materialize_s", total_s("api.materialize"), "s", rounds)
    report.put("ledger_gap.cold_query", staged_total / one_shot_total - 1.0,
               "ratio", rounds)
    put_profile_counts(report, engines, results, total_s("core.fixpoint"))
    put_standalone_probes(report, programs, engines, config, adaptive)

    if adaptive:
        # The paper's headline ratio: worst order under the adaptive JIT vs
        # the hand-optimised order under the same JIT (base = the latter).
        optimised = 0.0
        for item in items:
            gc.collect()
            seconds, rows = cold_query(
                item.build(Ordering.OPTIMIZED), item.relation, config
            )
            check_program_rows(report, item, rows, expected)
            optimised += seconds
        report.put("core.adaptive_gap", one_shot_total / optimised, "ratio", 1,
                   f"base: optimised-order JIT = {optimised:.3f} s")

    report.notes["rounds"] = rounds
    report.notes["tables"] = {
        f"cold query: {name}": table for name, table in tables.items()
    }
    return report


# -- served workloads: shared staging ------------------------------------------------------


def boot_session(source: str, tracer: Tracer, report: Report):
    """The server's boot, staged in this process: parse -> prepare ->
    initial fixpoint (through the one-shot engine, which shares
    ``prepare_evaluation`` and the executor with the server's session), then
    the session the request replays run against."""
    with tracer.request("boot"):
        with tracer.stage("datalog.parse", "datalog"):
            program = parse_program(source, name="tc")
        with tracer.stage("engine.prepare", "engine"):
            engine = ExecutionEngine(program.copy(), configs.PRODUCTION)
        with tracer.stage("core.fixpoint", "core"):
            engine.evaluate()
    for stage, name in (("datalog.parse", "datalog.parse_s"),
                        ("engine.prepare", "engine.prepare_s"),
                        ("core.fixpoint", "core.fixpoint_s")):
        report.put(name, tracer.samples[("boot", stage)][-1], "s", 1)
    report.put("core.iterations", engine.profile.iteration_count(), "count", 1)
    report.put("engine.indexes", len(select_indexes(program)), "count", 1)
    report.put("relational.symbols",
               engine.profile.symbol_stats.get("symbols", 0), "count", 1)
    return program


def _response(message: dict, result, rows, message_id: int) -> bytes:
    return encode_frame({
        "ok": True, "relation": message["relation"], "rows": rows,
        "count": result.count(), "snapshot_version": result.snapshot_version,
        "id": message_id,
    })


def staged_read(tracer: Tracer, klass: str, request_payload: bytes,
                message_id: int, result=None, connection=None) -> int:
    """One read request as the server and the client execute it, minus the
    socket: decode the request, page the snapshot result, make it JSON-safe,
    encode the response frame, decode it again on the client side.

    With ``result`` the read is served from that memoised result (what the
    server's per-version result cache holds); with ``connection`` it is the
    first read at a new version: resolve the snapshot, then page it — which
    sorts and decodes the whole relation.  Returns the frame's size."""
    with tracer.request(klass):
        with tracer.stage("server.decode", "server"):
            message = decode_payload(request_payload)
        if result is None:
            with tracer.stage("api.snapshot_query", "api"):
                result = connection.query_snapshot(message["relation"])
            page_stage = "api.materialize"
        else:
            page_stage = "api.page"
        with tracer.stage(page_stage, "api"):
            page = list(result.rows(offset=message.get("offset", 0),
                                    limit=message.get("limit")))
        with tracer.stage("server.jsonify", "server"):
            rows = jsonify_rows(page)
        with tracer.stage("server.encode", "server"):
            frame = _response(message, result, rows, message_id)
        with tracer.stage("client.decode", "server"):
            decode_payload(frame[4:])
    if connection is not None:
        result.release()
    return len(frame)


def one_shot_read(request_payload: bytes, message_id: int, result=None,
                  connection=None) -> float:
    """The same read as one untraced call sequence (what the server's
    ``_snapshot_result`` + ``_query_body`` and the client's decode do)."""
    started = time.perf_counter()
    message = decode_payload(request_payload)
    fresh = result is None
    if fresh:
        result = connection.query_snapshot(message["relation"])
    rows = jsonify_rows(result.rows(offset=message.get("offset", 0),
                                    limit=message.get("limit")))
    decode_payload(_response(message, result, rows, message_id)[4:])
    seconds = time.perf_counter() - started
    if fresh:
        result.release()
    return seconds


def replay_reads(tracer: Tracer, klass: str, result, requests: List[dict],
                 budget: float) -> Tuple[List[float], List[float], int]:
    """Replay ``requests`` for ``budget`` seconds (at least two), each one
    three ways: untraced with the collector on, untraced with it paused,
    staged with it paused.  Returns (one-shot paused, one-shot collector-on,
    response frame bytes)."""
    payloads = [encode_frame(dict(m, id=i))[4:] for i, m in enumerate(requests)]
    one_shot: List[float] = []
    collector_on: List[float] = []
    frame_bytes = 0
    deadline = time.perf_counter() + budget
    for index, payload in enumerate(payloads):
        collector_on.append(one_shot_read(payload, index, result=result))
        with gc_paused():
            one_shot.append(one_shot_read(payload, index, result=result))
            frame_bytes = staged_read(tracer, klass, payload, index, result=result)
        if index and time.perf_counter() > deadline:
            break
    return one_shot, collector_on, frame_bytes


def put_read_stages(report: Report, table: dict, suffix: str, n: int) -> None:
    report.put(f"server.jsonify_ms.{suffix}", stage_ms(table, "server.jsonify"),
               "ms", n)
    report.put(f"server.encode_ms.{suffix}", stage_ms(table, "server.encode"),
               "ms", n)
    report.put(f"server.transport_ms.{suffix}", table["transport_ms"], "ms", n)


# -- serve_read ---------------------------------------------------------------------------


def ledger_serve_read(args: Args, tracer: Tracer) -> Report:
    report = Report("serve_read")
    wire_seconds = args.seconds * 0.5
    wire = serve_read_wire(args, report, wire_seconds, setup_repeats=1)
    if wire is None:
        return report
    del report.metrics["setup_s"]  # one boot is not the end-to-end median
    served, reference_rows = wire.served, wire.reference_rows
    pages, fulls, governed = wire.pages, wire.fulls, wire.governed

    report.put("core.iterations_after_setup", wire.iterations_after_setup,
               "count", 1)
    report.put("page_read_p50_ms", median(pages) * 1e3, "ms", len(pages))
    report.put("page_read_p99_ms", percentile(pages, 0.99) * 1e3, "ms", len(pages))
    report.put("page_reads_per_s", len(pages) / wire.page_wall, "1/s", len(pages))
    report.put("full_read_p50_ms", median(fulls) * 1e3, "ms", len(fulls))
    report.put("governed_read_p50_ms", median(governed) * 1e3, "ms", len(governed))
    report.put("server.governed_overhead_us",
               (median(governed) - median(pages)) * 1e6, "us", len(governed))

    # In-process: the same requests, stage by stage, against the same rows.
    program = boot_session(served.source, tracer, report)
    database = Database(program, configs.PRODUCTION)
    try:
        connection = database.connect()
        connection.session.enable_snapshots()
        # The first read at version 0 (what set-up's first read pays), then
        # the fully memoised result every later read is served from.
        first = encode_frame({"op": "query", "relation": "path", "offset": 0,
                              "limit": configs.PAGE_LIMIT, "id": 0})[4:]
        staged_read(tracer, "first_read", first, 0, connection=connection)
        report.put("api.snapshot_query_ms",
                   tracer.samples[("first_read", "api.snapshot_query")][-1] * 1e3,
                   "ms", 1)
        report.put("api.materialize_s",
                   tracer.samples[("first_read", "api.materialize")][-1], "s", 1)
        result = connection.query_snapshot("path")
        report.check(
            jsonify_rows(result.rows()) == reference_rows,
            "the in-process answer differs from the wire answer",
        )

        make_page = page_request_factory(served, len(reference_rows), False)
        budget = (args.seconds - wire_seconds) / 2
        page_one_shot, _, page_bytes = replay_reads(
            tracer, "page_read", result, [make_page() for _ in range(10_000)],
            budget,
        )
        full_one_shot, full_collector_on, full_bytes = replay_reads(
            tracer, "full_read", result,
            [{"op": "query", "relation": "path"}] * 200, budget,
        )
    finally:
        database.close()

    page_table = stage_table(tracer, "page_read", page_one_shot, pages)
    full_table = stage_table(tracer, "full_read", full_one_shot, fulls)
    report.put("server.decode_us", stage_ms(page_table, "server.decode") * 1e3,
               "us", len(page_one_shot))
    report.put("api.page_us", stage_ms(page_table, "api.page") * 1e3, "us",
               len(page_one_shot))
    put_read_stages(report, page_table, "page", len(page_one_shot))
    put_read_stages(report, full_table, "full", len(full_one_shot))
    report.put("server.response_bytes.page", page_bytes, "bytes", 1)
    report.put("server.response_bytes.full", full_bytes, "bytes", 1)
    report.put("server.client_decode_ms.full",
               stage_ms(full_table, "client.decode"), "ms", len(full_one_shot))
    full_table["collector_on_ms"] = median(full_collector_on) * 1e3
    report.put("server.gc_ms.full",
               full_table["collector_on_ms"] - full_table["one_shot_ms"], "ms",
               len(full_collector_on))
    report.put("ledger_gap.page_read", page_table["gap"], "ratio",
               len(page_one_shot))
    report.put("ledger_gap.full_read", full_table["gap"], "ratio",
               len(full_one_shot))
    report.check(
        page_table["transport_ms"] >= 0 and full_table["transport_ms"] >= 0,
        "a transport residual is negative: the staged replay costs more "
        "than the wire request it models",
    )
    report.notes["tables"] = {"page read": page_table, "full read": full_table}
    return report


# -- serve_churn --------------------------------------------------------------------------


class WriteReplay:
    """The workload's own mutation stream, replayed in this process.

    Three targets side by side, fed the same batches: a non-durable
    connection (staged: the incremental layer), a bare ``WriteAheadLog``
    (staged: the durability layer), and a durable connection whose
    ``apply`` + ``sync`` is the untraced one-shot the staged sum is held
    against.  Snapshots are enabled on both connections, as under the
    server, so ``apply`` includes publication."""

    def __init__(self, tracer: Tracer, program, run: ServedRun) -> None:
        self.tracer = tracer
        self.durable_dir = run.fresh_durability_dir()
        self._databases = [
            Database(program, configs.PRODUCTION),
            Database(
                program.copy(), configs.PRODUCTION,
                durability=DurabilityConfig(
                    dir=self.durable_dir, fsync="batch",
                    checkpoint_every_records=0,  # checkpoints are timed apart
                ),
            ),
        ]
        self.plain = self._databases[0].connect()
        self.plain.session.enable_snapshots()
        self.durable = self._databases[1].connect()
        self.durable.session.enable_snapshots()
        self.wal = WriteAheadLog(os.path.join(run.dir, "probe.wal"), fsync="batch")
        self.wal_bytes = self.wal_rows = 0
        self.updates: List = []               # UpdateReports, stream order
        self.one_shot = {"insert": [], "retract": []}
        self.fresh_one_shot: List[float] = []

    def close(self) -> None:
        self.wal.close()
        for database in self._databases:
            database.close()

    @staticmethod
    def _batches(mutation):
        batch = {"edge": mutation.rows}
        return (batch, None) if mutation.kind == "insert" else (None, batch)

    def staged_write(self, mutation) -> None:
        inserts, retracts = self._batches(mutation)
        tracer = self.tracer
        record = WalRecord(
            seq=self.wal.next_seq,
            inserts={"edge": mutation.rows} if inserts else {},
            retracts={"edge": mutation.rows} if retracts else {},
        )
        with tracer.request(f"{mutation.kind}_batch"):
            with tracer.stage("incremental.apply", "incremental"):
                self.updates.append(self.plain.apply(inserts, retracts))
            with tracer.stage("durability.wal_append", "durability"):
                self.wal_bytes += self.wal.append(record)
            with tracer.stage("durability.wal_fsync", "durability"):
                self.wal.sync()
        self.wal_rows += len(mutation.rows)

    def one_shot_write(self, mutation) -> None:
        inserts, retracts = self._batches(mutation)
        started = time.perf_counter()
        self.durable.apply(inserts, retracts)
        self.durable.durability.sync()
        self.one_shot[mutation.kind].append(time.perf_counter() - started)

    def publish_again(self) -> None:
        """``SnapshotManager.publish`` on its own (one more version of the
        state ``apply`` just published)."""
        with self.tracer.request("publish"):
            with self.tracer.stage("incremental.snapshot_publish", "incremental"):
                self.plain.session.snapshots.publish()

    def fresh_read(self, index: int, offset: int) -> None:
        """The first read at the new version, staged on one connection and
        one-shot on the other (same rows on both)."""
        payload = encode_frame({
            "op": "query", "relation": "path", "offset": offset,
            "limit": configs.PAGE_LIMIT, "id": index,
        })[4:]
        with gc_paused():
            staged_read(self.tracer, "fresh_read", payload, index,
                        connection=self.plain)
            self.fresh_one_shot.append(
                one_shot_read(payload, index, connection=self.durable)
            )


def replay_writes(report: Report, tracer: Tracer, program, served,
                  run: ServedRun, sample: int) -> Dict[str, dict]:
    """Replay the first ``sample`` batches (see :class:`WriteReplay`), then
    time one checkpoint write and load.  Puts the incremental and
    durability metrics; returns the stage tables of the three classes."""
    replay = WriteReplay(tracer, program, run)
    rng = random.Random(0)
    try:
        for index, mutation in enumerate(served.mutations[:sample]):
            # Alternate which goes first within each kind: the second of two
            # back-to-back fsyncs on one filesystem is the cheaper one.
            calls = [replay.staged_write, replay.one_shot_write]
            if (index // 2) % 2:
                calls.reverse()
            for call in calls:
                call(mutation)
            replay.publish_again()
            # Every other new version (after an insert, after a retract,
            # alternately) also serves one first read.
            if index % 4 in (0, 3):
                replay.fresh_read(index, rng.randrange(1000))

        seconds, written = timed(replay.durable.checkpoint)
        report.put("durability.checkpoint_write_s", seconds, "s", 1)
        report.put("durability.checkpoint_bytes", written, "bytes", 1)
        seconds, loaded = timed(CheckpointStore(replay.durable_dir).latest)
        report.check(loaded is not None, "the checkpoint just written did not load")
        report.put("durability.checkpoint_load_s", seconds, "s", 1)
    finally:
        replay.close()

    updates = replay.updates
    over_deleted = sum(u.over_deleted for u in updates)
    rederived = sum(u.rederived for u in updates)
    report.put("incremental.over_deleted_rows", over_deleted, "rows", len(updates))
    report.put("incremental.rederived_rows", rederived, "rows", len(updates))
    report.put("incremental.rederive_ratio",
               rederived / over_deleted if over_deleted else 0.0, "ratio",
               len(updates))
    report.put("incremental.recompute_fallbacks",
               sum(1 for u in updates if u.strategy == "recompute"), "count",
               len(updates))

    def both_kinds(stage: str) -> List[float]:
        return (tracer.samples[("insert_batch", stage)]
                + tracer.samples[("retract_batch", stage)])

    publish = tracer.samples[("publish", "incremental.snapshot_publish")]
    report.put("incremental.snapshot_publish_us", median(publish) * 1e6, "us",
               len(publish))
    append, fsync = both_kinds("durability.wal_append"), both_kinds("durability.wal_fsync")
    report.put("durability.wal_append_us", median(append) * 1e6, "us", len(append))
    report.put("durability.wal_fsync_us", median(fsync) * 1e6, "us", len(fsync))
    report.put("durability.wal_bytes_per_row", replay.wal_bytes / replay.wal_rows,
               "bytes", replay.wal_rows)
    plain_apply = both_kinds("incremental.apply")
    durable_apply = replay.one_shot["insert"] + replay.one_shot["retract"]
    report.put("durability.commit_ms",
               (median(durable_apply) - median(plain_apply)) * 1e3, "ms",
               len(durable_apply))

    tables = {
        "insert batch": stage_table(tracer, "insert_batch", replay.one_shot["insert"]),
        "retract batch": stage_table(tracer, "retract_batch", replay.one_shot["retract"]),
        "fresh read": stage_table(tracer, "fresh_read", replay.fresh_one_shot),
    }
    staged_total = sum(
        sum(values) for (klass, stage), values in tracer.samples.items()
        if klass in ("insert_batch", "retract_batch") and stage != "(span overhead)"
    )
    report.put("ledger_gap.write", staged_total / sum(durable_apply) - 1.0,
               "ratio", len(durable_apply))
    fresh = tables["fresh read"]
    report.put("ledger_gap.fresh_read", fresh["gap"], "ratio",
               len(replay.fresh_one_shot))
    report.put("api.snapshot_query_ms", stage_ms(fresh, "api.snapshot_query"),
               "ms", len(replay.fresh_one_shot))
    report.put("api.materialize_s", stage_ms(fresh, "api.materialize") / 1e3, "s",
               len(replay.fresh_one_shot))
    for kind in ("insert", "retract"):
        report.notes[f"in_process_{kind}_apply_ms"] = stage_ms(
            tables[f"{kind} batch"], "incremental.apply"
        )
    return tables


def ledger_serve_churn(args: Args, tracer: Tracer) -> Report:
    report = Report("serve_churn")
    wire = serve_churn_wire(args, report, setup_repeats=1, poll_stats=True)
    if wire is None:
        return report
    del report.metrics["setup_s"]  # one boot is not the end-to-end median
    served, samples, stats = wire.served, wire.samples, wire.stats

    program = boot_session(served.source, tracer, report)
    with ServedRun("serve_churn-replay") as run:
        tables = replay_writes(
            report, tracer, program, served, run,
            sample=min(len(served.mutations), 40),
        )

    by_kind = {"insert": [], "retract": []}
    for mutation, write_report in zip(served.mutations, samples.write_reports):
        by_kind[mutation.kind].append(write_report["seconds"])
    for kind in ("insert", "retract"):
        latencies = getattr(samples, kind)
        report.put(f"{kind}_p50_ms", median(latencies) * 1e3, "ms", len(latencies))
        put_tail(report, f"{kind}_tail_ms", latencies)
        report.put(f"incremental.{kind}_apply_ms", median(by_kind[kind]) * 1e3,
                   "ms", len(by_kind[kind]))
    report.put("fresh_read_p50_ms", median(samples.fresh) * 1e3, "ms",
               len(samples.fresh))
    put_tail(report, "fresh_read_tail_ms", samples.fresh)
    report.put("page_read_p50_ms", median(samples.memoised) * 1e3, "ms",
               len(samples.memoised))
    report.put("restart_s", wire.restart_s, "s", 1)
    report.put("core.iterations_after_setup", wire.iterations, "count", 1)

    server_seconds = [r["seconds"] for r in samples.write_reports]
    latencies = samples.insert + samples.retract
    report.put("server.write_overhead_ms",
               (median(latencies) - median(server_seconds)) * 1e3, "ms",
               len(latencies))
    report.put("incremental.propagated_rows",
               sum(r["propagated"] for r in samples.write_reports), "rows",
               len(latencies))
    report.put("server.queue_depth_max", max(samples.queue_depths, default=0),
               "count", len(samples.queue_depths))
    report.put("server.shed_total", stats["shed_total"], "count", 1)
    report.put("server.rejected_total", stats["rejected_total"], "count", 1)
    report.put("server.writer_lag_ms", median(samples.writer_lag) * 1e3, "ms",
               len(samples.writer_lag))
    report.put("server.reader_lag_ms", median(samples.reader_lag) * 1e3, "ms",
               len(samples.reader_lag))
    report.put("durability.checkpoints_written",
               (stats.get("durability") or {}).get("checkpoints_written", 0),
               "count", 1)
    recover_s = wire.recovery.get("seconds", 0.0)
    replayed = wire.recovery.get("replayed_records", 0)
    report.put("durability.recover_s", recover_s, "s", 1)
    report.put("durability.replayed_records", replayed, "count", 1)
    report.put("durability.replay_ms_per_record",
               recover_s * 1e3 / max(1, replayed), "ms", replayed)
    report.put("durability.process_boot_s", wire.restart_s - recover_s, "s", 1)
    for name, wire_samples in (("insert batch", samples.insert),
                               ("retract batch", samples.retract),
                               ("fresh read", samples.fresh)):
        table = tables[name]
        table["wire_ms"] = median(wire_samples) * 1e3
        table["transport_ms"] = table["wire_ms"] - table["staged_ms"]
    report.notes["tables"] = tables
    return report


# -- entry point and rendering ---------------------------------------------------------------


def run_ledger(workload: str, args: Args) -> Report:
    tracer = Tracer()
    try:
        if workload in BATCH_WORKLOADS:
            return ledger_batch(workload, args, tracer)
        if workload == "serve_read":
            return ledger_serve_read(args, tracer)
        return ledger_serve_churn(args, tracer)
    finally:
        paths.OUT.mkdir(exist_ok=True)
        tracer.write(paths.OUT / f"trace.{workload}.jsonl")
