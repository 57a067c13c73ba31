"""Warm restart: checkpoint install + WAL tail replay.

Recovery is deliberately boring: the checkpoint's row sets are installed
wholesale as the session's evaluated fixpoint (no re-evaluation), and the
WAL tail is replayed through the *ordinary* incremental mutation path —
``IncrementalSession.apply`` — after extending the symbol table with each
record's delta.  Replaying through the public path means recovery
exercises exactly the code every live mutation exercises, and the
replayed fixpoint repair re-derives the IDB consequences the checkpoint
did not capture.

Symbol alignment is the subtle part.  Ids must come out identical to the
crashed process's or every encoded row in the checkpoint and the WAL means
something else.  Two facts make it work:

* The table prefix a fresh session allocates before any mutation — program
  fact loading and IR constant encoding — is deterministic (list/tree
  traversal order), so it matches the crashed process's prefix.
* Everything after that prefix is *not* deterministic (set iteration order
  is hash-seed-dependent), so each WAL record carries the exact table
  suffix its batch allocated — including entries the batch's *fixpoint*
  allocated (arithmetic head terms) — and replay ``extend``s that suffix
  before re-applying.  Interning then finds every value already bound, so
  replay allocates nothing on its own; ``extend``'s validation turns any
  divergence into a hard :class:`RecoveryError` instead of silent remap.
"""

from __future__ import annotations

import logging
import os
import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.durability.checkpoint import Checkpoint, CheckpointStore
from repro.durability.wal import WalError, WalScan, read_wal

logger = logging.getLogger("repro.durability")


class RecoveryError(Exception):
    """Durable state that cannot be reconciled with this session."""


@dataclass
class RecoveryReport:
    """What one recovery pass found and did."""

    checkpoint_records: int = 0    #: WAL records the installed checkpoint covered
    checkpoint_rows: int = 0       #: derived rows restored from the checkpoint
    replayed_records: int = 0      #: WAL tail records re-applied
    truncated_bytes: int = 0       #: torn-tail bytes discarded
    torn: bool = False
    symbols_restored: int = 0
    seconds: float = 0.0
    #: Apply time of each replayed record, in replay order.  A record costs
    #: what its batch cost live (same code path), so the tail of this list
    #: is the tail of the mutation stream: retractions with large cones.
    record_seconds: List[float] = field(default_factory=list)
    #: The costliest replayed record: its seq, strategy, cone and time.
    slowest: str = "no WAL record replayed"

    @property
    def warm(self) -> bool:
        """Whether a checkpoint made this a warm (no cold fixpoint) start."""
        return self.checkpoint_records > 0 or self.checkpoint_rows > 0


def _install_checkpoint(session, checkpoint: Checkpoint) -> int:
    """Align symbols and install the checkpoint's rows as the fixpoint."""
    if checkpoint.program != session.program_fingerprint:
        raise RecoveryError(
            "checkpoint belongs to a different program "
            f"(checkpoint {checkpoint.program[:12]}, "
            f"session {session.program_fingerprint[:12]})"
        )
    symbols = session.storage.symbols
    if (checkpoint.symbols is None) != bool(symbols.identity):
        raise RecoveryError(
            "checkpoint and session disagree on dictionary encoding "
            "(EngineConfig.interning changed since the checkpoint was written)"
        )
    restored = 0
    if checkpoint.symbols is not None:
        current = list(symbols.values())
        saved = checkpoint.symbols
        if saved[: len(current)] != current:
            raise RecoveryError(
                "symbol table divergence: the session's deterministic prefix "
                "does not match the checkpoint's — the program or its facts "
                "changed since the checkpoint was written"
            )
        try:
            restored = symbols.extend(saved[len(current):], base=len(current))
        except ValueError as exc:  # pragma: no cover - prefix check covers this
            raise RecoveryError(str(exc)) from None
    unknown = set(checkpoint.relations) - set(session.storage.relation_names())
    if unknown:
        raise RecoveryError(
            f"checkpoint holds relations the program lacks: {sorted(unknown)}"
        )
    session.restore_fixpoint(checkpoint.relations)
    return restored


def _replay_record(session, record):
    """Re-apply one WAL record; returns the batch's :class:`UpdateReport`."""
    symbols = session.storage.symbols
    if record.sym_entries:
        try:
            symbols.extend(record.sym_entries, base=record.sym_base)
        except (ValueError, TypeError) as exc:
            raise RecoveryError(
                f"WAL record {record.seq}: symbol delta rejected: {exc}"
            ) from None
    return session.apply(record.inserts, record.retracts)


def recover(
    session,
    wal_path: str,
    store: CheckpointStore,
) -> Tuple[RecoveryReport, Optional[WalScan]]:
    """Bring ``session`` up to the last durable state of its directory.

    Returns the report plus the WAL scan (None when no WAL exists yet),
    which the caller reuses to resume appending after the valid prefix.
    Must run before the session evaluates or accepts mutations, and before
    a :class:`~repro.durability.manager.DurabilityManager` attaches — the
    replayed batches are already in the log and must not be re-appended.
    """
    started = time.perf_counter()
    report = RecoveryReport()
    with session.tracer.span("recover:replay", root=True) as span:
        checkpoint = store.latest()
        if checkpoint is not None:
            report.symbols_restored = _install_checkpoint(session, checkpoint)
            report.checkpoint_records = checkpoint.wal_records
            report.checkpoint_rows = checkpoint.row_count()

        scan: Optional[WalScan] = None
        if os.path.exists(wal_path):
            try:
                scan = read_wal(wal_path)
            except WalError as exc:
                raise RecoveryError(f"unreadable WAL {wal_path!r}: {exc}") from None
            if scan.torn:
                report.torn = True
                report.truncated_bytes = scan.file_length - scan.valid_length
            covered = report.checkpoint_records
            if scan.base_seq > covered:
                raise RecoveryError(
                    f"WAL starts at record {scan.base_seq} but the best "
                    f"checkpoint covers only {covered}: committed records "
                    "are missing from the durability directory"
                )
            skip = covered - scan.base_seq
            record_seconds = session.metrics.histogram("recovery_record_seconds")
            worst = -1.0
            for record in scan.records[skip:]:
                update = _replay_record(session, record)
                report.replayed_records += 1
                report.record_seconds.append(update.seconds)
                record_seconds.observe(update.seconds)
                if update.seconds > worst:
                    worst = update.seconds
                    report.slowest = (
                        f"slowest replayed record: seq {record.seq} "
                        f"({update.strategy}, over-deleted {update.over_deleted} "
                        f"rows) {update.seconds * 1e3:.1f} ms"
                    )
        report.seconds = time.perf_counter() - started
        span.set(
            replayed=report.replayed_records,
            checkpoint_rows=report.checkpoint_rows,
            truncated_bytes=report.truncated_bytes,
        )
    session.metrics.counter("recovery_runs_total").inc()
    session.metrics.counter("recovery_records_replayed_total").inc(
        report.replayed_records
    )
    session.metrics.histogram("recovery_seconds").observe(report.seconds)
    logger.info(
        "recovery replayed %d records in %.3f s; %s",
        report.replayed_records, report.seconds, report.slowest,
    )
    return report, scan
