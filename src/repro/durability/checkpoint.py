"""Checkpoints: atomic full-state snapshots with packed machine-word columns.

File layout
-----------

::

    +--------------------------+   8-byte magic, 8-byte BE header length,
    | RCKPT..1 | hdr_len | hdr |   pickled header (symbol value list,
    +--------------------------+   per-relation column directory, CRC)
    |      packed section      |   concatenated ``array('q')`` columns,
    +--------------------------+   column-major per relation

Under dictionary encoding (PR 5) every stored row is a tuple of dense
symbol ids — machine words — so a relation dumps as ``arity`` packed
``int64`` columns at ``memcpy`` speed and loads back the same way: each
column is a ``memoryview.cast("q")`` of the file's bytes and the rows are
one ``zip`` over the columns (the only decode path; nothing outside the
standard library is imported), optionally through ``mmap`` so a large
checkpoint pages lazily instead of being read through userspace buffers.
Identity-codec storage (rows hold arbitrary Python values) falls back to
pickling the row list into the header, relation by relation, so both codecs
checkpoint through one format.

Atomicity is by rename: the file is written to ``<name>.tmp``, fsynced,
then renamed over the final name (and the directory fsynced), so a crash
mid-write leaves at most a ``.tmp`` straggler that the store ignores and
prunes.  Validity is belt-and-braces: the rename guarantees completeness,
and a CRC-32 over the packed section plus a length check guard against
bit rot; an invalid newest checkpoint falls back to the one before it.
"""

from __future__ import annotations

import mmap
import os
import pickle
import re
import zlib
from array import array
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.resilience import faults
from repro.resilience.errors import DurabilityError

Row = Tuple[Any, ...]

MAGIC = b"RCKPT\x00\x01\n"
_FORMAT = 1
_NAME_RE = re.compile(r"^checkpoint-(\d{12})\.ckpt$")


class CheckpointError(Exception):
    """A checkpoint that cannot be written or fails validation on load."""


def _pack_rows(rows: List[Row], arity: int) -> Optional[bytes]:
    """The rows as column-major int64 bytes, or None when not packable."""
    if arity == 0:
        return None
    try:
        columns = [
            array("q", (row[i] for row in rows)).tobytes()
            for i in range(arity)
        ]
    except (TypeError, OverflowError):
        return None
    return b"".join(columns)


def _unpack_rows(view: memoryview, arity: int, count: int) -> Set[Row]:
    """Rebuild a row set from one relation's column-major int64 bytes.

    Every sub-view is released before returning so an mmap-backed caller
    can close its map — a memoryview with exported children refuses.
    """
    if count == 0:
        return set()
    columns = [
        view[i * count * 8:(i + 1) * count * 8].cast("q")
        for i in range(arity)
    ]
    try:
        return set(zip(*columns))
    finally:
        for column in columns:
            column.release()


@dataclass
class Checkpoint:
    """One loaded (or about-to-be-written) full-state snapshot."""

    #: Program fingerprint guard: recovery refuses to install a checkpoint
    #: written by a different program.
    program: str
    #: Total WAL records this snapshot covers (recovery replays the rest).
    wal_records: int
    #: The full symbol value list, id order; None for identity storage.
    symbols: Optional[List[Any]]
    #: name -> (derived rows, base rows), both in the storage value domain.
    relations: Dict[str, Tuple[Set[Row], Set[Row]]] = field(default_factory=dict)
    arities: Dict[str, int] = field(default_factory=dict)
    path: Optional[str] = None

    def row_count(self) -> int:
        return sum(len(derived) for derived, _ in self.relations.values())


def write_checkpoint(path: str, checkpoint: Checkpoint) -> int:
    """Serialize ``checkpoint`` to ``path`` atomically; returns bytes written."""
    directory: Dict[str, Dict[str, Any]] = {}
    packed = bytearray()
    for name, (derived, base) in checkpoint.relations.items():
        arity = checkpoint.arities[name]
        entry: Dict[str, Any] = {"arity": arity}
        for part, rows in (("derived", derived), ("base", base)):
            ordered = list(rows)
            blob = _pack_rows(ordered, arity)
            if blob is None:
                entry[part] = {"packed": False, "rows": ordered}
            else:
                entry[part] = {
                    "packed": True, "offset": len(packed), "rows": len(ordered),
                }
                packed += blob
        directory[name] = entry
    header = pickle.dumps(
        {
            "format": _FORMAT,
            "program": checkpoint.program,
            "wal_records": checkpoint.wal_records,
            "symbols": checkpoint.symbols,
            "relations": directory,
            "packed_bytes": len(packed),
            "packed_crc": zlib.crc32(bytes(packed)),
        },
        protocol=pickle.HIGHEST_PROTOCOL,
    )
    tmp_path = path + ".tmp"
    with open(tmp_path, "wb") as handle:
        handle.write(MAGIC)
        handle.write(len(header).to_bytes(8, "big"))
        handle.write(header)
        handle.write(packed)
        handle.flush()
        os.fsync(handle.fileno())
        written = handle.tell()
    faults.fire("checkpoint.rename", DurabilityError)
    os.replace(tmp_path, path)
    _fsync_directory(os.path.dirname(path) or ".")
    return written


def load_checkpoint(path: str, use_mmap: bool = True) -> Checkpoint:
    """Load and validate one checkpoint file.

    Raises :class:`CheckpointError` on any structural problem — the store
    treats that as "try the previous checkpoint", never as partial data.
    """
    with open(path, "rb") as handle:
        prefix = handle.read(len(MAGIC) + 8)
        if len(prefix) < len(MAGIC) + 8 or prefix[: len(MAGIC)] != MAGIC:
            raise CheckpointError(f"{path}: not a repro checkpoint (bad magic)")
        header_len = int.from_bytes(prefix[len(MAGIC):], "big")
        try:
            header = pickle.loads(handle.read(header_len))
        except Exception as exc:
            raise CheckpointError(f"{path}: unreadable header: {exc}") from None
        if header.get("format") != _FORMAT:
            raise CheckpointError(
                f"{path}: unsupported checkpoint format {header.get('format')!r}"
            )
        packed_start = len(MAGIC) + 8 + header_len
        packed_bytes = header["packed_bytes"]
        expected_length = packed_start + packed_bytes
        if os.fstat(handle.fileno()).st_size != expected_length:
            raise CheckpointError(f"{path}: truncated packed section")
        mapped = None
        if use_mmap and packed_bytes:
            try:
                mapped = mmap.mmap(
                    handle.fileno(), 0, access=mmap.ACCESS_READ
                )
            except (OSError, ValueError):  # pragma: no cover - mmap-less fs
                mapped = None
        try:
            if mapped is not None:
                packed = memoryview(mapped)[packed_start:expected_length]
            else:
                handle.seek(packed_start)
                packed = memoryview(handle.read(packed_bytes))
            if zlib.crc32(packed) != header["packed_crc"]:
                raise CheckpointError(f"{path}: packed-section CRC mismatch")
            relations: Dict[str, Tuple[Set[Row], Set[Row]]] = {}
            arities: Dict[str, int] = {}
            for name, entry in header["relations"].items():
                arity = entry["arity"]
                parts = []
                for part in ("derived", "base"):
                    spec = entry[part]
                    if spec["packed"]:
                        width = spec["rows"] * arity * 8
                        view = packed[spec["offset"]:spec["offset"] + width]
                        try:
                            parts.append(
                                _unpack_rows(view, arity, spec["rows"])
                            )
                        finally:
                            view.release()
                    else:
                        parts.append({tuple(row) for row in spec["rows"]})
                relations[name] = (parts[0], parts[1])
                arities[name] = arity
        finally:
            packed.release()
            if mapped is not None:
                mapped.close()
    return Checkpoint(
        program=header["program"],
        wal_records=header["wal_records"],
        symbols=header["symbols"],
        relations=relations,
        arities=arities,
        path=path,
    )


def _fsync_directory(directory: str) -> None:
    """Make a rename durable (POSIX requires the directory be synced too)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir-open
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class CheckpointStore:
    """The rotating checkpoint set inside one durability directory."""

    def __init__(self, directory: str, keep: int = 2,
                 use_mmap: bool = True) -> None:
        self.directory = directory
        self.keep = keep
        self.use_mmap = use_mmap

    def _path_for(self, wal_records: int) -> str:
        return os.path.join(
            self.directory, f"checkpoint-{wal_records:012d}.ckpt"
        )

    def list(self) -> List[Tuple[int, str]]:
        """Every checkpoint present, ``(wal_records, path)``, newest first."""
        found: List[Tuple[int, str]] = []
        if not os.path.isdir(self.directory):
            return found
        for entry in os.listdir(self.directory):
            match = _NAME_RE.match(entry)
            if match is not None:
                found.append(
                    (int(match.group(1)), os.path.join(self.directory, entry))
                )
        found.sort(reverse=True)
        return found

    def write(self, checkpoint: Checkpoint) -> int:
        """Persist ``checkpoint`` atomically and prune older generations."""
        written = write_checkpoint(
            self._path_for(checkpoint.wal_records), checkpoint
        )
        self.prune()
        return written

    def latest(self) -> Optional[Checkpoint]:
        """The newest checkpoint that validates, or None.

        An unreadable newest file (bit rot; a ``.tmp`` never appears here
        because :meth:`list` only matches final names) falls back to the
        next older one rather than failing recovery outright.
        """
        for _, path in self.list():
            try:
                return load_checkpoint(path, use_mmap=self.use_mmap)
            except (CheckpointError, OSError):
                continue
        return None

    def prune(self) -> List[str]:
        """Drop all but the ``keep`` newest checkpoints and any strays."""
        removed: List[str] = []
        for _, path in self.list()[self.keep:]:
            try:
                os.remove(path)
                removed.append(path)
            except OSError:  # pragma: no cover - concurrent cleanup
                pass
        if os.path.isdir(self.directory):
            for entry in os.listdir(self.directory):
                if entry.endswith(".ckpt.tmp"):
                    try:
                        os.remove(os.path.join(self.directory, entry))
                        removed.append(entry)
                    except OSError:  # pragma: no cover
                        pass
        return removed
