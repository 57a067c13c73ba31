"""Dictionary-encoded storage benchmark: interned vs raw-object evaluation.

Not a paper figure — this measures the repository's global symbol-interning
layer (:mod:`repro.relational.symbols`): the same program and facts
evaluated with ``EngineConfig(interning=False)`` (the raw-object engine,
exactly the PR-4 vectorized baseline, kept alive as the differential
oracle) and with the default dictionary-encoded configuration, plus a
memory comparison of the raw versus encoded storage footprint after a
streamed fact load.

Workloads are symbolic variants of the two acceptance benches: the
10k-edge transitive closure and the CSPA pointer analysis, with every
entity keyed by a **composite context-sensitive key** — a variable
qualified by a depth-4 call-string of ``(function, line)`` call sites, the
k-CFA value shape context-sensitive program analyses actually join on, and the one
dictionary encoding exists for: Python recomputes a composite key's hash
on every set/dict touch, while the encoded engine hashes it exactly once,
at interning time, and joins on dense ints from then on.  Labels are
freshly constructed per occurrence (as any parser/ingest pipeline would
produce them), so the raw engine retains one boxed key object per
occurrence while the encoded engine retains each distinct key once, in the
symbol table.
"""

from __future__ import annotations

import gc
import time
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analyses.cspa import build_cspa_program
from repro.analyses.micro import build_transitive_closure_program
from repro.bench.measurement import MemoryMeasurement, measure_memory
from repro.core.config import EngineConfig
from repro.engine.engine import ExecutionEngine
from repro.relational.storage import StorageManager
from repro.relational.symbols import SymbolTable
from repro.workloads.graphs import random_edges
from repro.workloads.program_facts import CSPADataset, HttpdLikeGenerator

INTERNING_COLUMNS = (
    "workload", "codec", "seconds", "speedup", "equal",
    "retained_mb", "peak_mb", "mem_ratio",
)

#: Default evaluation scales.  The 10k-edge closure runs over 3000 entities
#: (an ~8M-row fixpoint — the memory-bound regime dictionary encoding is
#: built for: the derived set no longer fits in cache, so compact int
#: tuples beat pointer-chasing composite keys on every dedup pass); CSPA
#: uses the httpd-like generator's skewed fact graph.
TC_EDGES, TC_NODES = 10_000, 3_000
CSPA_TUPLES = 600
#: The memory workload: 10k edges over 2000 entities — every entity occurs
#: ~10 times, the duplication a parsed fact stream actually has.
MEM_EDGES, MEM_NODES = 10_000, 2_000


def context_key(i: int) -> Tuple[str, Tuple[Tuple[str, int], ...]]:
    """A freshly allocated composite entity key for node ``i``.

    A k-CFA-style qualified variable: the variable name plus a depth-4
    call-string of ``(function, line)`` call sites.  Built per call (never
    cached) so every occurrence is a distinct object, like rows coming off
    a parser; equal keys still compare/hash equal, so raw-mode set
    semantics are untouched.  Python re-walks this whole structure on every
    raw set/dict touch (tuple hashes are not cached); the encoded engine
    walks it exactly once, at interning time.
    """
    return (
        f"var_{i:06d}",
        (
            (f"fn_{i % 211}", 100 + i % 37),
            (f"fn_{(i * 13) % 211}", 100 + (i * 7) % 53),
            (f"fn_{(i * 29) % 211}", 100 + (i * 11) % 41),
            (f"fn_{(i * 43) % 211}", 100 + (i * 17) % 59),
        ),
    )


def symbolic_edges(edges: Sequence[Tuple[int, int]]) -> List[Tuple[object, object]]:
    return [(context_key(a), context_key(b)) for a, b in edges]


def tc_workload(edge_count: int = TC_EDGES, nodes: int = TC_NODES,
                seed: int = 2024) -> Tuple[str, Callable, str]:
    edges = random_edges(nodes, edge_count, seed=seed)
    return (
        f"tc_{edge_count // 1000}k_sym",
        lambda: build_transitive_closure_program(symbolic_edges(edges)),
        "path",
    )


def cspa_workload(tuples: int = CSPA_TUPLES, seed: int = 2024) -> Tuple[str, Callable, str]:
    dataset = HttpdLikeGenerator(seed=seed).cspa(tuples=tuples)

    def build():
        return build_cspa_program(
            CSPADataset(
                assign=symbolic_edges(dataset.assign),
                dereference=symbolic_edges(dataset.dereference),
            )
        )

    return (f"cspa_{tuples}_sym", build, "VAlias")


def raw_config() -> EngineConfig:
    """The PR-4 vectorized baseline: raw objects end-to-end."""
    return EngineConfig.interpreted().with_(interning=False)


def interned_config() -> EngineConfig:
    return EngineConfig.interpreted()


def _measure_once(build_program: Callable, relation: str,
                  config: EngineConfig) -> Tuple[float, Set[Tuple[object, ...]]]:
    program = build_program()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        rows = ExecutionEngine(program, config).evaluate()[relation]
        seconds = time.perf_counter() - started
    finally:
        if gc_was_enabled:
            gc.enable()
    return seconds, rows.to_set()


def _measure_pair(build_program: Callable, relation: str, repeat: int
                  ) -> Tuple[Tuple[float, Set], Tuple[float, Set]]:
    """Best-of-``repeat`` for raw and interned, with *interleaved* rounds.

    Each round measures the raw engine then the encoded one back-to-back,
    so slow machine drift (thermal throttling on shared CI boxes) hits
    both codecs alike instead of biasing whichever ran later.
    """
    best: Dict[str, Tuple[float, Set]] = {}
    for _ in range(max(1, repeat)):
        for codec, config in (("raw", raw_config()), ("interned", interned_config())):
            seconds, rows = _measure_once(build_program, relation, config)
            if codec not in best or seconds < best[codec][0]:
                best[codec] = (seconds, rows)
    return best["raw"], best["interned"]


# -- the storage-load memory comparison ---------------------------------------


def _edge_stream(edge_count: int, nodes: int, seed: int) -> Iterator[Tuple[object, object]]:
    """Freshly labelled edge rows, one at a time (an ingest pipeline)."""
    for a, b in random_edges(nodes, edge_count, seed=seed):
        yield (context_key(a), context_key(b))


def load_streamed(storage: StorageManager, relation: str,
                  rows: Iterable[Sequence[object]], chunk: int = 256) -> int:
    """Stream rows into Derived in chunks through the storage's codec.

    Encodes and absorbs one chunk at a time so transient raw rows become
    garbage immediately — both codecs see the same streaming shape, which
    is what makes their tracemalloc peaks comparable.
    """
    loaded = 0
    batch: List[Sequence[object]] = []
    symbols = storage.symbols
    for row in rows:
        batch.append(row)
        if len(batch) >= chunk:
            loaded += storage.absorb_rows(relation, symbols.intern_rows(batch))
            batch.clear()
    if batch:
        loaded += storage.absorb_rows(relation, symbols.intern_rows(batch))
    return loaded


def measure_load_memory(interning: bool, edge_count: int = MEM_EDGES,
                        nodes: int = MEM_NODES,
                        seed: int = 2024) -> Tuple[StorageManager, MemoryMeasurement]:
    """Load a streamed symbolic edge set; measure what the storage retains."""

    def load() -> StorageManager:
        storage = StorageManager(symbols=SymbolTable() if interning else None)
        storage.declare("edge", 2)
        load_streamed(storage, "edge", _edge_stream(edge_count, nodes, seed))
        return storage

    return measure_memory(load)


def run_interning(
    workloads: Optional[Sequence[Tuple[str, Callable, str]]] = None,
    repeat: int = 1,
    quick: bool = False,
    memory_scale: Optional[Tuple[int, int]] = None,
) -> List[Dict[str, object]]:
    """Benchmark rows: raw vs interned per workload, plus the load-memory pair.

    Each workload contributes two rows; the interned row's ``speedup``
    reads "dictionary-encoded over the raw-object baseline" and ``equal``
    asserts the decoded result set is bit-for-bit the raw engine's.  The
    ``*_load`` rows compare the storage footprint of the streamed 10k-edge
    load: ``mem_ratio`` is raw-retained over interned-retained (higher is
    better; the speed rows leave the memory columns empty).
    """
    if workloads is None:
        if quick:
            workloads = [
                tc_workload(edge_count=2_000, nodes=1_600),
                cspa_workload(tuples=150),
            ]
        else:
            workloads = [tc_workload(), cspa_workload()]
    if memory_scale is None:
        memory_scale = (2_000, 500) if quick else (MEM_EDGES, MEM_NODES)

    rows: List[Dict[str, object]] = []
    for workload, build_program, relation in workloads:
        (raw_seconds, raw_rows), (interned_seconds, interned_rows) = _measure_pair(
            build_program, relation, repeat
        )
        rows.append({
            "workload": workload, "codec": "raw", "seconds": raw_seconds,
            "speedup": 1.0, "equal": True,
            "retained_mb": None, "peak_mb": None, "mem_ratio": None,
        })
        rows.append({
            "workload": workload, "codec": "interned",
            "seconds": interned_seconds,
            "speedup": (
                raw_seconds / interned_seconds
                if interned_seconds else float("inf")
            ),
            "equal": interned_rows == raw_rows,
            "retained_mb": None, "peak_mb": None, "mem_ratio": None,
        })

    mem_edges, mem_nodes = memory_scale
    label = f"tc_{mem_edges // 1000}k_load"
    raw_storage, raw_memory = measure_load_memory(
        False, edge_count=mem_edges, nodes=mem_nodes
    )
    raw_count = raw_storage.cardinality("edge")
    del raw_storage
    interned_storage, interned_memory = measure_load_memory(
        True, edge_count=mem_edges, nodes=mem_nodes
    )
    equal = (
        interned_storage.cardinality("edge") == raw_count
    )
    del interned_storage
    for codec, memory, ratio in (
        ("raw", raw_memory, 1.0),
        (
            "interned", interned_memory,
            (
                raw_memory.retained_bytes / interned_memory.retained_bytes
                if interned_memory.retained_bytes else float("inf")
            ),
        ),
    ):
        rows.append({
            "workload": label, "codec": codec, "seconds": None,
            "speedup": None, "equal": equal,
            "retained_mb": round(memory.retained_mb(), 2),
            "peak_mb": round(memory.peak_mb(), 2),
            "mem_ratio": round(ratio, 2),
        })
    return rows
