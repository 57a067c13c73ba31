"""repro: a Python reproduction of "Adaptive Recursive Query Optimization" (ICDE 2024).

The package implements Carac — a Datalog engine whose join orders are
re-optimized continuously at runtime via staged code generation — along with
every substrate it needs (Datalog frontend, relational storage layer, IR,
workloads, baseline engines) and the benchmark harness that regenerates the
paper's tables and figures.

The public surface is the embedded-database API — one :class:`Database` per
program, :class:`Connection` objects for stateful work, every read returning
a first-class :class:`QueryResult`::

    from repro import Database, EngineConfig, Program

    program = Program("reachability")
    edge = program.relation("edge", columns=("src", "dst"))
    path = program.relation("path", 2)
    x, y, z = program.variables("x", "y", "z")
    path(x, y) <= edge(x, y)
    path(x, z) <= path(x, y) & edge(y, z)
    edge.add_facts([(1, 2), (2, 3), (3, 4)])

    db = Database(program, EngineConfig.jit(backend="lambda"))
    with db.connect() as conn:
        conn.insert_facts("edge", [(4, 5)])
        result = conn.query("path")
        print(result.count(), result.take(3))
        print(result.explain())

Every execution subsystem — interpreted, JIT, AOT, incremental sessions —
plugs in beneath this one surface and returns bit-for-bit identical results.
"""

from repro.api.database import Connection, Database
from repro.api.result import QueryResult, ResultSchema, ResultSet
from repro.core.config import (
    AOTSortMode,
    CompilationGranularity,
    EngineConfig,
    ExecutionMode,
)
from repro.datalog.dsl import Program, RelationHandle
from repro.durability import DurabilityConfig
from repro.datalog.literals import compare, let
from repro.datalog.parser import parse_program
from repro.datalog.terms import Variable
from repro.engine.engine import ExecutionEngine
from repro.incremental.session import IncrementalSession
from repro.resilience import (
    Cancelled,
    CancellationToken,
    DeadlineExceeded,
    DurabilityError,
    QueryLimits,
    ResilienceError,
    ResourceExhausted,
)

__version__ = "1.1.0"

__all__ = [
    "AOTSortMode",
    "CancellationToken",
    "Cancelled",
    "CompilationGranularity",
    "Connection",
    "Database",
    "DeadlineExceeded",
    "DurabilityConfig",
    "DurabilityError",
    "EngineConfig",
    "ExecutionEngine",
    "ExecutionMode",
    "IncrementalSession",
    "Program",
    "QueryLimits",
    "QueryResult",
    "RelationHandle",
    "ResilienceError",
    "ResourceExhausted",
    "ResultSchema",
    "ResultSet",
    "Variable",
    "compare",
    "let",
    "parse_program",
    "__version__",
]
