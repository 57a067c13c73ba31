"""The execution engine: the user-facing entry point for running programs.

:class:`ExecutionEngine` wires the substrates together: it loads a
:class:`~repro.datalog.program.DatalogProgram` into the relational storage
layer, performs automatic index selection from the rule schema, lowers the
program to the IROp tree, optionally applies ahead-of-time optimization, and
runs the :class:`~repro.core.executor.IRExecutor` under one
:class:`~repro.core.config.EngineConfig`.
"""

from repro.core.config import (
    AOTSortMode,
    CompilationGranularity,
    EngineConfig,
    ExecutionMode,
)
from repro.core.profile import RuntimeProfile
from repro.engine.engine import ExecutionEngine
from repro.engine.indexing import select_indexes

__all__ = [
    "AOTSortMode",
    "CompilationGranularity",
    "EngineConfig",
    "ExecutionEngine",
    "ExecutionMode",
    "RuntimeProfile",
    "select_indexes",
]
