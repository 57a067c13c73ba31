"""A Soufflé-like baseline: static join orders, optional offline profiling.

Soufflé lowers Datalog to a relational-algebra machine and either interprets
it or emits C++ that is compiled ahead of time; an auto-tuning mode picks
join orders from a profile gathered in a previous run over the same data
(paper §VI-D).  The stand-in below reuses the reproduction's semi-naive
engine but freezes the join order before execution:

* ``interpreter`` mode — as-written orders, no ahead-of-time cost.
* ``compiler`` mode — as-written orders, plus a simulated C++-toolchain
  latency added to the reported time (the dominant cost Table II shows for
  short queries).  The configurable constant stands in for invoking a full
  optimizing C++ compiler, which has no Python equivalent.
* ``auto-tuned`` mode — an offline profiling run over the same facts records
  relation cardinalities; the static orders are then chosen by the same
  greedy optimizer Carac uses, but fixed for the whole execution (no runtime
  adaptation), plus the compiler latency.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional, Set

from repro.core.aot import apply_aot_optimization
from repro.core.config import AOTSortMode, EngineConfig
from repro.core.executor import IRExecutor
from repro.core.join_order import JoinOrderOptimizer
from repro.core.profile import RuntimeProfile
from repro.datalog.program import DatalogProgram
from repro.engine.engine import ExecutionEngine
from repro.ir.builder import build_program_ir
from repro.relational.relation import Row
from repro.relational.storage import StorageManager
from repro.engine.indexing import select_indexes

#: Simulated ahead-of-time C++ toolchain latency (seconds).  The real Soufflé
#: compile of the paper's InvFuns program takes tens of seconds; scaled down
#: here so the harness stays fast while preserving the ordering of Table II
#: (compiler modes lose on short queries because of this constant).
DEFAULT_TOOLCHAIN_SECONDS = 2.0


@dataclass
class SouffleLikeResult:
    """Execution outcome: results plus the cost breakdown."""

    relations: Dict[str, Set[Row]]
    evaluation_seconds: float
    toolchain_seconds: float = 0.0
    profiling_seconds: float = 0.0
    #: The measured evaluation's runtime profile.
    profile: Optional[RuntimeProfile] = None

    @property
    def reported_seconds(self) -> float:
        """What Table II reports: toolchain + evaluation (profiling excluded).

        The paper notes Soufflé's auto-tuned time "does not include the time
        spent generating the profiling information"; the same convention is
        used here, with the profiling cost still recorded separately.
        """
        return self.evaluation_seconds + self.toolchain_seconds


class SouffleLikeEngine:
    """Static-join-order semi-naive engine with three Soufflé-style modes."""

    MODES = ("interpreter", "compiler", "auto-tuned")

    def __init__(self, mode: str = "interpreter",
                 toolchain_seconds: float = DEFAULT_TOOLCHAIN_SECONDS,
                 use_indexes: bool = True) -> None:
        if mode not in self.MODES:
            raise ValueError(f"unknown mode {mode!r}; expected one of {self.MODES}")
        self.mode = mode
        self.toolchain_seconds = toolchain_seconds
        self.use_indexes = use_indexes

    def _config(self) -> EngineConfig:
        """Interpreted plans on the tuple-at-a-time ``pushdown`` executor:
        this engine is also the reference evaluator of the benchmark
        ledger, so it shares no operator with the block kernels."""
        return EngineConfig.interpreted(self.use_indexes).with_(executor="pushdown")

    # -- profiling (auto-tuned mode) --------------------------------------------

    def _profile_orders(self, program: DatalogProgram) -> StorageManager:
        """Run the query once to collect the cardinalities a profile would hold."""
        engine = ExecutionEngine(program.copy(), self._config())
        engine.evaluate()
        return engine.storage

    # -- execution ---------------------------------------------------------------

    def run(self, program: DatalogProgram) -> SouffleLikeResult:
        profiling_seconds = 0.0
        profiled_storage: Optional[StorageManager] = None
        if self.mode == "auto-tuned":
            profile_start = time.perf_counter()
            profiled_storage = self._profile_orders(program)
            profiling_seconds = time.perf_counter() - profile_start

        storage = StorageManager(program)
        if self.use_indexes:
            for relation, column in sorted(select_indexes(program)):
                storage.register_index(relation, column)
        tree = build_program_ir(program)

        if self.mode == "auto-tuned" and profiled_storage is not None:
            # Static orders chosen from the profile's (final) cardinalities.
            apply_aot_optimization(
                tree,
                JoinOrderOptimizer(),
                profiled_storage,
                AOTSortMode.FACTS_AND_RULES,
                use_indexes=self.use_indexes,
            )

        profile = RuntimeProfile()
        executor = IRExecutor(storage, self._config(), profile)
        evaluation_start = time.perf_counter()
        executor.execute(tree)
        evaluation_seconds = time.perf_counter() - evaluation_start

        toolchain = 0.0
        if self.mode in ("compiler", "auto-tuned"):
            toolchain = self.toolchain_seconds

        relations = {
            relation: storage.tuples(relation)
            for relation in program.idb_relations()
        }
        return SouffleLikeResult(
            relations=relations,
            evaluation_seconds=evaluation_seconds,
            toolchain_seconds=toolchain,
            profiling_seconds=profiling_seconds,
            profile=profile,
        )
