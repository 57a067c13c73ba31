"""Compilation management: synchronous and asynchronous code generation.

Carac can either block on compilation or continue interpreting on the main
thread while a compiler thread produces the artifact, switching over at the
next safe point once it is ready (paper §V-B2, §V-C1).  The manager below
owns that machinery: per-IR-node artifact cache, pending futures, the
cardinality snapshot each artifact was compiled against (for the freshness
test), and a log of compilation events for the profiler and the Fig. 5
code-generation benchmark.  Every artifact a node compiled stays filed under
the join orders it runs, so a re-plan that lands on one of them swaps it
back in instead of compiling again (:meth:`CompilationManager.reuse`).
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.backends.base import ArtifactFunction, Backend, CompiledArtifact
from repro.relational.operators import AtomSource, JoinPlan, SubqueryEvaluator
from repro.relational.statistics import CardinalitySnapshot
from repro.relational.storage import StorageManager


@dataclass
class CompilationEvent:
    """One completed compilation, recorded for profiling."""

    node_id: int
    label: str
    backend: str
    mode: str
    seconds: float
    asynchronous: bool
    plan_count: int


@dataclass
class _NodeState:
    artifact: Optional[CompiledArtifact] = None
    snapshot: Optional[CardinalitySnapshot] = None
    future: Optional[Future] = None
    future_snapshot: Optional[CardinalitySnapshot] = None
    future_label: str = ""
    #: Every artifact compiled for the node, by the join orders it runs.
    orders: Dict[Tuple[Tuple[AtomSource, ...], ...], CompiledArtifact] = field(
        default_factory=dict
    )


def _orders_of(plans: Sequence[JoinPlan]) -> Tuple[Tuple[AtomSource, ...], ...]:
    return tuple(plan.sources for plan in plans)


class CompilationManager:
    """Caches compiled artifacts per IR node and runs async compilations."""

    def __init__(self, backend: Backend, asynchronous: bool = False,
                 max_workers: int = 1) -> None:
        self.backend = backend
        self.asynchronous = asynchronous
        self.events: List[CompilationEvent] = []
        self._states: Dict[int, _NodeState] = {}
        self._lock = threading.Lock()
        self._executor: Optional[ThreadPoolExecutor] = None
        if asynchronous:
            self._executor = ThreadPoolExecutor(
                max_workers=max_workers, thread_name_prefix="carac-compile"
            )

    # -- lifecycle -------------------------------------------------------------

    def shutdown(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __enter__(self) -> "CompilationManager":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # -- artifact access -------------------------------------------------------

    def _state(self, node_id: int) -> _NodeState:
        state = self._states.get(node_id)
        if state is None:
            state = _NodeState()
            self._states[node_id] = state
        return state

    def current_artifact(self, node_id: int) -> Optional[CompiledArtifact]:
        """The ready artifact for ``node_id``, absorbing a finished future."""
        with self._lock:
            state = self._state(node_id)
            if state.future is not None and state.future.done():
                try:
                    artifact = state.future.result()
                except Exception:
                    state.future = None
                    raise
                state.artifact = artifact
                state.snapshot = state.future_snapshot
                state.future = None
                state.orders[_orders_of(artifact.plans)] = artifact
                self._record_event(artifact, state.future_label, asynchronous=True)
            return state.artifact

    def artifact_snapshot(self, node_id: int) -> Optional[CardinalitySnapshot]:
        with self._lock:
            return self._state(node_id).snapshot

    def reuse(self, node_id: int, plans: Sequence[JoinPlan],
              snapshot: CardinalitySnapshot) -> Optional[CompiledArtifact]:
        """Make the artifact ``node_id`` already compiled for ``plans``'
        join orders current again, valid as of ``snapshot``; None when the
        node never compiled those orders (nothing changes then)."""
        with self._lock:
            state = self._state(node_id)
            artifact = state.orders.get(_orders_of(plans))
            if artifact is not None:
                state.artifact = artifact
                state.snapshot = snapshot
            return artifact

    def is_compiling(self, node_id: int) -> bool:
        with self._lock:
            state = self._state(node_id)
            return state.future is not None and not state.future.done()

    def invalidate(self, node_id: int) -> None:
        """Throw away the artifact (and any pending compile) for a node."""
        with self._lock:
            state = self._state(node_id)
            state.artifact = None
            state.snapshot = None
            state.orders.clear()
            if state.future is not None and not state.future.done():
                state.future.cancel()
            state.future = None
            state.future_snapshot = None

    # -- compilation -----------------------------------------------------------

    def _record_event(self, artifact: CompiledArtifact, label: str,
                      asynchronous: bool) -> None:
        self.events.append(
            CompilationEvent(
                node_id=artifact.node_id if artifact.node_id is not None else -1,
                label=label,
                backend=artifact.backend,
                mode=artifact.mode,
                seconds=artifact.compile_seconds,
                asynchronous=asynchronous,
                plan_count=len(artifact.plans),
            )
        )

    def compile_now(
        self,
        node_id: int,
        plans: Sequence[JoinPlan],
        storage: StorageManager,
        snapshot: CardinalitySnapshot,
        mode: str = "full",
        continuations: Optional[Sequence[ArtifactFunction]] = None,
        label: str = "node",
        evaluator: Optional[SubqueryEvaluator] = None,
    ) -> CompiledArtifact:
        """Blocking compilation: compile, cache and return the artifact.

        ``label`` names the node (relation or rule) in the recorded event.
        """
        artifact = self.backend.compile_plans(
            plans, storage, mode=mode, continuations=continuations,
            evaluator=evaluator,
        )
        artifact.node_id = node_id
        with self._lock:
            state = self._state(node_id)
            state.artifact = artifact
            state.snapshot = snapshot
            state.future = None
            state.future_snapshot = None
            state.orders[_orders_of(artifact.plans)] = artifact
        self._record_event(artifact, label, asynchronous=False)
        return artifact

    def compile_async(
        self,
        node_id: int,
        plans: Sequence[JoinPlan],
        storage: StorageManager,
        snapshot: CardinalitySnapshot,
        mode: str = "full",
        continuations: Optional[Sequence[ArtifactFunction]] = None,
        label: str = "node",
        evaluator: Optional[SubqueryEvaluator] = None,
    ) -> None:
        """Submit a background compilation unless one is already pending."""
        if self._executor is None:
            # Misconfiguration guard: degrade to blocking compilation.
            self.compile_now(node_id, plans, storage, snapshot, mode,
                             continuations, label, evaluator)
            return
        with self._lock:
            state = self._state(node_id)
            if state.future is not None and not state.future.done():
                return

            def job() -> CompiledArtifact:
                artifact = self.backend.compile_plans(
                    plans, storage, mode=mode, continuations=continuations,
                    evaluator=evaluator,
                )
                artifact.node_id = node_id
                return artifact

            state.future = self._executor.submit(job)
            state.future_snapshot = snapshot
            state.future_label = label

    def total_compile_seconds(self) -> float:
        return sum(event.seconds for event in self.events)

    def compile_count(self) -> int:
        return len(self.events)
