"""Fault injection: named fault points at the engine's real failure sites.

Every place the system can genuinely fail in production — a WAL ``fsync``
returning ``EIO``, a checkpoint rename racing a crash, a client socket
resetting mid-write — carries a *fault point*:
a one-line ``faults.fire("wal.fsync", DurabilityError)`` hook.  When no
registry is installed the hook is one attribute test on a shared no-op
singleton (the ``NOOP_TRACER`` discipline); when a :class:`FaultRegistry`
is installed, each hit consults that point's :class:`FaultSpec` schedule:

``fail_nth``
    Deterministically fail the Nth hit of the point (1-based), exactly
    once — then the point recovers.  The smoke workflow uses this to prove
    a typed error surfaces over the wire *and* that the next request
    succeeds.
``fail_rate``
    Fail each hit with seeded probability — deterministic for a given
    ``seed``, so chaos runs replay exactly.
``delay``
    Sleep per hit without failing (slow-disk / slow-network simulation).

Injected failures raise the *site's* taxonomy error (the same class a real
EIO would produce), so chaos tests exercise the production
error paths, not a parallel test-only channel.

Activation: ``EngineConfig.with_(faults=FaultRegistry(...))`` (installed
when the engine prepares an evaluation), :func:`fault_scope` in tests, or
the ``REPRO_FAULTS`` environment variable for whole-process injection —
``REPRO_FAULTS="wal.fsync:fail_nth=1;server.send:fail_rate=0.1"``.
"""

from __future__ import annotations

import os
import random
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple, Type, Union

from repro.resilience.errors import ResilienceError, TAXONOMY

#: Every fault point the engine registers, in dependency order.  Specs for
#: unknown points are rejected up front — a typo'd point would otherwise
#: silently never fire.
FAULT_POINTS = (
    "wal.append",        # WAL frame write+flush (durability/wal.py)
    "wal.fsync",         # WAL fsync, batch or always policy (durability/wal.py)
    "checkpoint.rename", # atomic tmp -> final rename (durability/checkpoint.py)
    "symbols.extend",    # symbol-table delta absorb (relational/symbols.py)
    "server.send",       # response write to a client socket (server/server.py)
    "queue.enqueue",     # mutation-queue admission (server/backpressure.py)
)

#: Environment variable holding a spec list for whole-process injection.
ENV_VAR = "REPRO_FAULTS"


@dataclass(frozen=True)
class FaultSpec:
    """One point's schedule.  ``0``/``0.0`` fields are inactive."""

    point: str
    fail_nth: int = 0
    fail_rate: float = 0.0
    delay: float = 0.0

    def __post_init__(self) -> None:
        if self.point not in FAULT_POINTS:
            raise ValueError(
                f"unknown fault point {self.point!r}; "
                f"expected one of {FAULT_POINTS}"
            )
        if self.fail_nth < 0:
            raise ValueError(f"fail_nth must be >= 0, got {self.fail_nth}")
        if not 0.0 <= self.fail_rate <= 1.0:
            raise ValueError(
                f"fail_rate must be in [0, 1], got {self.fail_rate}"
            )
        if self.delay < 0:
            raise ValueError(f"delay must be >= 0, got {self.delay}")

    @classmethod
    def parse(cls, text: str) -> "FaultSpec":
        """Parse ``"point:key=value,key=value"`` (the env-var grammar)."""
        point, _, rest = text.strip().partition(":")
        kwargs: Dict[str, float] = {}
        if rest:
            for item in rest.split(","):
                key, _, raw = item.partition("=")
                key = key.strip()
                if key == "fail_nth":
                    kwargs[key] = int(raw)
                elif key in ("fail_rate", "delay"):
                    kwargs[key] = float(raw)
                else:
                    raise ValueError(
                        f"unknown fault spec field {key!r} in {text!r}"
                    )
        return cls(point=point, **kwargs)  # type: ignore[arg-type]


class FaultRegistry:
    """The installed schedule: per-point hit counters + trigger decisions."""

    enabled = True

    def __init__(self, specs: Iterable[Union[FaultSpec, str]] = (),
                 seed: int = 0) -> None:
        parsed = [
            spec if isinstance(spec, FaultSpec) else FaultSpec.parse(spec)
            for spec in specs
        ]
        self._specs: Dict[str, FaultSpec] = {s.point: s for s in parsed}
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self._hits: Dict[str, int] = {}
        self._injected: Dict[str, int] = {}
        self.seed = seed

    # -- the hook ---------------------------------------------------------------

    def fire(self, point: str, error: Type[ResilienceError]) -> None:
        """Account one hit of ``point``; raise when the schedule says fail."""
        spec = self._specs.get(point)
        with self._lock:
            self._hits[point] = hits = self._hits.get(point, 0) + 1
            if spec is None:
                return
            triggered = (
                (spec.fail_nth and hits == spec.fail_nth)
                or (spec.fail_rate and self._rng.random() < spec.fail_rate)
            )
            if triggered:
                self._injected[point] = self._injected.get(point, 0) + 1
        if spec.delay:
            time.sleep(spec.delay)
        if triggered:
            raise error(
                f"injected fault at {point} (hit {hits})",
                reason="injected", point=point,
            )

    # -- introspection ----------------------------------------------------------

    def hits(self, point: str) -> int:
        with self._lock:
            return self._hits.get(point, 0)

    def injected(self, point: Optional[str] = None) -> int:
        with self._lock:
            if point is not None:
                return self._injected.get(point, 0)
            return sum(self._injected.values())

    def specs(self) -> Tuple[FaultSpec, ...]:
        return tuple(self._specs[p] for p in FAULT_POINTS if p in self._specs)

    def stat_rows(self) -> List[Tuple[str, str, int]]:
        """``sys_resilience`` rows: configured points with hit/fire counts."""
        rows: List[Tuple[str, str, int]] = []
        for spec in self.specs():
            rows.append(("fault_hits", spec.point, self.hits(spec.point)))
            rows.append(
                ("fault_injected", spec.point, self.injected(spec.point))
            )
        return rows


class _NoopRegistry:
    """The shared disabled registry: ``fire`` never triggers, zero state."""

    __slots__ = ()

    enabled = False

    def fire(self, point: str, error: Type[ResilienceError]) -> None:
        pass  # pragma: no cover - guarded out by callers

    def hits(self, point: str) -> int:
        return 0

    def injected(self, point: Optional[str] = None) -> int:
        return 0

    def specs(self) -> Tuple[FaultSpec, ...]:
        return ()

    def stat_rows(self) -> List[Tuple[str, str, int]]:
        return []


NOOP_FAULTS = _NoopRegistry()

#: The process-wide active registry.  Fault points are physical sites (one
#: WAL file, one server socket), so activation is
#: process-scoped — exactly like ``faulthandler`` — and the last install
#: wins.  ``clear()`` restores the free no-op.
_ACTIVE: Union[FaultRegistry, _NoopRegistry] = NOOP_FAULTS


def active() -> Union[FaultRegistry, _NoopRegistry]:
    return _ACTIVE


def install(registry: Union[FaultRegistry, Iterable[Union[FaultSpec, str]]]
            ) -> FaultRegistry:
    """Activate ``registry`` (or build one from specs) process-wide."""
    global _ACTIVE
    if not isinstance(registry, FaultRegistry):
        registry = FaultRegistry(registry)
    _ACTIVE = registry
    return registry


def clear() -> None:
    """Deactivate injection; fault points return to the zero-cost path."""
    global _ACTIVE
    _ACTIVE = NOOP_FAULTS


def fire(point: str, error: Type[ResilienceError]) -> None:
    """The site-side hook: free when disabled, scheduled when installed."""
    registry = _ACTIVE
    if registry.enabled:
        registry.fire(point, error)


@contextmanager
def fault_scope(*specs: Union[FaultSpec, str], seed: int = 0):
    """Install specs for one ``with`` block (tests); always restores."""
    global _ACTIVE
    previous = _ACTIVE
    registry = install(FaultRegistry(specs, seed=seed))
    try:
        yield registry
    finally:
        _ACTIVE = previous


def install_from_env(environ=os.environ) -> Optional[FaultRegistry]:
    """Install the ``REPRO_FAULTS`` schedule, if the variable is set.

    Grammar: ``point:field=value,field=value;point2:...`` — e.g.
    ``REPRO_FAULTS="wal.fsync:fail_nth=1"``.  An optional ``seed=N`` item
    (no colon) seeds the schedule's RNG.
    """
    raw = environ.get(ENV_VAR, "").strip()
    if not raw:
        return None
    seed = 0
    specs: List[FaultSpec] = []
    for item in raw.split(";"):
        item = item.strip()
        if not item:
            continue
        if item.startswith("seed="):
            seed = int(item[len("seed="):])
            continue
        specs.append(FaultSpec.parse(item))
    return install(FaultRegistry(specs, seed=seed))
