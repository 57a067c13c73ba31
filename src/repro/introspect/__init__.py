"""Self-observability: the queryable system catalog and EXPLAIN ANALYZE.

The introspection layer turns the engine's own state — storage statistics,
finished traces, metrics — into first-class Datalog
relations under the reserved ``sys_`` namespace, so every operational
question is answerable with the engine's own query language::

    slow(F) :- sys_queries(_, F, _, L, _, _), L > 10000.

Two pieces:

* :mod:`repro.introspect.catalog` — the :class:`SystemCatalog`: schemas for
  the ``sys_`` relations, on-demand materialization into a session's
  storage (interned through the normal symbol-table path, so catalog rows
  compose with joins, negation, aggregation and the vectorized executor),
  and content digests that keep the result cache honest.
* :mod:`repro.introspect.analyze` — EXPLAIN ANALYZE: merges the actual
  per-operator span timings and row counts of the most recent trace into
  the join-order predictions recorded by the optimizer, flagging operators
  whose actual/predicted cardinality ratio exceeds a threshold.

Layering rule (the mirror image of the telemetry-sinks rule): this package
may import :mod:`repro.telemetry` and the relational layer, but engine-core
modules (``core``, ``engine``, ``incremental``, ``relational``,
``ir``, ``datalog``) never import ``repro.introspect`` — they receive the
catalog as an opaque duck-typed parameter from the API layer.  CI greps for
violations and ``tests/introspect/test_layering.py`` pins the same rule.
"""

from repro._lazy import lazy_exports
from repro.introspect.catalog import (
    CATALOG_COLUMNS,
    RESERVED_PREFIX,
    SystemCatalog,
    catalog_relation_names,
    is_catalog_relation,
)

# Every connection has a catalog; EXPLAIN ANALYZE loads with its first use.
__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.introspect.analyze": (
        "DEFAULT_MISESTIMATE_RATIO", "OperatorActual",
        "collect_operator_actuals", "render_analyze",
    ),
})[:2]

__all__ = [
    "CATALOG_COLUMNS",
    "DEFAULT_MISESTIMATE_RATIO",
    "OperatorActual",
    "RESERVED_PREFIX",
    "SystemCatalog",
    "catalog_relation_names",
    "collect_operator_actuals",
    "is_catalog_relation",
    "render_analyze",
]
