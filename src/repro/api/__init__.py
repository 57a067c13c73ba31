"""The public embedded-database API: ``Database`` / ``Connection`` / ``QueryResult``.

One coherent surface over every execution subsystem (interpreted, JIT, AOT,
incremental sessions)::

    from repro import Database, EngineConfig

    db = Database(program, EngineConfig.jit())
    with db.connect() as conn:
        conn.insert_facts("edge", [(1, 2), (2, 3)])
        result = conn.query("path")
        print(result.count(), result.take(5))
        print(result.explain())

See :mod:`repro.api.database` for the entry points and
:mod:`repro.api.result` for the result types.
"""

from repro._lazy import lazy_exports
from repro.api.database import Connection, Database, coerce_program, schema_for
from repro.api.result import QueryResult, ResultSchema, ResultSet

# The EXPLAIN renderer loads with the first EXPLAIN, not with the package.
__getattr__, __dir__ = lazy_exports(
    __name__, {"repro.api.explain": ("render_explain",)}
)[:2]

__all__ = [
    "Connection",
    "Database",
    "QueryResult",
    "ResultSchema",
    "ResultSet",
    "coerce_program",
    "render_explain",
    "schema_for",
]
