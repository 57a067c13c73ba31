"""One-way layering: the catalog observes the engine, never the reverse.

Engine-core modules receive the catalog as an opaque duck-typed parameter
from the API layer; they must never import :mod:`repro.introspect` (the
mirror image of the telemetry-sinks rule, minus ``api``, which constructs
the catalog and so legitimately imports it).  ``.github/workflows/smoke.yml``
greps for the same rule; this test pins it in the suite.
"""

import pathlib
import re

#: Everything below repro.api in the layering diagram.
ENGINE_CORE_PACKAGES = (
    "core", "engine", "incremental", "relational", "ir",
    "datalog",
)

IMPORT_PATTERN = re.compile(
    r"^\s*(from repro\.introspect|import repro\.introspect"
    r"|from repro import .*introspect)",
    re.MULTILINE,
)


def test_engine_core_never_imports_introspect():
    src = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"
    offenders = []
    for package in ENGINE_CORE_PACKAGES:
        for path in (src / package).rglob("*.py"):
            if IMPORT_PATTERN.search(path.read_text(encoding="utf-8")):
                offenders.append(str(path))
    assert not offenders, f"engine-core imports repro.introspect: {offenders}"


def test_introspect_never_imports_engine_core():
    """The catalog reads duck-typed objects, not engine modules: it may
    import telemetry (and ``repro._lazy``, the import-free re-export
    helper its ``__init__`` uses), nothing else from the package."""
    src = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"
    pattern = re.compile(
        r"^\s*from repro\.(?!telemetry|introspect|_lazy\b)\w+", re.MULTILINE
    )
    offenders = []
    for path in (src / "introspect").rglob("*.py"):
        if pattern.search(path.read_text(encoding="utf-8")):
            offenders.append(str(path))
    assert not offenders, f"introspect imports engine modules: {offenders}"
