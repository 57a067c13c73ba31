"""One-way layering: the server embeds the engine, never the reverse.

:mod:`repro.server` sits above :mod:`repro.api` — it holds a Database and
serves it.  Nothing underneath (the API layer included) may import the
server package: the engine must stay embeddable without pulling in asyncio
serving machinery.  ``.github/workflows/smoke.yml`` greps for the same
rule; this test pins it in the suite.
"""

import pathlib
import re

#: Every package below repro.server in the layering diagram.
NON_SERVER_PACKAGES = (
    "analyses", "api", "core", "datalog", "durability", "engine",
    "incremental", "introspect", "ir", "relational",
    "telemetry", "workloads",
)

IMPORT_PATTERN = re.compile(
    r"^\s*(from repro\.server|import repro\.server"
    r"|from repro import .*\bserver\b)",
    re.MULTILINE,
)


def test_nothing_below_the_server_imports_it():
    src = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"
    offenders = []
    for package in NON_SERVER_PACKAGES:
        for path in (src / package).rglob("*.py"):
            if IMPORT_PATTERN.search(path.read_text(encoding="utf-8")):
                offenders.append(str(path))
    assert not offenders, f"engine layers import repro.server: {offenders}"


def test_top_level_package_does_not_import_the_server():
    """``import repro`` must not drag in asyncio serving machinery."""
    src = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"
    text = (src / "__init__.py").read_text(encoding="utf-8")
    assert not IMPORT_PATTERN.search(text)


def test_server_package_only_imports_api_and_below():
    """The server speaks to the engine through the public Database API
    (plus core config, telemetry types, the resilience taxonomy/faults it
    reports through, the durability config it forwards to Database, and
    ``repro._lazy``, the import-free re-export helper) — never engine
    internals."""
    src = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"
    allowed = re.compile(
        r"\s*from repro\.(server|api|core|telemetry|durability|resilience|_lazy)[.\s]"
    )
    any_repro = re.compile(r"\s*from repro\.\w+")
    offenders = []
    for path in (src / "server").rglob("*.py"):
        for line in path.read_text(encoding="utf-8").splitlines():
            if any_repro.match(line) and not allowed.match(line):
                offenders.append(f"{path}: {line.strip()}")
    assert not offenders, f"server imports engine internals: {offenders}"
