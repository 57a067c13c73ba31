"""What a server start imports — as a set of modules, not a stopwatch.

``import repro.server`` and ``from repro import Database`` must execute the
production path (datalog -> relational -> ir -> engine -> core executor ->
incremental -> api -> durability -> server) and nothing a first answer does
not run.  The optional halves hang off PEP 562 lazy package attributes
(:mod:`repro._lazy`) and the on-demand backend registry; this pins both
directions: they stay out of ``sys.modules`` at boot, and every lazy name
still resolves.
"""

import os
import subprocess
import sys

import pytest

import repro.api
import repro.core
import repro.core.backends
import repro.introspect
import repro.server

# The children import what this process imports (conftest.py put src/ on it).
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}

FORBIDDEN = (
    "numpy",
    "repro.core.codegen",
    "repro.core.backends.quotes",
    "repro.core.backends.bytecode",
    "repro.core.backends.irgen",
    "repro.core.backends.lambda_backend",
    "repro.bench",
    "repro.analyses",
    "repro.workloads",
    "repro.introspect.analyze",
    "repro.api.explain",
    "repro.server.client",
)

PROBE = """
import sys
{statement}
loaded = [m for m in sys.modules if m in {forbidden!r} or m.startswith(
    tuple(name + "." for name in {forbidden!r}))]
print("\\n".join(sorted(loaded)))
"""


@pytest.mark.parametrize("statement", [
    "import repro.server",
    "from repro import Database",
    # ... and still after a served program's whole first answer
    "from repro import Database; "
    "Database('p(X) :- e(X). e(1).').connect().query('p').to_set()",
])
def test_boot_imports_only_what_a_first_answer_runs(statement):
    probe = PROBE.format(statement=statement, forbidden=FORBIDDEN)
    done = subprocess.run(
        [sys.executable, "-c", probe], env=ENV,
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []


@pytest.mark.parametrize("package", [
    repro.core, repro.core.backends, repro.api, repro.introspect, repro.server,
])
def test_every_exported_name_resolves_and_is_listed(package):
    listed = dir(package)
    for name in package.__all__:
        assert name in listed
        assert getattr(package, name) is not None
    with pytest.raises(AttributeError):
        package.no_such_name


BACKEND_MODULES = {
    "lambda": "repro.core.backends.lambda_backend",
    "quotes": "repro.core.backends.quotes",
    "bytecode": "repro.core.backends.bytecode",
    "irgen": "repro.core.backends.irgen",
}

RUN_TC = """
import sys
from repro import Database, EngineConfig
source = ("path(X, Y) :- edge(X, Y). path(X, Z) :- path(X, Y), edge(Y, Z)."
          "edge(1, 2). edge(2, 3). edge(3, 4).")
assert Database(source, EngineConfig.jit({backend!r})).query("path").count() == 6
print(" ".join(sorted(m for m in sys.modules if m in {modules!r})))
"""


@pytest.mark.parametrize("backend", sorted(BACKEND_MODULES))
def test_a_backend_is_imported_by_the_first_run_that_names_it(backend):
    """From a fresh interpreter: the name resolves, tc runs, and of the four
    backend modules only the one asked for was imported."""
    script = RUN_TC.format(backend=backend, modules=sorted(BACKEND_MODULES.values()))
    done = subprocess.run(
        [sys.executable, "-c", script], env=ENV,
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [BACKEND_MODULES[backend]]


def test_unknown_backend_lists_the_shipped_ones():
    with pytest.raises(ValueError, match="bytecode.*irgen.*lambda.*quotes"):
        repro.core.get_backend("nope")
    assert repro.core.available_backends() == ["bytecode", "irgen", "lambda", "quotes"]
