"""PEP 562 lazy re-exports: a package names its public API without importing it.

A server that interprets should not pay, at every start, for code generators,
EXPLAIN renderers or wire clients it may never run.  A package ``__init__``
lists such names with the module defining each; the first attribute access
(``from repro.core import QuotesBackend`` included) imports that module once.
"""

import sys
from importlib import import_module
from typing import Mapping, Sequence


def lazy_exports(package: str, modules: Mapping[str, Sequence[str]]):
    """``(__getattr__, __dir__, __all__)`` for ``package``'s ``__init__``
    (take ``[:2]`` when other names are imported eagerly beside these);
    ``modules`` maps a module path to the names re-exported from it."""
    home = {name: module for module, names in modules.items() for name in names}

    def __getattr__(name: str) -> object:
        if name not in home:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(home[name]), name)
        setattr(sys.modules[package], name, value)  # resolved once per process
        return value

    def __dir__():
        return sorted({*vars(sys.modules[package]), *home})

    return __getattr__, __dir__, sorted(home)
