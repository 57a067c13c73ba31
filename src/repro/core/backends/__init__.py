"""Compilation targets (paper §V-C).

Four backends turn an (already join-ordered) set of sub-query plans into an
executable artifact, trading expressiveness, safety and compilation overhead
against each other exactly as the paper describes:

* :class:`QuotesBackend` — generate Python source and invoke the host
  compiler (``compile`` on text).  Most expressive/safe, highest overhead,
  supports "snippet" compilation with continuations back to the interpreter.
* :class:`BytecodeBackend` — construct a Python ``ast`` and compile it
  directly, skipping the textual front end.  Cheaper, not revertible.
* :class:`LambdaBackend` — stitch precompiled closures; no compiler
  invocation at all, but limited to the predefined combinators.
* :class:`IRGeneratorBackend` — regenerate the IR (the reordered plans) and
  hand it back to the interpreter; minimal overhead, minimal specialization.
"""

from repro._lazy import lazy_exports

# Imported on first use; ``get_backend(name)`` likewise imports only the
# module of the backend it is asked for.
__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.core.backends.base": (
        "Backend", "CompiledArtifact", "available_backends", "get_backend",
    ),
    "repro.core.backends.bytecode": ("BytecodeBackend",),
    "repro.core.backends.irgen": ("IRGeneratorBackend",),
    "repro.core.backends.lambda_backend": ("LambdaBackend",),
    "repro.core.backends.quotes": ("QuotesBackend",),
})
