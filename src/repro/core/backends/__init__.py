"""Compilation targets (paper §V-C).

Four backends turn an (already join-ordered) set of sub-query plans into an
executable artifact.  Three of them run the very block kernels the
vectorized interpreter runs (:func:`~repro.relational.operators.lower_plan`:
one generated comprehension per positive atom) and differ only in how each
comprehension's text becomes a callable — the compile-cost trade-off the
paper describes:

* :class:`QuotesBackend` — ``compile()`` the source text on every
  invocation.  Most expressive/safe, highest overhead, supports "snippet"
  compilation with continuations back to the interpreter.
* :class:`BytecodeBackend` — ``compile()`` a syntax tree parsed once per
  distinct text, skipping the textual front end.  Cheaper, not revertible.
* :class:`LambdaBackend` — reuse the code objects compiled the first time
  any plan had the shape; no compiler invocation after that, but limited
  to the predefined combinators.
* :class:`IRGeneratorBackend` — regenerate the IR (the reordered plans) and
  hand it back to the configured interpreter; minimal overhead, minimal
  specialization.
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
