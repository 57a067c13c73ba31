"""The typed error taxonomy: every failure the engine reports, one class each.

Before this module the failure surface was ad hoc: a wedged queue raised a
``BackpressureError`` with free-form codes, and an I/O error mid-commit
crossed the wire as an unstructured traceback string.  The taxonomy replaces
that with four stable classes — :class:`DeadlineExceeded`,
:class:`ResourceExhausted`, :class:`Cancelled`, :class:`DurabilityError` — whose
``code`` strings are wire-stable: the server serialises them with
:meth:`ResilienceError.to_wire`, clients re-raise them from
:func:`error_from_code`, and tests pin each code exactly once.

Every instance optionally carries a ``reason`` (a short machine-readable
discriminator inside one code, e.g. ``queue_full`` vs ``oversized_frame``
for :class:`ResourceExhausted`) and arbitrary keyword ``details`` that ride
along in the wire object (``policy``, ``point``, ...).
"""

from __future__ import annotations

from typing import Any, Dict, Optional


class ResilienceError(Exception):
    """Base of the taxonomy; never raised directly by the engine."""

    #: The stable wire code of this class (class attribute, one per class).
    code = "resilience"
    #: Whether a client may safely retry the *same* request after backoff.
    #: Refined per instance: mutation errors are only retryable when the
    #: server reports the write was never enqueued (no double-apply).
    retryable = False

    def __init__(self, message: str = "", *, reason: Optional[str] = None,
                 **details: Any) -> None:
        super().__init__(message or self.code)
        self.reason = reason
        self.details = details

    def to_wire(self) -> Dict[str, Any]:
        """The ``{"code", "message", ...}`` object the server sends."""
        wire: Dict[str, Any] = {"code": self.code, "message": str(self)}
        if self.reason is not None:
            wire["reason"] = self.reason
        wire.update(self.details)
        return wire


class DeadlineExceeded(ResilienceError):
    """A query (or queued mutation) ran past its deadline and was aborted."""

    code = "deadline_exceeded"


class ResourceExhausted(ResilienceError):
    """A bounded resource (queue slots, rows, rounds, bytes) ran out.

    Transient by nature — the client may retry after backoff, except for
    mutations the server reports as already enqueued.
    """

    code = "resource_exhausted"
    retryable = True


class Cancelled(ResilienceError):
    """Work was cancelled cooperatively (client gone, shed, shutdown)."""

    code = "cancelled"


class DurabilityError(ResilienceError):
    """The WAL or a checkpoint could not be made durable."""

    code = "durability_error"


#: code -> class, for re-raising typed errors from wire objects.
TAXONOMY: Dict[str, type] = {
    cls.code: cls
    for cls in (DeadlineExceeded, ResourceExhausted, Cancelled, DurabilityError)
}


def error_from_code(code: str, message: str = "", *,
                    reason: Optional[str] = None,
                    **details: Any) -> ResilienceError:
    """Rebuild a taxonomy error from its wire code (base class fallback)."""
    cls = TAXONOMY.get(code, ResilienceError)
    error = cls(message, reason=reason, **details)
    if cls is ResilienceError:
        # Preserve an unknown-but-structured code across one more hop.
        error.details.setdefault("origin_code", code)
    return error
