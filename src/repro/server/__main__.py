"""Standalone server process: ``python -m repro.server --program rules.dl``.

Reads a Datalog program from a file (or stdin with ``-``), boots a
:class:`~repro.server.server.QueryServer` and serves until interrupted.
With ``--durability DIR`` the database runs on a write-ahead log and
checkpoints in ``DIR``: restarts recover the committed state (warm from
the latest checkpoint plus a WAL replay) instead of re-evaluating from
the program source.

Shutdown is graceful on SIGINT/SIGTERM: the writer finishes the batch it
already dequeued, every still-queued mutation fails back to its client
with a structured ``shutdown`` error, and the WAL is flushed — all
*before* client sockets close.

Debug with ``nc``: the server auto-detects newline-delimited JSON, so

::

    $ echo '{"op": "query", "relation": "path"}' | nc localhost 7777
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import sys

from repro.api.database import Database
from repro.durability import DurabilityConfig
from repro.durability.config import FSYNC_POLICIES
from repro.resilience.faults import ENV_VAR, install_from_env
from repro.server.backpressure import POLICIES, BackpressureConfig
from repro.server.server import QueryServer


async def _serve(server: QueryServer) -> None:
    """Serve until SIGINT/SIGTERM, then run the ordered shutdown.

    The signal only sets an event — the actual teardown is this
    coroutine awaiting ``server.stop()`` to completion, never a
    cancellation racing the writer mid-commit.
    """
    interrupted = asyncio.Event()
    loop = asyncio.get_running_loop()
    hooked = []
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, interrupted.set)
            hooked.append(signum)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass  # non-unix loop: KeyboardInterrupt still reaches main()
    await server.start()
    print(f"listening on {server.host}:{server.port}", file=sys.stderr)
    try:
        await interrupted.wait()
        print(
            "shutting down: draining mutation queue, flushing WAL",
            file=sys.stderr,
        )
    finally:
        for signum in hooked:
            loop.remove_signal_handler(signum)
        await server.stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.server",
        description="Serve one Datalog program over TCP.",
    )
    parser.add_argument(
        "--program", required=True,
        help="path to a Datalog source file, or '-' for stdin",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7777)
    parser.add_argument(
        "--policy", choices=POLICIES, default="block",
        help="backpressure policy for the mutation queue",
    )
    parser.add_argument(
        "--max-pending", type=int, default=64,
        help="mutation queue bound",
    )
    parser.add_argument(
        "--durability", default=None, metavar="DIR",
        help="durability directory (WAL + checkpoints); restarts recover",
    )
    parser.add_argument(
        "--fsync", choices=FSYNC_POLICIES, default="batch",
        help="WAL fsync policy (only with --durability)",
    )
    args = parser.parse_args(argv)

    if args.program == "-":
        source = sys.stdin.read()
    else:
        with open(args.program, "r", encoding="utf-8") as handle:
            source = handle.read()

    # Fault injection for chaos / smoke runs: REPRO_FAULTS="wal.fsync:
    # fail_nth=1" makes the first fsync fail with a typed durability error
    # on the wire, after which the server recovers on its own.
    registry = install_from_env()
    if registry is not None:
        specs = ", ".join(
            f"{spec.point}(fail_nth={spec.fail_nth}, "
            f"fail_rate={spec.fail_rate}, delay={spec.delay})"
            for spec in registry.specs()
        )
        print(f"fault injection active via {ENV_VAR}: {specs}", file=sys.stderr)

    durability = None
    if args.durability is not None:
        durability = DurabilityConfig(dir=args.durability, fsync=args.fsync)
    database = Database(source, durability=durability)
    server = QueryServer(
        database, host=args.host, port=args.port,
        backpressure=BackpressureConfig(
            policy=args.policy, max_pending=args.max_pending
        ),
    )
    if server.durability is not None:
        recovery = server.durability.last_recovery
        if recovery is not None:
            print(
                f"recovered {recovery.checkpoint_rows} checkpoint rows + "
                f"{recovery.replayed_records} WAL records in "
                f"{recovery.seconds:.3f}s from {args.durability!r}; "
                f"{recovery.slowest}",
                file=sys.stderr,
            )

    print(
        f"serving {args.program!r} on {args.host}:{args.port} "
        f"(policy={args.policy}, max_pending={args.max_pending}, "
        f"durability={args.durability or 'off'})",
        file=sys.stderr,
    )
    try:
        asyncio.run(_serve(server))
    except KeyboardInterrupt:
        # Signal handler unavailable (non-unix): stop() is idempotent and
        # still runs the ordered drain-then-close sequence, best-effort on
        # a fresh loop.
        try:
            asyncio.run(server.stop())
        except RuntimeError:  # pragma: no cover - foreign-loop leftovers
            pass
    finally:
        database.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
