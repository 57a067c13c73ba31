"""The benchmark-owned server launcher: one child process per served run.

Built on the public ``Database`` / ``QueryServer`` / ``DurabilityConfig``
API only (``python -m repro.server`` cannot pin the production
configuration or the checkpoint cadence).  Binds port 0, then prints one
``READY {json}`` line on stdout — the port, and the durability recovery
report when there was one — and serves until SIGTERM/SIGINT.  The runner
kills it with SIGKILL for the crash-restart measurement; nothing here
needs to run for that.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys

import paths  # noqa: F401  (puts src/ on sys.path)

from repro import Database, DurabilityConfig
from repro.server import QueryServer

from configs import PRODUCTION


async def _serve(server: QueryServer, ready: dict) -> None:
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        loop.add_signal_handler(signum, stop.set)
    await server.start()
    ready["port"] = server.port
    print("READY " + json.dumps(ready), flush=True)
    try:
        await stop.wait()
    finally:
        await server.stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--program", required=True, help="Datalog source file")
    parser.add_argument("--durability", default=None, metavar="DIR")
    parser.add_argument("--checkpoint-every-records", type=int, default=0)
    args = parser.parse_args(argv)

    with open(args.program, "r", encoding="utf-8") as handle:
        source = handle.read()

    durability = None
    if args.durability is not None:
        durability = DurabilityConfig(
            dir=args.durability, fsync="batch",
            checkpoint_every_records=args.checkpoint_every_records,
        )
    database = Database(source, PRODUCTION, name="tc", durability=durability)
    # The constructor opens the writer connection: recovery (checkpoint
    # install + WAL replay) and the initial fixpoint both happen here.
    server = QueryServer(database, port=0)
    ready = {}
    if server.durability is not None and server.durability.last_recovery:
        report = server.durability.last_recovery
        ready["recovery"] = {
            "seconds": report.seconds,
            "replayed_records": report.replayed_records,
        }
    try:
        asyncio.run(_serve(server, ready))
    finally:
        database.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
