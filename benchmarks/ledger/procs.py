"""Child-process hygiene: every server child is reaped, whatever happens.

``ServerProcess`` wraps one ``server_main.py`` child.  It only ever ends by
``kill`` (SIGKILL + ``wait4``): the crash is what ``serve_churn`` measures,
and a graceful stop would only add a checkpoint nobody reads.  Reaping with
``os.wait4`` keeps the child's ``ru_maxrss`` (peak RSS) available after the
kill.
"""

from __future__ import annotations

import json
import os
import select
import signal
import subprocess
import sys
import time
from typing import List, Optional, Tuple

import paths

SERVER_MAIN = str(paths.HERE / "server_main.py")

#: Seconds a server child may take to print READY (boot, or crash recovery
#: replaying a WAL tail) before the run counts it as failed.
READY_TIMEOUT = 120.0


def split_cpus() -> Optional[Tuple[int, int]]:
    """(server CPU, load-generator CPU), or None when this process may run
    on fewer than two.

    Both sides are GIL-bound, so neither can use a second CPU — but left
    free, the scheduler moves them around, and one server instance then
    answers a page read in 0.17 ms for its whole life while the next takes
    0.21 ms.  One CPU each removes that coin toss (measured: page p50
    183-211 us free, 167-177 us pinned)."""
    allowed = sorted(os.sched_getaffinity(0))
    return (allowed[0], allowed[1]) if len(allowed) >= 2 else None


class ServerProcess:
    """One server child: spawn, wait for READY, kill, reap."""

    def __init__(self, program_path: str, log_path: str,
                 durability_dir: Optional[str] = None,
                 checkpoint_every_records: int = 0,
                 cpu: Optional[int] = None) -> None:
        self._argv: List[str] = [sys.executable, SERVER_MAIN,
                                 "--program", program_path]
        if durability_dir is not None:
            self._argv += [
                "--durability", durability_dir,
                "--checkpoint-every-records", str(checkpoint_every_records),
            ]
        self._log_path = log_path
        self._cpu = cpu
        self._proc: Optional[subprocess.Popen] = None
        self.ready: dict = {}
        self.peak_rss_mb: Optional[float] = None

    @property
    def port(self) -> int:
        return self.ready["port"]

    def start(self) -> "ServerProcess":
        """Spawn the child and block until it prints READY."""
        log = open(self._log_path, "ab")
        try:
            self._proc = subprocess.Popen(
                self._argv, stdout=subprocess.PIPE, stderr=log,
                stdin=subprocess.DEVNULL,
            )
        finally:
            log.close()  # the child holds its own descriptor
        if self._cpu is not None:
            # Before the child has started a thread: they all inherit it.
            os.sched_setaffinity(self._proc.pid, {self._cpu})
        deadline = time.monotonic() + READY_TIMEOUT
        line = b""
        stdout = self._proc.stdout
        while not line.endswith(b"\n"):
            remaining = deadline - time.monotonic()
            if remaining <= 0 or self._proc.poll() is not None:
                self.kill()
                raise RuntimeError(
                    f"server child did not become ready (see {self._log_path})"
                )
            readable, _, _ = select.select([stdout], [], [], min(remaining, 0.5))
            if readable:
                chunk = os.read(stdout.fileno(), 4096)
                if not chunk:
                    continue  # EOF: the poll() above reports the exit
                line += chunk
        text = line.decode("utf-8").strip()
        if not text.startswith("READY "):
            self.kill()
            raise RuntimeError(f"unexpected server banner: {text!r}")
        self.ready = json.loads(text[len("READY "):])
        return self

    def _reap(self) -> None:
        proc = self._proc
        if proc is None:
            return
        self._proc = None
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except ChildProcessError:  # already reaped by a poll()
            proc.wait()
        else:
            proc.returncode = os.waitstatus_to_exitcode(status)
            # Linux reports ru_maxrss in KiB.
            self.peak_rss_mb = usage.ru_maxrss / 1024.0
        if proc.stdout is not None:
            proc.stdout.close()

    def kill(self) -> None:
        """SIGKILL and reap (idempotent) — the crash of the restart test."""
        if self._proc is not None:
            if self._proc.poll() is None:
                self._proc.send_signal(signal.SIGKILL)
            self._reap()
