"""A ``python -m repro server`` subprocess: spawn, health-wait, peak RSS, bounded stop."""

from __future__ import annotations

import os
import re
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

from repro.server.client import ServerClient

_BANNER = re.compile(r"listening on http://([0-9.]+):(\d+)")
_START_TIMEOUT_S = 60.0
_STOP_TIMEOUT_S = 5.0


class ServerProcess:
    """One daemon process serving *artifact* on an ephemeral port.

    stdout carries only the listen banner; stderr goes to *log_path* so a
    chatty daemon can never block on a full pipe.
    """

    def __init__(
        self,
        src: Path,
        artifact: Path,
        log_path: Path,
        *,
        watch_interval: float,
        cpus: set[int] | None = None,
    ) -> None:
        self.src = src
        self.artifact = artifact
        self.log_path = log_path
        self.watch_interval = watch_interval
        self.cpus = cpus
        self.proc: subprocess.Popen[bytes] | None = None
        self.host = "127.0.0.1"
        self.port = 0

    def start(self) -> "ServerProcess":
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.src) + os.pathsep + env.get("PYTHONPATH", "")
        # Fuzzy ties are broken in set order; a pinned hash seed must not
        # make the daemon agree with the reference by construction.
        env.pop("PYTHONHASHSEED", None)
        with open(self.log_path, "ab") as log:
            self.proc = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "server",
                    "--artifact", str(self.artifact),
                    "--port", "0",
                    "--watch-interval", repr(self.watch_interval),
                ],
                stdout=subprocess.PIPE,
                stderr=log,
                env=env,
            )
        if self.cpus:
            os.sched_setaffinity(self.proc.pid, self.cpus)
        deadline = time.monotonic() + _START_TIMEOUT_S
        banner = self._read_banner(deadline)
        found = _BANNER.search(banner)
        if found is None:
            raise RuntimeError(f"unexpected server banner: {banner!r}")
        self.host, self.port = found.group(1), int(found.group(2))
        with ServerClient(self.host, self.port) as client:
            client.wait_until_ready(timeout=max(0.1, deadline - time.monotonic()))
        return self

    def _read_banner(self, deadline: float) -> str:
        assert self.proc is not None and self.proc.stdout is not None
        stdout = self.proc.stdout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError("server printed no banner in time")
            ready, _, _ = select.select([stdout], [], [], remaining)
            if ready:
                line = stdout.readline().decode("utf-8", "replace")
                if not line:
                    raise RuntimeError(f"server exited with {self.proc.wait()} before its banner")
                return line

    def client(self) -> ServerClient:
        return ServerClient(self.host, self.port, timeout=30.0)

    def peak_rss_mb(self) -> float:
        """``VmHWM`` of the server process, in MiB."""
        assert self.proc is not None
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        kib = int(re.search(r"^VmHWM:\s+(\d+) kB", status, re.M).group(1))  # type: ignore[union-attr]
        return kib / 1024.0

    def stop(self) -> bool:
        """SIGTERM, then SIGKILL if it has not exited in time; True when SIGKILL was needed."""
        proc = self.proc
        if proc is None:
            return False
        self.proc = None
        escalated = False
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=_STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                escalated = True
                proc.kill()
                proc.wait()
        if proc.stdout is not None:
            proc.stdout.close()
        return escalated
