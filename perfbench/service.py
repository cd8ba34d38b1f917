"""One out-of-process ``repro serve`` per measured phase.

The service runs as ``python -m repro serve --port 0`` from the
checkout's ``src`` tree, with a fresh ``--cache-dir`` and a fresh
``REPRO_CODEGEN_DIR`` under the run's work directory, so no run can
find another run's analysis shards or generated code.  The
``REPRO-SERVE-READY`` line names the ephemeral port; CPU and peak RSS
of the frontend and its forked workers are read from ``/proc``.
"""

from __future__ import annotations

import os
import select
import signal
import subprocess
import sys
import time
from typing import Dict, List, Tuple

READY_PREFIX = "REPRO-SERVE-READY"

#: seconds the service may take to print its ready line, and to exit
BOOT_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 15.0

_TICKS = os.sysconf("SC_CLK_TCK")


class ServiceError(RuntimeError):
    """The service did not come up, or did not go away."""


class Service:
    """A running ``repro serve`` process and its workers."""

    def __init__(self, root: str, workdir: str, tracing: bool) -> None:
        os.makedirs(workdir, exist_ok=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(root, "src")
        env["REPRO_CODEGEN_DIR"] = os.path.join(workdir, "codegen")
        # str hashing fixed: dict/set layouts, and so allocation
        # patterns, repeat from run to run
        env["PYTHONHASHSEED"] = "0"
        argv = [sys.executable, "-m", "repro", "serve", "--port", "0",
                "--cache-dir", os.path.join(workdir, "cache")]
        if not tracing:
            argv.append("--no-trace")
        self._log_path = os.path.join(workdir, "serve.log")
        self._log = open(self._log_path, "w")
        self.launched = time.perf_counter()
        try:
            self.proc = subprocess.Popen(argv, cwd=root, env=env,
                                         stdout=subprocess.PIPE,
                                         stderr=self._log, text=True)
        except OSError:
            self._log.close()
            raise
        try:
            self.host, self.port = self._await_ready()
        except BaseException:
            self.stop()
            raise
        #: perf_counter() when the ready line arrived
        self.ready = time.perf_counter()
        self.workers = self._children()

    def _await_ready(self) -> Tuple[str, int]:
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        while True:
            left = deadline - time.monotonic()
            if left <= 0:
                raise ServiceError("no ready line within "
                                   f"{BOOT_TIMEOUT_S:.0f} s")
            readable, _, _ = select.select([self.proc.stdout], [], [],
                                           left)
            if not readable:
                continue
            line = self.proc.stdout.readline()
            if not line:
                raise ServiceError("service exited before its ready "
                                   "line:\n" + self.log_tail())
            if line.startswith(READY_PREFIX):
                fields = dict(part.split("=", 1)
                              for part in line.split()[1:])
                return fields["host"], int(fields["port"])

    def _children(self) -> List[int]:
        pids: List[int] = []
        task_dir = f"/proc/{self.proc.pid}/task"
        for tid in os.listdir(task_dir):
            try:
                with open(f"{task_dir}/{tid}/children") as handle:
                    pids.extend(int(p) for p in handle.read().split())
            except OSError:
                continue
        return sorted(pids)

    def log_tail(self, lines: int = 20) -> str:
        self._log.flush()
        with open(self._log_path) as handle:
            return "".join(handle.readlines()[-lines:])

    # -- /proc readings ----------------------------------------------

    def cpu_seconds(self) -> Dict[str, float]:
        """User+sys CPU seconds of the frontend and of all workers."""
        return {"frontend": _cpu(self.proc.pid),
                "workers": sum(_cpu(pid) for pid in self.workers)}

    def peak_rss_mb(self) -> Dict[str, float]:
        """``VmHWM`` of the frontend and summed over the workers."""
        return {"frontend": _hwm_mb(self.proc.pid),
                "workers": sum(_hwm_mb(pid) for pid in self.workers)}

    # -- shutdown --------------------------------------------------------

    def stop(self) -> None:
        """SIGTERM (the service reaps its pool), then wait until the
        frontend and every worker have ended."""
        workers = getattr(self, "workers", None) or []
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        deadline = time.monotonic() + STOP_TIMEOUT_S
        for pid in workers:
            while _alive(pid):
                if time.monotonic() > deadline:
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
                    deadline = time.monotonic() + STOP_TIMEOUT_S
                time.sleep(0.01)
        self.proc.stdout.close()
        self._log.close()


def _stat_fields(pid: int) -> List[str]:
    with open(f"/proc/{pid}/stat") as handle:
        text = handle.read()
    return text[text.rindex(")") + 2:].split()


def _cpu(pid: int) -> float:
    fields = _stat_fields(pid)
    return (int(fields[11]) + int(fields[12])) / _TICKS


def _hwm_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise ServiceError(f"no VmHWM for pid {pid}")


def _alive(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    try:
        return _stat_fields(pid)[0] != "Z"
    except (OSError, ValueError):
        return False
