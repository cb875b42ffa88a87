"""Child processes of a run: start, measure, stop, reap.

Every process a run starts gets its own session (so its whole tree
shares one process group), and :func:`stop` does not return until no
process of that group is left: no ``spawn_main`` pool worker outlives
the run that started it.
"""

from __future__ import annotations

import os
import re
import selectors
import signal
import subprocess
import threading
import time
from pathlib import Path

BANNER = re.compile(rb"listening on http://([0-9.]+):(\d+)")


def child_env(root: Path, store: Path) -> dict:
    """Environment for programs under test: checkout sources, the run's
    own artifact store, and no bytecode written into ``src/``."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["REPRO_CACHE_DIR"] = str(store)
    return env


class Server:
    """One ``repro serve`` process tree, ready when its banner printed."""

    def __init__(self, argv: list[str], env: dict, cwd: Path,
                 log_path: Path, timeout_s: float = 120.0):
        self.log = open(log_path, "ab")
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, env=env, cwd=cwd, stdout=subprocess.PIPE,
            stderr=self.log, start_new_session=True,
        )
        try:
            self.host, self.port = self._await_banner(timeout_s)
        except BaseException:
            self.stop(signal.SIGKILL)
            raise
        self.ready_s = time.perf_counter() - started
        # Keep draining stdout so a chatty child never blocks on a pipe.
        self._drain = threading.Thread(target=self._drain_stdout,
                                       daemon=True)
        self._drain.start()

    def _await_banner(self, timeout_s: float) -> tuple[str, int]:
        sel = selectors.DefaultSelector()
        sel.register(self.proc.stdout, selectors.EVENT_READ)
        deadline = time.monotonic() + timeout_s
        buf = b""
        try:
            while True:
                left = deadline - time.monotonic()
                if left <= 0:
                    raise RuntimeError("server did not print its banner")
                if not sel.select(left):
                    continue
                chunk = os.read(self.proc.stdout.fileno(), 4096)
                if not chunk:
                    raise RuntimeError(
                        f"server exited with {self.proc.wait()} "
                        "before listening"
                    )
                buf += chunk
                match = BANNER.search(buf)
                if match:
                    return match.group(1).decode(), int(match.group(2))
        finally:
            sel.close()

    def _drain_stdout(self) -> None:
        try:
            while os.read(self.proc.stdout.fileno(), 65536):
                pass
        except (OSError, ValueError):
            pass

    def peak_rss_mb(self) -> float:
        """High-water resident memory, summed over the process tree."""
        pids = [self.proc.pid] + descendants(self.proc.pid)
        return sum(vm_hwm_kb(pid) for pid in pids) / 1024.0

    def stop(self, sig: int = signal.SIGTERM, grace_s: float = 30.0) -> int:
        """Signal the server, wait for it, then reap its whole group."""
        if self.proc.poll() is None:
            try:
                self.proc.send_signal(sig)
            except ProcessLookupError:
                pass
        try:
            code = self.proc.wait(grace_s)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
        reap_group(self.proc.pid)
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self.log.close()
        return code


def run_to_end(argv: list[str], env: dict, cwd: Path, log_path: Path,
               timeout_s: float) -> tuple[int, bytes]:
    """Run a child to completion in its own session; ``(code, stdout)``."""
    with open(log_path, "ab") as log:
        proc = subprocess.Popen(argv, env=env, cwd=cwd,
                                stdout=subprocess.PIPE, stderr=log,
                                start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            proc.kill()
            out, _ = proc.communicate()
        finally:
            reap_group(proc.pid)
    return proc.returncode, out


def reap_group(pgid: int, timeout_s: float = 15.0) -> None:
    """Kill what is left of process group ``pgid`` and wait until the
    group is empty (orphans are reaped by init, so poll ``/proc``)."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    deadline = time.monotonic() + timeout_s
    while group_members(pgid) and time.monotonic() < deadline:
        time.sleep(0.02)


def _stat_fields(pid: int) -> list[str] | None:
    try:
        raw = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    # comm may contain spaces; fields resume after the last ")".
    return raw[raw.rfind(")") + 2:].split()


def group_members(pgid: int) -> list[int]:
    """Live (non-zombie) processes in a process group."""
    members = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat_fields(int(entry))
            if fields and int(fields[2]) == pgid and fields[0] != "Z":
                members.append(int(entry))
    return members


def descendants(pid: int) -> list[int]:
    """Every live descendant of ``pid``, found by parent links."""
    parents: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat_fields(int(entry))
            if fields:
                parents.setdefault(int(fields[1]), []).append(int(entry))
    found, frontier = [], [pid]
    while frontier:
        children = parents.get(frontier.pop(), [])
        found.extend(children)
        frontier.extend(children)
    return found


def cpu_ticks() -> tuple[int, int]:
    """Host-wide ``(steal, total)`` CPU ticks from ``/proc/stat``.

    Steal is time the hypervisor ran someone else while this machine's
    vCPUs had work: the host noise that inflates every latency.
    """
    fields = [int(x) for x in Path("/proc/stat").read_text().split("\n", 1)[0]
              .split()[1:]]
    return fields[7], sum(fields)


def vm_hwm_kb(pid: int) -> int:
    """``VmHWM`` (peak RSS) of a live process in KiB, 0 if it is gone."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except OSError:
        pass
    return 0

