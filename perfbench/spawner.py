"""Launch benchmark jobs one at a time and report wall time, peak RSS and
the CPU speed seen while each job ran.

Run as a child of ``run.py``, started before ``run.py`` has grown.  Linux
keeps the peak RSS of the image a process replaces at exec, and a spawned
child starts as a copy of its parent, so a child's ``ru_maxrss`` can never
read below its parent's peak.  Starting every job
from this small process keeps that floor at the size of a bare interpreter.

On a shared host the speed of each vCPU drifts on its own, by tens of
percent within seconds and up to twofold within minutes.  So the launcher
pins itself, and with it every job, to one CPU, and forks a speed probe
(``Probe``) pinned to the same CPU.  The probe repeats a fixed chunk of
pure-Python work at a low priority (nice ``PROBE_NICE``) and publishes how
many chunks it has done and the CPU time they took.  While a job runs, the
scheduler interleaves the two every few milliseconds, so the probe's CPU
time per chunk over the job's lifetime measures the speed the job got.
The probe runs no ``corrclass`` code, so no change to the package can
change its work.

Protocol: one JSON request per line on stdin,
``{"argv": [...], "stdout": path, "stderr": path, "timeout": s}``, answered
by one JSON line on stdout,
``{"rc": int|null, "wall_s": float, "maxrss_kb": int, "timed_out": bool,
"t_spawn": float, "chunk_s": float}``, where ``chunk_s`` is the probe's CPU
seconds per chunk while the job ran.  End of input ends the process.
"""

from __future__ import annotations

import json
import mmap
import os
import select
import signal
import struct
import sys
import time

WRITE_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
PROBE_NICE = 10  # about a tenth of the CPU while a job runs
PROBE_ITEMS = 100  # operations per chunk: a chunk takes tens of microseconds
MIN_CHUNKS = 50  # chunks a speed reading must span
STATE = struct.Struct("dd")  # chunks done, their CPU seconds


def _chunk(table: dict, base: int) -> int:
    """A fixed mix of the operations the package leans on: integer bit
    tricks, small frozensets and dict updates."""
    acc = 0
    for i in range(base, base + PROBE_ITEMS):
        mask = (i * 0x9E3779B1) & 0xFFFF
        acc += (mask & -mask).bit_length() + mask.bit_count()
        key = frozenset((mask & 7, mask >> 13))
        table[key] = table.get(key, 0) + 1
    return acc


class Probe:
    """A child process that measures the speed of the CPU it shares."""

    def __init__(self):
        self.shared = mmap.mmap(-1, STATE.size)
        parent = os.getpid()
        self.pid = os.fork()
        if self.pid == 0:
            try:
                self._loop(parent)
            finally:
                os._exit(0)

    def _loop(self, parent: int) -> None:
        os.nice(PROBE_NICE)
        table: dict = {}
        done = 0
        while os.getppid() == parent:  # ends if the launcher dies
            _chunk(table, done * PROBE_ITEMS % 65536)
            done += 1
            STATE.pack_into(self.shared, 0, done, time.process_time())

    def read(self) -> tuple[float, float]:
        return STATE.unpack_from(self.shared, 0)

    def chunk_s(self, since: tuple[float, float]) -> float:
        """CPU seconds per chunk since ``since`` (a ``read()``), waiting
        until the span holds ``MIN_CHUNKS`` chunks."""
        deadline = time.monotonic() + 5.0
        while True:
            done, cpu = self.read()
            if done - since[0] >= MIN_CHUNKS:
                return (cpu - since[1]) / (done - since[0])
            if time.monotonic() > deadline:
                raise RuntimeError("the speed probe has stopped")
            time.sleep(0.001)

    def close(self) -> None:
        os.kill(self.pid, signal.SIGKILL)
        os.waitpid(self.pid, 0)
        self.shared.close()


def run_job(argv: list[str], stdout: str, stderr: str, timeout: float,
            probe: Probe | None = None) -> dict:
    actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
               (os.POSIX_SPAWN_OPEN, 1, stdout, WRITE_FLAGS, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, stderr, WRITE_FLAGS, 0o644)]
    before = probe.read() if probe else None
    t_spawn = time.time()
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    pidfd = os.pidfd_open(pid)
    try:
        ready, _, _ = select.select([pidfd], [], [], timeout)
    finally:
        os.close(pidfd)
    timed_out = not ready
    if timed_out:
        os.kill(pid, signal.SIGKILL)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    return {"rc": None if timed_out else os.waitstatus_to_exitcode(status),
            "wall_s": wall, "maxrss_kb": usage.ru_maxrss,
            "timed_out": timed_out, "t_spawn": t_spawn,
            "chunk_s": probe.chunk_s(before) if probe else None}


def main() -> None:
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    probe = Probe()
    try:
        for line in sys.stdin:
            req = json.loads(line)
            reply = run_job(req["argv"], req["stdout"], req["stderr"],
                            req["timeout"], probe)
            sys.stdout.write(json.dumps(reply) + "\n")
            sys.stdout.flush()
    finally:
        probe.close()


if __name__ == "__main__":
    main()
