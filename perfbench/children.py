"""Run the program's command line as child processes and time them.

Every timed operation is one ``python -m repro ...`` process, started
from the checkout's own sources.  The wall time runs from just before
the process is spawned to the moment it has been reaped; the peak RSS
comes from the reaped child's resource usage, so each measurement
covers exactly one process.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass

from tracing import clock

HERE = os.path.dirname(os.path.abspath(__file__))
#: seconds one CLI child may take before it is killed and counted failed
CHILD_TIMEOUT_S = 60.0


@dataclass
class ChildResult:
    code: int
    stdout: str
    stderr: str
    start: float
    end: float
    maxrss_kb: int
    timed_out: bool = False
    trace: dict = None

    @property
    def wall(self) -> float:
        return self.end - self.start


class Runner:
    """Spawns CLI children with the checkout's ``src`` on the path.

    Args:
        root: the checkout (holds ``src/repro``).
        work: scratch directory inside the checkout for dumps, child
            output and trace files.
    """

    def __init__(self, root: str, work: str):
        self.root = root
        self.work = work
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(root, "src")
        self.env = env

    def command(self, args: list, traced: bool) -> list:
        if traced:
            return [sys.executable, os.path.join(HERE, "traced_cli.py")] + args
        return [sys.executable, "-m", "repro"] + args

    def spawn(self, args: list, traced: bool = False, trace_path: str = None,
              stdout=None, stderr=None) -> subprocess.Popen:
        env = self.env
        if traced:
            env = dict(env, PERFBENCH_TRACE_OUT=trace_path)
        return subprocess.Popen(self.command(args, traced), cwd=self.work,
                                env=env, stdout=stdout, stderr=stderr)

    def run(self, args: list, traced: bool = False) -> ChildResult:
        """Run one command to completion; never raises on failure."""
        trace_path = None
        if traced:
            fd, trace_path = tempfile.mkstemp(suffix=".json", dir=self.work)
            os.close(fd)
        with tempfile.TemporaryFile(dir=self.work) as out, \
                tempfile.TemporaryFile(dir=self.work) as err:
            start = clock()
            proc = self.spawn(args, traced, trace_path, stdout=out, stderr=err)
            code, rss, timed_out = reap(proc, CHILD_TIMEOUT_S)
            end = clock()
            out.seek(0)
            err.seek(0)
            result = ChildResult(code, out.read().decode(errors="replace"),
                                 err.read().decode(errors="replace"), start,
                                 end, rss, timed_out)
        if traced:
            # left for the work directory's removal at the end: unlinking
            # here can take tens of milliseconds on some filesystems
            result.trace = _read_trace(trace_path)
        return result


def reap(proc: subprocess.Popen, timeout_s: float):
    """Wait for ``proc``; returns ``(exit code, peak RSS kB, timed out)``.

    ``os.wait4`` reports the resource usage of exactly this child.  A
    timer kills a child that outlives ``timeout_s``.
    """
    expired = threading.Event()

    def kill():
        expired.set()
        try:
            proc.kill()
        except OSError:
            pass

    timer = threading.Timer(timeout_s, kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss, expired.is_set()


def stop(proc: subprocess.Popen, timeout_s: float = 30.0):
    """SIGTERM a daemon child and reap it (graceful drain)."""
    if proc.returncode is None:
        try:
            proc.send_signal(signal.SIGTERM)
        except OSError:
            pass
        return reap(proc, timeout_s)
    return proc.returncode, 0, False


def _read_trace(path: str):
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return None
