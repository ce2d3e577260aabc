"""Run bookkeeping shared by every workload.

* :class:`Children` starts each program process in its own session,
  reaps it with its resource usage, and terminates it (SIGTERM, then
  SIGKILL after a grace period) on every exit path.
* :class:`Run` owns one run's scratch directory inside the checkout,
  counts attempted and failed operations, collects correctness
  errors and prints the one-line JSON result.
* :func:`spread` is the run-to-run spread the steadiness tool
  reports, from ``statistics.quantiles(values, n=4)``.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from pathlib import Path

import peak

HERE = Path(__file__).resolve().parent
#: the checkout root: the benchmark lives in ``<root>/perfbench``
ROOT = HERE.parent
SRC = ROOT / "src"
#: run scratch space and traced-run output, inside the checkout
OUT = ROOT / ".perfbench"

#: grace period between SIGTERM and SIGKILL, seconds
TERM_GRACE = 10.0


#: ``python3 -m repro ARGS``, with the peak-RSS recorder installed
_RUN_PROGRAM = (
    "import runpy, sys; sys.path.append(sys.argv.pop(1)); "
    "import peak; peak.install(); "
    "runpy.run_module('repro', run_name='__main__', alter_sys=True)"
)


def program_argv(
    args: Sequence[str], trace_out: Path | None = None
) -> list[str]:
    """Command line of a program child running ``repro ARGS``, through
    the traced wrapper when ``trace_out`` is given."""
    if trace_out is None:
        return [sys.executable, "-c", _RUN_PROGRAM, str(HERE), *args]
    child = HERE / "traced_child.py"
    return [sys.executable, str(child), str(trace_out), "--", *args]


def program_env(tmp: Path, peak_file: Path | None = None) -> dict[str, str]:
    """Environment for a program child: the source tree on the path,
    temporary files kept inside the run's scratch directory, and the
    file its peak RSS goes to (see :mod:`peak`)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(tmp)
    if peak_file is not None:
        env[peak.ENV] = str(peak_file)
    return env


def peak_rss_mb(peak_file: Path) -> float:
    """The peak RSS a program child recorded at exit, in MB."""
    return int(peak_file.read_text(encoding="ascii")) / 1024.0


def vmhwm_mb(pid: int) -> float:
    """The peak RSS of a running child's own image, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


@dataclass
class Reaped:
    """Exit status and resource usage of one reaped child."""

    returncode: int
    cpu_seconds: float


class Children:
    """Every process the benchmark starts, until it is reaped.

    Each child is the leader of a new session, so terminating its
    process group also reaches anything it started.
    """

    def __init__(self) -> None:
        self._live: dict[int, subprocess.Popen[bytes]] = {}
        self._lock = threading.Lock()
        self.groups: list[int] = []

    def spawn(
        self,
        argv: Sequence[str],
        *,
        env: dict[str, str],
        stdout: Path,
        stderr: Path,
    ) -> subprocess.Popen[bytes]:
        with open(stdout, "wb") as out, open(stderr, "wb") as err:
            proc = subprocess.Popen(
                list(argv),
                stdin=subprocess.DEVNULL,
                stdout=out,
                stderr=err,
                env=env,
                cwd=ROOT,
                start_new_session=True,
            )
        with self._lock:
            self._live[proc.pid] = proc
            self.groups.append(proc.pid)
        return proc

    def _reap(
        self, proc: subprocess.Popen[bytes], options: int
    ) -> Reaped | None:
        pid, status, usage = os.wait4(proc.pid, options)
        if pid == 0:
            return None
        proc.returncode = os.waitstatus_to_exitcode(status)
        with self._lock:
            self._live.pop(proc.pid, None)
        return Reaped(proc.returncode, usage.ru_utime + usage.ru_stime)

    def wait(self, proc: subprocess.Popen[bytes], timeout: float) -> Reaped:
        """Block until the child exits; kill its group past
        ``timeout`` seconds."""
        watchdog = threading.Timer(timeout, self._kill_group, (proc.pid,))
        watchdog.start()
        try:
            reaped = self._reap(proc, 0)
        finally:
            watchdog.cancel()
        assert reaped is not None
        self._kill_group(proc.pid)  # stragglers of the session
        return reaped

    def terminate(self, proc: subprocess.Popen[bytes]) -> Reaped:
        """SIGTERM the child's group, SIGKILL it after the grace
        period, and reap the child."""
        self._signal_group(proc.pid, signal.SIGTERM)
        deadline = time.monotonic() + TERM_GRACE
        while time.monotonic() < deadline:
            reaped = self._reap(proc, os.WNOHANG)
            if reaped is not None:
                self._kill_group(proc.pid)
                return reaped
            time.sleep(0.02)
        self._kill_group(proc.pid)
        reaped = self._reap(proc, 0)
        assert reaped is not None
        return reaped

    def close(self) -> None:
        """Terminate and reap every child still running."""
        with self._lock:
            live = list(self._live.values())
        for proc in live:
            try:
                self.terminate(proc)
            except ChildProcessError:
                pass

    def leftovers(self) -> list[int]:
        """Process groups started here that still have a member."""
        alive = []
        for group in self.groups:
            try:
                os.killpg(group, 0)
            except ProcessLookupError:
                continue
            except PermissionError:
                pass
            alive.append(group)
        return alive

    @staticmethod
    def _signal_group(group: int, signum: int) -> None:
        try:
            os.killpg(group, signum)
        except ProcessLookupError:
            pass

    def _kill_group(self, group: int) -> None:
        self._signal_group(group, signal.SIGKILL)


class Run:
    """One benchmark run: scratch space, counts, errors, result."""

    def __init__(
        self, workload: str, seed: int, seconds: float, trace: bool
    ) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.children = Children()
        OUT.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
        #: TMPDIR of the program, in-process and in children
        self.tmp = self.dir / "tmp"
        self.tmp.mkdir()
        self._saved_tempdir = tempfile.tempdir
        tempfile.tempdir = str(self.tmp)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.metrics: dict[str, tuple[float, str]] = {}

    def check(self, condition: bool, message: str) -> bool:
        if not condition:
            self.errors.append(message)
        return condition

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def note(self, text: str) -> None:
        print(f"[{self.workload}] {text}", file=sys.stderr, flush=True)

    def trace_path(self) -> Path:
        return OUT / "traces" / f"{self.workload}-seed{self.seed}.json"

    def workdir(self, name: str) -> Path:
        path = self.dir / name
        path.mkdir()
        return path

    def finish(self) -> None:
        """Stop every child, then check that nothing is left: no
        process group and no temporary file of the program. A
        leftover counts as a failed operation."""
        self.children.close()
        left = self.children.leftovers()
        if left:
            self.failed += 1
            self.note(f"FAILED: processes left running: {left}")
        strays = sorted(p.name for p in self.tmp.iterdir())
        if strays:
            self.failed += 1
            self.note(f"FAILED: temporary files left behind: {strays}")
        tempfile.tempdir = self._saved_tempdir
        shutil.rmtree(self.dir, ignore_errors=True)
        if self.dir.exists():
            self.failed += 1
            self.note(f"FAILED: could not remove {self.dir}")

    def result(self) -> dict[str, object]:
        return {
            "correct": not self.errors,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in self.metrics.items()
            },
        }

    def print_result(self) -> None:
        for error in self.errors:
            self.note(f"CHECK FAILED: {error}")
        print(json.dumps(self.result()), flush=True)


def spread(values: Sequence[float]) -> tuple[float, float, float, float]:
    """Median, first and third quartile, and (q3 - q1) / median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def timed_rounds(seconds: float, round_fn: Callable[[], None]) -> float:
    """Run whole rounds while the next one is expected to fit in
    ``seconds`` (always at least one); returns the elapsed time."""
    started = time.perf_counter()
    rounds = 0
    while True:
        round_fn()
        rounds += 1
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / rounds > seconds:
            return elapsed


def median_setup(
    repeats: int,
    setup: Callable[[], object],
    teardown: Callable[[object], None],
) -> tuple[float, object]:
    """Set up ``repeats`` times, tearing down and releasing all but the
    last state outside the timed part, so that no earlier state is
    alive (or left for the collector) during a later set-up. Returns
    the median set-up time and the kept state."""
    times = []
    state: object = None
    for index in range(repeats):
        if index:
            teardown(state)
            state = None
        gc.collect()
        started = time.perf_counter()
        state = setup()
        times.append(time.perf_counter() - started)
    return statistics.median(times), state


def self_peak_rss_mb() -> float:
    """High-water RSS of the benchmark process itself, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def import_seconds(run: Run, repeats: int = 3) -> float:
    """Median time of ``import repro`` in a fresh interpreter."""
    code = (
        "import time; started = time.perf_counter(); import repro; "
        "print(time.perf_counter() - started)"
    )
    times = []
    for index in range(repeats):
        out = run.dir / f"import-{index}.out"
        err = run.dir / f"import-{index}.err"
        proc = run.children.spawn(
            [sys.executable, "-c", code],
            env=program_env(run.tmp),
            stdout=out,
            stderr=err,
        )
        reaped = run.children.wait(proc, 60.0)
        if reaped.returncode != 0:
            raise RuntimeError(f"import repro failed: {err.read_text()}")
        times.append(float(out.read_text()))
        out.unlink()
        err.unlink()
    return statistics.median(times)
