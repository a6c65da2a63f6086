"""Timers, calibration, child processes and checks shared by the workloads.

Nothing here imports ``implicitnorm``: the set-up children and the
untraced parent must be able to time that import themselves.
"""

from __future__ import annotations

import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

# Calibration, timed inside the same run.  In-process operations are
# divided by ``calibration_kernel()`` (CPU-bound work in the shape of the
# DP loops).  Whole processes (set-up children, CLI commands) mix
# process start-up with compute, and on a shared machine the two drift
# apart: start-up tracks REFERENCE_PROCESS (a fresh interpreter importing
# numpy), compute tracks the kernel.  Processes are therefore divided by
# the geometric mean of the two (``process_scale``).
REFERENCE_PROCESS = [sys.executable, "-c", "import numpy"]
# Median kernel and reference-process wall times on the reference machine
# (2-core KVM guest, Python 3.11.7, numpy 2.4): ``setup_s`` is a ratio to
# process_scale times process_scale(KERNEL_REF_S, REFERENCE_PROCESS_S),
# i.e. seconds at that machine's speed.
KERNEL_REF_S = 0.037
REFERENCE_PROCESS_S = 0.25

# Fresh processes per reference launch (set-up children, CLI commands).
GROUP = 2
SETUP_CHILDREN = 10
# Work between two calibration samples inside a round, in seconds.
CAL_EVERY = 0.25


def now() -> float:
    return time.perf_counter()


def calibration_kernel() -> float:
    """Fixed CPU-bound work in the shape of the program's hot loops:
    interpreted loop iterations around small numpy reductions, plus plain
    bytecode arithmetic.  It calls nothing from the program, so a change
    to the program never moves it."""
    v = np.linspace(0.5, 1.5, 64)
    acc = 0.0
    for _ in range(8):
        for i in range(1, 64):
            for j in range(i, 64, 4):
                acc += float(np.max(v[:i] + v[j - i:j]))
    k = 0
    for i in range(120000):
        k = (k * 31 + i) % 1000003
    return acc + k


def reference_launch() -> tuple[float, float]:
    """(wall time of one REFERENCE_PROCESS, spawn to reap; a kernel
    sample taken right after it)."""
    return run_child(REFERENCE_PROCESS, "reference").wall_s, calibrate(1)


def process_scale(process_s: float, kernel_s: float) -> float:
    return math.sqrt(process_s * kernel_s)


def calibrate(repeats: int = 3) -> float:
    """Median wall time of ``repeats`` kernel calls, in seconds."""
    times = []
    for _ in range(repeats):
        t0 = now()
        calibration_kernel()
        times.append(now() - t0)
    return statistics.median(times)


class Meter:
    """Times a round's operations and keeps the calibration current.

    A calibration sample (one kernel call) is taken at the start, after
    any operation that ends at least CAL_EVERY seconds after the previous
    sample, and at ``finish()``.  Each operation's ``ref`` figure is its
    wall time over the mean of the two samples around it, so speed
    changes of the shared machine within a round divide out.  The
    samples themselves are not part of any operation's time."""

    def __init__(self):
        self.walls: list[float] = []
        self.refs: list[float] = []
        self.errors: list[str] = []
        self._pending: list[float] = []
        self._cal = calibrate(1)
        self._cal_at = now()

    def op(self, fn):
        t0 = now()
        try:
            out = fn()
        except Exception as exc:  # a failed operation; the round goes on
            out = None
            self.errors.append(repr(exc))
        t1 = now()
        self.walls.append(t1 - t0)
        self._pending.append(t1 - t0)
        if t1 - self._cal_at >= CAL_EVERY:
            self._sample()
        return out

    def _sample(self) -> None:
        cal = calibrate(1)
        scale = (self._cal + cal) / 2
        self.refs.extend(w / scale for w in self._pending)
        self._pending.clear()
        self._cal, self._cal_at = cal, now()

    def finish(self) -> None:
        if self._pending:
            self._sample()


def close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def require_checkout() -> None:
    """Refuse to run without the program's sources next to the benchmark."""
    if not (SRC / "implicitnorm" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no program sources under {SRC}\n")
        sys.exit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def import_program():
    """Import the package from this checkout, never an installed copy."""
    require_checkout()
    import implicitnorm
    if Path(implicitnorm.__file__).resolve().parent != SRC / "implicitnorm":
        sys.stderr.write(f"bench: imported {implicitnorm.__file__}, "
                         f"not the checkout's copy\n")
        sys.exit(2)
    return implicitnorm


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # a user config would change CLI behaviour between machines
    env.pop("IMPLICITNORM_CONFIG", None)
    return env


class ChildResult:
    __slots__ = ("argv", "code", "wall_s", "peak_rss_mb", "stdout", "stderr")

    def __init__(self, argv, code, wall_s, peak_rss_mb, stdout, stderr):
        self.argv = argv
        self.code = code
        self.wall_s = wall_s
        self.peak_rss_mb = peak_rss_mb
        self.stdout = stdout
        self.stderr = stderr


def run_child(argv: list[str], tag: str) -> ChildResult:
    """Run one process to completion; wall time from spawn to reap and
    the peak RSS of that child alone, from its own rusage (``wait4``)."""
    OUT.mkdir(exist_ok=True)
    out_path = OUT / f"{tag}.{os.getpid()}.stdout"
    err_path = OUT / f"{tag}.{os.getpid()}.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = now()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, stdin=subprocess.DEVNULL,
                                env=child_env(), cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = now() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    stdout = out_path.read_bytes()
    stderr = err_path.read_bytes()
    out_path.unlink()
    err_path.unlink()
    # Linux reports ru_maxrss in KiB
    return ChildResult(argv, proc.returncode, wall, usage.ru_maxrss / 1024.0,
                       stdout, stderr)


def scaled_group(jobs, launches: list) -> list[tuple[ChildResult, float]]:
    """Run the ``(argv, tag)`` jobs one at a time, then one reference
    launch, appended to ``launches``.  Each job comes back with its wall
    time over the process scale of the launches right before and after
    the group (the first group of a run is preceded by a launch of its
    own)."""
    if not launches:
        launches.append(reference_launch())
    results = [run_child(argv, tag) for argv, tag in jobs]
    launches.append(reference_launch())
    (p0, k0), (p1, k1) = launches[-2:]
    scale = process_scale((p0 + p1) / 2, (k0 + k1) / 2)
    return [(res, res.wall_s / scale) for res in results]


class Checks:
    """Collects failed correctness checks; the run is correct iff none."""

    def __init__(self):
        self.failures: list[str] = []
        self.count = 0

    def expect(self, ok: bool, what: str) -> None:
        self.count += 1
        if not ok:
            self.failures.append(what)

    @property
    def correct(self) -> bool:
        return not self.failures


