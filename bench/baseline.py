"""Reference figures for the baseline rows of ROADMAP.md, with the
benchmark's timers.

    python3 bench/baseline.py

Each row is timed once (``audit_all`` 20 times, median) in this process
or, for the fresh-process rows, in a child, and printed in seconds and
in ``ref`` (the time over the calibration kernel measured right around
it).  About three minutes on a 2-core machine.
"""

from __future__ import annotations

import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
from common import calibrate, now, run_child  # noqa: E402


def timed(label: str, fn, repeats: int = 1) -> None:
    before = calibrate()
    walls = []
    for _ in range(repeats):
        t0 = now()
        fn()
        walls.append(now() - t0)
    wall = statistics.median(walls)
    ref = wall / ((before + calibrate()) / 2)
    print(f"{label:58s} {wall:10.4f} s {ref:10.2f} ref", flush=True)


def main() -> int:
    common.require_checkout()
    import numpy as np

    py = sys.executable
    res = run_child([py, "-c", "import implicitnorm"], "import")   # bytecode caches
    timed("import implicitnorm (fresh process)",
          lambda: run_child([py, "-c", "import implicitnorm"], "import"))
    P = common.import_program()
    engine, audits = P.engine, P.audits
    rng = np.random.default_rng(0)
    for L in (16, 64, 128, 256):
        x = P.FinVector.from_dense([float(v) for v in rng.uniform(0.05, 1.0, L)])
        timed(f"build_tables, random L={L}", lambda: engine.build_tables(x))
    for L in (1000, 2000, 4000):
        tab = engine._ConstTables(engine.F_SYSTEM)
        timed(f"_ConstTables.ensure to L={L} (F)", lambda: tab.ensure(L))
    for workers in (1, 2):
        audits.audit_all(3.0, workers=workers)
        timed(f"audit_all(3.0), {workers} worker(s), median of 20",
              lambda: audits.audit_all(3.0, workers=workers), repeats=20)
    argv = [py, "-m", "implicitnorm.cli", "audit", "lemma-duo", "--eps", "1", "--l", "2",
            "--m", "8", "--nlen", "127"]
    timed("CLI audit lemma-duo --eps 1 --l 2 --m 8 --nlen 127",
          lambda: run_child(argv, "lemma-duo"))
    return 0 if res.code == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
