"""Alternating parent/change pairs of the benchmark, summarised as a
BENCH_<n>.json file.

    python3 tools/bench_pairs.py --parent REV --change REV --out BENCH_n.json \
        --workdir DIR

The command, the run length and the workloads are BENCHMARK.json's.
Each side runs from its own ``git archive`` copy of its revision, made
under DIR.  Pair s (s = 1..10) runs every workload with ``--seed s`` on
both sides, the parent first on odd seeds and the change first on even
ones.  The output holds the last stdout line of every run and, per
metric, each side's quartiles (inclusive method), the change's median
over the parent's minus one, and the number of pairs the change won
(lower is better for every end-to-end metric; ties count for neither
side).  Each workload also counts each side's failed operations and its
runs whose outputs were wrong (``"correct": false``); the script exits
1 after writing the file when either side has such a run, since a
speed-up from wrong outputs counts for nothing.  A run that exits
nonzero stops the script with exit 1, after its side, workload, seed,
exit code and last stderr lines go to stderr.  An interrupted or
stopped run resumes from the runs already in the output file, which
must name the same revisions, command and machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib.metadata import version
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10
SIDES = ("parent", "change")
STDERR_LINES = 20       # of a failed run, written to stderr


def checkout(rev: str, dest: Path) -> Path:
    if not dest.exists():
        dest.mkdir(parents=True)
        archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                                 capture_output=True)
        subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, check=True)
    return dest


def run_once(tree: Path, command: list[str], workload: str, seed: int) -> dict:
    out = subprocess.run(command + ["--workload", workload, "--seed", str(seed)],
                         cwd=tree, check=True, capture_output=True, text=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def summarise(runs: dict) -> dict:
    seeds = sorted(set(runs["parent"]) & set(runs["change"]), key=int)
    names = sorted(runs["parent"][seeds[0]]["metrics"])
    summary = {}
    for name in names:
        vals = {side: [runs[side][s]["metrics"][name]["value"] for s in seeds]
                for side in SIDES}
        q = {side: statistics.quantiles(vals[side], n=4, method="inclusive")
             for side in SIDES}
        summary[name] = {
            "change_better_pairs": sum(c < p for p, c in zip(vals["parent"], vals["change"])),
            "change_q1_median_q3": q["change"],
            "change_vs_parent": q["change"][1] / q["parent"][1] - 1.0,
            "pairs": len(seeds),
            "parent_q1_median_q3": q["parent"],
        }
    return summary


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--workdir", required=True, type=Path)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    command = spec["command"] + ["--seconds", str(spec["run_seconds"])]

    revs = {side: subprocess.run(["git", "rev-parse", "--verify", getattr(args, side)],
                                 cwd=ROOT, check=True, capture_output=True,
                                 text=True).stdout.strip()
            for side in SIDES}
    head = {
        "change": revs["change"],
        "command": " ".join(command + ["--workload", "W", "--seed", "S"]),
        "design": (f"{PAIRS} pairs per workload, seeds 1-{PAIRS}, parent first on odd "
                   "seeds and change first on even seeds; each side runs from its own "
                   "copy of the tree; 'runs' holds the last stdout line of every run, "
                   "'summary' each metric's quartiles and the pairs the change won"),
        "machine": f"{os.cpu_count()}-core {platform.system()} {platform.machine()}, "
                   f"CPython {platform.python_version()}, numpy {version('numpy')}",
        "parent": revs["parent"],
    }
    doc = json.loads(args.out.read_text()) if args.out.exists() else dict(head, workloads={})
    stale = sorted(k for k in head if doc.get(k) != head[k])
    if stale:
        sys.stderr.write(f"{args.out}: {', '.join(stale)} differ from this run; "
                         "move the file away to start afresh\n")
        return 1
    trees = {side: checkout(revs[side], args.workdir / revs[side]) for side in SIDES}

    for workload in (w["name"] for w in spec["workloads"]):
        entry = doc["workloads"].setdefault(
            workload, {"runs": {side: {} for side in SIDES}})
        for seed in range(1, PAIRS + 1):
            order = SIDES if seed % 2 else SIDES[::-1]
            for side in order:
                if str(seed) not in entry["runs"][side]:
                    try:
                        run = run_once(trees[side], command, workload, seed)
                    except subprocess.CalledProcessError as exc:
                        tail = exc.stderr.splitlines()[-STDERR_LINES:]
                        sys.stderr.write(
                            f"{side} run of {workload} at seed {seed} exited "
                            f"{exc.returncode}; last lines of its stderr:\n"
                            + "".join(f"  {line}\n" for line in tail))
                        return 1
                    entry["runs"][side][str(seed)] = run
                    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
            print(workload, seed, flush=True)
        runs = entry["runs"]
        entry["failed_operations"] = {side: sum(r["failed"] for r in runs[side].values())
                                      for side in SIDES}
        entry["incorrect_runs"] = {side: sum(not r["correct"] for r in runs[side].values())
                                   for side in SIDES}
        entry["pairs"] = len(set(runs["parent"]) & set(runs["change"]))
        entry["summary"] = summarise(runs)
        args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    wrong = [f"{workload} ({side}: {n})" for workload, entry in doc["workloads"].items()
             for side, n in entry["incorrect_runs"].items() if n]
    if wrong:
        sys.stderr.write(f"{args.out}: runs with wrong outputs: {', '.join(wrong)}\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
