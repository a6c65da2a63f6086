"""Benchmark of the implicitnorm engine, block procedures and CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: dp_random, block_pipeline, cli_cold (see README.md).  A run,
set-up included, ends within about ``--seconds``.  The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  Exits 2 without a result when the
program's sources are not beside the benchmark.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
from common import (GROUP, KERNEL_REF_S, OUT, REFERENCE_PROCESS_S, Checks, Meter,  # noqa: E402
                    now, process_scale, run_child, scaled_group)

WORKLOADS = ("dp_random", "block_pipeline", "cli_cold")


def exit_if_failed(res) -> None:
    if res.code != 0:
        sys.stderr.write(res.stderr.decode(errors="replace"))
        sys.exit(1)


# ---------------------------------------------------------------------------
# setup_s
# ---------------------------------------------------------------------------

def measure_setup(workload: str, seed: int, launches: list) -> float:
    """Median over fresh processes of import + the workload's set-up, each
    divided by the process scale around its group (``scaled_group``), in
    seconds at the reference machine's speed."""
    argv = [sys.executable, str(Path(__file__).resolve().parent / "child.py"),
            "setup", workload, str(seed)]
    exit_if_failed(run_child(argv, "setup"))    # writes bytecode caches, untimed
    ratios = []
    for _ in range(common.SETUP_CHILDREN // GROUP):
        for res, ratio in scaled_group([(argv, "setup")] * GROUP, launches):
            exit_if_failed(res)
            ratios.append(ratio)
    return statistics.median(ratios) * process_scale(REFERENCE_PROCESS_S, KERNEL_REF_S)


# ---------------------------------------------------------------------------
# round loop
# ---------------------------------------------------------------------------

class Round:
    """One round: per-operation wall times and ref figures, the traced
    per-layer totals, and for cli_cold the child results by command."""
    __slots__ = ("walls", "refs", "figures", "commands")

    def __init__(self, walls, refs, figures=None, commands=None):
        self.walls = walls
        self.refs = refs
        self.figures = figures
        self.commands = commands


def run_phase(deadline: float, do_round) -> list:
    """Whole rounds until the next one would end after ``deadline`` (a
    ``now()`` time); at least one."""
    rounds, lengths = [], []
    while True:
        t0 = now()
        rounds.append(do_round())
        lengths.append(now() - t0)
        if now() + statistics.median(lengths) > deadline:
            return rounds


def inprocess_round_fn(workload, P, seed, checks, state):
    """``do_round(tracer=None)``: one round; with a tracer, the wrappers
    are installed for the timed operations only and removed before the
    checks."""
    import workloads
    make, run, check = (workloads.MAKERS[workload], workloads.RUNNERS[workload],
                        workloads.CHECKERS[workload])
    memo = P.engine.GLOBAL_MEMO

    def do_round(tracer=None):
        r = state["next_round"]
        state["next_round"] += 1
        memo.clear()
        inputs = make(P, seed, r)
        if tracer:
            import spans
            first, hits0, misses0 = len(tracer.spans), tracer.memo_hits, tracer.memo_misses
            restore = spans.install(P, tracer)
        meter = Meter()
        results = run(P, inputs, meter)
        meter.finish()
        figures = None
        if tracer:
            restore()
            figures = spans.layer_figures(tracer.spans[first:])
            figures["memo_hits"] = tracer.memo_hits - hits0
            figures["memo_misses"] = tracer.memo_misses - misses0
            figures["memo_entries"] = len(memo)
        state["errors"].extend(meter.errors)
        check(P, inputs, results, checks)
        return Round(meter.walls, meter.refs, figures)

    return do_round


def cli_round_fn(seed, checks, traced: bool, state):
    """Rounds of cli_cold, one process at a time, with a reference launch
    after every GROUP processes (``scaled_group``).  Untraced, a round is
    the command list in order.  Traced, every command runs plain and then
    traced (``child.py cli``) within one group, and a round is returned as
    the pair (plain round, traced round), whose ref figures share their
    process scales."""
    import cli_cold

    def as_round(commands, done) -> Round:
        results = {name: res for (name, _), (res, _) in zip(commands, done)}
        cli_cold.check_round(dict(commands), results, checks)
        return Round([res.wall_s for res, _ in done], [ratio for _, ratio in done],
                     commands=results)

    def do_round():
        r = state["next_round"]
        state["next_round"] += 1
        commands = cli_cold.make_round(seed, r)
        plain = [(cli_cold.plain_argv(args), name) for name, args in commands]
        if traced:
            groups = [[job, (cli_cold.traced_argv(str(spans_path(name)), args), name)]
                      for job, (name, args) in zip(plain, commands)]
        else:
            groups = [plain[k:k + GROUP] for k in range(0, len(plain), GROUP)]
        done = [pair for group in groups for pair in scaled_group(group, state["launches"])]
        if not traced:
            return as_round(commands, done)
        pair = as_round(commands, done[0::2]), as_round(commands, done[1::2])
        pair[1].figures = cli_figures(pair[1].commands)
        return pair

    return do_round


def spans_path(name: str) -> Path:
    return OUT / f"spans-cli_cold-{name}.jsonl"


def cli_figures(results: dict) -> dict:
    """Per-layer totals over the spans the traced commands wrote."""
    import spans
    figures, imports = {}, []
    for name, res in results.items():
        if res.code != 0:     # counted as failed; wrote no spans
            continue
        records = [json.loads(line) for line in spans_path(name).read_text().splitlines()]
        tail = records.pop()
        f = spans.layer_figures([(s["id"], s["name"], s["start"], s["end"],
                                  s["parent"], s["attrs"]) for s in records])
        f["memo_hits"], f["memo_misses"] = tail["memo_hits"], tail["memo_misses"]
        f["memo_entries"] = tail["memo_entries"]
        imports.append(tail["import_s"])
        for k, v in f.items():
            figures[k] = max(figures.get(k, 0), v) if k == "bt_max_L" else figures.get(k, 0) + v
    figures["import_s"] = statistics.median(imports) if imports else 0.0
    return figures


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def cycle_ref(rounds: list[Round]) -> float:
    return statistics.median([sum(r.refs) for r in rounds])


def latency_ref(rounds: list[Round]) -> float:
    return statistics.median([x for r in rounds for x in r.refs])


def end_to_end(rounds, setup_s, peak_rss_mb) -> dict:
    return {"setup_s": {"value": setup_s, "unit": "s"},
            "cycle_cost_ref": {"value": cycle_ref(rounds), "unit": "ref"},
            "latency_p50_ref": {"value": latency_ref(rounds), "unit": "ref"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"}}


def per_layer(pairs: list[tuple[Round, Round]]) -> dict:
    import cli_cold
    import spans
    plain = [p for p, _ in pairs]
    traced = [t for _, t in pairs]

    def avg(key):
        return sum(r.figures[key] for r in traced) / len(traced)

    def ratio(a, b):
        return a / b if b else 0.0

    bt_calls, cells, bt_s = avg("bt_calls"), avg("bt_cells"), avg("bt_s")
    hits, misses = avg("memo_hits"), avg("memo_misses")
    max_L = max(r.figures["bt_max_L"] for r in traced)
    overhead = statistics.median([sum(t.refs) - sum(p.refs) for p, t in pairs])
    m = {
        "engine.build_tables.calls": (bt_calls, "count"),
        "engine.build_tables.cells": (cells, "count"),
        "engine.build_tables.s": (bt_s, "s"),
        "engine.build_tables.ns_per_cell": (ratio(bt_s * 1e9, cells), "ns"),
        "engine.build_tables.table_mb": (spans.dp_table_mb(int(max_L)) if max_L else 0.0, "MB"),
        "engine.norm.self_s": (avg("norm_self_s"), "s"),
        "engine.brute_norm.s": (avg("brute_s"), "s"),
        "engine.const.calls": (avg("const_calls"), "count"),
        "engine.const.fill_s": (avg("const_s"), "s"),
        "engine.memo.hits": (hits, "count"),
        "engine.memo.misses": (misses, "count"),
        "engine.memo.hit_ratio": (ratio(hits, hits + misses), "ratio"),
        "engine.memo.entries": (avg("memo_entries"), "count"),
        "blocks.greedy_split.s": (avg("split_s"), "s"),
        "blocks.greedy_split.dp_calls_per_split": (ratio(avg("split_bt"), avg("splits")), "count"),
        "blocks.greedy_split.cells_per_split": (ratio(avg("split_cells"), avg("splits")), "count"),
        "blocks.build_projection.dp_calls_per_block":
            (ratio(avg("proj_bt"), avg("proj_blocks")), "count"),
        "blocks.projection_norm_estimate.s": (avg("estimate_s"), "s"),
        "blocks.stabilize_subsequence.s": (avg("stabilize_s"), "s"),
        "vectors.functional.s": (avg("functional_s"), "s"),
        "audits.audit_all.s": (avg("audit_all_s"), "s"),
        "audits.tower_product.s": (avg("tower_s"), "s"),
        "cli.import_s": (avg("import_s") if "import_s" in traced[0].figures else 0.0, "s"),
    }
    for index, name in enumerate(cli_cold.COMMAND_NAMES):
        value = 0.0
        if plain[0].commands is not None:
            value = statistics.median([r.refs[index] for r in plain])
        m[f"cli.command.{name}_ref"] = (value, "ref")
    m["cli.child_peak_rss_mb"] = (
        max(res.peak_rss_mb for r in plain for res in r.commands.values())
        if plain[0].commands is not None else 0.0, "MB")
    m["trace.overhead_ref"] = (overhead, "ref")
    m["trace.overhead_share"] = (ratio(overhead, cycle_ref(plain)), "ratio")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = now() + args.seconds
    common.require_checkout()
    OUT.mkdir(exist_ok=True)

    checks = Checks()
    state = {"next_round": 0, "errors": [], "launches": []}
    cli = args.workload == "cli_cold"
    if cli:
        do_round = cli_round_fn(args.seed, checks, args.trace == 1, state)
    else:
        P = common.import_program()
        do_round = inprocess_round_fn(args.workload, P, args.seed, checks, state)

    if args.trace == 0:
        setup_s = measure_setup(args.workload, args.seed, state["launches"])
        rounds = run_phase(deadline, do_round)
        what = f"{len(rounds)} rounds"
    else:
        # Plain and traced rounds alternate, so that both sides of the
        # tracing overhead see the same slow and fast spells.
        if cli:
            do_pair = do_round
        else:
            import spans
            tracer = spans.Tracer()

            def do_pair():
                return do_round(), do_round(tracer)
        pairs = run_phase(deadline, do_pair)
        if not cli:
            tracer.write(OUT / f"spans-{args.workload}-{args.seed}.jsonl")
        rounds = [r for pair in pairs for r in pair]
        what = f"{len(pairs)} pairs of plain and traced rounds"

    if cli:
        children = [res for r in rounds for res in r.commands.values()]
        peak = max(res.peak_rss_mb for res in children)
        failed = sum(res.code != 0 for res in children)
    else:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        failed = len(state["errors"])
    metrics = end_to_end(rounds, setup_s, peak) if args.trace == 0 else per_layer(pairs)
    attempted = sum(len(r.walls) for r in rounds)
    launches = state["launches"]
    for msg in (checks.failures + state["errors"])[:20]:
        sys.stderr.write(f"bench: {msg}\n")
    print(f"# {args.workload} seed={args.seed}: {what}, {checks.count} checks" + (
        f", {len(launches)} reference launches, median process "
        f"{statistics.median([p for p, _ in launches]):.4f} s and kernel "
        f"{statistics.median([k for _, k in launches]):.5f} s" if launches else ""))
    print(json.dumps({"correct": checks.correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
