"""In-process workloads: ``dp_random`` and ``block_pipeline``.

A run repeats whole rounds.  Round ``r`` of seed ``s`` draws its inputs
from ``numpy.random.default_rng([s, r])``, so no input repeats within a
process and every round has the same make-up (the same operations on
the same support sizes; only the coefficients differ).  The memo is
emptied before each round, outside the timed region, so its size does
not grow with the number of rounds a machine manages to run.

Operations call the program through its module attributes
(``engine.norm``, ``blocks.greedy_split``, ...), which is what lets the
traced run wrap them.  Checks run after the round, untimed and with
tracing paused, and evaluate with ``memo=None`` so that nothing they
compare against comes from the memo.
"""

from __future__ import annotations

import math

import numpy as np

from common import Checks, close

REL = 1e-12

# dp_random make-up: (operation, support size, system) per round, in run
# order.  Ten of the 25 timed operations share support 12, so the median
# operation (latency_p50_ref) always falls inside that group rather than
# in a gap between two support sizes; they are spread between the larger
# operations so that they fall into several calibration windows.
DP_OPS = (
    [("oracle_pair", 5, "f"), ("norm", 12, "f"), ("norm_value", 12, "g"), ("norm", 16, "f"),
     ("oracle_pair", 6, "g"), ("norm", 12, "g"), ("norm_value", 12, "f"),
     ("norm_value", 16, "g"), ("norm", 32, "g"), ("norm", 48, "f"),
     ("norm", 12, "f"), ("norm_value", 12, "g"), ("norm_value", 64, "g"),
     ("oracle_pair", 7, "f"), ("norm", 12, "g"), ("norm_value", 12, "f"),
     ("norm_value", 96, "g"),
     ("oracle_pair", 8, "g"), ("norm", 12, "f"), ("norm_value", 12, "g"), ("norm", 128, "f")]
)

# block_pipeline make-up
SPLIT_PLAN = ((1.0, (10, 12, 14, 17)), (0.5, (23, 24, 25, 27, 28, 30)),
              (0.25, (58, 61, 64)))
PROJ_BLOCK_SIZES = (4, 5, 6, 7)
PROJ_SAMPLES = 24
STAB_BLOCKS, STAB_LEN, STAB_SCHEDULE = 6, 24, (1.0, 0.5)
# near-flat coefficients 1 +- FLAT_JITTER; with this jitter every length
# in SPLIT_PLAN gives sup <= eps/2 after normalisation (the norm is
# monotone in |x_i|, so N(x) >= (1 - jitter) * n / log2(n + 1))
FLAT_JITTER = 0.1


def round_rng(seed: int, r: int) -> np.random.Generator:
    return np.random.default_rng([seed, r])


def random_vector(FinVector, rng, L: int, start: int = 1):
    """Signed coefficients in [0.05, 1) on a support with gaps of 1..3."""
    idx = start + np.cumsum(rng.integers(1, 4, L)) - 1
    vals = rng.uniform(0.05, 1.0, L) * rng.choice((-1.0, 1.0), L)
    return FinVector(zip(map(int, idx), map(float, vals)))


def near_flat(FinVector, rng, n: int, start: int = 1):
    vals = 1.0 + rng.uniform(-FLAT_JITTER, FLAT_JITTER, n)
    return FinVector.from_dense([float(v) for v in vals], start=start)


# ---------------------------------------------------------------------------
# input generation (part of setup_s)
# ---------------------------------------------------------------------------

def make_dp_round(P, seed: int, r: int) -> dict:
    rng = round_rng(seed, r)
    FinVector = P.FinVector
    ops = [(kind, system, random_vector(FinVector, rng, L)) for kind, L, system in DP_OPS]
    return {"ops": ops, "flat_len": int(rng.integers(17, 49))}


def make_block_round(P, seed: int, r: int) -> dict:
    rng = round_rng(seed, r)
    FinVector = P.FinVector
    splits = [(eps, near_flat(FinVector, rng, n)) for eps, lengths in SPLIT_PLAN
              for n in lengths]
    proj_raw, start = [], 1
    for L in PROJ_BLOCK_SIZES:
        b = random_vector(FinVector, rng, L, start)
        proj_raw.append(b)
        start = b.max_support() + 1
    samples = []
    for _ in range(PROJ_SAMPLES):
        k = int(rng.integers(1, 9))
        idx = np.sort(rng.choice(np.arange(1, start), size=k, replace=False))
        samples.append(FinVector(zip(map(int, idx), map(float, rng.uniform(-1.0, 1.0, k)))))
    stab_raw = [near_flat(FinVector, rng, STAB_LEN, 1 + k * STAB_LEN)
                for k in range(STAB_BLOCKS)]
    return {"splits": splits, "proj_raw": proj_raw, "samples": samples,
            "stab_raw": stab_raw}


MAKERS = {"dp_random": make_dp_round, "block_pipeline": make_block_round}


# ---------------------------------------------------------------------------
# timed operations
# ---------------------------------------------------------------------------

def run_dp_round(P, inputs: dict, meter) -> list:
    engine = P.engine
    results = []
    for kind, s, x in inputs["ops"]:
        system = engine.get_system(s)
        if kind == "norm":
            res = meter.op(lambda: engine.norm(x, system))
            results.append((kind, system, x, res))
        elif kind == "norm_value":
            res = meter.op(lambda: engine.norm_value(x, system))
            results.append((kind, system, x, res))
        else:
            dp = meter.op(lambda: engine.norm_value(x, system))
            brute = meter.op(lambda: engine.brute_norm(x, system))
            results.append((kind, system, x, (dp, brute)))
    return results


def _normalised(engine, x):
    return x.scale(1.0 / engine.norm_value(x))


def run_block_round(P, inputs: dict, meter) -> dict:
    engine, blocks = P.engine, P.blocks
    out = {"splits": []}
    for eps, x in inputs["splits"]:
        def split():
            y = _normalised(engine, x)
            return y, blocks.greedy_split(y, eps)
        out["splits"].append((eps, meter.op(split)))

    def project():
        ys = blocks.BlockSequence(_normalised(engine, b) for b in inputs["proj_raw"])
        return ys, blocks.build_projection(ys)
    built = meter.op(project)
    out["projection"] = built
    if built is not None:
        out["estimate"] = meter.op(
            lambda: blocks.projection_norm_estimate(built[1], inputs["samples"]))

    def stabilize():
        fam = blocks.BlockSequence(_normalised(engine, b) for b in inputs["stab_raw"])
        return fam, blocks.stabilize_subsequence(fam, STAB_SCHEDULE)
    out["stabilize"] = meter.op(stabilize)
    return out


RUNNERS = {"dp_random": run_dp_round, "block_pipeline": run_block_round}


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def _check_bounds(checks: Checks, x, value: float, what: str) -> None:
    checks.expect(x.linf() <= value <= x.l1() * (1 + REL),
                  f"{what}: sup <= N <= sum fails ({x.linf()}, {value}, {x.l1()})")


def check_dp_round(P, inputs: dict, results: list, checks: Checks) -> None:
    engine = P.engine
    for kind, system, x, res in results:
        what = f"{kind} {system.name} L={x.support_size()}"
        if res is None:
            continue
        if kind == "oracle_pair":
            dp, brute = res
            if dp is not None and brute is not None:
                checks.expect(close(dp, brute, REL), f"{what}: DP {dp} vs oracle {brute}")
                _check_bounds(checks, x, dp, what)
            continue
        value = res.value if kind == "norm" else res
        _check_bounds(checks, x, value, what)
        if kind != "norm":
            continue
        checks.expect(close(res.witness.evaluate(x), value, REL),
                      f"{what}: witness evaluates to {res.witness.evaluate(x)}, not {value}")
        lo = max(2, system.min_parts)
        checks.expect(res.character == math.inf
                      or (res.character == int(res.character)
                          and lo <= res.character <= x.support_size()),
                      f"{what}: character {res.character} out of range")
        if x.support_size() <= 16:
            flipped = x.scale(-1.0)
            spread = x.spread(lambda i: 2 * i + 1)
            for y, how in ((flipped, "sign flip"), (spread, "spreading")):
                v = engine.norm_value(y, system, memo=None)
                checks.expect(v == value, f"{what}: {how} changes N from {value} to {v}")
    n = inputs["flat_len"]
    flat = P.FinVector.from_dense([1.0] * n)
    v = engine.norm_value(flat, engine.F_SYSTEM, memo=None)
    checks.expect(close(v, n / math.log2(n + 1), REL),
                  f"flat F length {n}: {v} != n/log2(n+1)")


def check_block_round(P, inputs: dict, out: dict, checks: Checks) -> None:
    engine, blocks = P.engine, P.blocks
    for eps, res in out["splits"]:
        if res is None:
            continue
        y, prof = res
        what = f"split eps={eps} L={y.support_size()}"
        checks.expect(y.linf() <= eps / 2, f"{what}: input sup {y.linf()} > eps/2")
        checks.expect(prof.reconstruct().coords == y.coords, f"{what}: pieces do not sum back")
        for k, (piece, nv) in enumerate(zip(prof.pieces, prof.piece_norms)):
            fresh = engine.norm_value(piece, memo=None)
            checks.expect(fresh == nv, f"{what}: piece {k} reported {nv}, is {fresh}")
            checks.expect(fresh <= eps * (1 + 1e-9), f"{what}: piece {k} norm {fresh} > eps")
            if k < prof.count - 1:
                checks.expect(fresh >= eps / 2 * (1 - 1e-9),
                              f"{what}: piece {k} norm {fresh} < eps/2")
        h, H = blocks.split_count_bounds(eps)
        checks.expect(h <= prof.count <= H, f"{what}: {prof.count} pieces outside [{h}, {H}]")
    if out["projection"] is not None:
        ys, op = out["projection"]
        for k, ((phi, block), y) in enumerate(zip(op.pairs, ys)):
            checks.expect(block is y, f"projection block {k} replaced")
            checks.expect(close(phi.apply(y), 1.0, REL),
                          f"projection functional {k} gives {phi.apply(y)} on its block")
        rep = out.get("estimate")
        if rep is not None:
            checks.expect(rep.passed and rep.estimate <= rep.bound * (1 + 1e-9),
                          f"projection estimate {rep.estimate} above bound {rep.bound}")
    if out["stabilize"] is not None:
        fam, (chosen, states) = out["stabilize"]
        checks.expect(len(states) >= 1 and len(chosen) == len(states),
                      f"stabilize: {len(states)} levels, {len(chosen)} chosen")
        prev = set(range(len(fam)))
        for st, c in zip(states, chosen):
            checks.expect(set(st.members) <= prev and c == min(st.members),
                          f"stabilize level {st.level}: members not nested")
            for i, prof in st.profiles.items():
                checks.expect(prof.count == st.piece_count
                              and prof.reconstruct().coords == fam[i].coords,
                              f"stabilize level {st.level}: profile of {i} inconsistent")
            prev = set(st.members)


CHECKERS = {"dp_random": check_dp_round, "block_pipeline": check_block_round}
