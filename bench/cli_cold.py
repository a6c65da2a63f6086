"""The ``cli_cold`` workload: one fresh ``implicitnorm`` process per command.

A round runs the README's command list, a flat ``norm --system g
--witness --character`` at length 1016, and ``audit ineq``, ``audit
gnorm`` and ``seq project`` once at ``--parallelism 1`` and once at
``--parallelism P`` (P = the CPUs this process may use, at least 2), one
process at a time.  Round ``r`` of seed ``s`` seeds ``gnorm`` and
``project`` and draws the projection blocks from
``numpy.random.default_rng([s, r])``.
"""

from __future__ import annotations

import json
import math
import os
import sys

import numpy as np

from common import Checks, close

REL = 1e-12
FLAT_LEN = 1016
PARALLEL = max(2, len(os.sched_getaffinity(0)))


def _flat_blocks(rng) -> list[dict]:
    """Four flat blocks, lengths 3..6 in seeded order with seeded gaps, each
    scaled by log2(n+1)/n so that its F norm is 1 (Schlumprecht's
    identity ||e_1+...+e_n|| = n/log2(n+1))."""
    out, start = [], 1
    for n in map(int, rng.permutation((3, 4, 5, 6))):
        a = math.log2(n + 1) / n
        out.append({"coords": [[start + i, a] for i in range(n)]})
        start += n + int(rng.integers(0, 4))
    return out


def make_round(seed: int, r: int) -> list[tuple[str, list[str]]]:
    """(name, argv) for every command of round r, in the order they run."""
    rng = np.random.default_rng([seed, r])
    sub_seed = str(int(rng.integers(0, 2 ** 31)))
    blocks = json.dumps(_flat_blocks(rng))
    flat = json.dumps({"dense": [1] * FLAT_LEN})
    small = json.dumps({"dense": [round(float(v), 6) for v in rng.uniform(-1.0, 1.0, 8)]})
    par = ["--parallelism", str(PARALLEL)]
    project = ["seq", "project", "--samples", "70", "--seed", sub_seed, blocks]
    gnorm = ["audit", "gnorm", "--cases", "300", "--seed", sub_seed]
    # The two compute-heavy commands run far apart, so that one slow spell
    # of the machine does not land on both.  gnorm and project get enough
    # cases (~0.6 s each) to stand clear of the eight ~0.3 s commands, so
    # the median command stays inside that group.
    return [
        ("norm_f_pair", ["norm", "--system", "f", '{"dense":[1,1]}']),
        ("audit_lemma_duo", ["audit", "lemma-duo", "--eps", "1", "--l", "2",
                             "--m", "8", "--nlen", "127"]),
        ("norm_g_pair", ["norm", "--system", "g", '{"dense":[1,1]}']),
        ("norm_f_random8", ["norm", "--system", "f", "--witness", small]),
        ("seq_l1", ["seq", "l1", "--m", "4", "--n", "15"]),
        ("audit_ineq_csv", ["audit", "ineq", "--c", "3", "--csv"]),
        ("audit_ineq_csv_par", par + ["audit", "ineq", "--c", "3", "--csv"]),
        ("audit_beta", ["audit", "beta", "--d", "2", "--log2r", "20"]),
        ("audit_beta_tilde", ["audit", "beta", "--d", "2", "--log2r", "20", "--tilde"]),
        ("audit_gnorm", gnorm),
        ("audit_gnorm_par", par + gnorm),
        ("seq_project", project),
        ("seq_project_par", par + project),
        ("norm_g_flat1016", ["norm", "--system", "g", "--witness", "--character", flat]),
    ]


COMMAND_NAMES = [name for name, _ in make_round(0, 0)]


def plain_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "implicitnorm.cli"] + args


def traced_argv(spans_path: str, args: list[str]) -> list[str]:
    here = os.path.dirname(os.path.abspath(__file__))
    return [sys.executable, os.path.join(here, "child.py"), "cli", spans_path] + args


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def _witness_value(node: dict, x) -> float:
    """Evaluate a witness tree JSON at x (index -> coefficient),
    independently of the program: a leaf is |x_i|, a split the sum of its
    children over its weight."""
    if "leaf" in node:
        return abs(x(node["leaf"]))
    split = node["split"]
    return math.fsum(_witness_value(c, x) for c in split["children"]) / split["weight"]


def check_round(commands: dict, results: dict, checks: Checks) -> None:
    """Checks on the commands (name -> argv) that exited 0; the others
    count as failed operations in run.py."""
    ok = {name: res for name, res in results.items() if res.code == 0}
    parsed = {}
    for name, res in ok.items():
        if name.startswith("audit_ineq_csv"):
            lines = res.stdout.decode().strip().splitlines()
            checks.expect(lines[:1] == ["inequality,xi,xi_prime,margin"] and len(lines) == 6,
                          f"{name}: unexpected CSV {lines[:2]}")
            continue
        try:
            parsed[name] = json.loads(res.stdout)
        except ValueError:
            checks.expect(False, f"{name}: stdout is not JSON")
    for base in ("audit_ineq_csv", "audit_gnorm", "seq_project"):
        if base in ok and base + "_par" in ok:
            checks.expect(ok[base].stdout == ok[base + "_par"].stdout,
                          f"{base}: stdout differs between --parallelism 1 and {PARALLEL}")

    if "norm_f_pair" in parsed:
        checks.expect(close(parsed["norm_f_pair"]["value"], 2 / math.log2(3), REL),
                      "norm f [1,1] != 2/log2(3)")
    if "norm_g_pair" in parsed:
        checks.expect(close(parsed["norm_g_pair"]["value"], 2 / math.log2(2.5), REL),
                      "norm g [1,1] != 2/log2(2.5)")
    if "seq_l1" in parsed:
        l1 = parsed["seq_l1"]
        coeff = math.log2(16) / 15
        checks.expect(len(l1["blocks"]) == 4
                      and all(close(v, coeff, REL) for b in l1["blocks"] for _, v in b["coords"])
                      and close(l1["certificate"], math.log2(61) / math.log2(16), REL),
                      "seq l1 --m 4 --n 15: blocks or certificate wrong")
    if "norm_f_random8" in parsed:
        res = parsed["norm_f_random8"]
        dense = json.loads(commands["norm_f_random8"][-1])["dense"]
        absx = [abs(v) for v in dense if v != 0.0]
        checks.expect(max(absx) <= res["value"] <= math.fsum(absx) * (1 + REL)
                      and close(_witness_value(res["witness"], lambda i: dense[i - 1]),
                                res["value"], REL),
                      f"norm f random: value {res['value']} or its witness wrong")
    for name in ("audit_beta", "audit_beta_tilde"):
        if name in parsed:
            beta = parsed[name]
            factors = beta["leading_factors"]
            checks.expect(beta["tail_bound"] <= 1e-12
                          and all(f > 1.0 for f in factors)
                          and close(beta["log2_value"], math.log2(beta["value"]), 1e-9)
                          and (beta["factors_used"] > len(factors)
                               or close(math.prod(factors), beta["value"], 1e-9)),
                          f"{name}: inconsistent product {beta}")
    if "audit_lemma_duo" in parsed:
        duo = parsed["audit_lemma_duo"]
        checks.expect(duo["pass"] is True
                      and duo["lhs"] <= duo["rhs"] * (1 + 1e-9)
                      and close(duo["rhs"], duo["norm_y"] + 1.0, REL)
                      and close(duo["certificate"],
                                math.log2(8 * 127 + 1) / math.log2(128), REL),
                      f"audit lemma-duo: {duo}")
    if "norm_g_flat1016" in parsed:
        flat = parsed["norm_g_flat1016"]
        value, n = flat["value"], FLAT_LEN
        checks.expect(flat["support"] == n and 1.0 <= value <= n
                      and value >= n / math.log2(1 + n / 2) * (1 - REL)
                      and "character" in flat
                      and close(_witness_value(flat["witness"], lambda i: 1.0), value, REL),
                      f"norm g flat {n}: value {value} or its witness wrong")
    if "audit_gnorm" in parsed:
        checks.expect(parsed["audit_gnorm"]["pass"] is True, "audit gnorm: pass is not true")
    if "seq_project" in parsed:
        proj = parsed["seq_project"]
        checks.expect(proj["pass"] is True and proj["estimate"] <= proj["bound"] * (1 + 1e-9),
                      f"seq project: estimate above bound {proj}")
