"""Command-line surface tying the engine, block tools, and audits together.

Exit codes: 0 success or expected audit outcome, 1 property violation,
2 input error, 3 resource guard.  All stdout is deterministic: floats at
17 significant digits, sorted keys, no timestamps.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from . import engine, serialize
from .engine import (DomainError, EngineCheckError, NormSystem, SupportGuardError,
                     get_system, log2_affine_system)
from .vectors import FinVector, VectorError

if TYPE_CHECKING:
    from . import blocks

CONFIG_ENV = "IMPLICITNORM_CONFIG"

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_GUARD = 3

GNORM_CHUNK = 1 << 16


@dataclass
class Config:
    tolerance: float = engine.DEFAULT_TOLERANCE
    support_guard: int = engine.DEFAULT_SUPPORT_GUARD
    system: str = "f"
    parallelism: int = 1    # validated only: every command runs in one thread

    def validated(self) -> "Config":
        if not self.tolerance > 0.0:
            raise DomainError("tolerance must be positive")
        if self.support_guard < 1:
            raise DomainError("support guard must be >= 1")
        if self.parallelism < 1:
            raise DomainError("parallelism must be >= 1")
        return self


# JSON types a config value may take, by the type of its field's default;
# bools are refused everywhere although Python counts them as ints
_CONFIG_TYPES = {float: ((int, float), "a number"), int: ((int,), "an integer"),
                 str: ((str,), "a string")}


def _read_file(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise DomainError(f"cannot read {path!r}: {exc.strerror or exc}") from exc


def _read_object(path: str, what: str, types: dict, exact: bool) -> dict:
    """The JSON object in file ``path``, whose keys must be keys of
    ``types`` (all of them when ``exact``), each value of the JSON types
    ``types[key]`` names; an error names the offending key."""
    data = json.loads(_read_file(path))
    if not isinstance(data, dict):
        raise DomainError(f"{what} must hold a JSON object")
    for key, value in data.items():
        if key not in types:
            raise DomainError(f"unknown {what} key {key!r}")
        allowed, kind = types[key]
        if isinstance(value, bool) or not isinstance(value, allowed):
            raise DomainError(f"{what} key {key!r} must be {kind}, "
                              f"got {json.dumps(value)}")
    missing = [key for key in types if key not in data] if exact else []
    if missing:
        raise DomainError(f"{what} missing key {missing[0]!r}")
    return data


def _load_config(path: Optional[str]) -> Config:
    cfg = Config()
    path = path or os.environ.get(CONFIG_ENV)
    if path:
        known = {f.name: _CONFIG_TYPES[type(f.default)] for f in fields(Config)}
        for key, value in _read_object(path, "config", known, exact=False).items():
            setattr(cfg, key, value)
    return cfg


def _resolve_system(spec: str) -> NormSystem:
    if spec.lower() in ("f", "g"):
        return get_system(spec)
    number, integer, string = (_CONFIG_TYPES[t] for t in (float, int, str))
    data = _read_object(spec, "custom system file",
                        {"name": string, "min_parts": integer, "add": number,
                         "scale": number}, exact=True)
    try:
        return log2_affine_system(data["name"], data["min_parts"], float(data["add"]),
                                  float(data["scale"]))
    except DomainError:
        raise
    except ValueError as exc:       # a weight outside log2's domain
        raise DomainError(f"custom system weight: {exc}") from exc


def _read_payload(arg: str) -> str:
    if arg == "-":
        return sys.stdin.read()
    if arg.startswith("@"):
        return _read_file(arg[1:])
    return arg


def _numbers(value, what: str) -> list:
    """``value`` when it is a JSON list of numbers (bools refused)."""
    if not (isinstance(value, list) and all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)):
        raise DomainError(f"{what} must be a JSON list of numbers")
    return value


def _read_vector(arg: str) -> FinVector:
    return FinVector.from_json(_read_payload(arg))


def _read_blocks(arg: str) -> blocks.BlockSequence:
    from . import blocks
    data = json.loads(_read_payload(arg))
    return blocks.BlockSequence.from_jsonable(data)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_norm(args, cfg: Config) -> tuple[int, object]:
    system = _resolve_system(args.system or cfg.system)
    x = _read_vector(args.vector)
    result = engine.norm(x, system, guard=cfg.support_guard, tol=cfg.tolerance)
    out = {"value": result.value, "system": system.name,
           "support": x.support_size()}
    if args.character and result.character is not None:
        out["character"] = ("inf" if result.character == float("inf")
                            else int(result.character))
        out["character_tie"] = result.character_tie
    if args.witness and result.witness is not None:
        out["witness"] = result.witness.to_jsonable()
    return EXIT_OK, out


def cmd_seq(args, cfg: Config) -> tuple[int, object]:
    from . import blocks
    system = _resolve_system(args.system or cfg.system)
    sub = args.seq_command
    if sub == "split":
        profile = blocks.greedy_split(_read_vector(args.vector), args.eps,
                                      system, tol=cfg.tolerance,
                                      guard=cfg.support_guard)
        return EXIT_OK, profile.to_jsonable()
    if sub == "l1":
        seq, cert = blocks.l1_average_block(args.m, args.n, args.start,
                                            system=system, tol=cfg.tolerance,
                                            guard=cfg.support_guard)
        return EXIT_OK, {"m": args.m, "n_len": args.n, "start": args.start,
                         "certificate": cert, "blocks": seq.to_jsonable()}
    if sub == "equiv":
        xs = _read_blocks(args.xs)
        ys = _read_blocks(args.ys)
        tuples = json.loads(_read_payload(args.coeffs))
        if not isinstance(tuples, list):
            raise DomainError("coefficient tuples must be a JSON list")
        tuples = [_numbers(tup, "each coefficient tuple") for tup in tuples]
        value = blocks.equivalence_constant(xs, ys, tuples, system=system,
                                            guard=cfg.support_guard)
        return EXIT_OK, {"equivalence_constant": value, "tuples": len(tuples)}
    if sub == "project":
        ys = _read_blocks(args.blocks)
        if not ys:          # the samples are drawn up to the last block
            raise DomainError("blocks must hold at least one block")
        if args.samples < 1:
            raise DomainError("samples must be >= 1")
        op = blocks.build_projection(ys, system=system, tol=cfg.tolerance,
                                     guard=cfg.support_guard)
        rng = np.random.default_rng(args.seed)
        hi = ys[-1].max_support() + 2
        samples = []
        for _ in range(args.samples):
            size = int(rng.integers(1, min(hi, 9)))
            idxs = np.sort(rng.choice(np.arange(1, hi), size=size, replace=False))
            vals = rng.uniform(-1.0, 1.0, size)
            samples.append(FinVector((int(i), float(v))
                                     for i, v in zip(idxs, vals) if v != 0.0))
        report = blocks.projection_norm_estimate(op, samples, system=system,
                                                 guard=cfg.support_guard)
        out = report.to_jsonable()
        out["frames"] = [f.to_jsonable() for f in op.frames]
        return EXIT_OK, out
    if sub == "select":
        schedule = (_numbers(json.loads(args.eps_schedule), "eps schedule")
                    if args.eps_schedule else [2.0 ** (-i) for i in range(1, args.budget + 1)])
        ys, ks, report = blocks.greedy_block_select(
            schedule, args.budget, start=args.start,
            support_budget=args.support_budget, system=system,
            tol=cfg.tolerance, guard=cfg.support_guard)
        report["growth_indices"] = [blocks.growth_index_repr(k) for k in ks]
        report["block_supports"] = [y.support_size() for y in ys]
        return EXIT_OK, report
    if sub == "stabilize":
        ys = _read_blocks(args.blocks)
        schedule = (_numbers(json.loads(args.eps_schedule), "eps schedule")
                    if args.eps_schedule else [1.0, 0.5, 0.25])
        chosen, states = blocks.stabilize_subsequence(
            ys, schedule, system=system, tol=cfg.tolerance,
            guard=cfg.support_guard)
        return EXIT_OK, {"chosen": chosen,
                         "levels": [s.to_jsonable() for s in states]}
    raise DomainError(f"unknown seq subcommand {sub!r}")


def _audit_ineq(args, cfg: Config) -> tuple[int, object, list[str]]:
    from . import audits
    c = args.c
    reports = audits.audit_all(c)
    rows = [serialize.csv_row("inequality", "xi", "xi_prime", "margin")]
    for name in ("E1", "E2_printed", "E2_subadditive", "E3", "E4"):
        rep = reports[name]
        point = list(rep.argmin) + [None] * (2 - len(rep.argmin))
        rows.append(serialize.csv_row(name, point[0], point[1], rep.min_margin))
    expected = (reports["E1"].passed() and reports["E3"].passed()
                and reports["E4"].passed() and reports["E2_subadditive"].passed()
                and not reports["E2_printed"].passed())
    summary = {"c": c,
               "reports": {k: v.to_jsonable() for k, v in reports.items()},
               "printed_e2_counterexample_expected": True,
               "all_expected_outcomes": expected}
    return (EXIT_OK if expected else EXIT_VIOLATION), summary, rows


def cmd_audit(args, cfg: Config) -> tuple[int, object]:
    sub = args.audit_command
    if sub == "ineq":
        code, summary, rows = _audit_ineq(args, cfg)
        if args.csv:
            return code, "\n".join(rows)
        return code, summary
    if sub == "beta":
        from . import audits
        fn = audits.beta_tilde if args.tilde else audits.beta
        result = fn(args.log2r, args.d, tail_tol=args.tail_tol)
        return EXIT_OK, result.to_jsonable()
    if sub == "lemma-duo":
        from . import blocks
        report = blocks.average_split_experiment(
            args.eps, args.l, args.m, args.nlen, tol=cfg.tolerance,
            guard=cfg.support_guard)
        return (EXIT_OK if report.passed else EXIT_VIOLATION), report.to_jsonable()
    if sub == "gnorm":
        return _audit_gnorm(args, cfg)
    if sub == "pente":
        from . import audits
        x = _read_vector(args.vector)
        rep = audits.refinement_margin(x, args.r, args.d, tol=cfg.tolerance,
                                       guard=cfg.support_guard)
        return EXIT_OK, rep.to_jsonable()
    raise DomainError(f"unknown audit subcommand {sub!r}")


def _audit_gnorm(args, cfg: Config) -> tuple[int, object]:
    if args.cases < 1:
        raise DomainError("cases must be >= 1")
    if args.lmax < 2:       # the scalar checks run over ell = 2..lmax
        raise DomainError("lmax must be >= 2")
    lmax = args.lmax
    scalar_ok = double_ok = True
    # fixed-size chunks keep memory flat however large lmax is
    for lo in range(2, lmax + 1, GNORM_CHUNK):
        ell = np.arange(lo, min(lo + GNORM_CHUNK, lmax + 1), dtype=float)
        scalar_ok &= bool(np.all(np.log2(ell + 1.0) >= np.log2((ell + 3.0) / 2.0)))
        double_ok &= bool(np.all(np.log2(1.0 + (2.0 * ell) / 2.0) == np.log2(1.0 + ell)))
    rng = np.random.default_rng(args.seed)
    xs = []
    for _ in range(args.cases):
        size = int(rng.integers(1, 9))
        vals = rng.uniform(-2.0, 2.0, size)
        x = FinVector((i + 1, float(v)) for i, v in enumerate(vals) if v != 0.0)
        if not x.is_zero():
            xs.append(x)
    gvs = engine.norm_values(xs, engine.G_SYSTEM, guard=cfg.support_guard)
    fvs = engine.norm_values(xs, engine.F_SYSTEM, guard=cfg.support_guard)
    worst = min((gv - fv for gv, fv in zip(gvs, fvs)), default=float("inf"))
    ok = scalar_ok and double_ok and worst >= -cfg.tolerance
    out = {"scalar_weight_inequality": scalar_ok,
           "doubled_argument_identity": double_ok,
           "min_norm_margin": worst, "cases": args.cases,
           "lmax": lmax, "pass": ok}
    return (EXIT_OK if ok else EXIT_VIOLATION), out


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="implicitnorm", allow_abbrev=False)
    p.add_argument("--config", help="JSON config file (or set $" + CONFIG_ENV + ")")
    p.add_argument("--tolerance", type=float)
    p.add_argument("--guard", type=int,
                   help=f"support-size guard (default {engine.DEFAULT_SUPPORT_GUARD}), "
                        "applied on both routes before any memo hit; the interval "
                        "route also refuses supports above 912 (1 GiB of DP "
                        "tables) whatever the guard; exit 3 names the limit that "
                        "refused")
    p.add_argument("--parallelism", type=int,
                   help="accepted and checked (>= 1), no effect: every command "
                        "runs in one thread")
    p.add_argument("--record", help="write a run record to this path")
    sub = p.add_subparsers(dest="command", required=True)

    pn = sub.add_parser("norm", help="evaluate the implicit norm")
    pn.add_argument("--system", help="f, g, or a custom system file")
    pn.add_argument("--witness", action="store_true")
    pn.add_argument("--character", action="store_true")
    pn.add_argument("vector", help="vector JSON, @file, or - for stdin")

    ps = sub.add_parser("seq", help="block sequence procedures")
    ps.add_argument("--system")
    seqsub = ps.add_subparsers(dest="seq_command", required=True)
    sp = seqsub.add_parser("split")
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument("vector")
    sl = seqsub.add_parser("l1")
    sl.add_argument("--m", type=int, required=True)
    sl.add_argument("--n", type=int, required=True)
    sl.add_argument("--start", type=int, default=1)
    se = seqsub.add_parser("equiv")
    se.add_argument("--coeffs", required=True, help="JSON list of tuples")
    se.add_argument("xs")
    se.add_argument("ys")
    pp = seqsub.add_parser("project")
    pp.add_argument("--samples", type=int, default=50)
    pp.add_argument("--seed", type=int, default=0)
    pp.add_argument("blocks")
    sel = seqsub.add_parser("select")
    sel.add_argument("--budget", type=int, default=2)
    sel.add_argument("--start", type=int, default=1)
    sel.add_argument("--support-budget", type=int, default=2048)
    sel.add_argument("--eps-schedule", help="JSON list")
    st = seqsub.add_parser("stabilize")
    st.add_argument("--eps-schedule", help="JSON list")
    st.add_argument("blocks")

    pa = sub.add_parser("audit", help="inequality and tower audits")
    audsub = pa.add_subparsers(dest="audit_command", required=True)
    ai = audsub.add_parser("ineq")
    ai.add_argument("--c", type=float, default=3.0)
    ai.add_argument("--csv", action="store_true")
    ab = audsub.add_parser("beta")
    ab.add_argument("--d", type=float, required=True)
    ab.add_argument("--log2r", type=float, required=True)
    ab.add_argument("--tail-tol", type=float, default=1e-12)
    ab.add_argument("--tilde", action="store_true")
    ad = audsub.add_parser("lemma-duo")
    ad.add_argument("--eps", type=float, required=True)
    ad.add_argument("--l", type=int, required=True)
    ad.add_argument("--m", type=int, required=True)
    ad.add_argument("--nlen", type=int, required=True)
    ag = audsub.add_parser("gnorm")
    ag.add_argument("--lmax", type=int, default=10**6)
    ag.add_argument("--cases", type=int, default=200)
    ag.add_argument("--seed", type=int, default=0)
    ap = audsub.add_parser("pente")
    ap.add_argument("--r", type=float, required=True)
    ap.add_argument("--d", type=float, required=True)
    ap.add_argument("vector")
    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        cfg = _load_config(args.config)
        if args.tolerance is not None:
            cfg.tolerance = args.tolerance
        if args.guard is not None:
            cfg.support_guard = args.guard
        if args.parallelism is not None:
            cfg.parallelism = args.parallelism
        cfg.validated()

        if args.command == "norm":
            code, payload = cmd_norm(args, cfg)
        elif args.command == "seq":
            code, payload = cmd_seq(args, cfg)
        elif args.command == "audit":
            code, payload = cmd_audit(args, cfg)
        else:
            raise DomainError(f"unknown command {args.command!r}")

        text = payload if isinstance(payload, str) else serialize.dumps(payload)
        sys.stdout.write(text + "\n")

        if args.record:
            import hashlib
            command = list(argv) if argv is not None else sys.argv[1:]
            digest = hashlib.sha256()
            for token in command:
                digest.update(token.encode())
                digest.update(b"\x00")
                if token.startswith("@"):
                    with open(token[1:], "rb") as fh:
                        digest.update(fh.read())
            record = {"command": command,
                      "inputs_digest": digest.hexdigest(),
                      "outputs_digest": hashlib.sha256(text.encode()).hexdigest(),
                      "elapsed_s": round(time.perf_counter() - started, 6),
                      "engine_version": engine.ENGINE_VERSION,
                      "exit_code": code}
            with open(args.record, "w") as fh:
                fh.write(serialize.dumps(record) + "\n")
        return code
    except SupportGuardError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except EngineCheckError as exc:
        print(f"engine check failed: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except (DomainError, VectorError, json.JSONDecodeError,
            FileNotFoundError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
