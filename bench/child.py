"""Child processes started by ``run.py``.

    child.py setup WORKLOAD SEED
        Import the program and do the workload's fixed set-up: generate
        the first round's inputs (dp_random, block_pipeline) or build the
        CLI's parser (cli_cold).  The parent times the whole process.

    child.py cli SPANS_PATH ARG...
        Traced CLI command: time ``import implicitnorm.cli``, install the
        span wrappers, call ``cli.main(ARGS)`` and write the spans to
        SPANS_PATH.  Stdout is the command's own output.
"""

from __future__ import annotations

import json
import sys
import time


def setup(workload: str, seed: int) -> int:
    import common
    P = common.import_program()
    if workload == "cli_cold":
        from implicitnorm import cli
        cli.build_parser()
    else:
        import workloads
        workloads.MAKERS[workload](P, seed, 0)
    return 0


def traced_cli(spans_path: str, argv: list[str]) -> int:
    t0 = time.perf_counter()
    from implicitnorm import cli
    import_s = time.perf_counter() - t0
    import common
    import spans
    tracer = spans.Tracer()
    spans.install(common.import_program(), tracer)
    code = cli.main(argv)
    sys.stdout.flush()
    tracer.write(spans_path)
    with open(spans_path, "a") as fh:
        fh.write(json.dumps({"import_s": import_s, "memo_hits": tracer.memo_hits,
                             "memo_misses": tracer.memo_misses,
                             "memo_entries": len(cli.engine.GLOBAL_MEMO)}) + "\n")
    return code


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "setup":
        sys.exit(setup(sys.argv[2], int(sys.argv[3])))
    if mode == "cli":
        sys.exit(traced_cli(sys.argv[2], sys.argv[3:]))
    sys.exit(f"unknown mode {mode!r}")
