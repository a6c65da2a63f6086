"""Spans around calls into the program's layers, for the traced run only.

``install(P, tracer)`` replaces public names in every module that bound
them (``engine.build_tables`` and ``audits.build_tables``,
``blocks.norm_value``, ``engine.GLOBAL_MEMO.get``, ...) with wrappers
that record a span (name, start, end, parent, attributes) in ``tracer``,
in memory, and returns a function that puts the originals back.  Only
the traced run (``run.py --trace 1``) and the traced CLI child
(``child.py cli``) import this module, so an untraced run wraps nothing.

Recursive methods (``WitnessTree.evaluate``, ``Functional.apply``,
``Functional.from_witness``) get one span for the outermost call only.
``_ConstTables.ensure`` is the one private name wrapped: the
composition-table fill has no public entry point of its own.
"""

from __future__ import annotations

import functools
import json
import time

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []   # (id, name, start, end, parent, attrs)
        self.stack: list[int] = []
        self.active: dict[str, int] = {}
        self.memo_hits = 0
        self.memo_misses = 0

    def wrap(self, name: str, fn, attrs=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active.get(name):
                return fn(*args, **kwargs)
            sid = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else None
            tracer.spans.append(None)
            tracer.stack.append(sid)
            tracer.active[name] = 1
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = _clock()
                tracer.active[name] = 0
                tracer.stack.pop()
                tracer.spans[sid] = (sid, name, start, end, parent,
                                     attrs(*args, **kwargs) if attrs else None)
        return wrapper

    def wrap_memo_get(self, get):
        tracer = self

        @functools.wraps(get)
        def wrapper(*args, **kwargs):
            hit = get(*args, **kwargs)
            if hit is None:
                tracer.memo_misses += 1
            else:
                tracer.memo_hits += 1
            return hit
        return wrapper

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for sid, name, start, end, parent, attrs in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "attrs": attrs}) + "\n")


_MISSING = object()


def _support(x, *_, **__):
    return {"L": x.support_size()}


def _nblocks(ys, *_, **__):
    return {"blocks": len(ys)}


def install(P, t: Tracer):
    """Wrap the layer boundaries of the imported package ``P``; returns
    the function that undoes it."""
    engine, blocks, audits, vectors = P.engine, P.blocks, P.audits, P.vectors
    saved = []

    def patch(owner, attr, new):
        # what ``owner`` itself holds (a staticmethod stays one); MISSING
        # for a method looked up on the class of an instance
        saved.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, new)

    build_tables = t.wrap("engine.build_tables", engine.build_tables, _support)
    patch(engine, "build_tables", build_tables)
    patch(audits, "build_tables", build_tables)
    patch(engine, "norm", t.wrap("engine.norm", engine.norm, _support))
    norm_value = t.wrap("engine.norm_value", engine.norm_value, _support)
    patch(engine, "norm_value", norm_value)
    patch(blocks, "norm_value", norm_value)
    norming_functional = t.wrap("engine.norming_functional", engine.norming_functional)
    patch(engine, "norming_functional", norming_functional)
    patch(blocks, "norming_functional", norming_functional)
    patch(engine, "brute_norm", t.wrap("engine.brute_norm", engine.brute_norm, _support))
    patch(engine._ConstTables, "ensure",
          t.wrap("engine.const.ensure", engine._ConstTables.ensure))
    patch(engine.GLOBAL_MEMO, "get", t.wrap_memo_get(engine.GLOBAL_MEMO.get))

    for name in ("greedy_split", "projection_norm_estimate", "stabilize_subsequence"):
        patch(blocks, name, t.wrap(f"blocks.{name}", getattr(blocks, name)))
    patch(blocks, "build_projection",
          t.wrap("blocks.build_projection", blocks.build_projection, _nblocks))

    patch(audits, "audit_all", t.wrap("audits.audit_all", audits.audit_all))
    patch(audits, "tower_product", t.wrap("audits.tower_product", audits.tower_product))

    patch(vectors.Functional, "from_witness", staticmethod(
        t.wrap("vectors.functional", vectors.Functional.from_witness)))
    patch(vectors.Functional, "apply", t.wrap("vectors.functional", vectors.Functional.apply))
    patch(vectors.WitnessTree, "evaluate",
          t.wrap("vectors.functional", vectors.WitnessTree.evaluate))

    def restore() -> None:
        for owner, attr, old in reversed(saved):
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)
    return restore


# ---------------------------------------------------------------------------
# per-layer figures from spans
# ---------------------------------------------------------------------------

def dp_cells(L: int) -> int:
    """S-table entries the interval DP fills: one per (i, j, part count)."""
    return L * (L + 1) * (L + 2) // 6


def dp_table_mb(L: int) -> float:
    """Bytes of the N, S and kind tables at support L (the engine's own
    sizing formula), in MiB."""
    return (8 * (L + 1) * L * L + 16 * L * L) / 2 ** 20


def layer_figures(spans: list[tuple]) -> dict:
    """Totals over a list of spans (one round, or one CLI command)."""
    by_id = {s[0]: s for s in spans}
    children_time: dict[int, float] = {}
    for sid, name, start, end, parent, attrs in spans:
        if parent is not None:
            children_time[parent] = children_time.get(parent, 0.0) + (end - start)

    def under(span, ancestor: str) -> bool:
        parent = span[4]
        while parent is not None:
            p = by_id[parent]
            if p[1] == ancestor:
                return True
            parent = p[4]
        return False

    f = {k: 0.0 for k in (
        "bt_calls", "bt_cells", "bt_s", "bt_max_L", "norm_self_s", "brute_s",
        "const_calls", "const_s", "split_s", "splits", "split_bt", "split_cells",
        "proj_blocks", "proj_bt", "estimate_s", "stabilize_s", "functional_s",
        "audit_all_s", "tower_s")}
    for span in spans:
        sid, name, start, end, parent, attrs = span
        dur = end - start
        if name == "engine.build_tables":
            L = attrs["L"]
            f["bt_calls"] += 1
            f["bt_cells"] += dp_cells(L)
            f["bt_s"] += dur
            f["bt_max_L"] = max(f["bt_max_L"], L)
            if under(span, "blocks.greedy_split"):
                f["split_bt"] += 1
                f["split_cells"] += dp_cells(L)
            if under(span, "blocks.build_projection"):
                f["proj_bt"] += 1
        elif name == "engine.norm":
            f["norm_self_s"] += dur - children_time.get(sid, 0.0)
        elif name == "engine.brute_norm":
            f["brute_s"] += dur
        elif name == "engine.const.ensure":
            f["const_calls"] += 1
            f["const_s"] += dur
        elif name == "blocks.greedy_split":
            f["split_s"] += dur
            f["splits"] += 1
        elif name == "blocks.build_projection":
            f["proj_blocks"] += attrs["blocks"]
        elif name == "blocks.projection_norm_estimate":
            f["estimate_s"] += dur
        elif name == "blocks.stabilize_subsequence":
            f["stabilize_s"] += dur
        elif name == "vectors.functional":
            f["functional_s"] += dur
        elif name == "audits.audit_all":
            f["audit_all_s"] += dur
        elif name == "audits.tower_product":
            f["tower_s"] += dur
    return f
