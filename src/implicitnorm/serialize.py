"""Deterministic JSON and CSV emission.

Floats are printed with 17 significant digits, dictionary keys sorted,
so identical results serialize to identical bytes regardless of cache
state or dict construction order.  ``dumps`` takes plain data only:
None, bools, strings, numbers, string-keyed dicts, lists and tuples;
callers convert their objects with ``to_jsonable`` first.
"""

from __future__ import annotations

import json
import math
from typing import Any

import numpy as np


def format_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError("non-finite float in serialized output")
    return format(x, ".17g")


def dumps(obj: Any) -> str:
    out: list[str] = []
    _emit(obj, out)
    return "".join(out)


def _emit(obj: Any, out: list[str]) -> None:
    if obj is None:
        out.append("null")
    elif obj is True or (isinstance(obj, np.bool_) and obj):
        out.append("true")
    elif obj is False or isinstance(obj, np.bool_):
        out.append("false")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(format_float(float(obj)))
    elif isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if i:
                out.append(",")
            if not isinstance(key, str):
                raise TypeError(f"non-string key {key!r}")
            out.append(json.dumps(key))
            out.append(":")
            _emit(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _emit(item, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def csv_row(*fields: Any) -> str:
    cells = []
    for f in fields:
        if isinstance(f, float):
            cells.append(format_float(f))
        elif f is None:
            cells.append("")
        else:
            cells.append(str(f))
    return ",".join(cells)
