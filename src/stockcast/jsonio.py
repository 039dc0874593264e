"""Deterministic JSON rendering: fixed key order, 17-significant-digit floats.

17 significant digits round-trip any float64 exactly, and building the text
by hand keeps output bytes identical across runs and platforms, which the
CLI's reproducibility contract depends on.
"""

from __future__ import annotations

import json
import math

import numpy as np


def dump_json(obj) -> str:
    out: list[str] = []
    _emit(obj, out)
    return "".join(out)


def _emit(obj, out: list[str]) -> None:
    if isinstance(obj, dict):
        out.append("{")
        for i, (key, value) in enumerate(obj.items()):
            if i:
                out.append(",")
            if not isinstance(key, str):
                raise TypeError(f"non-string key {key!r}")
            out.append(json.dumps(key))
            out.append(":")
            _emit(value, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, value in enumerate(obj):
            if i:
                out.append(",")
            _emit(value, out)
        out.append("]")
    elif isinstance(obj, bool) or isinstance(obj, np.bool_):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        value = float(obj)
        if not math.isfinite(value):
            raise ValueError("non-finite number in JSON document")
        out.append(f"{value:.17g}")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif obj is None:
        out.append("null")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")

