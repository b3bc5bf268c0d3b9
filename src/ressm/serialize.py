"""Deterministic text serialization.

All numeric output uses 17 significant digits, which round-trips any
float64 exactly and keeps repeated runs byte-identical.  The JSON
emitter is intentionally tiny: dicts keep insertion order, floats go
through one formatter, no timestamps or environment data ever leak in.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["fmt_float", "dumps_json", "write_csv"]


def fmt_float(x: float) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError("refusing to serialize a non-finite float")
    if x == int(x) and abs(x) < 1e16:
        return f"{x:.1f}"  # keep 1.0 readable rather than 1
    return f"{x:.17g}"


def _emit(obj) -> str:
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return fmt_float(obj)
    if isinstance(obj, str):
        out = obj.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n").replace("\t", "\\t")
        return f'"{out}"'
    if isinstance(obj, np.ndarray):
        return _emit(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_emit(v) for v in obj) + "]"
    if isinstance(obj, dict):
        items = (f"{_emit(str(k))}: {_emit(v)}" for k, v in obj.items())
        return "{" + ", ".join(items) + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps_json(obj) -> str:
    """Deterministic indented JSON text; parses with any standard JSON reader."""
    return _pretty(obj, 0) + "\n"


def _pretty(obj, level: int) -> str:
    pad = "  " * level
    inner = "  " * (level + 1)
    if isinstance(obj, dict) and obj:
        rows = [f"{inner}{_emit(str(k))}: {_pretty(v, level + 1)}" for k, v in obj.items()]
        return "{\n" + ",\n".join(rows) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)) and len(obj) and any(isinstance(v, (dict, list, tuple)) for v in obj):
        rows = [f"{inner}{_pretty(v, level + 1)}" for v in obj]
        return "[\n" + ",\n".join(rows) + f"\n{pad}]"
    return _emit(obj)


def write_csv(path, header: list[str], rows) -> None:
    """Plain comma-separated text with formatted floats; no quoting needed
    for the numeric/label fields this package writes."""
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for v in row:
            if isinstance(v, (float, np.floating)):
                cells.append(fmt_float(v))
            else:
                cells.append(str(v))
        lines.append(",".join(cells))
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
