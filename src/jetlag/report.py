"""Canonical JSON emission and config hashing.

Reports must be byte-identical for a fixed config and seed, so floats are
printed with 17 significant digits (round-trip exact for 64-bit values),
object keys are sorted, and separators are fixed.
"""

from __future__ import annotations

import hashlib
import json


def fmt_float(x: float) -> str:
    if x != x:
        return '"NaN"'
    if x == float("inf"):
        return '"Infinity"'
    if x == float("-inf"):
        return '"-Infinity"'
    return format(float(x), ".17g")


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, no whitespace, 17-digit floats."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return repr(obj)
    if isinstance(obj, float):
        return fmt_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)
    if isinstance(obj, dict):
        parts = []
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"non-string key {key!r}")
            parts.append(f"{json.dumps(key, ensure_ascii=False)}:{canonical_json(obj[key])}")
        return "{" + ",".join(parts) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(canonical_json(o) for o in obj) + "]"
    # numpy scalars and similar duck-typed numbers
    if hasattr(obj, "item"):
        return canonical_json(obj.item())
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def config_hash(raw_config: dict) -> str:
    return hashlib.sha256(canonical_json(raw_config).encode("utf-8")).hexdigest()


def csv_row(values) -> str:
    """One CSV line of floats, each at 17 significant digits."""
    return ",".join(format(v, ".17g") for v in values)
