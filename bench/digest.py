"""Digests of simulated results, owned by the benchmark.

A digest hashes a canonical text form of a result object: every field of
every dataclass it reaches (``Report`` with its ``extra``, ``wire_bytes``
and ``useful_bytes``; ``ServingPoint`` with its percentiles and
queue-depth timeline; sweep and step results), every dict entry in order,
and every float exactly (``repr`` round-trips).  This module deliberately
does not reuse the simulator's own fingerprint code, so a change under
test cannot weaken the check.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
from typing import Any, Iterator


def canonical(obj: Any) -> str:
    """Exact, order-preserving text form of a result object."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return repr(obj)
    if isinstance(obj, enum.Enum):
        return f"{type(obj).__name__}.{obj.name}"
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        body = ",".join(
            f"{field.name}={canonical(getattr(obj, field.name))}"
            for field in dataclasses.fields(obj)
        )
        return f"{type(obj).__name__}({body})"
    if isinstance(obj, dict):
        body = ",".join(f"{canonical(k)}:{canonical(v)}" for k, v in obj.items())
        return "{" + body + "}"
    if isinstance(obj, list):
        return "[" + ",".join(canonical(item) for item in obj) + "]"
    if isinstance(obj, tuple):
        return "(" + ",".join(canonical(item) for item in obj) + ")"
    raise TypeError(f"cannot digest a {type(obj).__name__}")


def digest(obj: Any) -> str:
    """Short SHA-256 of :func:`canonical` (64 bits, hex)."""
    return hashlib.sha256(canonical(obj).encode("utf-8")).hexdigest()[:16]


def find(obj: Any, cls: type) -> Iterator[Any]:
    """Every distinct instance of ``cls`` reachable from ``obj``."""
    seen = set()
    stack = [obj]
    while stack:
        current = stack.pop()
        if isinstance(current, cls):
            if id(current) not in seen:
                seen.add(id(current))
                yield current
            continue
        if dataclasses.is_dataclass(current) and not isinstance(current, type):
            stack.extend(getattr(current, f.name) for f in dataclasses.fields(current))
        elif isinstance(current, dict):
            stack.extend(current.values())
        elif isinstance(current, (list, tuple)):
            stack.extend(current)
