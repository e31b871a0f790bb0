"""Pure helpers shared by the benchmark: statistics, digests, metric names.

Nothing here imports the library or starts a process, so the tests next to
this file exercise it without running a workload.
"""

from __future__ import annotations

import hashlib
import math
import re
import statistics
from typing import Sequence

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
TAIL_BEYOND = 10


def valid_name(name: str) -> bool:
    """Metric and workload names: a letter or digit, then letters, digits, _ . -"""
    return NAME_RE.fullmatch(name) is not None


def valid_unit(unit: str) -> bool:
    return UNIT_RE.fullmatch(unit) is not None


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no values")
    return float(statistics.median(values))


def tail(values: Sequence[float], worse: str = "high") -> tuple[float, float] | None:
    """The most extreme percentile with at least ten samples beyond it.

    Returns (percentile, value) on the side where values are worse, or None
    when fewer than eleven samples exist. For worse="high" with n samples
    the value is the (n-10)-th smallest, so exactly ten lie above it.
    """
    if worse not in ("high", "low"):
        raise ValueError("worse must be 'high' or 'low'")
    n = len(values)
    if n < TAIL_BEYOND + 1:
        return None
    ordered = sorted(values)
    if worse == "high":
        index = n - 1 - TAIL_BEYOND
        return 100.0 * (index + 1) / n, float(ordered[index])
    index = TAIL_BEYOND
    return 100.0 * index / n, float(ordered[index])


def percentile_with_tail(values: Sequence[float], pct: float) -> float | None:
    """The pct-th percentile (nearest rank), or None when fewer than ten
    samples lie beyond it."""
    n = len(values)
    if n == 0:
        return None
    index = max(0, math.ceil(pct * n / 100) - 1)
    if n - 1 - index < TAIL_BEYOND:
        return None
    return float(sorted(values)[index])


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest_mismatches(expected: dict[str, str], actual: dict[str, str]) -> list[str]:
    """Names of outputs whose digest differs, or that one side lacks."""
    names = sorted(set(expected) | set(actual))
    return [name for name in names if expected.get(name) != actual.get(name)]
