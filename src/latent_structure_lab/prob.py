"""Exact categorical arithmetic on small discrete outcome spaces.

Conventions used by every module in this package:

- A bit-pattern over V variables is an integer in [0, 2**V); variable 0 is
  the most significant bit, so the ordered bit reading (1, 1, 0) denotes
  outcome 6.
- Likelihoods are computed in log space (natural log, nats); probabilities
  are only exponentiated when a normalized distribution is emitted.
- Values are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# Largest V for which a 2**V joint table may be materialized.
MAX_JOINT_BITS = 20

WEIGHT_SUM_TOL = 1e-12


class CapacityError(ValueError):
    """An outcome table was requested that this package refuses to build."""


def _read_only(values, dtype=np.float64) -> np.ndarray:
    arr = np.array(values, dtype=dtype, copy=True)
    arr.setflags(write=False)
    return arr


def _check_weights(w: np.ndarray) -> None:
    """Raise Categorical's ValueError for the first row of (..., K) weights
    that has a negative entry or a sum not within WEIGHT_SUM_TOL of 1."""
    totals = w.sum(axis=-1)
    if not (w < 0.0).any() and (abs(totals - 1.0) <= WEIGHT_SUM_TOL).all():
        return
    for row, total in zip(w.reshape(-1, w.shape[-1]), totals.reshape(-1).tolist()):
        if (row < 0.0).any():
            raise ValueError("weights must be nonnegative")
        if not abs(total - 1.0) <= WEIGHT_SUM_TOL:
            raise ValueError(f"weights must sum to 1 (got {total!r})")


@dataclass(frozen=True, eq=False)
class Categorical:
    """Probability vector over K discrete outcomes."""

    weights: np.ndarray

    def __post_init__(self) -> None:
        w = _read_only(self.weights)
        if w.ndim != 1 or w.size < 1:
            raise ValueError("weights must be a non-empty 1-d vector")
        _check_weights(w)
        object.__setattr__(self, "weights", w)

    @property
    def k(self) -> int:
        return int(self.weights.size)

    @staticmethod
    def uniform(k: int) -> "Categorical":
        if k < 1:
            raise ValueError("k must be >= 1")
        return Categorical(np.full(k, 1.0 / k))

    @staticmethod
    def normalized(values) -> "Categorical":
        """Build from nonnegative weights, rescaling them to sum to 1."""
        arr = np.asarray(values, dtype=np.float64)
        total = float(arr.sum())
        if total <= 0.0 or not math.isfinite(total):
            raise ValueError("weights must have a positive finite sum")
        return Categorical(arr / total)

    def to_list(self) -> list[float]:
        return [float(x) for x in self.weights]


@dataclass(frozen=True, eq=False)
class TallyVector:
    """Checked outcome counts over K outcomes: one unit's tally as an object.

    The estimators take (..., K) count arrays; this is their one-unit,
    validated form. Counts are stored as float64 so that
    responsibility-weighted (fractional) tallies share the type; integer
    tallies stay exact up to 2**53.
    """

    counts: np.ndarray
    total: float = None  # type: ignore[assignment]  # derived in __post_init__

    def __post_init__(self) -> None:
        c = _read_only(self.counts)
        if c.ndim != 1 or c.size < 1:
            raise ValueError("counts must be a non-empty 1-d vector")
        if np.any(c < 0.0) or not np.all(np.isfinite(c)):
            raise ValueError("counts must be finite and nonnegative")
        object.__setattr__(self, "counts", c)
        object.__setattr__(self, "total", float(c.sum()))

    @property
    def k(self) -> int:
        return int(self.counts.size)

    def to_list(self) -> list[float]:
        return [float(x) for x in self.counts]


@dataclass(frozen=True)
class Grouping:
    """Ordered partition of variables 0..V-1 into G ordered groups of size S.

    Slot order matters: within a group, the first listed variable supplies
    the most significant bit of that group's outcome index.
    """

    slots: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        groups = tuple(tuple(int(i) for i in grp) for grp in self.slots)
        if not groups or not groups[0]:
            raise ValueError("grouping must contain at least one non-empty group")
        size = len(groups[0])
        if any(len(grp) != size for grp in groups):
            raise ValueError("all groups must have the same size")
        flat = [i for grp in groups for i in grp]
        v = len(flat)
        if sorted(flat) != list(range(v)):
            raise ValueError("groups must cover each variable index exactly once")
        object.__setattr__(self, "slots", groups)

    @property
    def v(self) -> int:
        return sum(len(grp) for grp in self.slots)

    @property
    def g(self) -> int:
        return len(self.slots)

    @property
    def s(self) -> int:
        return len(self.slots[0])

    @staticmethod
    def identity(v: int, s: int) -> "Grouping":
        if v % s:
            raise ValueError("s must divide v")
        return Grouping(tuple(tuple(range(j, j + s)) for j in range(0, v, s)))


def kl_divergence(p: Categorical, q: Categorical) -> float:
    """KL(p || q) in nats, with 0 * ln(0/q) = 0.

    Unsupported mass (p_j > 0 where q_j = 0) yields +inf, which is a value
    and not an error: unsmoothed empirical estimates may legitimately be
    compared early in a run. The one-row case of kl_divergence_rows.
    """
    if p.k != q.k:
        raise ValueError(f"dimension mismatch: {p.k} vs {q.k}")
    return float(_kl_rows(p.weights, q.weights[None])[0])


def kl_divergence_rows(p: Categorical, q) -> np.ndarray:
    """KL(p || row) for every row of a (..., K) array of probability vectors.

    Each row is checked as Categorical checks its weights, raising the same
    ValueError. Returns an array of shape q.shape[:-1].
    """
    q = np.asarray(q, dtype=np.float64)
    if q.ndim == 0 or q.shape[-1] != p.k:
        raise ValueError(f"q must have shape (..., {p.k}), got {q.shape}")
    _check_weights(q)
    return _kl_rows(p.weights, q)


def _kl_rows(pw: np.ndarray, q: np.ndarray) -> np.ndarray:
    """KL from weights pw to each row of q (..., K) over pw's support.

    Each row takes one np.dot of contiguous vectors, so it rounds as a lone
    vector pair would (a matrix-vector product rounds differently). A zero
    of q on the support gives log(0) = -inf and so a dot of +inf. The log
    difference is formed in place, in one (rows, K) temporary.
    """
    mask = pw > 0.0
    qw = q.reshape(-1, q.shape[-1])
    if not mask.all():
        pw, qw = pw[mask], qw[:, mask]
    with np.errstate(divide="ignore"):
        diff = np.log(np.ascontiguousarray(qw))
        np.subtract(np.log(pw), diff, out=diff)
    return np.array([np.dot(pw, row) for row in diff]).reshape(q.shape[:-1])


def dirichlet_mean_rows(counts: np.ndarray, pseudocount: float = 1.0) -> np.ndarray:
    """Posterior means under a symmetric Dirichlet prior with the given
    pseudocount, one per row of (..., K) counts, as a (..., K) array."""
    if not pseudocount > 0.0:
        raise ValueError("pseudocount must be positive")
    k = counts.shape[-1]
    return (counts + pseudocount) / (counts.sum(axis=-1, keepdims=True) + k * pseudocount)


def _check_joint_capacity(v: int) -> None:
    if v > MAX_JOINT_BITS:
        raise CapacityError(f"refusing to build a 2**{v} joint table (limit 2**{MAX_JOINT_BITS})")


def joint_from_independent_bits(bit_probs: Sequence[float]) -> Categorical:
    """Joint over 2**V patterns for V independent bits (variable 0 = MSB).

    The one-row case of joint_from_independent_bits_rows."""
    probs = np.asarray(bit_probs, dtype=np.float64)
    return Categorical(joint_from_independent_bits_rows(probs[None])[0])


def joint_from_independent_bits_rows(bit_probs: np.ndarray) -> np.ndarray:
    """(C, 2**V) joints of the V independent bits in each row of (C, V)
    probabilities: the left-to-right outer product of the (1 - p, p) pairs."""
    probs = np.asarray(bit_probs, dtype=np.float64)
    if probs.ndim != 2 or probs.shape[1] < 1:
        raise ValueError("need at least one bit probability")
    _check_joint_capacity(probs.shape[1])
    if ((probs < 0.0) | (probs > 1.0)).any():
        raise ValueError("bit probabilities must lie in [0, 1]")
    pairs = np.stack((1.0 - probs, probs), axis=2)
    return joint_from_grouping_rows(Grouping.identity(probs.shape[1], 1), pairs)


def group_outcomes(patterns, grouping: Grouping) -> np.ndarray:
    """Project bit-patterns onto each group, MSB-first per slot order.

    Returns an (N, G) integer array of group outcomes in [0, 2**S).
    """
    v = grouping.v
    arr = np.asarray(patterns, dtype=np.int64)
    out = np.empty((arr.size, grouping.g), dtype=np.int64)
    for j, grp in enumerate(grouping.slots):
        idx = np.zeros(arr.size, dtype=np.int64)
        for var in grp:
            idx = (idx << 1) | ((arr >> (v - 1 - var)) & 1)
        out[:, j] = idx
    return out


def joint_from_grouping(grouping: Grouping, group_dists: Sequence[Categorical]) -> Categorical:
    """Joint over 2**V implied by per-group distributions on a grouping.

    The one-row case of joint_from_grouping_rows.
    """
    if len(group_dists) != grouping.g:
        raise ValueError(f"expected {grouping.g} group distributions, got {len(group_dists)}")
    cell = 1 << grouping.s
    for dist in group_dists:
        if dist.k != cell:
            raise ValueError(f"group distributions must have {cell} outcomes")
    weights = np.stack([dist.weights for dist in group_dists])
    return Categorical(joint_from_grouping_rows(grouping, weights[None])[0])


def joint_from_grouping_rows(grouping: Grouping, group_dists: np.ndarray) -> np.ndarray:
    """(C, 2**V) joints implied by (C, G, 2**S) per-group distributions on a grouping.

    The groups are multiplied in from left to right, as a per-pattern
    product over the groups would take them, so each weight is the same
    float; the product is indexed in slot order and its bit axes are then
    moved to variable order.
    """
    v = grouping.v
    _check_joint_capacity(v)
    dists = np.asarray(group_dists, dtype=np.float64)
    if dists.ndim != 3 or dists.shape[1:] != (grouping.g, 1 << grouping.s):
        raise ValueError(f"group distributions must have shape (C, {grouping.g}, {1 << grouping.s})")
    rows, cell = len(dists), dists.shape[2]
    joint = np.ones((rows, 1))
    for j in range(grouping.g):
        joint = (joint[:, :, None] * dists[:, j, None, :]).reshape(rows, joint.shape[1] * cell)
    order = [var for grp in grouping.slots for var in grp]
    axes = (0, *(1 + np.argsort(order)))
    return joint.reshape((rows,) + (2,) * v).transpose(axes).reshape(rows, 1 << v)


def total_variation(p: Categorical, q: Categorical) -> float:
    if p.k != q.k:
        raise ValueError(f"dimension mismatch: {p.k} vs {q.k}")
    return 0.5 * float(np.abs(p.weights - q.weights).sum())
