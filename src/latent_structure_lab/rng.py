"""splitmix64: the single source of randomness for the whole package.

Chosen because it is a dozen lines of integer arithmetic that any language
reproduces exactly, which makes model files and datasets bit-identical
across platforms. Draws are mapped to [0, 1) by keeping the top 53 bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_UNIT = float(1 << 53)


@dataclass(frozen=True)
class RngState:
    """Immutable splitmix64 state; every draw returns the advanced state."""

    state: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "state", int(self.state) & _MASK64)


def next_u64(rng: RngState) -> tuple[int, RngState]:
    """One splitmix64 step: (output, advanced state)."""
    s = (rng.state + _GOLDEN) & _MASK64
    z = s
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    z ^= z >> 31
    return z, RngState(s)


def next_unit(rng: RngState) -> tuple[float, RngState]:
    """Uniform draw in [0, 1) from the top 53 bits of one step."""
    z, rng = next_u64(rng)
    return (z >> 11) / _UNIT, rng


def next_units(rng: RngState | np.ndarray, n: int) -> tuple[np.ndarray, RngState | np.ndarray]:
    """n unit draws at once and the advanced state, equal to n next_unit calls.

    rng is one state, or an (S,) uint64 array of states: then the draws are
    (S, n), row s drawn from states[s], and the advanced states come back as
    an (S,) array. The j-th step's state is seed + j*golden (mod 2**64), so
    every stream is computed in wrapping uint64 arithmetic without a loop.
    """
    if n < 0:
        raise ValueError(f"cannot draw {n} units")
    if isinstance(rng, RngState):
        units, states = next_units(np.array([rng.state], dtype=np.uint64), n)
        return units[0], RngState(int(states[0]))
    states = np.asarray(rng, dtype=np.uint64)
    z = _mix(np.arange(1, n + 1, dtype=np.uint64) * np.uint64(_GOLDEN) + states[:, None])
    return (z >> np.uint64(11)).astype(np.float64) / _UNIT, states + np.uint64(n * _GOLDEN & _MASK64)


def _mix(z: np.ndarray) -> np.ndarray:
    """splitmix64's output function of advanced uint64 states, in wrapping arithmetic."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


def derive_seed(base: int, index: int) -> int:
    """Stable sub-seed: the first output of a stream seeded with base+index."""
    z, _ = next_u64(RngState(base + index))
    return z


def derive_seeds(base: int, indices) -> np.ndarray:
    """derive_seed(base, i) for every integer i of indices, as a uint64 array
    of indices' shape; base + i wraps modulo 2**64 as in RngState."""
    index = np.asarray(indices, dtype=np.int64).astype(np.uint64)
    return _mix(index + np.uint64((base + _GOLDEN) & _MASK64))


def draw_index(weights: np.ndarray, rng: RngState) -> tuple[int, RngState]:
    """Inverse-CDF draw over a probability vector; exactly one advance."""
    u, rng = next_unit(rng)
    acc = 0.0
    last = len(weights) - 1
    for i, w in enumerate(weights):
        acc += float(w)
        if u < acc:
            return i, rng
    return last, rng


def shuffled(items, rng: RngState) -> tuple[list, RngState]:
    """Fisher-Yates shuffle driven by unit draws; n-1 advances for n items."""
    out = list(items)
    for i in range(len(out) - 1, 0, -1):
        u, rng = next_unit(rng)
        j = min(int(u * (i + 1)), i)
        out[i], out[j] = out[j], out[i]
    return out, rng
