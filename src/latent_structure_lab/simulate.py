"""Hidden ground-truth models, sample streams, and their file formats.

Two setups are supported: four urns of eight colors sampled with unequal
weights, and length-V bit-vectors whose hidden structure is an ordered
grouping of variables with one of two shared group distributions.

Indices are 0-based everywhere in memory. File formats and logs print
1-based urn/color/variable labels; readers convert back.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .prob import Categorical, Grouping, joint_from_grouping, total_variation
from .rng import RngState, draw_index, next_unit, next_units, shuffled

MODEL_FORMAT_VERSION = 1

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


class ConfigError(ValueError):
    """A truth configuration that cannot be satisfied."""


class DatasetParseError(ValueError):
    """A dataset or model file that does not match its format."""


@dataclass(frozen=True)
class UrnConfig:
    """Configuration for the four-urns truth generator."""

    n_urns: int = 4
    n_colors: int = 8
    urn_weights: tuple[float, ...] = (0.025, 0.325, 0.325, 0.325)
    assignment: tuple[str, ...] = ("a", "b", "a", "b")
    type_dists: tuple[tuple[float, ...], tuple[float, ...]] | None = None
    min_separation: float = 0.3
    max_retries: int = 1000


def _alternating(g: int) -> tuple[str, ...]:
    return tuple("a" if j % 2 == 0 else "b" for j in range(g))


@dataclass(frozen=True)
class BitsConfig:
    """Configuration for the bit-vector truth generator."""

    v: int = 12
    g: int = 4
    s: int = 3
    assignment: tuple[str, ...] | None = None
    type_dists: tuple[tuple[float, ...], tuple[float, ...]] | None = None
    grouping: tuple[tuple[int, ...], ...] | None = None
    min_separation: float = 0.3
    max_retries: int = 1000


@dataclass(frozen=True)
class UrnTruth:
    type_dists: tuple[Categorical, Categorical]
    assignment: tuple[str, ...]
    urn_weights: Categorical

    @property
    def n_urns(self) -> int:
        return len(self.assignment)

    @property
    def n_colors(self) -> int:
        return self.type_dists[0].k

    def urn_dist(self, urn_id: int) -> Categorical:
        return self.type_dists[0 if self.assignment[urn_id] == "a" else 1]


@dataclass(frozen=True)
class BitVectorTruth:
    hidden_grouping: Grouping
    type_dists: tuple[Categorical, Categorical]
    assignment: tuple[str, ...]

    @property
    def v(self) -> int:
        return self.hidden_grouping.v

    def group_dist(self, group_id: int) -> Categorical:
        return self.type_dists[0 if self.assignment[group_id] == "a" else 1]


def _check_assignment(assignment: Sequence[str], n: int) -> tuple[str, ...]:
    labels = tuple(assignment)
    if len(labels) != n or any(lab not in ("a", "b") for lab in labels):
        raise ConfigError(f"assignment must be {n} labels from {{a, b}}")
    return labels


def _random_categorical(k: int, rng: RngState) -> tuple[Categorical, RngState]:
    # Flat Dirichlet via normalized unit-exponential draws.
    draws = []
    for _ in range(k):
        u, rng = next_unit(rng)
        draws.append(-math.log(1.0 - u))
    return Categorical.normalized(draws), rng


def _draw_type_dists(
    k: int,
    explicit: tuple[tuple[float, ...], tuple[float, ...]] | None,
    min_separation: float,
    max_retries: int,
    rng: RngState,
) -> tuple[tuple[Categorical, Categorical], RngState]:
    if explicit is not None:
        pa, pb = (Categorical(np.asarray(d, dtype=np.float64)) for d in explicit)
        if pa.k != k or pb.k != k:
            raise ConfigError(f"type distributions must have {k} outcomes")
        if total_variation(pa, pb) < min_separation:
            raise ConfigError(
                f"explicit type distributions are separated by less than {min_separation}"
            )
        return (pa, pb), rng
    for _ in range(max_retries):
        pa, rng = _random_categorical(k, rng)
        pb, rng = _random_categorical(k, rng)
        if total_variation(pa, pb) >= min_separation:
            return (pa, pb), rng
    raise ConfigError(
        f"could not draw type distributions with separation >= {min_separation} "
        f"in {max_retries} attempts"
    )


def build_urn_truth(config: UrnConfig, seed: int) -> UrnTruth:
    """Deterministically build an urns truth from (config, seed)."""
    assignment = _check_assignment(config.assignment, config.n_urns)
    weights = Categorical(np.asarray(config.urn_weights, dtype=np.float64))
    if weights.k != config.n_urns:
        raise ConfigError(f"urn_weights must have {config.n_urns} entries")
    rng = RngState(seed)
    dists, _ = _draw_type_dists(
        config.n_colors, config.type_dists, config.min_separation, config.max_retries, rng
    )
    return UrnTruth(type_dists=dists, assignment=assignment, urn_weights=weights)


def _inverse_cdf(weights: np.ndarray, units: np.ndarray) -> np.ndarray:
    """draw_index for many units: the same cumulative sums, clipped to the last index."""
    return np.minimum(np.searchsorted(np.cumsum(weights), units, side="right"), len(weights) - 1)


def draw_urn_samples(truth: UrnTruth, rng: RngState, n: int) -> tuple[np.ndarray, RngState]:
    """n (urn, color) draws as an (n, 2) array; each row takes two unit draws,
    the urn by inverse CDF of the urn weights and then the color within it."""
    units, rng = next_units(rng, 2 * n)
    units = units.reshape(n, 2)
    out = np.empty((n, 2), dtype=np.int64)
    out[:, 0] = _inverse_cdf(truth.urn_weights.weights, units[:, 0])
    for urn in range(truth.n_urns):
        rows = out[:, 0] == urn
        out[rows, 1] = _inverse_cdf(truth.urn_dist(urn).weights, units[rows, 1])
    return out, rng


def build_bitvector_truth(config: BitsConfig, seed: int) -> BitVectorTruth:
    """Deterministically build a bit-vector truth from (config, seed).

    Type distributions are drawn first, then the hidden grouping (uniform
    over ordered chunkings via a seeded Fisher-Yates shuffle).
    """
    if config.v != config.g * config.s:
        raise ConfigError(f"v must equal g*s (got {config.v} != {config.g}*{config.s})")
    assignment = _check_assignment(
        config.assignment if config.assignment is not None else _alternating(config.g),
        config.g,
    )
    rng = RngState(seed)
    dists, rng = _draw_type_dists(
        1 << config.s, config.type_dists, config.min_separation, config.max_retries, rng
    )
    if config.grouping is not None:
        grouping = Grouping(tuple(tuple(grp) for grp in config.grouping))
        if grouping.v != config.v or grouping.g != config.g:
            raise ConfigError("explicit grouping does not match v/g/s")
    else:
        order, rng = shuffled(range(config.v), rng)
        grouping = Grouping(
            tuple(tuple(order[j : j + config.s]) for j in range(0, config.v, config.s))
        )
    return BitVectorTruth(hidden_grouping=grouping, type_dists=dists, assignment=assignment)


def draw_bitvector(truth: BitVectorTruth, rng: RngState) -> tuple[int, RngState]:
    """Draw one V-bit pattern; one RNG advance per group."""
    v = truth.v
    s = truth.hidden_grouping.s
    pattern = 0
    for j, grp in enumerate(truth.hidden_grouping.slots):
        outcome, rng = draw_index(truth.group_dist(j).weights, rng)
        for pos, var in enumerate(grp):
            bit = (outcome >> (s - 1 - pos)) & 1
            pattern |= bit << (v - 1 - var)
    return pattern, rng


def draw_bitvectors(truth: BitVectorTruth, rng: RngState, n: int) -> tuple[np.ndarray, RngState]:
    """n draw_bitvector calls at once: the patterns as an array (object dtype past 63 bits)."""
    v = truth.v
    s = truth.hidden_grouping.s
    units, rng = next_units(rng, n * truth.hidden_grouping.g)
    units = units.reshape(n, truth.hidden_grouping.g)
    patterns = np.zeros(n, dtype=np.int64 if v <= 63 else object)
    for j, grp in enumerate(truth.hidden_grouping.slots):
        outcome = _inverse_cdf(truth.group_dist(j).weights, units[:, j])
        for pos, var in enumerate(grp):
            bit = ((outcome >> (s - 1 - pos)) & 1).astype(patterns.dtype)
            patterns |= bit << (v - 1 - var)
    return patterns, rng


def true_joint(truth: BitVectorTruth) -> Categorical:
    """The truth's implied joint over 2**V patterns."""
    return joint_from_grouping(
        truth.hidden_grouping, [truth.group_dist(j) for j in range(truth.hidden_grouping.g)]
    )


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------


def pattern_to_bitstring(pattern: int, v: int) -> str:
    return format(pattern, f"0{v}b")


def bitstring_to_pattern(bits: str) -> tuple[int, int]:
    if not bits or any(c not in "01" for c in bits):
        raise ValueError(f"not a bit string: {bits!r}")
    return int(bits, 2), len(bits)


def _write_json_lines(path: str | Path, records: Iterable[dict]) -> None:
    """One compact, key-sorted JSON object per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n")


def _read_json_lines(
    path: str | Path, what: str, parse: Callable[[dict], object]
) -> Iterator[tuple[int, object]]:
    """(line number, parse(record)) for each non-blank line; a line that is
    not JSON or that parse rejects raises DatasetParseError naming path:line."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                yield lineno, parse(json.loads(line))
            except (json.JSONDecodeError, KeyError, TypeError, ValueError, OverflowError) as exc:
                raise DatasetParseError(f"{path}:{lineno}: malformed {what} ({exc})") from exc


def write_model(path: str | Path, truth: UrnTruth | BitVectorTruth) -> None:
    payload: dict = {
        "format_version": MODEL_FORMAT_VERSION,
        "type_dists": [d.to_list() for d in truth.type_dists],
        "assignment": list(truth.assignment),
    }
    if isinstance(truth, UrnTruth):
        payload["kind"] = "urns"
        payload["urn_weights"] = truth.urn_weights.to_list()
    else:
        payload["kind"] = "bits"
        payload["grouping"] = [[var + 1 for var in grp] for grp in truth.hidden_grouping.slots]
    _write_json_lines(path, [payload])


def read_model(path: str | Path) -> UrnTruth | BitVectorTruth:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DatasetParseError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise DatasetParseError(f"{path}: a model file holds a JSON object, not {type(payload).__name__}")
    kind = payload.get("kind")
    if payload.get("format_version") != MODEL_FORMAT_VERSION:
        raise DatasetParseError(f"{path}: unsupported format_version")
    try:
        dists = tuple(Categorical(np.asarray(d, dtype=np.float64)) for d in payload["type_dists"])
        assignment = tuple(payload["assignment"])
        if kind == "urns":
            return UrnTruth(
                type_dists=dists,  # type: ignore[arg-type]
                assignment=assignment,
                urn_weights=Categorical(np.asarray(payload["urn_weights"], dtype=np.float64)),
            )
        if kind == "bits":
            grouping = Grouping(tuple(tuple(var - 1 for var in grp) for grp in payload["grouping"]))
            return BitVectorTruth(
                hidden_grouping=grouping,
                type_dists=dists,  # type: ignore[arg-type]
                assignment=assignment,
            )
    except (KeyError, ValueError) as exc:
        raise DatasetParseError(f"{path}: malformed model file ({exc})") from exc
    raise DatasetParseError(f"{path}: unknown model kind {kind!r}")


def write_urn_dataset(path: str | Path, rows: np.ndarray) -> None:
    """JSON-lines of {"urn": 1-based, "color": 1-based} from (n, 2) 0-based
    (urn, color) rows, as draw_urn_samples returns them."""
    labels = np.asarray(rows).tolist()
    _write_json_lines(path, ({"urn": urn + 1, "color": color + 1} for urn, color in labels))


def _urn_row(record: dict) -> np.ndarray:
    row = np.array([int(record["urn"]) - 1, int(record["color"]) - 1], dtype=np.int64)
    if (row < 0).any():
        raise ValueError("urn and color labels start at 1")
    return row


def read_urn_dataset(path: str | Path) -> np.ndarray:
    """The (n, 2) int64 array of 0-based (urn, color) rows that write_urn_dataset wrote."""
    rows = [row for _, row in _read_json_lines(path, "urn sample", _urn_row)]
    return np.array(rows, dtype=np.int64).reshape(-1, 2)


def write_bits_dataset(path: str | Path, patterns: Iterable[int], v: int) -> None:
    """JSON-lines of {"bits": "010..."} with one char per variable, MSB first."""
    _write_json_lines(path, ({"bits": pattern_to_bitstring(pattern, v)} for pattern in patterns))


def read_bits_dataset(path: str | Path) -> tuple[list[int], int]:
    """Returns (patterns, v); v is inferred from the common line width."""
    patterns: list[int] = []
    v = 0
    for lineno, (pattern, width) in _read_json_lines(
        path, "bit vector", lambda record: bitstring_to_pattern(record["bits"])
    ):
        if v == 0:
            v = width
        elif width != v:
            raise DatasetParseError(f"{path}:{lineno}: bit width {width} != {v}")
        patterns.append(pattern)
    return patterns, v


def fnv1a64(data: bytes) -> int:
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK64
    return h


def dataset_digest(patterns: Sequence[int], v: int) -> int:
    """FNV-1a hash of the canonical dataset bytes (bit strings, one per line)."""
    text = "".join(pattern_to_bitstring(p, v) + "\n" for p in patterns)
    return fnv1a64(text.encode("utf-8"))
