"""Curve files and figures: CSV round-trip, deterministic SVG, JSON outputs.

CSV columns are case,run,samples,kl,urn with an empty urn for curve totals
and 1-based urn indices for per-urn breakdown rows. KL values are written
with repr so a re-read reproduces the floats exactly.

SVG output is plain text assembled with fixed-precision coordinates, so
identical inputs produce byte-identical files. Every JSON output (the
manifest, `lsl estimate` and `lsl search` results) goes through write_json.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from pathlib import Path
from typing import Mapping, Sequence

from .experiment import KlCurve
from .simulate import fnv1a64

_PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#ff7f0e",
    "#9467bd",
    "#8c564b",
    "#e377c2",
    "#7f7f7f",
    "#bcbd22",
    "#17becf",
)

CurveEntry = tuple[str, str, KlCurve]  # (case label, run label, curve)


def _format_kl(value: float) -> str:
    if math.isinf(value):
        return "inf"
    return repr(value)


def write_curves_csv(path: str | Path, entries: Sequence[CurveEntry]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["case", "run", "samples", "kl", "urn"])
        for case, run, curve in entries:
            for urn, sub in [("", curve), *enumerate(curve.per_unit or (), start=1)]:
                for n, v in zip(sub.samples.tolist(), sub.values.tolist()):
                    writer.writerow([case, run, n, _format_kl(v), urn])


def read_curves_csv(path: str | Path) -> list[CurveEntry]:
    """Rebuild curve entries; per-urn rows become per_unit sub-curves."""
    totals: dict[tuple[str, str], list[tuple[int, float]]] = {}
    units: dict[tuple[str, str], dict[int, list[tuple[int, float]]]] = {}
    order: list[tuple[str, str]] = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["case", "run", "samples", "kl", "urn"]:
            raise ValueError(f"{path}: unexpected CSV header {header}")
        for row in reader:
            case, run, samples, kl, urn = row
            key = (case, run)
            if key not in totals:
                totals[key] = []
                units[key] = {}
                order.append(key)
            point = (int(samples), float(kl))
            if urn == "":
                totals[key].append(point)
            else:
                units[key].setdefault(int(urn), []).append(point)

    def curve(label: str, points: list[tuple[int, float]], per_unit=None) -> KlCurve:
        return KlCurve(label, [n for n, _ in points], [v for _, v in points], per_unit)

    out: list[CurveEntry] = []
    for key in order:
        case, run = key
        per_unit = None
        if units[key]:
            per_unit = tuple(curve(f"urn{i}", units[key][i]) for i in sorted(units[key]))
        out.append((case, run, curve(case, totals[key], per_unit)))
    return out


def _nice_ticks(lo: float, hi: float, target: int = 6) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    raw_step = (hi - lo) / max(target - 1, 1)
    mag = 10.0 ** math.floor(math.log10(raw_step))
    step = next(m * mag for m in (1.0, 2.0, 5.0, 10.0) if m * mag >= raw_step)
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * step:
        ticks.append(round(t, 12))
        t += step
    return ticks


def _fmt_num(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return f"{x:g}"


def render_svg(
    curves: Sequence[tuple[str, KlCurve]],
    *,
    log_y: bool = False,
    markers: Mapping[str, Sequence[int]] | None = None,
    title: str = "",
    width: int = 720,
    height: int = 480,
) -> str:
    """One polyline per labeled curve, legend from labels, optional log y.

    Non-finite points (and nonpositive points in log mode) are skipped.
    markers maps a curve label to sample positions drawn as dots on that
    curve, with linear interpolation between checkpoints.
    """
    ml, mr, mt, mb = 60, 16, 28 if title else 16, 40
    px0, px1 = ml, width - mr
    py0, py1 = height - mb, mt

    xs = [n for _, c in curves for n in c.samples.tolist()]
    ys = [
        v
        for _, c in curves
        for v in c.values.tolist()
        if math.isfinite(v) and (not log_y or v > 0.0)
    ]
    x_lo, x_hi = (min(xs), max(xs)) if xs else (0, 1)
    if x_hi == x_lo:
        x_hi = x_lo + 1
    if log_y:
        y_lo = math.log10(min(ys)) if ys else -1.0
        y_hi = math.log10(max(ys)) if ys else 0.0
        if y_hi == y_lo:
            y_hi = y_lo + 1.0
    else:
        y_lo = 0.0
        y_hi = (max(ys) * 1.05) if ys else 1.0
        if y_hi == 0.0:
            y_hi = 1.0

    def sx(n: float) -> float:
        return px0 + (n - x_lo) / (x_hi - x_lo) * (px1 - px0)

    def y_at(vv: float) -> float:
        """Pixel row of a value on the y scale, which is log10 of KL in log mode."""
        return py0 - (vv - y_lo) / (y_hi - y_lo) * (py0 - py1)

    def sy(v: float) -> float:
        return y_at(math.log10(v) if log_y else v)

    if log_y:
        decades = range(math.floor(y_lo), math.floor(y_hi) + 1)
        y_ticks = [(e, f"1e{e}") for e in decades if y_lo <= e <= y_hi]
    else:
        y_ticks = [(t, _fmt_num(t)) for t in _nice_ticks(y_lo, y_hi)]

    parts: list[str] = []
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
    )
    parts.append(f'<rect width="{width}" height="{height}" fill="white"/>')
    if title:
        parts.append(
            f'<text x="{width / 2:.2f}" y="18" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13">{title}</text>'
        )
    parts.append(
        f'<line x1="{px0}" y1="{py0}" x2="{px1}" y2="{py0}" stroke="black" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{px0}" y1="{py0}" x2="{px0}" y2="{py1}" stroke="black" stroke-width="1"/>'
    )
    for t in _nice_ticks(x_lo, x_hi):
        x = sx(t)
        parts.append(f'<line x1="{x:.2f}" y1="{py0}" x2="{x:.2f}" y2="{py0 + 4}" stroke="black"/>')
        parts.append(
            f'<text x="{x:.2f}" y="{py0 + 16}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="10">{_fmt_num(t)}</text>'
        )
    for position, label in y_ticks:
        y = y_at(position)
        parts.append(f'<line x1="{px0 - 4}" y1="{y:.2f}" x2="{px0}" y2="{y:.2f}" stroke="black"/>')
        parts.append(
            f'<text x="{px0 - 7}" y="{y + 3:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="10">{label}</text>'
        )
    parts.append(
        f'<text x="{(px0 + px1) / 2:.2f}" y="{height - 8}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="11">samples seen</text>'
    )
    parts.append(
        f'<text x="14" y="{(py0 + py1) / 2:.2f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="11" '
        f'transform="rotate(-90 14 {(py0 + py1) / 2:.2f})">KL divergence (nats)</text>'
    )

    marker_map = markers or {}
    for index, (label, curve) in enumerate(curves):
        color = _PALETTE[index % len(_PALETTE)]
        pts = [
            (n, v)
            for n, v in zip(curve.samples.tolist(), curve.values.tolist())
            if math.isfinite(v) and (not log_y or v > 0.0)
        ]
        coords = " ".join(f"{sx(n):.2f},{sy(v):.2f}" for n, v in pts)
        if coords:
            parts.append(
                f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{coords}"/>'
            )
        for m in marker_map.get(label, ()):
            y = _interpolate(pts, m)
            if y is None or (log_y and y <= 0.0):
                continue
            parts.append(
                f'<circle cx="{sx(m):.2f}" cy="{sy(y):.2f}" r="2.5" fill="{color}"/>'
            )
        ly = mt + 14 * index
        parts.append(
            f'<line x1="{px1 - 150}" y1="{ly + 4}" x2="{px1 - 126}" y2="{ly + 4}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{px1 - 120}" y="{ly + 8}" font-family="sans-serif" '
            f'font-size="11">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _interpolate(pts: Sequence[tuple[int, float]], x: float) -> float | None:
    if not pts or x < pts[0][0] or x > pts[-1][0]:
        return None
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        if x0 <= x <= x1:
            if x1 == x0:
                return y0
            frac = (x - x0) / (x1 - x0)
            return y0 + frac * (y1 - y0)
    return pts[-1][1] if x == pts[-1][0] else None


def write_svg(path: str | Path, svg_text: str) -> None:
    Path(path).write_text(svg_text, encoding="utf-8")


def json_digest(payload: dict) -> int:
    """FNV-1a over the canonical JSON bytes of a payload."""
    return fnv1a64(json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8"))


def write_json(path: str | Path | None, payload: dict) -> None:
    """Write payload as key-sorted JSON indented by 2 plus a newline, to
    path, or to standard output when path is None or empty (no --out)."""
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if not path:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")
