import math

import numpy as np

from latent_structure_lab.experiment import KlCurve
from latent_structure_lab.report import (
    json_digest,
    read_curves_csv,
    render_svg,
    write_curves_csv,
    write_manifest,
)


def sample_curves():
    per_unit = tuple(KlCurve(f"urn{i}", (1, 10), (0.1 * i, 0.05 * i)) for i in range(1, 5))
    total = KlCurve("raw", (1, 10), (1.0, 0.5), per_unit)
    flat = KlCurve("ours", (1, 10), (0.8, math.inf))
    return [("raw", "0", total), ("ours", "avg", flat)]


def curve_bits(curve):
    """A curve's label, samples and values (as int64 bit patterns), sub-curves included."""
    subs = None if curve.per_unit is None else [curve_bits(c) for c in curve.per_unit]
    return curve.label, curve.samples.tolist(), curve.values.view(np.int64).tolist(), subs


class TestCurvesCsv:
    def test_round_trip_exact(self, tmp_path):
        path = tmp_path / "curves.csv"
        entries = sample_curves()
        write_curves_csv(path, entries)
        back = read_curves_csv(path)
        assert len(back) == 2
        for (case, run, curve), (case2, run2, curve2) in zip(entries, back):
            assert (case, run) == (case2, run2)
            assert curve2.label == case
            assert curve_bits(curve)[1:] == curve_bits(curve2)[1:]

    def test_empty_is_header_only(self, tmp_path):
        path = tmp_path / "curves.csv"
        write_curves_csv(path, [])
        assert path.read_text() == "case,run,samples,kl,urn\n"
        assert read_curves_csv(path) == []

    def test_infinity_round_trips(self, tmp_path):
        path = tmp_path / "curves.csv"
        write_curves_csv(path, sample_curves())
        back = read_curves_csv(path)
        assert back[1][2].values[1] == math.inf
        assert "ours,avg,10,inf,\n" in path.read_text()

    def test_writes_repr_of_each_value(self, tmp_path):
        # values whose shortest repr needs all 17 digits, or none past the point
        values = np.array([0.1 + 0.2, 1 / 3, 2.0, 1e-300, 5e-324])
        curve = KlCurve("c", np.arange(1, 6), values, (KlCurve("urn1", np.arange(1, 6), values[::-1]),))
        path = tmp_path / "curves.csv"
        write_curves_csv(path, [("c", "0", curve)])
        rows = path.read_text().splitlines()[1:]
        want = [f"c,0,{n},{v!r}," for n, v in zip(range(1, 6), values.tolist())]
        want += [f"c,0,{n},{v!r},1" for n, v in zip(range(1, 6), values[::-1].tolist())]
        assert rows == want
        assert curve_bits(read_curves_csv(path)[0][2]) == curve_bits(curve)


class TestRenderSvg:
    def test_byte_identical(self, tmp_path):
        curves = [(label, c) for label, _, c in sample_curves()]
        a = render_svg(curves, markers={"raw": [2, 5]})
        b = render_svg(curves, markers={"raw": [2, 5]})
        assert a == b
        assert a.startswith("<svg ") and a.rstrip().endswith("</svg>")

    def test_empty_curve_list(self):
        svg = render_svg([])
        assert "<svg" in svg and "</svg>" in svg

    def test_log_scale_skips_nonpositive(self):
        curve = KlCurve("x", (1, 2, 3), (0.0, 1.0, math.inf))
        svg = render_svg([("x", curve)], log_y=True)
        assert "polyline" in svg

    def test_markers_interpolated(self):
        curve = KlCurve("x", (0, 10), (0.0, 1.0))
        svg = render_svg([("x", curve)], markers={"x": [5]})
        assert "circle" in svg


def test_json_digest_stable():
    a = json_digest({"b": 1, "a": [1, 2]})
    b = json_digest({"a": [1, 2], "b": 1})
    assert a == b
    assert json_digest({"a": [1, 3]}) != a


def test_manifest_written_sorted(tmp_path):
    path = tmp_path / "manifest.json"
    write_manifest(path, {"z": 1, "a": 2})
    text = path.read_text()
    assert text.index('"a"') < text.index('"z"')
