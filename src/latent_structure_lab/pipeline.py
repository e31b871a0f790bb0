"""Experiment orchestration: run a spec, write curves, figures, manifest."""

from __future__ import annotations

import time
from pathlib import Path

from .experiment import (
    ExperimentSpec,
    run_bitvectors,
    run_four_urns,
    spec_to_jsonable,
)
from .report import json_digest, render_svg, write_curves_csv, write_json, write_svg
from .rng import derive_seed

MANIFEST_FORMAT_VERSION = 1


def run_experiment(spec: ExperimentSpec, out_dir: str | Path, allow_expensive: bool = False) -> dict:
    """Run one experiment spec and write curves.csv, figures, manifest.json.

    The CSV holds the averaged curves plus run 0's curves (runs beyond the
    first are reproducible from the spec; dumping them all would bloat the
    file). Returns the manifest dict. The manifest includes wall times and
    is therefore the one output that is not byte-stable across invocations.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    outputs: list[str] = []

    if spec.kind == "four_urns":
        result = run_four_urns(spec)
        run_seconds = time.perf_counter() - started
        run0 = result.runs[0]
        entries = [
            ("raw", "avg", result.avg_raw),
            ("ours", "avg", result.avg_ours),
            ("raw", "0", run0.raw),
            ("ours", "0", run0.ours),
        ]
        if spec.emit_hard_readout and result.avg_ours_hard is not None:
            entries.insert(2, ("ours_hard", "avg", result.avg_ours_hard))
            entries.append(("ours_hard", "0", run0.ours_hard))
        write_curves_csv(out / "curves.csv", entries)
        outputs.append("curves.csv")

        totals = [
            ("raw (run 0)", run0.raw),
            ("ours (run 0)", run0.ours),
            ("raw (avg)", result.avg_raw),
            ("ours (avg)", result.avg_ours),
        ]
        write_svg(out / "fig_totals.svg", render_svg(totals, title="Four urns: total KL error"))
        outputs.append("fig_totals.svg")

        per_urn = [(f"raw urn{i + 1}", c) for i, c in enumerate(run0.raw.per_unit or ())]
        per_urn += [(f"ours urn{i + 1}", c) for i, c in enumerate(run0.ours.per_unit or ())]
        markers = {
            "raw urn1": list(run0.urn1_samples),
            "ours urn1": list(run0.urn1_samples),
        }
        write_svg(
            out / "fig_per_urn.svg",
            render_svg(per_urn, markers=markers, title="Four urns: per-urn KL error (run 0)"),
        )
        outputs.append("fig_per_urn.svg")
    else:
        result = run_bitvectors(spec, allow_expensive=allow_expensive)
        run_seconds = time.perf_counter() - started
        entries = [(case, "avg", result.averaged[case]) for case in spec.cases]
        entries += [(case, "0", result.runs[0].curves[case]) for case in spec.cases]
        write_curves_csv(out / "curves.csv", entries)
        outputs.append("curves.csv")
        cases_fig = [(case, result.averaged[case]) for case in spec.cases]
        write_svg(
            out / "fig_cases.svg",
            render_svg(cases_fig, log_y=True, title="Bit vectors: KL error by case"),
        )
        outputs.append("fig_cases.svg")

    manifest = {
        "format_version": MANIFEST_FORMAT_VERSION,
        "kind": spec.kind,
        "spec_digest": f"0x{json_digest(spec_to_jsonable(spec)):016x}",
        "base_seed": spec.base_seed,
        "run_seeds": [derive_seed(spec.base_seed, r) for r in range(spec.n_runs)],
        "n_runs": spec.n_runs,
        "n_samples": spec.n_samples,
        "wall_time_s": {"run": run_seconds, "total": time.perf_counter() - started},
        "outputs": outputs,
    }
    write_json(out / "manifest.json", manifest)
    outputs.append("manifest.json")
    return manifest
