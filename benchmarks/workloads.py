"""Workload and metric definitions; importing this starts nothing.

Each workload turns the benchmark seed into the inputs the library gets:
an experiment spec in its JSON form, or a truth from which the repetition
draws the dataset it hands to `lsl search`. Why each workload exists is in
`WHY`; the numbers in it were measured on 2 cores at the seed code.
"""

from __future__ import annotations

import hashlib

GOLDEN_SEED = 1

WHY = {
    "urns_em": "24 four-urns runs at spec defaults; two-type EM and Categorical/TallyVector building do nearly all the work",
    "bits_ladder_v12": "V=12 ladder c0..c1; three single-worker case1 sweeps (n=1, 100, 500) do about 90% of the work",
    "search_case12_v12": "one lsl search over all 106,444,800 case12 candidates on 2 workers; scoring does nearly all the work",
    "c12_many_small": "V=9: 30 case12 searches of 40,320 candidates per run on 2 workers; pool start and dispatch dominate",
}

# Worker processes each workload's searches use (0: no search).
WORKERS = {"urns_em": 0, "bits_ladder_v12": 1, "search_case12_v12": 2, "c12_many_small": 2}

SEARCH_ARGS = ("--v", "12", "--g", "4", "--s", "3", "--types", "2", "--mode", "case12",
               "--scorer", "marginal", "--workers", "2", "--top-k", "10")
SEARCH_TRUTH = {"v": 12, "g": 4, "s": 3, "min_separation": 0.6}
SEARCH_SAMPLES = 500


def input_seed(workload: str, seed: int) -> int:
    """A 48-bit seed for the library, fixed by (workload, benchmark seed)."""
    digest = hashlib.sha256(f"{workload}/{seed}".encode()).digest()
    return int.from_bytes(digest[:6], "big")


def experiment_spec(workload: str, seed: int) -> dict:
    """The JSON spec of one experiment workload, as `lsl experiment` reads it."""
    base = {"base_seed": input_seed(workload, seed)}
    if workload == "urns_em":
        return {"kind": "four_urns", "n_samples": 1000, "n_runs": 24, **base}
    if workload == "bits_ladder_v12":
        return {
            "kind": "bit_vectors",
            "n_samples": 500,
            "n_runs": 1,
            **base,
            "cases": ["c0", "c0p", "c13", "c123", "c1"],
            "truth": {"v": 12, "g": 4, "s": 3},
            "search": {"checkpoints": [100, 500], "workers": 1, "scorer": "dirichlet_marginal"},
        }
    if workload == "c12_many_small":
        return {
            "kind": "bit_vectors",
            "n_samples": 300,
            "n_runs": 1,
            **base,
            "cases": ["c123", "c12"],
            "checkpoints": list(range(10, 301, 10)),
            "truth": {"v": 9, "g": 3, "s": 3, "min_separation": 0.6},
            "search": {"workers": 2, "scorer": "dirichlet_marginal"},
        }
    raise ValueError(f"{workload} is not an experiment workload")


END_TO_END = {
    # name: (unit, better, bound)
    "items_per_s": ("1/s", "higher", 0.25),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mib": ("MiB", "lower", 0.05),
}

PER_LAYER = {
    "estimate.em_calls": "count",
    "estimate.em_iterations": "count",
    "estimate.em_busy_s": "s",
    "estimate.em_call_s_p50": "s",
    "estimate.grouped_busy_s": "s",
    "estimate.other_busy_s": "s",
    "prob.objects_built": "count",
    "prob.joint_calls": "count",
    "prob.joint_busy_s": "s",
    "prob.kl_calls": "count",
    "prob.kl_busy_s": "s",
    "rng.unit_draws": "count",
    "simulate.draws": "count",
    "simulate.busy_s": "s",
    "search.calls": "count",
    "search.candidates": "count",
    "search.busy_s": "s",
    "search.candidates_per_busy_s": "1/s",
    "search.call_s_p50": "s",
    "search.call_s_p90": "s",
    "search.pool_starts": "count",
    "search.tasks": "count",
    "search.estimate_from_candidate_calls": "count",
    "search.estimate_from_candidate_busy_s": "s",
    "search.worker_cpu_s": "s",
    "search.cost_guard_ratio": "ratio",
    "experiment.curve_points": "count",
    "report.busy_s": "s",
    "report.bytes_written": "bytes",
    "rng.self_s": "s",
    "simulate.self_s": "s",
    "prob.self_s": "s",
    "estimate.self_s": "s",
    "search.self_s": "s",
    "experiment.self_s": "s",
    "report.self_s": "s",
    "pipeline.self_s": "s",
    "cli.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}
