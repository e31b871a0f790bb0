"""The package's public names, pinned so that an export added or removed shows in a diff."""

import latent_structure_lab

EXPORTS = [
    "BitVectorTruth", "BitVectorsResult", "BitsConfig", "Candidate", "CapacityError",
    "Categorical", "ConfigError", "DatasetParseError", "EstimatorConfig",
    "ExpensiveSearchError", "ExperimentSpec", "FourUrnsResult", "Grouping", "KlCurve",
    "RngState", "ScoredCandidate", "SearchConfig", "SearchSession", "SearchSettings",
    "UrnConfig", "UrnTruth", "average_curves", "build_bitvector_truth", "build_urn_truth",
    "candidate_count", "config_from_jsonable", "dataset_digest", "default_checkpoints",
    "derive_seed", "draw_bitvector", "draw_bitvectors", "draw_urn_samples",
    "em_two_type_many", "group_outcomes", "in_truth_orbit", "independent_bits_floor",
    "joint_from_grouping", "joint_from_independent_bits", "kl_divergence", "next_u64",
    "next_unit", "next_units", "read_bits_dataset", "read_curves_csv", "read_model",
    "read_urn_dataset", "render_svg", "run_bitvectors", "run_experiment", "run_four_urns",
    "search", "spec_from_jsonable", "spec_to_jsonable", "total_variation", "true_joint",
    "unrank_candidate", "write_bits_dataset", "write_curves_csv", "write_model",
    "write_urn_dataset",
]


def test_public_names_are_pinned():
    assert latent_structure_lab.__all__ == EXPORTS
    namespace: dict = {}
    exec("from latent_structure_lab import *", namespace)
    assert sorted(name for name in namespace if name != "__builtins__") == EXPORTS
