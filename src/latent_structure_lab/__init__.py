"""A laboratory for measuring how structural priors cut sample complexity
in discrete density estimation: seeded simulators, an estimator ladder from
raw tallies to two-type EM, exhaustive symmetry-reduced structure search,
and reproducible KL-vs-samples experiment curves.
"""

from .estimate import EstimatorConfig, em_two_type_many
from .experiment import (
    BitVectorsResult,
    ExpensiveSearchError,
    ExperimentSpec,
    FourUrnsResult,
    KlCurve,
    SearchSettings,
    average_curves,
    config_from_jsonable,
    default_checkpoints,
    independent_bits_floor,
    run_bitvectors,
    run_four_urns,
    spec_from_jsonable,
    spec_to_jsonable,
)
from .pipeline import run_experiment
from .prob import (
    CapacityError,
    Categorical,
    Grouping,
    group_outcomes,
    joint_from_grouping,
    joint_from_independent_bits,
    kl_divergence,
    total_variation,
)
from .report import read_curves_csv, render_svg, write_curves_csv
from .rng import RngState, derive_seed, next_u64, next_unit, next_units
from .search import (
    Candidate,
    ScoredCandidate,
    SearchConfig,
    SearchSession,
    candidate_count,
    in_truth_orbit,
    search,
    unrank_candidate,
)
from .simulate import (
    BitsConfig,
    BitVectorTruth,
    ConfigError,
    DatasetParseError,
    UrnConfig,
    UrnTruth,
    build_bitvector_truth,
    build_urn_truth,
    dataset_digest,
    draw_bitvector,
    draw_bitvectors,
    draw_urn_samples,
    read_bits_dataset,
    read_model,
    read_urn_dataset,
    true_joint,
    write_bits_dataset,
    write_model,
    write_urn_dataset,
)

# The public API, sorted; tests/test_api.py pins it.
__all__ = [
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
__version__ = "0.1.0"
