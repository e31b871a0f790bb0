"""A laboratory for measuring how structural priors cut sample complexity
in discrete density estimation: seeded simulators, an estimator ladder from
raw tallies to two-type EM, exhaustive symmetry-reduced structure search,
and reproducible KL-vs-samples experiment curves.
"""

from .estimate import (
    EmResult,
    EstimatorConfig,
    bit_case_joint,
    em_two_type,
    em_two_type_many,
    grouped_known_estimate,
    group_tallies,
    independent_bits_estimate,
    joint_dirichlet_estimate,
    per_unit_mixture,
    raw_tally_estimate,
)
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
    TallyVector,
    dirichlet_mean,
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
    estimate_from_candidate,
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
    UrnSample,
    UrnTruth,
    build_bitvector_truth,
    build_urn_truth,
    dataset_digest,
    draw_bitvector,
    draw_bitvectors,
    draw_urn_sample,
    draw_urn_samples,
    read_bits_dataset,
    read_model,
    read_urn_dataset,
    true_joint,
    write_bits_dataset,
    write_model,
    write_urn_dataset,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
