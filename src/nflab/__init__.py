"""Equivalence-class structure and aggregate sampling cost of permutation
generative models driven by measured quantum resource states."""

from .core import (
    FLOAT_ATOL,
    InputState,
    OutcomeDistribution,
    Permutation,
    RegisterShape,
    ResourceState,
    build_input_state,
    compose,
    deferred_equivalence_check,
    float_state,
    identity,
    invert,
    output_distribution,
    random_permutation,
    rational_state,
    sample_outcome,
    transposition,
)
from .cost import (
    AggregateCostResult,
    Aggregator,
    CostModel,
    CostVector,
    GateList,
    TRANSPOSITION_MODEL,
    aggregate_cost,
    aggregate_cost_samp_alg,
    compile_permutation,
    gate_list_from_text,
    make_gate_count_model,
    prepare_stars_and_bars,
    random_stars_and_bars_target,
    scalar_cost,
    scaling_experiment,
    transposition_count_cost,
    transposition_sequence,
)
from .equivalence import (
    BlockGroupSpec,
    ClassPartitionReport,
    bin_group_spec,
    collapse_witness,
    count_classes,
    distribution_class_partition,
    double_coset_oracle,
    enumerate_class_keys,
    multiplicity_key,
    same_multiplicative_class,
    stars_and_bars_count,
    value_group_spec,
)
from .errors import ResourceLimitError, ShapeError, ValidationError
from .haar import (
    BlockWeightTable,
    FastVerdict,
    is_distinct,
    is_strongly_distinct_fast,
    make_collision_state,
    sample_haar_qr,
    sample_haar_rayleigh,
    strong_distinct_oracle,
)
from .nfl import NflReport, nfl_compare

__version__ = "0.1.0"
