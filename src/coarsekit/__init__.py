"""coarsekit: certified computations on finite metric spaces.

Covers and their scale-indexed dimension, disjointification, coarse n-to-1
maps with explicit control functions, group quotients, scale-indexed family
witnesses, decomposition trees, and measure sparsification — every result is
re-checked against its own certificate before it is returned.
"""

from .controls import LinearControl, StepFunction, as_control
from .coarse_maps import (
    CoarseMap,
    Factorization,
    GroupAction,
    GroupQuotient,
    NTo1Control,
    NTo1Profile,
    asdim_zero_witness,
    control_upper,
    factorize,
    group_quotient,
    maximal_r_bounded_sets,
    min_max_diameter_partition,
    n_to_1_control,
    n_to_1_profile,
    pullback_family,
    pushforward_cover,
    symmetrize_metric,
    verify_n_to_1,
)
from .covers import (
    DisjointificationTrace,
    FamilyOfSets,
    dim_at_scale,
    is_r_disjoint,
    lebesgue_number,
    make_disjoint,
    mesh,
)
from .dimension import (
    ApcWitness,
    AsdimResult,
    DimSequenceWitness,
    apc_normalize,
    apc_pullback,
    apc_pushforward,
    apc_witness,
    asdim_at_scale,
    verify_apc_witness,
)
from .errors import (
    CertificateError,
    CoarseKitError,
    InputError,
    MetricError,
    PreconditionError,
    Refusal,
)
from .metric_core import (
    FiniteMetricSpace,
    Subset,
    build_space,
    components,
    diameter,
    hausdorff_distance,
    neighborhood,
    r_components,
)
from .msp import (
    MassFamily,
    ProbMeasure,
    asdim_to_msp,
    best_mass_family,
    half_mass_witness,
    map_msp_check,
    msp_pullback,
    msp_pushforward,
    pushforward_measure,
    transfer_measure_selection,
)
from .suites import SUITES, run_suite
from .trees import (
    DecompositionTree,
    PushforwardAudit,
    TreeReport,
    casdim_to_sfdc,
    grow_level,
    is_partition_tree,
    partition_refine,
    tree_pullback,
    tree_pushforward,
    tree_to_cover,
    verify_tree,
)

__version__ = "0.1.0"
