"""coarsekit: certified computations on finite metric spaces.

Covers and their scale-indexed dimension, disjointification, coarse n-to-1
maps with explicit control functions, group quotients, scale-indexed family
witnesses, decomposition trees, and measure sparsification — every result is
re-checked against its own certificate before it is returned.

The re-exports below load lazily (PEP 562): ``import coarsekit`` runs no
submodule, and ``coarsekit.mesh`` or ``from coarsekit import mesh`` imports
the one module that defines the name, on first use.
"""

import importlib

__version__ = "0.1.0"

# module -> the names the package re-exports from it
_EXPORTS = {
    "controls": "LinearControl StepFunction as_control",
    "coarse_maps": (
        "CoarseMap Factorization GroupAction GroupQuotient NTo1Control NTo1Profile "
        "asdim_zero_witness control_upper factorize group_quotient maximal_r_bounded_sets "
        "min_max_diameter_partition n_to_1_control n_to_1_profile pullback_family "
        "pushforward_cover symmetrize_metric verify_n_to_1"
    ),
    "covers": (
        "DisjointificationTrace FamilyOfSets dim_at_scale is_r_disjoint lebesgue_number "
        "make_disjoint mesh"
    ),
    "dimension": (
        "ApcWitness AsdimResult DimSequenceWitness apc_normalize apc_pullback "
        "apc_pushforward apc_witness asdim_at_scale verify_apc_witness"
    ),
    "errors": (
        "CertificateError CoarseKitError InputError MetricError PreconditionError Refusal"
    ),
    "metric_core": (
        "FiniteMetricSpace Subset build_space components diameter hausdorff_distance "
        "neighborhood r_components"
    ),
    "msp": (
        "MassFamily ProbMeasure asdim_to_msp best_mass_family half_mass_witness "
        "map_msp_check msp_pullback msp_pushforward pushforward_measure "
        "transfer_measure_selection"
    ),
    "suites": "SUITES run_suite",
    "trees": (
        "DecompositionTree PushforwardAudit TreeReport casdim_to_sfdc grow_level "
        "is_partition_tree partition_refine tree_pullback tree_pushforward tree_to_cover "
        "verify_tree"
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
# The submodules a star import binds: the re-exporting modules and
# ``generators``, which the package imported eagerly before it loaded lazily.
_SUBMODULES = (*_EXPORTS, "generators")

__all__ = [*_HOME, *_SUBMODULES]


def __getattr__(name):
    """Import a re-exported name, or a submodule, on first use and keep it."""
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
