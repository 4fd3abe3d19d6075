"""Permutation and involution matchings on finite regular semigroups."""

from .core import (
    EggBox,
    FiniteSemigroup,
    PrincipalFactor,
    StructureReport,
    green_relations,
    parse_cayley,
    format_cayley,
    principal_factors,
    regularity_check,
    semigroup_from_rows,
    structure_report,
    validate,
)
from .matching import (
    EquivalenceReport,
    HallViolator,
    InverseGraph,
    build_inverse_graph,
    equivalence_report,
    find_involution_matching,
    find_permutation_matching,
    hall_violator,
    is_h_preserving,
    lift_h_matching,
    verify_involution_matching,
    verify_permutation_matching,
)
from .bands import (
    HaremFamily,
    ZeroRectBand,
    band_from_rows,
    check_harem_condition,
    harem_family,
    involution_from_harem,
    no_matching_band,
    random_band,
    to_semigroup,
)
from .colours import (
    ColourInstance,
    ExchangePlan,
    instance_from_matching,
    involution_from_plan,
    solve,
    verify_plan,
)

__version__ = "0.1.0"
