"""Workbench for Cayley maps over small finite groups: automorphism and
isomorphism groups, the Cayley-isomorphism property, and exhaustive
CIM-group verification."""

from .errors import (
    CapacityError,
    CimlabError,
    DisconnectedMapError,
    InvalidActionError,
    InvalidOrderError,
    MapValidationError,
    PreconditionError,
    UnsupportedReductionError,
)
from .groups import (
    FiniteGroup,
    GroupIsomorphism,
    Subgroup,
    all_subgroups,
    automorphisms,
    check_group_axioms,
    direct_product,
    element_order,
    is_in_class_m,
    is_isomorphic,
    make_abelian,
    make_cyclic,
    make_generalized_quaternion,
    make_semidirect,
)
from .maps import (
    CayleyMap,
    TernaryRelation,
    apply_group_automorphism,
    is_antibalanced,
    is_balanced,
    is_connected,
    is_skew_morphism,
    make_map,
    ternary_relation,
)
from .mapiso import (
    MapMorphism,
    are_cayley_isomorphic,
    map_automorphism_group,
    map_isomorphisms,
)
from .perms import (
    PermutationGroup,
    are_conjugate_subgroups,
    closure,
    fixed_points,
    is_block,
    is_regular,
    left_regular_representation,
    point_stabilizer,
    regular_subgroups_isomorphic_to,
)
from .ci import (
    babai_is_ci_map,
    cross_validate,
    definitional_is_ci_map,
    verify_cim_group,
    verify_connected_cim,
)
from .constructions import (
    WitnessedMap,
    cyclic_2power_map,
    frobenius_map,
    odd_square_map,
    quaternion16_witness,
    z8_cim_maps,
)
from .reports import TOOL_VERSION as __version__, CiReport, ReportBundle
