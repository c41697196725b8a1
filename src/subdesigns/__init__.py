"""Subspace designs over a field tower F_p < F_q < F_{q^m} and their companions.

The package is organised around a small exact-arithmetic core:

* ``gf``          -- the two-level field tower, Frobenius, norm and trace;
* ``subspace``    -- canonical F_q- and F_{q^m}-subspaces, enumeration,
                     linear sets as point -> weight maps, ordinary duality;
* ``skewpoly``    -- the sigma-polynomial algebra (composition, gcrd/lclm,
                     kernel dimensions, twists, lambda-values);
* ``design``      -- subspace-design constructions and brute-force
                     certification;
* ``sumrank``     -- linear sum-rank metric codes and the design/code
                     correspondence (Singleton bound, MSRD, minimality);
* ``hamming``     -- the Ext system of a design, associated Hamming codes,
                     two-intersection sets and strongly regular graphs;
* ``strongbridge``-- strong subspace designs and the conversions down to
                     ordinary designs;
* ``expander``    -- dimension-expander families built from designs;
* ``cli``         -- the command-line workbench (owns all file formats).

Everything is exact and deterministic; heavy sweeps are plain enumerations
kept honest by configurable caps.
"""

from subdesigns.gf import FieldTower, FFElement, make_tower, tower_for, frobenius, norm_trace
from subdesigns.subspace import (
    AmbientSpace,
    FqSubspace,
    FqmSubspace,
    span_fq,
    meet_join,
    fqm_span,
    enumerate_fqm_subspaces,
    linear_set,
    ordinary_dual,
)
from subdesigns.skewpoly import SigmaPoly, skew_mul, right_divmod, gcrd_lclm, kernel_dim, twist, lambda_value
from subdesigns.design import (
    SubspaceDesign,
    DesignProfile,
    design_profile,
    classify,
    construct_basis_partition,
    construct_twisted,
    construct_pseudoregulus,
    construct_field_partition,
    direct_sum,
    enlarge,
    dual_design,
    hyperplane_weight_distribution,
    is_cutting,
)
from subdesigns.sumrank import (
    SumRankCode,
    code_from_system,
    system_from_code,
    sumrank_weight,
    min_distance,
    singleton_msrd,
    dual_code,
    delsarte_dual,
    is_minimal_code,
    apply_isometry,
)
from subdesigns.hamming import ProjectiveSystem, SrgParams, ext_system, weight_enumerator, srg_from_two_intersection
from subdesigns.strongbridge import (
    StrongSubspaceDesign,
    verify_strong,
    evasive_intersect,
    intermediate_field_design,
    places_embed,
    cameron_liebler,
)
from subdesigns.expander import ExpanderFamily, build_expander, expansion_check

__version__ = "0.1.0"
