"""Polynomials over finite sets, their 2-cells and 3-cells, internal full
subcategories, and finite natural-model universes, with every categorical
law checked by explicit enumeration."""

from .finset import (
    DEFAULT_CAP,
    EnumerationCapExceeded,
    FamilyMorphism,
    FinFamily,
    FinMap,
    FinSet,
    FinSetError,
    Square,
    TERMINAL,
    base_change,
    dep_prod,
    dep_sum,
    enumeration_cap,
    pullback,
)
from .poly import (
    CompositionTrace,
    Polynomial,
    PolyError,
    compose,
    compose_direct,
    extend,
    extension_composition_iso,
    from_map,
    identity_poly,
    slice_reduce,
    slice_unreduce,
)
from .poly2 import (
    Adjustment,
    PolyMorphism,
    adj_vcomp,
    all_adjustments,
    associator,
    cell_from_square,
    extend_cell,
    h_comp,
    identity_cell,
    slice_reduce_cell,
    slice_unreduce_cell,
    unique_adjustment,
    v_comp,
)
from .internalcat import (
    InternalCategory,
    InternalFunctor,
    InternalNatTrans,
    adjustment_to_nat,
    internal_full_subcat,
    internal_functor,
    nat_to_adjustment,
)
from .naturalmodel import (
    PolynomialPseudoalgebra,
    PolynomialPseudomonad,
    Universe,
    UniverseError,
    lift_apply,
    lift_apply_square,
    lift_unit_mult,
    mk_bool_universe,
    mk_skewed_universe,
    pi_structure,
    pseudomonad_from,
    sigma_structure,
    unit_structure,
    validate_universe,
    verify_type_isos,
)
from .suites import InstanceGenConfig, Report, run_suite

__version__ = "0.1.0"
