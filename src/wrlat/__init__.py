"""wrlat: exact-arithmetic toolkit for well-rounded and nearly orthogonal lattices.

Lattices are rational Gram matrices; shortest vectors, coherence, packing
density comparisons, near-orthogonality verdicts, eutaxy and perfection are
all computed exactly.  Indices in the Python API (orderings, spans, blocks)
are 0-based throughout.
"""

from .constructions import (
    PlanarWRResult,
    an_dual_frame,
    an_root,
    coxeter_barnes,
    hexagonal,
    hybrid,
    integer_lattice,
    k3_prime,
    lnm,
    planar_wr,
    staircase,
)
from .errors import (
    DimensionGuardExceeded,
    FewerThanTwoPairs,
    InputError,
    LatticeError,
    NotNearlyOrthogonal,
    NotPositiveDefinite,
    NotSymmetric,
    NotWellRounded,
    PairCountGuardExceeded,
    PlanarSearchFailed,
    RationalizationFailed,
    SubsetGuardExceeded,
    VerificationFailed,
)
from .eutaxy import (
    ClassificationReport,
    EutaxyClass,
    EutaxyResult,
    classification_report,
    eutaxy_classify,
    is_perfect,
)
from .invariants import (
    BasisCos,
    CoherenceValue,
    DensityValue,
    average_coherence,
    cn_test,
    cn_value,
    coherence,
    mu_nu,
    packing_density,
    unit_ball_volume,
)
from .lattice import (
    FloatBasis,
    Lattice,
    direct_sum,
    lattice_from_float_basis,
    lattice_from_gram,
    lattice_from_json_dict,
    lattice_to_json_dict,
    load_lattice,
    normalize_min_norm,
    principal_sublattice,
    reorder_basis,
    save_lattice,
    scale_gram,
)
from .minvec import (
    MinimalVectorSet,
    brute_force_min_vectors,
    certified_box,
    is_well_rounded,
    minimal_norm_sq,
    minimal_vectors,
)
from .ortho import (
    AngleProfile,
    MembershipReport,
    OrthoVerdict,
    angle_profile,
    is_theta_orthogonal,
    membership_report,
    minimal_basis_subsets,
)
from .perturb import (
    PerturbationOutcome,
    perturb_2d,
    perturb_block,
    perturb_general,
)
from .ratlinalg import (
    RatMatrix,
    format_rational,
    int_sqrt_floor,
    parse_rational,
)
from .verify import CheckResult, SuiteReport, run_suite

__version__ = "0.1.0"
