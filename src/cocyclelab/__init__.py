"""Numerical laboratory for SL(2,R) cocycles over expanding circle maps.

Core objects: exact-ish SL(2) arithmetic (sl2), the base dynamics and
natural-extension itineraries (circle), the twisted cocycle family with
two independent Lyapunov estimators (cocycle), unstable holonomies
(holonomy), projective sections and the degree obstruction (sections),
and a smooth skew-product realization of the natural extension (natext).
The cli module packages the standard experiments behind one entry point.
"""

__version__ = "0.1.0"

from .circle import (
    BackwardItinerary,
    ExpandingMap,
    PeriodicPoint,
    apply_map,
    circle_distance,
    orbit_from_digits,
    periodic_orbits,
    periodic_points,
    shift_backward,
    shift_forward,
)
from .cocycle import (
    DEFAULT_SEED,
    BunchingReport,
    C0Gap,
    CocycleSpec,
    LyapunovEstimate,
    ScaledMatrix,
    TwistTerm,
    c0_distance,
    cocycle_product,
    evaluate,
    full_twist_spec,
    lyapunov_furstenberg,
    lyapunov_norm_growth,
    oseledets_stable_direction,
    perturb,
    phi,
    rng_from,
    spec_from_json,
    spec_to_json,
    u_bunching_check,
)
from .errors import (
    DegreeCheckError,
    HolonomyDivergedError,
    LeafMismatchError,
    NoHyperbolicityError,
    NumericOverflowError,
    ResolutionError,
)
from .holonomy import (
    HolonomyResult,
    holonomy_equivariance_residual,
    u_holonomy,
)
from .natext import (
    NatExtRealization,
    aligned_anchor,
    apply_g,
    build_realization,
    conjugacy_residual,
    iota,
    separation_certificate,
)
from .sections import (
    ObstructionReport,
    ProjectiveLoop,
    degree_obstruction,
    section_consistency_search,
    section_residual,
    stable_direction_loop,
    twist_degree,
    winding_number,
)
from .sl2 import (
    Mat2,
    ProjPoint,
    op_norm,
)

__all__ = [name for name in dir() if not name.startswith("_")]
