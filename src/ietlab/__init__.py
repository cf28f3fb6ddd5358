"""Numerical laboratory for interval exchange transformations.

Renormalization (Rauzy-Veech induction), zippered-rectangle suspensions,
matrix-cocycle Lyapunov analysis, finitely-additive functionals on orbit
arcs, and limit-theorem experiments with probability metrics.
"""

from .errors import (
    BoundaryError,
    ConePointError,
    DegenerateVariance,
    DomainError,
    IetLabError,
    InsufficientRange,
    NonConvergenceError,
    NonRecurrentError,
    NotSimple,
    NotUnstable,
    RejectionOverflow,
    SeriesDivergence,
    SizeLimit,
)
from .rauzy import (
    IetData,
    Permutation,
    RauzyClass,
    RauzyMove,
    apply_move,
    birkhoff_sum,
    iet_apply,
    induction_matrix,
    induction_update,
    inverse_induction_matrix,
    parse_permutation,
    rauzy_class,
    rauzy_step,
    running_sup_profile,
)
from .zippered import (
    AdmissibleRectangle,
    LipschitzFunction,
    RectangleIndicator,
    SurfacePoint,
    ZipperedRectangle,
    heights,
    is_admissible,
    random_surface,
    sample_delta,
    sample_point,
    vertical_flow,
)
from .cocycle import (
    CocyclePath,
    OriginFrame,
    OseledetsEstimate,
    SymplecticData,
    backward_flag_at_origin,
    induction_path,
    lyapunov_spectrum,
    origin_frame,
    second_plane_at_origin,
    symplectic_data,
    unstable_vector_at_origin,
)
from .finadd import (
    CellFunction,
    DualCocycle,
    EquivariantSequence,
    HoelderCocycle,
    ReturnLadder,
    build_phi_f,
    build_phi_from_vector,
    dual_from_vector,
    evaluate_on_flow_arc,
    holder_exponents,
    measure_integral,
)
from .limitlab import (
    component_index,
    default_tau_grid,
    limit_decay_report,
    lp_distance,
    lp_distance_grid,
    normalize_process,
    second_component_observable,
)

__version__ = "0.1.0"
