"""slopelab: exact-rational workbench for slopes, martingales, and dyadic covers.

Everything numeric is a ``fractions.Fraction``; the core never touches
floating point.  Limit statements are represented by finite-depth probes
that either refute with a replayable exact witness or report consistency
to the examined depth.
"""

from .bits import (
    BitSource,
    CauchyName,
    DyadicCoordinateError,
    bits_of_fraction,
    constant_bits,
    fraction_from_bits,
    interleave,
    pattern_bits,
    project_component,
    validate_cauchy,
)
from .cubes import DyadicCube, cube_union_contains, union_measure, unit_cube
from .derivatives import (
    CONSISTENT,
    VIOLATED,
    BasisReduction,
    ProbeVerdict,
    diff_class_a,
    diff_class_b,
    dir_derivative_via_basis,
    dyadic_schedule,
    first_order_remainder,
    linearity_defect,
    partial_probe,
    replay,
    slope_axis,
    slope_dir,
)
from .functions import (
    AffineIsometry,
    ComputableFunction,
    ShiftMod1,
    abs_diff_2d,
    abs_distance_1d,
    clamp_extend,
    clamp_point,
    compose_affine,
    constant_function,
    gram_schmidt_basis,
    isometry_between,
    kn_decompose,
    linear_form,
    lipschitz_lower_bound,
    min_x_flip_y,
    modulus_audit,
    piecewise_linear,
    product_xy,
    square_1d,
    sum_functions,
)
from .martingales import (
    BetRun,
    Martingale,
    MonotonicityError,
    NegativeCapitalError,
    all_on_ones_martingale,
    box_slope_martingale,
    check_fairness,
    constant_martingale,
    interval_slope,
    run_bet,
    slope_martingale,
    table_martingale,
)
from .nullsets import (
    CubeStream,
    DoreMalevaParams,
    NestedTest,
    audit_nesting,
    concentric_test,
    constant_unit_test,
    default_dore_maleva_params,
    dore_maleva_measure,
    dore_maleva_measure_by_sweep,
    dore_maleva_rectangles,
    dore_maleva_stage,
    explicit_dore_maleva_params,
    explicit_test,
    rect_union_area,
    stage_below_half,
    stream_from_cubes,
)
from .rationals import (
    compare_pow2,
    decimal_string,
    format_rational,
    is_dyadic,
    parse_rational,
    pow2,
)
from .tentsystem import (
    Block,
    BuildBudgetError,
    CertifiedValue,
    InsufficientDepthError,
    Partition,
    PartitionError,
    TentFunction,
    TentSystem,
    build_partition,
    build_tent_system,
    tent_for,
)

__version__ = "0.1.0"
