"""slopelab: exact-rational workbench for slopes, martingales, and dyadic covers.

Every number is exact, as a ``fractions.Fraction`` or as integers over one
denominator; nothing is a float.  Limit statements are represented by
finite-depth probes that either refute with a replayable exact witness or
report consistency to the examined depth.
"""

from .bits import (
    BitSource,
    bits_of_fraction,
    constant_bits,
    fraction_from_bits,
    interleave,
    pattern_bits,
)
from .cubes import CubeFamily, DyadicCube, cube_union_contains, union_measure, unit_cube
from .derivatives import (
    CONSISTENT,
    VIOLATED,
    diff_class_a,
    diff_class_b,
    dir_derivative_via_basis,
    linearity_defect,
    partial_probe,
    replay,
)
from .functions import (
    ComputableFunction,
    abs_diff_2d,
    abs_distance_1d,
    clamp_extend,
    compose_affine,
    constant_function,
    kn_decompose,
    linear_form,
    min_x_flip_y,
    modulus_audit,
    piecewise_linear,
    product_xy,
    square_1d,
    sum_functions,
)
from .martingales import (
    Martingale,
    MonotonicityError,
    NegativeCapitalError,
    all_on_ones_martingale,
    check_fairness,
    constant_martingale,
    interval_slope,
    run_bet,
    slope_martingale,
    table_martingale,
)
from .nullsets import (
    DoreMalevaParams,
    NestedTest,
    audit_nesting,
    concentric_test,
    constant_unit_test,
    default_dore_maleva_params,
    dore_maleva_measure,
    dore_maleva_rectangles,
    dore_maleva_stages,
    explicit_dore_maleva_params,
    explicit_test,
    stage_below_half,
)
from .rationals import (
    decimal_string,
    format_rational,
    is_dyadic,
    parse_rational,
    pow2,
)
from .tentsystem import (
    BuildBudgetError,
    InsufficientDepthError,
    PartitionError,
    TentSystem,
    build_partition,
    build_tent_system,
    tent_for,
)

__version__ = "0.1.0"
