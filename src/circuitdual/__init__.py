"""Exact-arithmetic analysis of weighted composition operators on the
one-circuit directed graph over the nonnegative integers.

The package decides 2-isometricity, constructs Cauchy duals, tests finite
moment prefixes for Hausdorff and Stieltjes necessary conditions, and runs
the parametric family whose Cauchy dual fails subnormality, all in exact
rational arithmetic.
"""

from .rational import (
    Poly,
    PoleError,
    RatFn,
    decimal_str,
    format_rat,
    parse_rat,
    poly_gcd,
)
from .moments import (
    MomentSeq,
    MomentVerdict,
    boundedness_check,
    diff_transform,
    hausdorff_test,
    stieltjes_test,
)
from .operators import (
    ConstantTail,
    OperatorReport,
    ReciprocalXiTail,
    SquaredWeights,
    XiTail,
    construct_2isometry,
    dual_moment_fiber0,
    dual_moments_fiber0,
    dual_moment_fiberk,
    dual_weights,
    h_of,
    is_two_isometric,
    ones_weights,
    operator_report,
    two_isometry_check,
    xi_sq,
)
from .oracle import BandedOp, gram_diagonal, hsequence
from .family import (
    CounterexampleVerdict,
    FamilyParam,
    SignScanReport,
    counterexample_verdict,
    d_ratfn,
    d_taylor,
    domain_min,
    evaluate_d,
    family_weights,
    figure_rows,
    omega_eval,
    omega_prefix,
    omega_ratfn,
    s_closed_form,
    s_derivatives_at_zero,
    s_ratfn,
    sign_scan,
)
from .files import load_weight_spec, parse_weight_spec

__version__ = "0.1.0"
