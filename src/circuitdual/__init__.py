"""Exact-arithmetic analysis of weighted composition operators on the
one-circuit directed graph over the nonnegative integers.

The package decides 2-isometricity, constructs Cauchy duals, tests finite
moment prefixes for Hausdorff and Stieltjes necessary conditions, and runs
the parametric family whose Cauchy dual fails subnormality, all in exact
rational arithmetic.
"""

from .rational import (
    PoleError,
    RatFn,
    format_rat,
    parse_rat,
)
from .moments import (
    MomentSeq,
    MomentVerdict,
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
    dual_weights,
    fiber0_moments,
    h_of,
    is_two_isometric,
    operator_report,
    two_isometry_check,
)
from .oracle import BandedOp, gram_diagonal, hsequence
from .family import (
    CounterexampleVerdict,
    FamilyParam,
    SignScanReport,
    counterexample_verdict,
    d_ratfn,
    d_taylor,
    family_weights,
    figure_rows,
    omega_eval,
    s_closed_form,
    s_derivatives_at_zero,
    sign_scan,
)
from .files import load_weight_spec, parse_weight_spec

__version__ = "0.1.0"
