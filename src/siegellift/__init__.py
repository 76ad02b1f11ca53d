"""Exact local data of genus-2 Siegel modular form predictions.

From an elliptic curve over Q or a newform eigenvalue table (optionally
twisted through an imaginary quadratic field), compute and verify the
predicted spin (degree-4) and standard (degree-5) Euler factors, levels
and archimedean types of the associated holomorphic genus-2 Siegel cusp
forms -- everything in exact big-integer arithmetic.
"""

from .archimedean import ArchParam, Classification, SiegelKind, classify, ext2_arch
from .archimedean import from_newform, sym3_arch, tensor_arch
from .errors import (
    InexactDivisionError,
    InputError,
    NotSymplecticError,
    SiegelLiftError,
    UnsupportedLevelError,
    VerificationError,
)
from .heckechar import (
    AntiCycChar,
    ImagQuadField,
    QuadInt,
    Splitting,
    char_square,
    char_value,
    conductor_ind,
    induced_factor,
    prime_above,
    restriction_char,
    splitting,
)
from .localfactor import (
    CombineMode,
    Functor,
    LocalFactor,
    PowerSums,
    combine,
    exact_divide,
    from_power_sums,
    is_selfdual_pure,
    plethysm,
    power_sums,
    tate_factor,
    tate_twist,
)
from .modform import (
    CurveData,
    NewformData,
    ReductionData,
    ReductionKind,
    ap_good,
    invariants_of,
    local_factor_gl2,
    parse_eigenfile,
    point_count,
    reduction_bad,
)
from .predictor import (
    CompareResult,
    EvalResult,
    Identity,
    LevelRule,
    LocalData,
    LObject,
    ReportEntry,
    SiegelPrediction,
    Status,
    VerifyReport,
    compare_coeffwise,
    degree5_factor,
    dirichlet_coeffs,
    eval_partial,
    gl2_object,
    identity_report,
    lambda2_sym3_objects,
    level,
    local_data,
    predict_siegel,
    sym3_object,
    tensor_object,
    verify_identity,
)

__version__ = "0.1.0"
