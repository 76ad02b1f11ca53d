"""Exact local data of genus-2 Siegel modular form predictions.

From an elliptic curve over Q or a newform eigenvalue table (optionally
twisted through an imaginary quadratic field), compute and verify the
predicted spin (degree-4) and standard (degree-5) Euler factors, levels
and archimedean types of the associated holomorphic genus-2 Siegel cusp
forms -- everything in exact big-integer arithmetic.

Importing the package loads none of its modules: each name below is
looked up in its module on first use (PEP 562), so a caller, the CLI
among them, pays only for the modules it runs.
"""

import importlib

#: Exported name -> the module that defines it.
_HOMES = {
    **dict.fromkeys(
        ("ArchParam", "Classification", "SiegelKind", "classify", "from_newform", "sym3_arch",
         "tensor_arch"),
        "archimedean",
    ),
    **dict.fromkeys(
        ("InexactDivisionError", "InputError", "NotSymplecticError", "SiegelLiftError",
         "UnsupportedLevelError", "VerificationError"),
        "errors",
    ),
    **dict.fromkeys(
        ("AntiCycChar", "ImagQuadField", "QuadInt", "Splitting", "char_square", "char_value",
         "conductor_ind", "induced_factor", "prime_above", "splitting"),
        "heckechar",
    ),
    **dict.fromkeys(
        ("CombineMode", "Functor", "LocalFactor", "combine", "exact_divide", "from_power_sums",
         "is_selfdual_pure", "plethysm", "power_sums", "tate_factor", "tate_twist"),
        "localfactor",
    ),
    **dict.fromkeys(
        ("CurveData", "NewformData", "ReductionData", "ReductionKind", "ap_good",
         "local_factor_gl2", "parse_eigenfile", "point_count", "reduction_bad"),
        "modform",
    ),
    **dict.fromkeys(
        ("CompareResult", "EvalResult", "LocalData", "LObject", "compare_coeffwise",
         "dirichlet_coeffs", "eval_partial", "gl2_object", "local_data", "spin_object"),
        "lseries",
    ),
    **dict.fromkeys(
        ("Identity", "LevelRule", "ReportEntry", "SiegelPrediction", "Status", "VerifyReport",
         "degree5_factor", "identity_report", "lambda2_sym3_objects", "level", "predict_siegel",
         "verify_identity"),
        "predictor",
    ),
}

__all__ = sorted(_HOMES)

__version__ = "0.1.0"


def __getattr__(name):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{home}"), name)


def __dir__():
    return sorted({*globals(), *_HOMES})
