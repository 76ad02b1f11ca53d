"""What each command loads, and the lazy package namespace.

``import siegellift`` loads no module of the package; each command of the
CLI imports only the modules it runs, and ``json`` only to read or write
JSON.  Without a bytecode cache every loaded module is compiled, so a
module a command never runs costs it time.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import siegellift

SRC = Path(siegellift.__file__).parents[1]

#: The modules every command loads.
BASE = {"siegellift", "siegellift.cli", "siegellift._primes", "siegellift.errors",
        "siegellift._record", "siegellift.localfactor"}
ALL = BASE | {"siegellift.modform", "siegellift.heckechar", "siegellift.predictor",
              "siegellift.archimedean"}

# the child reports through repr, so that reporting loads nothing
CHILD = """
import sys
from siegellift.cli import main
main(sys.argv[1:])
sys.stderr.write(repr((sorted(m for m in sys.modules if m.split(".")[0] == "siegellift"),
                       "json" in sys.modules)))
"""


@pytest.mark.parametrize(
    "argv, modules, json_loaded",
    [
        (["ap", "--curve", "0,-1,1,0,0", "--p", "2"], BASE | {"siegellift.modform"}, False),
        (["factor", "--curve", "0,-1,1,0,0", "--p", "5"], BASE | {"siegellift.modform"}, False),
        (["induce", "--D", "-4", "--m", "2", "--pmax", "10"], BASE | {"siegellift.heckechar"}, False),
        (
            ["lcoeffs", "--curve", "0,-1,1,0,0", "--transfer", "sym3", "--X", "50", "--format", "csv"],
            ALL - {"siegellift.archimedean"},
            False,
        ),
        (["predict", "--curve", "0,-1,1,0,0", "--pmax", "10", "--format", "json"], ALL, True),
    ],
    ids=["ap", "factor", "induce", "lcoeffs-csv", "predict-json"],
)
def test_command_loads_only_what_it_runs(argv, modules, json_loaded):
    # a fresh interpreter without site, so that nothing but the command loads modules
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", CHILD, *argv],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    assert proc.stdout
    loaded, json_seen = ast.literal_eval(proc.stderr)
    assert set(loaded) == modules
    assert json_seen is json_loaded


#: The names the package exported when it imported every module, with the
#: module each was taken from.
EXPORTED = {
    "archimedean": "ArchParam Classification SiegelKind classify ext2_arch from_newform "
                   "sym3_arch tensor_arch",
    "errors": "InexactDivisionError InputError NotSymplecticError SiegelLiftError "
              "UnsupportedLevelError VerificationError",
    "heckechar": "AntiCycChar ImagQuadField QuadInt Splitting char_square char_value "
                 "conductor_ind induced_factor prime_above restriction_char splitting",
    "localfactor": "CombineMode Functor LocalFactor PowerSums combine exact_divide "
                   "from_power_sums is_selfdual_pure plethysm power_sums tate_factor tate_twist",
    "modform": "CurveData NewformData ReductionData ReductionKind ap_good invariants_of "
               "local_factor_gl2 parse_eigenfile point_count reduction_bad",
    "predictor": "CompareResult EvalResult Identity LevelRule LocalData LObject ReportEntry "
                 "SiegelPrediction Status VerifyReport compare_coeffwise degree5_factor "
                 "dirichlet_coeffs eval_partial gl2_object identity_report "
                 "lambda2_sym3_objects level local_data predict_siegel sym3_object "
                 "tensor_object verify_identity",
}


@pytest.mark.parametrize("home", sorted(EXPORTED))
def test_exported_names_resolve_to_their_home_objects(home):
    module = importlib.import_module(f"siegellift.{home}")
    listed = dir(siegellift)
    for name in EXPORTED[home].split():
        assert getattr(siegellift, name) is getattr(module, name), name
        assert name in listed and name in siegellift.__all__, name


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        siegellift.no_such_name
    assert siegellift.__version__ == "0.1.0"
