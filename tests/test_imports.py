"""What each command loads, and the lazy package namespace.

``import siegellift`` loads no module of the package; each command of the
CLI imports only the modules it runs, the JSON writer only to write JSON,
and never ``json`` (the writer takes the C string encoder from ``_json``)
or ``pathlib``.  Without a bytecode cache every loaded module is compiled,
so a module a command never runs costs it time.
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
BASE = {"siegellift", "siegellift.cli", "siegellift._primes", "siegellift.errors"}
#: ap reads a_p and the reduction type; it builds no local factor.
AP = BASE | {"siegellift._record", "siegellift.modform"}
FACTORS = AP | {"siegellift.localfactor"}
LSERIES = FACTORS | {"siegellift.lseries"}
#: verify and predict load heckechar only with a character.
VERIFY = LSERIES | {"siegellift.predictor"}
PREDICT = VERIFY | {"siegellift.archimedean"}
#: --format json adds the JSON writer.
JSON = {"siegellift._jsonwrite"}

# the child reports through repr, so that reporting loads nothing
CHILD = """
import sys
from siegellift.cli import main
main(sys.argv[1:])
sys.stderr.write(repr((sorted(m for m in sys.modules if m.split(".")[0] == "siegellift"),
                       "json" in sys.modules, "pathlib" in sys.modules)))
"""


@pytest.mark.parametrize(
    "argv, modules",
    [
        (["ap", "--curve", "0,-1,1,0,0", "--p", "2"], AP),
        (["ap", "--curve", "0,-1,1,0,0", "--p", "2", "--format", "json"], AP | JSON),
        (["factor", "--curve", "0,-1,1,0,0", "--p", "5"], FACTORS),
        (
            ["induce", "--D", "-4", "--m", "2", "--pmax", "10"],
            BASE | {"siegellift._record", "siegellift.localfactor", "siegellift.heckechar"},
        ),
        (["sym3", "--curve", "0,-1,1,0,0", "--p", "5"], LSERIES),
        (
            ["lcoeffs", "--curve", "0,-1,1,0,0", "--transfer", "sym3", "--X", "50", "--format", "csv"],
            LSERIES,
        ),
        (
            ["eval", "--curve", "0,-1,1,0,0", "--D", "-4", "--m", "2", "--transfer", "tensor",
             "--X", "50", "-s", "5"],
            LSERIES | {"siegellift.heckechar"},
        ),
        (["predict", "--curve", "0,-1,1,0,0", "--pmax", "10", "--format", "json"],
         PREDICT | JSON),
        (
            ["predict", "--curve", "0,-1,1,0,0", "--D", "-4", "--m", "2", "--pmax", "10"],
            PREDICT | {"siegellift.heckechar"},
        ),
        (
            ["verify", "--identity", "sym3-ext2", "--curve", "0,-1,1,0,0", "--pmax", "10"],
            VERIFY,
        ),
    ],
    ids=["ap", "ap-json", "factor", "induce", "sym3", "lcoeffs-csv", "eval-tensor",
         "predict-json", "predict-tensor", "verify-sym3"],
)
def test_command_loads_only_what_it_runs(argv, modules):
    loaded, json_seen, pathlib_seen = _run_child(argv)
    assert set(loaded) == modules
    assert json_seen is False and pathlib_seen is False


def _run_child(argv):
    """The package modules a command loaded, and whether json and pathlib
    were loaded, from a fresh interpreter without site, so that nothing but
    the command loads modules."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", CHILD, *argv],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    assert proc.stdout
    return ast.literal_eval(proc.stderr)


#: The most source lines ``ap`` may load.  Without a bytecode cache each is
#: compiled at every run, so the bound only comes down as code is deleted.
AP_LINE_BUDGET = 1308


def test_ap_loads_at_most_its_line_budget():
    loaded, _, _ = _run_child(["ap", "--curve", "0,-1,1,0,0", "--p", "2"])
    lines = 0
    for name in loaded:
        path = SRC.joinpath(*name.split("."))
        path = path / "__init__.py" if path.is_dir() else path.with_suffix(".py")
        lines += path.read_text().count("\n")
    assert lines <= AP_LINE_BUDGET


#: The names the package exported when it imported every module, with the
#: module each was taken from.
EXPORTED = {
    "archimedean": "ArchParam Classification SiegelKind classify from_newform "
                   "sym3_arch tensor_arch",
    "errors": "InexactDivisionError InputError NotSymplecticError SiegelLiftError "
              "UnsupportedLevelError VerificationError",
    "heckechar": "AntiCycChar ImagQuadField QuadInt Splitting char_square char_value "
                 "conductor_ind induced_factor prime_above splitting",
    "localfactor": "CombineMode Functor LocalFactor combine exact_divide "
                   "from_power_sums is_selfdual_pure plethysm power_sums tate_factor tate_twist",
    "modform": "CurveData NewformData ReductionData ReductionKind ap_good local_factor_gl2 "
               "parse_eigenfile point_count reduction_bad",
    "lseries": "CompareResult EvalResult LocalData LObject compare_coeffwise dirichlet_coeffs "
               "eval_partial gl2_object local_data spin_object",
    "predictor": "Identity LevelRule ReportEntry SiegelPrediction Status VerifyReport "
                 "degree5_factor identity_report lambda2_sym3_objects level predict_siegel "
                 "verify_identity",
}


def test_errors_defines_exactly_the_exported_classes():
    # one class per exit code and their bases: no unexported subclass
    from siegellift import errors

    defined = {name for name, obj in vars(errors).items() if isinstance(obj, type)}
    assert defined == set(EXPORTED["errors"].split())


@pytest.mark.parametrize("home", sorted(EXPORTED))
def test_exported_names_resolve_to_their_home_objects(home):
    module = importlib.import_module(f"siegellift.{home}")
    listed = dir(siegellift)
    for name in EXPORTED[home].split():
        assert getattr(siegellift, name) is getattr(module, name), name
        assert name in listed and name in siegellift.__all__, name


def test_every_listed_name_resolves_in_its_home():
    # __all__ is built from the table of homes, where a stale entry would
    # otherwise go unseen: it raises AttributeError here
    for name in siegellift.__all__:
        assert getattr(siegellift, name).__module__ == f"siegellift.{siegellift._HOMES[name]}", name


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        siegellift.no_such_name
    assert siegellift.__version__ == "0.1.0"
