"""The package surface and what a fresh ``catpark`` process imports."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import catpark

# every public name of the package, by the module that defines it
EXPORTS = {
    "caterpillar": (
        "CaterpillarTree", "ParkingOutcome", "build_caterpillar",
        "enumerate_caterpillar_pk", "from_lattice_path", "is_tree_pk",
        "simulate", "theta", "theta_inv", "to_lattice_path"),
    "decomposition": (
        "FirstReturnDecomposition", "decompose", "eta", "eta_inv", "f_stat",
        "first_fixed_point", "g_stat", "recompose", "tau", "u_luck",
        "u_omega"),
    "engine": (
        "JointCountTensor", "fuss_catalan_series", "gamma_poly_brute",
        "gamma_series_closed", "h_decompose", "h_series",
        "joint_count_tensor", "multi_stat_poly_brute", "r_poly_brute",
        "r_series_closed", "verify_convolution_identity",
        "verify_functional_equation", "verify_multi_stat_product",
        "verify_thm_rec"),
    "errors": (
        "CatparkError", "EnumerationCapError", "HBasisError",
        "InvalidCompositionError", "NonMembershipError"),
    "harness": ("run_verification",),
    "kernels": ("BACKEND",),
    "polynomials": ("MultiPoly", "complete_homogeneous"),
    "sequences": (
        "BoundFamily", "canonical_family", "count_u_pk", "enumerate_u_pk",
        "fuss_catalan", "is_u_pk"),
    "series": ("TruncatedSeries",),
}
NAMES = [(module, name) for module, names in EXPORTS.items()
         for name in names]
# modules neither the parser nor a single-object verb needs
NOT_AT_COLD_START = ("dataclasses", "inspect", "json", "csv",
                     "catpark.harness", "catpark.engine",
                     "catpark.polynomials", "catpark.series",
                     "catpark.tables")


def _loaded_after(code, modules):
    """Which of modules a fresh interpreter (no site) has loaded after
    running code, with this catpark on the path."""
    script = (f"import sys\n{code}\n"
              "print(' '.join(m for m in sys.argv[1:] if m in sys.modules))")
    env = dict(os.environ,
               PYTHONPATH=str(Path(catpark.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-S", "-c", script, *modules],
                          capture_output=True, text=True, env=env, timeout=60,
                          check=True)
    return done.stdout.split()


@pytest.mark.parametrize("module, name", NAMES)
def test_name_resolves_to_its_modules_object(module, name):
    defining = importlib.import_module(f"catpark.{module}")
    namespace = {}
    exec(f"from catpark import {name}", namespace)
    assert getattr(catpark, name) is getattr(defining, name)
    assert namespace[name] is getattr(defining, name)
    owner = getattr(getattr(defining, name), "__module__", defining.__name__)
    assert owner == defining.__name__


def test_all_dir_and_star_import_see_every_name():
    names = {name for _, name in NAMES}
    assert sorted(catpark.__all__) == sorted(names)
    assert names <= set(dir(catpark))
    namespace = {}
    exec("from catpark import *", namespace)
    assert names <= set(namespace)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        catpark.no_such_name
    with pytest.raises(ImportError):
        exec("from catpark import no_such_name", {})


def test_version_loads_no_module():
    assert _loaded_after("import catpark\nprint(catpark.__version__)",
                         ["catpark.harness", "catpark.errors"]) == ["0.1.0"]


# a fresh process's set-up, as perfbench's setup_s times it; then the
# single-object verbs, which need no check, polynomial or table either
COLD_STARTS = (
    "import catpark.cli\ncatpark.cli.build_parser()",
    "import io, contextlib\n"
    "from catpark.cli import main\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    for argv in (['count', '--m', '2', '--n', '5'],\n"
    "                 ['enumerate', '--m', '2', '--n', '3'],\n"
    "                 ['stats', '--m', '2', '--seq', '1,1,4'],\n"
    "                 ['stats', '--kind', 'cat', '--m', '2',\n"
    "                  '--seq', '1,1,2,3,4'],\n"
    "                 ['decompose', '--m', '2', '--seq', '1,1,4'],\n"
    "                 ['map', '--name', 'eta', '--m', '2',\n"
    "                  '--seq', '1,1,4']):\n"
    "        assert main(argv) == 0, argv",
)


@pytest.mark.parametrize("code", COLD_STARTS, ids=("parser", "verbs"))
def test_cold_start_loads_only_what_it_needs(code):
    """The records are not dataclasses, and nothing imports the harness,
    engine, polynomials, series, tables, json or csv before a verb needs
    them."""
    assert _loaded_after(code, NOT_AT_COLD_START) == []
