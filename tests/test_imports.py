"""The package exports a pinned set of names, loads scipy only where a
function calls it, and reaches quadrature through degeneracy alone."""

import ast
import os
import subprocess
import sys

import degparab

SRC = os.path.dirname(os.path.dirname(os.path.abspath(degparab.__file__)))

# every public name, the submodules included; adding or removing one is a
# change to this list
PUBLIC_NAMES = [
    "CSV_HEADER", "CoefficientPath", "ConfigError", "DegeneracyProfile",
    "EstimateReport", "ExperimentConfig",
    "GridSpec", "KernelDecayFit", "LPFamily", "LevelsetFit",
    "MCEstimate", "QuadratureError", "SeparableForcing", "SpectralField",
    "TimePartition", "accumulate_on", "besov_norm",
    "bessel_norm", "build_forcing", "build_initial", "char_function_check",
    "check_classic", "check_domination", "check_kernel_decay", "check_thm1",
    "check_thm2", "cli", "compare_fields", "compile_expr",
    "constant_matrix_path", "constant_profile", "convergence_orders",
    "cumulative_delta", "degeneracy",
    "empirical_bound", "epsilon_regularize", "epsilon_sweep", "estimates",
    "expr_matrix_path", "expr_profile", "fit_beta_exponent",
    "gaussian_bump", "hessian_lp_norm", "inner_product", "integrate_to",
    "integrate_windows", "inverse_cumulative", "levelset_measure",
    "levelset_measure_scan", "lowpass", "lp_block",
    "lp_norm", "mc_solve", "mode_field", "oracle", "oscillatory_profile",
    "parse_coefficients", "parse_config", "parse_profile",
    "piecewise_profile", "power_profile", "quadratic_form", "quadrature",
    "reports_to_csv", "rough_field", "run", "s0_block", "sample_increments",
    "save_report", "scalar_path", "second_derivatives", "solve_duhamel",
    "solve_final", "solver", "spec", "spectral", "validate_config",
    "weak_residual_profile", "weighted_norm", "x_grids",
]


def test_public_names_are_pinned():
    assert len(PUBLIC_NAMES) == 80
    assert sorted(degparab.__all__) == PUBLIC_NAMES


def test_import_leaves_scipy_unloaded():
    code = ("import sys, degparab; "
            "print(sorted(m for m in ('scipy.special', 'scipy.sparse', "
            "'scipy.ndimage') if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_fd_solve_leaves_scipy_sparse_unloaded():
    code = ("import sys\n"
            "from degparab import (GridSpec, TimePartition, constant_profile,"
            " gaussian_bump, scalar_path)\n"
            "from degparab.oracle import _fd_steps\n"
            "grid = GridSpec(dim=1, n=32, length=8.0)\n"
            "list(_fd_steps(gaussian_bump(grid, width=1.0), None,"
            " scalar_path(constant_profile(1.0), 1),"
            " TimePartition.uniform(4, 0.1).nodes))\n"
            "print('scipy.sparse' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_only_degeneracy_reaches_the_scalar_integrators():
    # accumulate_on is the one route from a path or a profile to its
    # cumulatives; the package __init__ only re-exports the integrators
    integrators = {"integrate_to", "integrate_windows", "geometric_panels"}
    pkg = os.path.dirname(os.path.abspath(degparab.__file__))
    found = []
    for name in sorted(os.listdir(pkg)):
        if not name.endswith(".py") or name in (
                "__init__.py", "quadrature.py", "degeneracy.py"):
            continue
        with open(os.path.join(pkg, name)) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                found += [f"{name}: imports {a.name}" for a in node.names
                          if a.name in integrators]
            elif (isinstance(node, ast.Name) and node.id in integrators
                  or isinstance(node, ast.Attribute)
                  and node.attr in integrators):
                found.append(f"{name}:{node.lineno}")
    assert found == []
