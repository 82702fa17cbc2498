"""The package's modules form layers: a module imports only modules below it,
so that, for one, the stage preconditioner never learns about the boundary
treatment of the operator it preconditions."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "implicitrk"
LAYERS = ("tableaux", "sparsela", "bcs", "precond", "stepper", "problems", "cli")


def package_imports(name):
    """The package modules that module ``name`` imports, at any depth of its
    code, by relative import."""
    tree = ast.parse((PACKAGE / f"{name}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                found.update(alias.name for alias in node.names)
            else:
                found.add(node.module.split(".")[0])
    return found


def test_every_module_has_a_layer():
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(LAYERS)


@pytest.mark.parametrize("name", LAYERS)
def test_imports_only_lower_layers(name):
    below = set(LAYERS[:LAYERS.index(name)])
    assert package_imports(name) <= below, name


def test_precond_imports_nothing_from_bcs():
    assert "bcs" not in package_imports("precond")


def test_importing_the_package_loads_no_fft():
    # scipy.fft loads scipy.special, about 5 MB of peak RSS; only a tensor
    # pair's sine transform needs it, and imports it on first use
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    code = "import sys, implicitrk, implicitrk.cli; print('scipy.fft' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def test_the_stepper_leaves_the_choice_of_solve_path_to_the_factors():
    # whether a stage system is solved by one apply, by GMRES in sine
    # coordinates or by FGMRES is decided in precond (``solve``); the stepper
    # reads none of the attributes that decision rests on
    tree = ast.parse((PACKAGE / "stepper.py").read_text())
    reads = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert not reads & {"sine_solve", "exact", "pair", "_pair"}


def test_the_identity_stage_coefficient_is_skipped_in_one_place():
    # ``sparsela.stage_product`` skips the identity factor of
    # ``Splitting.coefficients``: the preconditioner builds no identity to
    # compare a coefficient with, and the stage system does not branch on
    # its splitting (its ``splitting=Splitting.AI`` default stays)
    precond = ast.parse((PACKAGE / "precond.py").read_text())
    calls = {ast.unparse(node.func) for node in ast.walk(precond) if isinstance(node, ast.Call)}
    assert not calls & {"np.eye", "np.identity"}
    stepper = ast.parse((PACKAGE / "stepper.py").read_text())
    system = next(node for node in stepper.body
                  if isinstance(node, ast.ClassDef) and node.name == "StageSystem")
    tests = [ast.unparse(node) for node in ast.walk(system) if isinstance(node, ast.Compare)]
    assert not [t for t in tests if "Splitting.AI" in t or "Splitting.IA" in t]
