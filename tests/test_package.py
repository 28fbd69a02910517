"""Checks over the source of the whole package."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import strategiq

PACKAGE = Path(strategiq.__file__).resolve().parent


def test_no_assert_statements():
    # python -O strips assert statements, so no runtime check may rest on one
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_no_orphan_imports():
    # no linter runs on the package, so an import its module never uses is caught here
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {
            (alias.asname or alias.name).split(".")[0]: node.lineno
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]
    assert found == []


def test_import_loads_no_heavy_scipy_subpackage():
    # the package needs only scipy.special; scipy.optimize alone adds about
    # 22 MB of resident memory to every run
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    loaded = subprocess.run(
        [sys.executable, "-c", "import sys, strategiq; print(*sys.modules)"],
        check=True, capture_output=True, text=True, env=env,
    ).stdout.split()
    heavy = {"scipy.optimize", "scipy.linalg", "scipy.stats", "scipy.integrate"}
    assert sorted(m for m in loaded if ".".join(m.split(".")[:2]) in heavy) == []


def _phi_loaded_after(code: str) -> str:
    """'True' or 'False': whether a fresh interpreter has scipy.special loaded after running code."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", f"{code}\nimport sys; print('scipy.special' in sys.modules)"],
        check=True, capture_output=True, text=True, env=env,
    ).stdout.split()[-1]


@pytest.mark.parametrize("code, loaded", [
    ("import strategiq", False),
    ("from strategiq import cli; cli.main(['linear', '--lambda', '2.0'])", False),
    ("from strategiq import cli; cli.main(['sweep', '--mode', 'linear', '--lambdas', '0,1,inf'])", False),
    ("from strategiq import cli\nif cli.main(['sweep', '--seed', 'abc']) != 1: raise SystemExit(3)", False),
    ("import strategiq as s\n"
     "src = s.make_source(1.0, 1.0, 0.0); grid = s.make_theta_grid(src, 3)\n"
     "q = s.Quantizer(M=2, boundaries=[[-float('inf'), 0.0, float('inf')]] * 3)\n"
     "s.evaluate(q, src, grid, 1.0)", True),
], ids=["import", "linear", "linear sweep", "config error", "evaluate"])
def test_scipy_special_loads_on_first_phi(code, loaded):
    # scipy.special takes longer to import than numpy and the package together,
    # and the linear stage never evaluates Phi; test modules import it themselves,
    # so only a fresh interpreter shows what the package loads
    assert _phi_loaded_after(code) == str(loaded)
