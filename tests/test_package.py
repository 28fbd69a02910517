"""Checks over the source of the whole package."""

import ast
import os
import subprocess
import sys
from pathlib import Path

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
