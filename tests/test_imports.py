"""Import hygiene: what `import hwkit` loads, no unused imports, and the
module bindings the benchmark's tracer wraps.

No linter ships with the test environment, so the unused-import check
walks the AST: a name bound by an import must appear as a Name somewhere
in the same file.  `__init__.py` re-exports the public API and is exempt,
as is the acceptance suite, which stays as written.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "hwkit"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
SCRIPTS_AND_TESTS = sorted(
    p for p in [*ROOT.glob("scripts/*.py"), *ROOT.glob("tests/*.py")]
    if p.name != "test_acceptance.py")


def test_import_loads_no_scipy_numpy_polynomial_or_mpmath():
    # all three cost start-up time; hwkit imports them inside the
    # functions that need them, and the rate function and the joint
    # density need none (the minimizer of I(a, .) is closed form)
    code = ("import sys, hwkit; hwkit.rate_J(2.0); "
            "hwkit.joint_density_leading(1.1, 0.9, 0.05, 0.3); "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('scipy', 'mpmath') "
            "or m.startswith('numpy.polynomial')))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_modules_found():
    assert len(MODULES) >= 10
    assert len(SCRIPTS_AND_TESTS) >= 10


@pytest.mark.parametrize(
    "path", MODULES + SCRIPTS_AND_TESTS,
    ids=lambda p: p.name if p.parent == SRC else f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = sorted(f"{name} (line {line})" for name, line in imported.items()
                    if name not in used)
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_every_traced_binding_exists():
    # perfbench/tracing.py swaps each (module, attribute) of its TARGETS
    # for a timing wrapper; a binding renamed or removed in hwkit would
    # otherwise fail only the traced benchmark runs
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    targets = next(ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign)
                   and [getattr(t, "id", None) for t in node.targets]
                   == ["TARGETS"])
    assert targets
    missing = [f"{mod}.{attr}" for mod, attr, _ in targets
               if not hasattr(importlib.import_module(mod), attr)]
    assert not missing, f"traced bindings missing from hwkit: {missing}"
