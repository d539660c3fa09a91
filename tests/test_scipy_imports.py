"""Only core_linalg imports scipy.

Importing scipy.linalg takes longer than numpy and the rest of the package
together, so the package reaches scipy only through the core_linalg calls
that need a routine numpy lacks.  The package source is read with ``ast`` at
every nesting level: a function-local import counts as much as a
module-level one.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "jordanperturb"


def scipy_imports(name, text):
    """'name:line module' for each import of scipy or a scipy submodule in the
    source text, in line order."""
    hits = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        elif (
            isinstance(node, ast.Call)
            and getattr(node.func, "attr", getattr(node.func, "id", None)) in ("import_module", "__import__")
            and node.args
            and isinstance(node.args[0], ast.Constant)
        ):
            modules = [str(node.args[0].value)]
        else:
            continue
        hits += [(node.lineno, module) for module in modules if module.split(".")[0] == "scipy"]
    return [f"{name}:{line} {module}" for line, module in sorted(hits)]


def package_scipy_imports(path):
    return scipy_imports(path.name, path.read_text(encoding="utf-8"))


def test_only_core_linalg_imports_scipy():
    modules = sorted(SRC.glob("*.py"))
    assert {"core_linalg.py", "pencil.py", "first_order.py", "reduction.py"} <= {p.name for p in modules}
    assert package_scipy_imports(SRC / "core_linalg.py")  # its function-local import is seen
    offenders = [hit for path in modules if path.name != "core_linalg.py" for hit in package_scipy_imports(path)]
    assert not offenders, offenders


def test_guard_sees_every_import_form():
    src = (
        "import scipy\n"
        "def f():\n"
        "    from scipy.linalg import schur\n"
        "    class C:\n"
        "        import numpy, scipy.linalg as la\n"
        "    importlib.import_module('scipy.optimize')\n"
        "    __import__('scipy')\n"
        "from . import core_linalg\n"
        "from .scipy_like import x\n"
    )
    assert scipy_imports("probe.py", src) == [
        "probe.py:1 scipy", "probe.py:3 scipy.linalg", "probe.py:5 scipy.linalg",
        "probe.py:6 scipy.optimize", "probe.py:7 scipy",
    ]
