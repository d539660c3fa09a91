"""Only core_linalg imports scipy, and only the LAPACK it calls.

Importing scipy.linalg costs about 0.2 s and 28 MB of peak RSS, against
13 ms and 3.7 MB for scipy and the one compiled module the package needs:
its array-API layer clones numpy, which loads numpy.f2py, numpy.testing,
numpy.ma and numpy.random.  So the package
reaches scipy only through the core_linalg calls that need a routine numpy
lacks, and those load scipy's LAPACK wrappers (``_lapack()``: ``import
scipy``, then the extension module alone).  The package source is read with
``ast`` at every nesting level: a function-local import counts as much as a
module-level one, and the guard sees ``_lapack``'s ``import scipy``.  The
import footprint of the CLI commands and the identity of the module under
either import order are checked in fresh interpreters.
"""

import ast
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg

from jordanperturb import core_linalg as cl
from jordanperturb.cli import canonical_json, main, matrix_to_json

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


# Modules that importing scipy.linalg brings in and the package must not.
HEAVY = ("scipy.linalg", "numpy.ma", "numpy.random", "numpy.testing", "numpy.f2py")


def fresh_python(code):
    """Run code in a new interpreter that imports the package from src/; its
    stdout, parsed as JSON."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def general_problem_doc():
    """A general-form problem like demos/05_general_problem.py: sizes (1, 2)
    at lambda0 = 0.3 - 0.2i, n = 5, a non-unitary spectral transformation."""
    from jordanperturb import JordanStructure, build_nilpotent

    rng = np.random.default_rng(10)
    st = JordanStructure(0.3 - 0.2j, (1, 2))
    m, n = st.dim, st.dim + 2
    a22 = np.diag([2.5 + 0.0j, -1.5 + 1.0j])
    blocks = np.zeros((n, n), dtype=complex)
    blocks[:m, :m] = st.lambda0 * np.eye(m) + build_nilpotent(st)
    blocks[m:, m:] = a22
    basis = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
    basis = basis @ (np.eye(n) + 0.15 * rng.normal(size=(n, n)))
    return {
        "lambda0": [0.3, -0.2],
        "sizes": [1, 2],
        "a": matrix_to_json(basis @ blocks @ np.linalg.inv(basis)),
        "d": matrix_to_json(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))),
        "xi": matrix_to_json(basis[:, :m]),
        "xi_c": matrix_to_json(basis[:, m:]),
        "a22": matrix_to_json(a22),
    }


@pytest.mark.parametrize("kind", ["canonical", "general"])
def test_cli_loads_no_scipy_linalg(tmp_path, kind):
    path = tmp_path / f"{kind}.json"
    if kind == "canonical":
        assert main(["generate", "--sizes", "1,2", "--seed", "1", "--out", str(path)]) == 0
    else:
        path.write_text(canonical_json(general_problem_doc()), encoding="utf-8")
    commands = [
        ["analyze", str(path)],
        ["expand", str(path), "--rho", "2", "--cluster", "idx:0", "--order", "1"],
        ["verify", str(path), "--out-json", str(tmp_path / "r.json"), "--out-csv", str(tmp_path / "s.csv")],
    ]
    got = fresh_python(
        "import contextlib, io, json, sys\n"
        "from jordanperturb.cli import main\n"
        "codes = []\n"
        "for argv in %r:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        codes.append(main(argv))\n"
        "    codes.append([m for m in %r if m in sys.modules])\n"
        "    codes.append('scipy.linalg._flapack' in sys.modules)\n"
        "print(json.dumps(codes))\n" % (commands, HEAVY)
    )
    # analyze, expand, verify: exit 0 and no heavy module after each; the
    # LAPACK wrappers are loaded by reduce's Sylvester solve on a general
    # problem, else by the first Schur form of expand
    assert got == [0, [], kind == "general", 0, [], True, 0, [], True]


@pytest.mark.parametrize("library_first", [True, False], ids=["library-first", "scipy.linalg-first"])
def test_one_lapack_module_in_either_import_order(library_first):
    load = "import jordanperturb.core_linalg as cl; lp = cl._lapack()"
    first, second = (load, "import scipy.linalg") if library_first else ("import scipy.linalg", load)
    got = fresh_python(
        f"import json, sys\n{first}\n{second}\n"
        "print(json.dumps([scipy.linalg.lapack.ztrsen is lp.ztrsen,\n"
        "                  sys.modules['scipy.linalg._flapack'] is lp, scipy.linalg.lapack._flapack is lp]))\n"
    )
    assert got == [True, True, True]


def test_lapack_fallback_imports_the_same_module():
    # with no extension file found next to scipy/linalg/__init__.py, the
    # package import gives the module, the same one scipy.linalg.lapack reads
    got = fresh_python(
        "import importlib.machinery, json, sys\n"
        "import jordanperturb.core_linalg as cl\n"
        "class NoFile(importlib.machinery.FileFinder):\n"
        "    def find_spec(self, fullname, target=None):\n"
        "        return None\n"
        "cl.FileFinder = NoFile\n"
        "lp = cl._lapack()\n"
        "through_package = 'scipy.linalg' in sys.modules\n"
        "import scipy.linalg.lapack\n"
        "print(json.dumps([through_package, lp is scipy.linalg.lapack._flapack,\n"
        "                  lp is sys.modules['scipy.linalg._flapack'], lp.ztrsen is scipy.linalg.lapack.ztrsen]))\n"
    )
    assert got == [True, True, True, True]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_schur_and_reorder_bit_identical_to_scipy(seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(30, 30)) + 1j * rng.normal(size=(30, 30))
    t, q = cl.schur(m)
    t_ref, q_ref = scipy.linalg.schur(m, output="complex")
    assert np.array_equal(t, t_ref) and np.array_equal(q, q_ref)

    def select(diag):
        return diag.real > 0

    q_ord, t_ord, r = cl.ordered_schur(m, select)
    mask = select(np.diag(t_ref)).astype(np.int32)
    t_ref, q_ref, _, r_ref, *_ = scipy.linalg.lapack.ztrsen(mask, t_ref, q_ref, job="N")
    assert r == r_ref > 0
    assert np.array_equal(t_ord, t_ref) and np.array_equal(q_ord, q_ref)
