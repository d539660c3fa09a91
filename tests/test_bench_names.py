"""The library names the benchmark in bench/ calls resolve on the package.

bench/ is read as source (``ast``), never imported or edited.  Without this
guard, removing a traced function breaks only ``bench/run.py --trace 1``.
"""

import ast
import importlib
import pathlib

import jordanperturb

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def bench_tree(name):
    return ast.parse((BENCH / name).read_text(encoding="utf-8"))


def test_traced_functions_resolve():
    traced = next(
        ast.literal_eval(node.value)
        for node in ast.walk(bench_tree("tracing.py"))
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TRACED" for t in node.targets)
    )
    assert traced
    for mod_name, fn_name in traced:
        mod = importlib.import_module(f"jordanperturb.{mod_name}")
        assert callable(getattr(mod, fn_name, None)), f"{mod_name}.{fn_name}"


def test_package_names_read_by_run_are_public():
    names = {
        node.attr
        for node in ast.walk(bench_tree("run.py"))
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "jp"
    }
    assert {"generate", "select_subspace", "solve_riccati"} <= names
    assert names <= set(jordanperturb.__all__), sorted(names - set(jordanperturb.__all__))


def test_verify_bindings_patched_by_run():
    import jordanperturb.verify as jv

    assert callable(jv.solve_riccati) and callable(jv.exact_subspace_basis)
