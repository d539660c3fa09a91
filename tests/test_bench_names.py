"""The library names the benchmark in bench/ calls resolve on the package,
and the CLI flags it passes parse.

bench/ is read as source (``ast``), never imported or edited.  Without this
guard, removing a traced function breaks only ``bench/run.py --trace 1``, and
removing a flag only the cli-verify workload.
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


def test_cli_flags_passed_by_run_parse():
    # the argv lists CliVerify builds, each non-literal element (a path, the
    # sizes, the seed) stood in for by "1"; a removed or renamed flag fails here
    from jordanperturb.cli import build_parser

    cls = next(
        node for node in ast.walk(bench_tree("run.py")) if isinstance(node, ast.ClassDef) and node.name == "CliVerify"
    )
    argvs = {}
    for node in ast.walk(cls):
        if isinstance(node, ast.List) and node.elts and isinstance(node.elts[0], ast.Constant):
            argv = [e.value if isinstance(e, ast.Constant) else "1" for e in node.elts]
            argvs[argv[0]] = argv
    flags = {cmd: {a for a in argv if a.startswith("--")} for cmd, argv in argvs.items()}
    assert flags == {"generate": {"--sizes", "--seed", "--out"}, "verify": {"--out-json", "--out-csv"}}
    for cmd, argv in argvs.items():
        assert build_parser().parse_args(argv).command == cmd
