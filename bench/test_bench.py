"""Self-tests of the benchmark: declared metrics, printed results, negative controls.

    python3 -m pytest -q bench/test_bench.py      (about two minutes)
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import checks
import run

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_tables_match_benchmark_json():
    spec = declared()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == run.PER_LAYER
    assert spec["command"] == ["python3", "bench/run.py"]


def bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize(
    "workload,trace",
    [("expand-batch", 0), ("expand-batch", 1), ("cli-verify", 0), ("cli-verify", 1), ("verify-ladder", 1)],
)
def test_printed_metrics_are_declared(workload, trace):
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    spec = declared()["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in spec}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    if workload == "verify-ladder":
        assert (result["attempted"], result["failed"]) == (122, 16)
        m = result["metrics"]
        assert m["verify.claims_failed"]["value"] == 16
        times = {k: v["value"] for k, v in m.items() if k.endswith("_s") and not k.startswith("trace.")}
        assert max(times, key=times.get) == "first_order.solve_riccati_s"
    else:
        assert result["failed"] == 0
    if workload == "expand-batch" and trace:
        assert result["metrics"]["first_order.solve_riccati_calls"]["value"] == 0


def test_fails_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("expand-batch", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.fixture(scope="module")
def small_case():
    jp = run.import_library()
    import jordanperturb.verify as jv

    pair = run.case(jp, (1, 2), 1)
    rho = 2
    assembled = jp.assemble_pencil(pair, rho)
    reduced = jp.reduce_pencil(assembled)
    clusters = run.distinct_clusters(jp, reduced)
    sel = jp.select_subspace(reduced, run.cluster_pred(clusters[0].gamma), 0)
    comp = jp.complement_pair(reduced, sel)
    fo = jp.first_order_expansion(reduced, sel, comp)
    bases = []
    for z in checks.SERIES_Z:
        sol = jp.solve_riccati(assembled, reduced, z)
        bases.append((z, *jv.exact_subspace_basis(sol, sel, comp)))
    reports = jp.verify_all(pair, rho)
    eig = next(r for r in reports if r.quantity == f"eig[rho={rho},cluster=0]")
    return dict(pair=pair, rho=rho, reduced=reduced, sel=sel, fo=fo, bases=bases, sol=sol,
                mus=clusters[0].mus, eig=eig, reports=reports)


def corrupt(m):
    return m + run.CORRUPTION * max(1.0, np.linalg.norm(m)) / np.sqrt(m.size)


def test_checks_pass_on_library_output(small_case):
    c = small_case
    pair, rho, fo, sel, sol = c["pair"], c["rho"], c["fo"], c["sel"], c["sol"]
    assert checks.theta_roots(c["reduced"].theta, c["reduced"].s_rho, rho, "") == []
    assert checks.first_order_identities(pair, rho, fo.h0, fo.h1, sel.omega, "") == []
    assert checks.exact_basis_series(pair, rho, c["bases"], fo.h0, fo.h1, sel.omega, fo.delta11, "") == []
    assert checks.riccati_solution(pair, rho, sol.z, sol.invariant_matrix(), sol.theta_hat, "") == []
    assert checks.eig_samples(pair, rho, c["mus"], c["eig"].samples, "") == []


def test_negative_controls_fail(small_case):
    c = small_case
    pair, rho, fo, sel, sol = c["pair"], c["rho"], c["fo"], c["sel"], c["sol"]
    h1 = corrupt(fo.h1)
    assert checks.first_order_identities(pair, rho, fo.h0, h1, sel.omega, "")
    assert checks.exact_basis_series(pair, rho, c["bases"], fo.h0, h1, sel.omega, fo.delta11, "")
    assert checks.exact_basis_series(pair, rho, c["bases"], fo.h0, fo.h1, sel.omega, corrupt(fo.delta11), "")
    w, v = np.linalg.eig(sol.theta_hat)
    w[0] += run.CORRUPTION * abs(w[0])
    shifted = v @ np.diag(w) @ np.linalg.inv(v)
    assert checks.riccati_solution(pair, rho, sol.z, sol.invariant_matrix(), shifted, "")
    (t, e), *rest = c["eig"].samples
    assert checks.eig_samples(pair, rho, c["mus"], [(t, e * (1 + run.CORRUPTION))] + rest, "")
    doc = [r.to_dict() for r in c["reports"]]
    assert checks.cli_reports(doc, c["reports"], "") == []
    doc[0]["samples"][0][1] *= 1 + run.CORRUPTION
    assert checks.cli_reports(doc, c["reports"], "")
