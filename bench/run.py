#!/usr/bin/env python3
"""Benchmark of jordanperturb: verification, first-order expansion and the CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/``. Workloads (see README.md for why each exists):

  verify-ladder  verify_all on five fixed cases, one operation per claim
  expand-batch   the closed-form path over four seeded cases, one operation
                 per subspace expansion
  cli-verify     one `jordanperturb verify` process after another, one
                 operation per process

A run sets up (import plus inputs), repeats whole timed rounds until
--seconds have passed, then checks the outputs against independent
computations (checks.py). With --trace 0 it prints the end-to-end metrics;
with --trace 1 the timed rounds run under the span tracer (tracing.py) and
it prints the per-layer metrics. The last line of standard output is one
JSON object; run artifacts go to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "bench", "out")

END_TO_END = {
    "setup_s": ("s", "lower"),
    "round_s": ("s", "lower"),
    "largest_s": ("s", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

PER_LAYER = {
    "first_order.solve_riccati_s": ("s", "lower"),
    "first_order.solve_riccati_calls": ("count", "lower"),
    "first_order.solve_riccati_failed": ("count", "lower"),
    "first_order.newton_iterations": ("count", "lower"),
    "verify.oracle_eig_s": ("s", "lower"),
    "verify.exact_subspace_basis_s": ("s", "lower"),
    "verify.slope_fit_s": ("s", "lower"),
    "verify.self_s": ("s", "lower"),
    "verify.claims": ("count", "higher"),
    "verify.claims_failed": ("count", "lower"),
    "verify.claims_floor_limited": ("count", "lower"),
    "pencil.assemble_s": ("s", "lower"),
    "pencil.reduce_s": ("s", "lower"),
    "pencil.calls": ("count", "lower"),
    "expansion.eigenvalue_expansions_s": ("s", "lower"),
    "expansion.select_subspace_s": ("s", "lower"),
    "expansion.select_subspace_calls": ("count", "lower"),
    "first_order.complement_pair_s": ("s", "lower"),
    "first_order.first_order_expansion_s": ("s", "lower"),
    "first_order.theta_perturbation_s": ("s", "lower"),
    "first_order.theta_perturbation_calls": ("count", "lower"),
    "first_order.theta_perturbation_per_pencil": ("count", "lower"),
    "core_linalg.solve_sylvester_s": ("s", "lower"),
    "core_linalg.solve_sylvester_calls": ("count", "lower"),
    "core_linalg.eig_calls": ("count", "lower"),
    "generator.generate_s": ("s", "lower"),
    "reduction.reduce_s": ("s", "lower"),
    "cli.import_s": ("s", "lower"),
    "cli.main_s": ("s", "lower"),
    "cli.output_bytes": ("bytes", "lower"),
    "trace.round_s": ("s", "lower"),
}

# verify-ladder and cli-verify inputs do not follow --seed: the default
# sweep window fails some claims on some seeds (16 of 122 claims here on
# every run), so only fixed inputs keep the failed share the same in every
# run. expand-batch draws its cases from --seed.
FIXED_SEED = 1
LADDER = (((1, 2), 2), ((2, 2, 2), 3), ((1, 1, 1, 1, 1), 5), ((3, 3, 3, 3), 4), ((4, 4, 4, 4, 4), 5))
EXPAND = ((2, 2, 2), (3, 3, 3, 3), (2, 3, 2, 3, 2), (4, 4, 4, 4, 4))
CLI_GENERATED = ((1, 2), (2, 2, 2))
CLI_LARGEST = "case-2-2-2.json"
# One corrupted coefficient, relative to the norm of the coefficient.
CORRUPTION = 1e-2

CLI_ENTRY = "import sys; from jordanperturb.cli import main; sys.exit(main())"
CHILD_TIMEOUT_S = 150.0


def import_library():
    """Import jordanperturb from the checkout's src/, and nowhere else."""
    pkg_dir = os.path.join(SRC, "jordanperturb")
    if not os.path.isfile(os.path.join(pkg_dir, "__init__.py")):
        sys.exit(f"bench: {pkg_dir} not found; run from the root of a source checkout")
    sys.path.insert(0, SRC)
    import jordanperturb

    if os.path.dirname(os.path.abspath(jordanperturb.__file__)) != pkg_dir:
        sys.exit(f"bench: imported jordanperturb from {jordanperturb.__file__}, not {pkg_dir}")
    import jordanperturb.cli  # noqa: F401  (the CLI's bindings are traced too)

    return jordanperturb


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv, log_path):
    """Run argv to completion with stdout and stderr in log_path.

    Returns (exit code, wall seconds from spawn to exit, peak RSS in MB).
    A child still running after CHILD_TIMEOUT_S is killed.
    """
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, log_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_DUP2, 1, 2),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, child_env(), file_actions=actions)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, os.kill, (pid, signal.SIGKILL))
    watchdog.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        watchdog.cancel()
    wall = time.perf_counter() - start
    return os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss / 1024.0


def case(jp, sizes, seed):
    return jp.generate(jp.CaseSpec(jp.JordanStructure(0.0, sizes), seed=seed, ensure_distinct_gammas=True))


def cluster_pred(gamma):
    return lambda lam: abs(lam - gamma) < 1e-6 * max(1.0, abs(gamma))


def distinct_clusters(jp, reduced):
    """One EigenvalueExpansion per cluster of S_rho, in verify_all's order."""
    out = []
    for e in jp.eigenvalue_expansions(reduced):
        if not any(e is c for c in out):
            out.append(e)
    return out


def timed(call, label, fn, *args):
    start = time.perf_counter()
    result = call(label, fn, *args)
    return result, time.perf_counter() - start


# ------------------------------------------------------------ verify-ladder

class VerifyLadder:
    name = "verify-ladder"

    def setup(self, jp, seed, workdir):
        import jordanperturb.verify

        self.jp = jp
        self.jv = jordanperturb.verify
        self.cases = [(case(jp, sizes, FIXED_SEED), rho) for sizes, rho in LADDER]

    def verify_case(self, pair, rho):
        """verify_all(pair, rho), keeping each RiccatiSolution it computes
        for the checks (one extra Python call per solve)."""
        seen = []
        original = self.jv.solve_riccati

        def keep(*args, **kwargs):
            sol = original(*args, **kwargs)
            seen.append(sol)
            return sol

        self.jv.solve_riccati = keep
        try:
            return self.jp.verify_all(pair, rho), seen
        finally:
            self.jv.solve_riccati = original

    def round(self, call):
        ops = failed = 0
        largest = 0.0
        verdicts, outputs = [], []
        for pair, rho in self.cases:
            label = f"bench.case:{pair.structure.sizes} rho={rho}"
            (reports, seen), took = timed(call, label, self.verify_case, pair, rho)
            ops += len(reports)
            failed += sum(not r.passed for r in reports)
            verdicts.append([(r.quantity, r.passed, r.floor_limited) for r in reports])
            outputs.append((pair, rho, reports, seen))
            largest = took  # the last case is the largest
        return {"ops": ops, "failed": failed, "largest_s": largest, "verdicts": verdicts,
                "outputs": outputs}

    def check(self, results):
        import checks

        jp = self.jp
        fails = []
        if any(r["verdicts"] != results[0]["verdicts"] for r in results):
            fails.append("verify-ladder: a claim's verdict changed between rounds")
        for pair, rho, reports, seen in results[0]["outputs"]:
            label = f"{pair.structure.sizes} rho={rho}"
            assembled = jp.assemble_pencil(pair, rho)
            reduced = jp.reduce_pencil(assembled)
            fails += checks.theta_roots(reduced.theta, reduced.s_rho, rho, label)
            for sol in seen:
                fails += checks.riccati_solution(
                    pair, rho, sol.z, sol.invariant_matrix(), sol.theta_hat, label
                )
            by_name = {r.quantity: r for r in reports}
            clusters = distinct_clusters(jp, reduced)
            for ci, exp in enumerate(clusters):
                rep = by_name[f"eig[rho={rho},cluster={ci}]"]
                fails += checks.eig_samples(pair, rho, exp.mus, rep.samples, f"{label} {rep.quantity}")
            # the subspace verify_all checks: cluster 0, root branch 0
            sel = jp.select_subspace(reduced, cluster_pred(clusters[0].gamma), 0)
            comp = jp.complement_pair(reduced, sel)
            fo = jp.first_order_expansion(reduced, sel, comp)
            bases = []
            for z in checks.SERIES_Z:
                sol = jp.solve_riccati(assembled, reduced, z)
                fails += checks.riccati_solution(
                    pair, rho, z, sol.invariant_matrix(), sol.theta_hat, label
                )
                bases.append((z, *self.jv.exact_subspace_basis(sol, sel, comp)))
            fails += checks.exact_basis_series(
                pair, rho, bases, fo.h0, fo.h1, sel.omega, fo.delta11, label
            )
            fails += checks.first_order_identities(pair, rho, fo.h0, fo.h1, sel.omega, label)
            eig0 = (clusters[0].mus, by_name[f"eig[rho={rho},cluster=0]"].samples)
            if not self.controls_fail(checks, pair, rho, bases, fo, sel, seen[-1], eig0):
                fails.append(f"{label}: a corrupted output passed the checks")
        return fails

    @staticmethod
    def controls_fail(checks, pair, rho, bases, fo, sel, sol, eig0) -> bool:
        """Each corruption must be caught: H1, Delta11, one eigenvalue of
        Theta-hat, one eig[...] sample."""
        import numpy as np

        h1 = fo.h1 + CORRUPTION * max(1.0, np.linalg.norm(fo.h1)) / np.sqrt(fo.h1.size)
        d11 = fo.delta11 + CORRUPTION * max(1.0, np.linalg.norm(fo.delta11))
        w, v = np.linalg.eig(sol.theta_hat)
        w[0] += CORRUPTION * abs(w[0])
        theta = v @ np.diag(w) @ np.linalg.inv(v)
        mus, ((t, e), *rest) = eig0
        return all(
            [
                checks.exact_basis_series(pair, rho, bases, fo.h0, h1, sel.omega, fo.delta11, "c"),
                checks.first_order_identities(pair, rho, fo.h0, h1, sel.omega, "c"),
                checks.exact_basis_series(pair, rho, bases, fo.h0, fo.h1, sel.omega, d11, "c"),
                checks.riccati_solution(pair, rho, sol.z, sol.invariant_matrix(), theta, "c"),
                checks.eig_samples(pair, rho, mus, [(t, e * (1 + CORRUPTION))] + rest, "c"),
            ]
        )

    def layer_counts(self, results):
        last = results[-1]["verdicts"]
        flat = [v for case_v in last for v in case_v]
        return {
            "verify.claims": len(flat),
            "verify.claims_failed": sum(not p for _, p, _ in flat),
            "verify.claims_floor_limited": sum(f for _, _, f in flat),
        }



# ------------------------------------------------------------- expand-batch

class ExpandBatch:
    name = "expand-batch"

    def setup(self, jp, seed, workdir):
        self.jp = jp
        self.pairs = [case(jp, sizes, seed) for sizes in EXPAND]

    def expand_case(self, pair):
        jp = self.jp
        out = []
        for rho in pair.structure.valid_rhos():
            reduced = jp.reduce_pencil(jp.assemble_pencil(pair, rho))
            for exp in distinct_clusters(jp, reduced):
                for branch in range(rho):
                    sel = jp.select_subspace(reduced, cluster_pred(exp.gamma), branch)
                    comp = jp.complement_pair(reduced, sel)
                    fo = jp.first_order_expansion(reduced, sel, comp)
                    out.append((pair, rho, reduced, sel, fo))
        return out

    def round(self, call):
        outputs = []
        largest = 0.0
        for pair in self.pairs:
            label = f"bench.case:{pair.structure.sizes}"
            out, largest = timed(call, label, self.expand_case, pair)  # the last case is the largest
            outputs += out
        return {"ops": len(outputs), "failed": 0, "largest_s": largest, "outputs": outputs}

    def check(self, results):
        import checks
        import numpy as np

        kept = results[0]["outputs"]
        fails = []
        pencils = {id(reduced): (pair, rho, reduced) for pair, rho, reduced, _, _ in kept}
        for pair, rho, reduced in pencils.values():
            fails += checks.theta_roots(reduced.theta, reduced.s_rho, rho, f"{pair.structure.sizes} rho={rho}")
        for pair, rho, reduced, sel, fo in kept:
            label = f"{pair.structure.sizes} rho={rho} chosen={sel.chosen}"
            fails += checks.first_order_identities(pair, rho, fo.h0, fo.h1, sel.omega, label)
            # Lambda(Omega) is one of the rho-th roots, i.e. in Lambda(Theta_rho)
            mus = np.linalg.eigvals(reduced.theta)
            off = max(np.abs(mus - w).min() for w in np.linalg.eigvals(sel.omega))
            if off > 1e-10 * max(1.0, np.abs(mus).max()):
                fails.append(f"{label}: an eigenvalue of Omega is {off:.3e} from Lambda(Theta)")
        pair, rho, _, sel, fo = kept[0]
        h1 = fo.h1 + CORRUPTION * max(1.0, np.linalg.norm(fo.h1)) / np.sqrt(fo.h1.size)
        if not checks.first_order_identities(pair, rho, fo.h0, h1, sel.omega, "c"):
            fails.append("expand-batch: a corrupted H1 passed the first-order identities")
        return fails

    def layer_counts(self, results):
        return {}


# --------------------------------------------------------------- cli-verify

class CliVerify:
    name = "cli-verify"
    traced = False  # run each process under bench/traced_cli.py

    def setup(self, jp, seed, workdir):
        self.jp = jp
        os.makedirs(workdir, exist_ok=True)
        self.files = []
        self.setup_span_files = []
        for sizes in CLI_GENERATED:
            path = os.path.join(workdir, "case-" + "-".join(map(str, sizes)) + ".json")
            argv = self.cli_argv(path + ".gen-spans.json") + [
                "generate", "--sizes", ",".join(map(str, sizes)), "--seed", str(FIXED_SEED), "--out", path,
            ]
            code, _, _ = spawn(argv, path + ".log")
            if self.traced:
                self.setup_span_files.append(path + ".gen-spans.json")
            if code != 0:
                sys.exit(f"bench: `jordanperturb generate` exited {code}; see {path}.log")
            self.files.append(path)
        path = os.path.join(workdir, "general.json")
        write_general_problem(jp, path)
        self.files.append(path)

    def cli_argv(self, spans_path):
        if self.traced:
            return [sys.executable, os.path.join(ROOT, "bench", "traced_cli.py"), spans_path]
        return [sys.executable, "-c", CLI_ENTRY]

    def verify_argv(self, path):
        return self.cli_argv(path + ".spans.json") + [
            "verify", path, "--out-json", path + ".reports.json", "--out-csv", path + ".sweep.csv",
        ]

    def round(self, call):
        ops = failed = 0
        largest = 0.0
        rss, spans, out_bytes = [], [], 0
        for path in self.files:
            code, wall, peak = spawn(self.verify_argv(path), path + ".log")
            ops += 1
            failed += code != 0
            rss.append(peak)
            if os.path.basename(path) == CLI_LARGEST:
                largest = wall
            out_bytes += sum(os.path.getsize(path + ext) for ext in (".log", ".reports.json", ".sweep.csv")
                             if os.path.exists(path + ext))
            if self.traced:
                spans.append(path + ".spans.json")
        return {"ops": ops, "failed": failed, "largest_s": largest, "rss": rss,
                "span_files": spans, "out_bytes": out_bytes}

    def check(self, results):
        """Checks the output files of the last round."""
        import checks

        fails = []
        for path in self.files:
            label = os.path.basename(path)
            try:
                with open(path + ".reports.json", encoding="utf-8") as fh:
                    doc = json.load(fh)
                with open(path + ".sweep.csv", encoding="utf-8") as fh:
                    csv_rows = sum(1 for _ in fh) - 1
            except (OSError, ValueError) as exc:
                fails.append(f"{label}: unreadable CLI output: {exc}")
                continue
            pair = load_pair(self.jp, path)
            reports = [r for rho in pair.structure.valid_rhos() for r in self.jp.verify_all(pair, rho)]
            fails += checks.cli_reports(doc, reports, label)
            if csv_rows != sum(len(r["samples"]) for r in doc):
                fails.append(f"{label}: CSV has {csv_rows} rows for {sum(len(r['samples']) for r in doc)} samples")
            for rho in pair.structure.valid_rhos():
                reduced = self.jp.reduce_pencil(self.jp.assemble_pencil(pair, rho))
                for ci, exp in enumerate(distinct_clusters(self.jp, reduced)):
                    rep = next(r for r in doc if r["quantity"] == f"eig[rho={rho},cluster={ci}]")
                    fails += checks.eig_samples(pair, rho, exp.mus, rep["samples"], f"{label} {rep['quantity']}")
            bad = json.loads(json.dumps(doc))
            bad[0]["samples"][0][1] *= 1 + CORRUPTION
            if not checks.cli_reports(bad, reports, label):
                fails.append(f"{label}: a corrupted CLI report passed the comparison")
        return fails

    def layer_counts(self, results):
        docs = []
        for path in self.files:
            with open(path + ".reports.json", encoding="utf-8") as fh:
                docs += json.load(fh)
        return {
            "verify.claims": len(docs),
            "verify.claims_failed": sum(not r["passed"] for r in docs),
            "verify.claims_floor_limited": sum(r["floor_limited"] for r in docs),
        }


def write_general_problem(jp, path):
    """The general-form (A, D, Xi, Xi_c, A22) problem of demos/05_general_problem.py."""
    import numpy as np
    import scipy.linalg as la

    rng = np.random.default_rng(10)
    st = jp.JordanStructure(0.3 - 0.2j, (1, 2))
    m, n = st.dim, st.dim + 2
    a11 = st.lambda0 * np.eye(m) + jp.build_nilpotent(st)
    a22 = np.diag([2.5 + 0.0j, -1.5 + 1.0j])
    basis = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
    basis = basis @ (np.eye(n) + 0.15 * rng.normal(size=(n, n)))
    a = basis @ la.block_diag(a11, a22) @ np.linalg.inv(basis)
    d = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))

    def mat(x):
        return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(x, dtype=complex)]

    doc = {
        "lambda0": [st.lambda0.real, st.lambda0.imag],
        "sizes": list(st.sizes),
        "a": mat(a), "d": mat(d), "xi": mat(basis[:, :m]), "xi_c": mat(basis[:, m:]), "a22": mat(a22),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def load_pair(jp, path):
    """Read a problem file with json and numpy, not with the CLI's parser."""
    import numpy as np

    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)

    def mat(rows):
        return np.array([[complex(re, im) for re, im in row] for row in rows])

    st = jp.JordanStructure(complex(*doc["lambda0"]), tuple(doc["sizes"]))
    if "d11" in doc:
        return jp.CanonicalPair(st, mat(doc["d11"]))
    trans = jp.SpectralTransformation(xi=mat(doc["xi"]), xi_c=mat(doc["xi_c"]), a22=mat(doc["a22"]), structure=st)
    return jp.reduce(mat(doc["a"]), mat(doc["d"]), trans).pair


WORKLOADS = {w.name: w for w in (VerifyLadder, ExpandBatch, CliVerify)}


# ------------------------------------------------------------ running a workload

def setup(workload, seed, workdir, tracer=None):
    """Import the library and build the workload's inputs; returns seconds."""
    start = time.perf_counter()
    jp = import_library()
    if tracer is not None:
        tracer.install()
    try:
        workload.setup(jp, seed, workdir)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return time.perf_counter() - start


def seconds_in_child(argv, log) -> float:
    """Run a child that prints a duration in seconds as its last word."""
    code, _, _ = spawn(argv, log)
    with open(log, encoding="utf-8") as fh:
        words = fh.read().split()
    if code != 0 or not words:
        sys.exit(f"bench: {' '.join(argv[1:3])} exited {code}; see {log}")
    return float(words[-1])


def setup_in_child(name, seed) -> float:
    argv = [sys.executable, os.path.abspath(__file__), "--setup-only", "--workload", name,
            "--seed", str(seed), "--seconds", "0"]
    return seconds_in_child(argv, os.path.join(OUT, f"setup-{name}.log"))


def import_time_in_child() -> float:
    code = "import time; t = time.perf_counter(); import jordanperturb; print(time.perf_counter() - t)"
    return seconds_in_child([sys.executable, "-c", code], os.path.join(OUT, "import.log"))


def run_rounds(workload, seconds, call):
    """Whole rounds until `seconds` have passed (at least one)."""
    results = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        res = call("bench.round", workload.round, call)
        res["start"] = t0
        res["round_s"] = time.perf_counter() - t0
        if results:
            res.pop("outputs", None)  # the checks read the first round's outputs
        results.append(res)
        if time.perf_counter() - start >= seconds:
            return results


def plain(label, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def end_to_end(workload, args, results, setup_main) -> dict:
    setups = [setup_main] + [setup_in_child(args.workload, args.seed) for _ in range(2)]
    if isinstance(workload, CliVerify):
        rss = statistics.median(x for r in results for x in r["rss"])
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": statistics.median(setups),
        "round_s": statistics.median(r["round_s"] for r in results),
        "largest_s": statistics.median(r["largest_s"] for r in results),
        "ops_per_s": sum(r["ops"] for r in results) / sum(r["round_s"] for r in results),
        "peak_rss_mb": rss,
    }


def per_layer(workload, tracer, results, trace_path) -> dict:
    """Per-layer metrics of the traced rounds; writes every span to trace_path."""
    from tracing import dump_spans, layer_metrics, load_spans, self_times

    def absorb(spans, paths):
        # spans written by child processes, ids moved past those already held
        for path in paths:
            spans += load_spans(path, max((s["id"] for s in spans), default=0))
        return spans

    records = tracer.records()
    first = results[0]["start"]
    setup_spans = [s for s in records if s["start"] < first]
    spans = [s for s in records if s["start"] >= first]
    if isinstance(workload, CliVerify):
        absorb(setup_spans, workload.setup_span_files)
        absorb(spans, [path for r in results for path in r["span_files"]])
    rounds = len(results)
    values = layer_metrics(spans, rounds)
    values.update({"verify.claims": 0, "verify.claims_failed": 0, "verify.claims_floor_limited": 0})
    values.update(workload.layer_counts(results))
    values["generator.generate_s"] = sum(
        s["end"] - s["start"] for s in setup_spans if s["name"] == "generator.generate"
    )
    values["cli.import_s"] = statistics.median(import_time_in_child() for _ in range(3))
    values["cli.output_bytes"] = statistics.median(r.get("out_bytes", 0) for r in results)
    values["trace.round_s"] = statistics.median(r["round_s"] for r in results)
    dump_spans(trace_path, {"setup": setup_spans, "rounds": spans}, {"rounds": rounds})
    for name, own in sorted(self_times(spans).items(), key=lambda kv: -kv[1])[:8]:
        print(f"self time {name:40s} {own / rounds:10.4f} s/round", file=sys.stderr)
    return values


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    os.makedirs(OUT, exist_ok=True)
    workload = WORKLOADS[args.workload]()
    tag = f"{args.workload}-seed{args.seed}"

    if args.setup_only:  # one set-up sample for setup_s, in a fresh process
        print(setup(workload, args.seed, os.path.join(OUT, "setup-" + args.workload)))
        return 0

    from tracing import Tracer

    tracer = Tracer() if args.trace else None
    if isinstance(workload, CliVerify):
        workload.traced = tracer is not None
    setup_main = setup(workload, args.seed, os.path.join(OUT, args.workload), tracer)

    if tracer is None or isinstance(workload, CliVerify):
        results = run_rounds(workload, args.seconds, plain)
    else:
        tracer.install()
        try:
            results = run_rounds(workload, args.seconds, tracer.call)
        finally:
            tracer.uninstall()
    fails = workload.check(results)

    if tracer is None:
        values = end_to_end(workload, args, results, setup_main)
        units = END_TO_END
    else:
        values = per_layer(workload, tracer, results, os.path.join(OUT, f"trace-{tag}.json"))
        units = PER_LAYER

    rounds = len(results)
    attempted = sum(r["ops"] for r in results)
    failed = sum(r["failed"] for r in results)
    for msg in fails[:20]:
        print("CHECK FAILED:", msg, file=sys.stderr)
    result = {
        "correct": not fails,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(values[k]), "unit": units[k][0]} for k in units},
    }
    with open(os.path.join(OUT, f"result-{tag}-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    print(f"{args.workload}: {rounds} rounds, {attempted} ops, {failed} failed, "
          f"{len(fails)} check failures", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
