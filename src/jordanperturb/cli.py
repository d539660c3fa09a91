"""Command-line front end: analyze | expand | verify | generate.

Problem files are UTF-8 JSON.  Complex scalars are written as [re, im]
pairs and matrices as row-major nested arrays of such pairs.  A file holds
either a canonical problem

    {"lambda0": [re, im], "sizes": [s1, ..., sk], "d11": [[...], ...]}

or a general one with keys a, d, xi, xi_c, a22 (plus lambda0 and sizes),
which is reduced to canonical coordinates before any analysis.  Exactly one
of the two forms must be present.

Exit codes: 0 success / all checks passed, 1 verification failure,
2 precondition or genericity failure, 3 parse error (of the file, of the
command line or an argument value, or an output path that cannot be written).
"""

from __future__ import annotations

import argparse
import io
import json
import sys

import numpy as np

from . import core_linalg as cl
from .errors import (
    ClusterNotSeparated,
    InvalidTransformation,
    JordanPerturbError,
    MatrixRootFailure,
    ParseError,
    SingularW,
    SpectraOverlap,
)
from .expansion import select_subspace, subspace_expansion
from .first_order import complement_pair, first_order_expansion
from .generator import CaseSpec, generate
from .pencil import assemble_pencil, reduce_pencil, sort_complex, theta_spectrum
from .reduction import SpectralTransformation, reduce
from .structure import CanonicalPair, JordanStructure, check_generic
from .verify import verify_all

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_PRECONDITION = 2
EXIT_PARSE = 3

_PRECONDITION_ERRORS = (
    SingularW,
    ClusterNotSeparated,
    InvalidTransformation,
    MatrixRootFailure,
    SpectraOverlap,
)


# ----------------------------------------------------------------- JSON I/O

def _fmt_float(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        raise ParseError("non-finite number cannot be serialized")
    return f"{float(x):.17g}"


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, floats at 17 significant digits."""

    def render(o):
        if isinstance(o, dict):
            items = sorted(o.items())
            return "{" + ",".join(json.dumps(str(k)) + ":" + render(v) for k, v in items) + "}"
        if isinstance(o, (list, tuple)):
            return "[" + ",".join(render(v) for v in o) + "]"
        if isinstance(o, bool):
            return "true" if o else "false"
        if isinstance(o, (int, np.integer)):
            return str(int(o))
        if isinstance(o, (float, np.floating)):
            return _fmt_float(float(o))
        if isinstance(o, (complex, np.complexfloating)):
            return render([o.real, o.imag])
        if isinstance(o, np.ndarray):
            return render(matrix_to_json(o))
        if o is None:
            return "null"
        if isinstance(o, str):
            return json.dumps(o)
        raise ParseError(f"cannot serialize {type(o).__name__}")

    return render(obj) + "\n"


def matrix_to_json(m: np.ndarray):
    m = np.atleast_2d(np.asarray(m, dtype=np.complex128))
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def _as_complex(v, what: str) -> complex:
    if not (isinstance(v, (list, tuple)) and len(v) == 2):
        raise ParseError(f"{what} must be a [re, im] pair")
    if not all(type(x) in (int, float) for x in v):  # JSON numbers only: no true, false or "1"
        raise ParseError(f"{what} has non-numeric entries")
    try:
        z = complex(float(v[0]), float(v[1]))
    except OverflowError as exc:  # an integer beyond the double range
        raise ParseError(f"{what} must be finite") from exc
    if not (np.isfinite(z.real) and np.isfinite(z.imag)):
        raise ParseError(f"{what} must be finite")
    return z


def json_to_matrix(rows, what: str) -> np.ndarray:
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise ParseError(f"{what} must be a nested array")
    try:
        out = np.array(
            [[_as_complex(v, f"{what} entry") for v in row] for row in rows],
            dtype=np.complex128,
        )
    except ValueError as exc:
        raise ParseError(f"{what} is ragged") from exc
    if out.ndim != 2:  # [] parses to shape (0,): the 0x0 matrix
        out = out.reshape(0, 0)
    return out


def load_problem(path: str):
    """Parse a problem file into a CanonicalPair (reducing general form)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("problem file must hold a JSON object")
    if "lambda0" not in doc or "sizes" not in doc:
        raise ParseError("problem file needs lambda0 and sizes")
    lam0 = _as_complex(doc["lambda0"], "lambda0")
    sizes = doc["sizes"]
    if not isinstance(sizes, list) or not all(type(s) is int and s >= 0 for s in sizes):  # bool subclasses int
        raise ParseError("sizes must be a list of nonnegative integers")
    try:
        structure = JordanStructure(lam0, tuple(sizes))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc

    canonical_keys = {"d11"}
    general_keys = {"a", "d", "xi", "xi_c", "a22"}
    has_canonical = canonical_keys <= set(doc)
    has_general = general_keys <= set(doc)
    if has_canonical == has_general:
        raise ParseError("exactly one of {d11} or {a, d, xi, xi_c, a22} must be present")

    if has_canonical:
        d11 = json_to_matrix(doc["d11"], "d11")
        try:
            return CanonicalPair(structure, d11)
        except ValueError as exc:
            raise ParseError(str(exc)) from exc

    mats = {k: json_to_matrix(doc[k], k) for k in general_keys}
    trans = SpectralTransformation(
        xi=mats["xi"], xi_c=mats["xi_c"], a22=mats["a22"], structure=structure
    )
    red = reduce(mats["a"], mats["d"], trans)
    return red.pair


def _write(path: str, text: str, newline: str | None = None) -> None:
    """Write an output file; a path that cannot be written is a parse error."""
    try:
        with open(path, "w", encoding="utf-8", newline=newline) as fh:
            fh.write(text)
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc}") from exc


def _check_rho(rho: int, st: JordanStructure, splitting: bool = True) -> int:
    """--rho in 1..k and, unless ``splitting`` is off (``analyze``), an order
    at which eigenvalues split: s_rho > 0."""
    if not 1 <= rho <= st.k:
        raise ParseError(f"--rho {rho} outside 1..{st.k}")
    if splitting and rho not in st.valid_rhos():
        valid = ", ".join(map(str, st.valid_rhos()))
        raise ParseError(f"--rho {rho} has s_{rho} = 0, so no eigenvalue splits at that order; valid orders: {valid}")
    return rho


def _parse_cluster(spec: str, reduced):
    """Cluster selector: 'idx:N' picks the N-th eigenvalue cluster of S_rho
    in deterministic order; 'val:RE,IM:RADIUS' picks every cluster within
    RADIUS of RE + i IM, and must pick at least one."""
    bases = reduced.clusters
    if spec.startswith("idx:"):
        try:
            n = int(spec[4:])
        except ValueError as exc:
            raise ParseError(f"bad cluster spec {spec!r}") from exc
        if not 0 <= n < len(bases):
            raise ParseError(f"cluster index {n} outside 0..{len(bases) - 1}")
        return lambda lam, target=bases[n].gamma: lam == target  # the cluster's representative
    if spec.startswith("val:"):
        try:
            value_part, radius_part = spec[4:].rsplit(":", 1)
            re_s, im_s = value_part.split(",")
            target = complex(float(re_s), float(im_s))
            radius = float(radius_part)
        except ValueError as exc:
            raise ParseError(f"bad cluster spec {spec!r}") from exc
        if not (np.isfinite(target) and 0 <= radius < np.inf):
            raise ParseError(f"cluster spec {spec!r} needs a finite RE, IM and a finite nonnegative RADIUS")
        if not any(abs(cb.gamma - target) <= radius for cb in bases):
            raise ParseError(f"cluster spec {spec!r} matches no cluster of S_rho")
        return lambda lam: abs(lam - target) <= radius
    raise ParseError(f"cluster spec must be 'idx:N' or 'val:RE,IM:RADIUS', got {spec!r}")


# ------------------------------------------------------------- subcommands

def cmd_analyze(args) -> int:
    pair = load_problem(args.file)
    st = pair.structure
    rhos = [_check_rho(args.rho, st, splitting=False)] if args.rho is not None else st.valid_rhos()
    report = check_generic(pair)
    print(f"lambda0 = {st.lambda0:.6g}, sizes = {st.sizes}, k = {st.k}, m = {st.dim}")
    print(f"||D11||_F = {cl.frob(pair.d11):.6e}")
    print("  i   shat_i   sigma_min(W_i)")
    for i, s in enumerate(report.sigma_min, start=1):
        print(f"  {i:<3d} {st.shat(i):<8d} {s:.6e}")
    print(f"generic: {report.generic} (threshold {report.threshold:.1e} * ||D11||)")
    code = EXIT_OK if report.generic else EXIT_PRECONDITION
    for rho in rhos:
        try:
            reduced = reduce_pencil(assemble_pencil(pair, rho))
            s_eigs = sort_complex(cl.eig(reduced.s_rho))
            t_eigs = theta_spectrum(reduced)
        except SingularW as exc:
            print(f"rho = {rho}: {exc}")
            code = EXIT_PRECONDITION
            continue
        print(f"rho = {rho}: Lambda(S_rho) = {np.round(s_eigs, 10).tolist()}")
        print(f"         Lambda(Theta_rho) = {np.round(t_eigs, 10).tolist()}")
    return code


def _order_table_json(table):
    return [
        {
            "block": e.block,
            "subrow": e.subrow,
            "exponent": str(e.exponent),
            "exponent_float": float(e.exponent),
            "note": e.note,
        }
        for e in table
    ]


def cmd_expand(args) -> int:
    pair = load_problem(args.file)
    if not 0 <= args.root < _check_rho(args.rho, pair.structure):
        raise ParseError(f"--root {args.root} outside 0..{args.rho - 1}")
    reduced = reduce_pencil(assemble_pencil(pair, args.rho))
    cluster = _parse_cluster(args.cluster, reduced)
    sel = select_subspace(reduced, cluster, args.root)
    if args.order == 1:
        exp = first_order_expansion(reduced, sel, complement_pair(reduced, sel))
    else:
        exp = subspace_expansion(reduced, sel)
    out = {
        "rho": args.rho,
        "order": args.order,
        "lambda0": complex(exp.lambda0),
        "omega": exp.omega,
        "q1": sel.q1,
        "h0": exp.h0,
        "order_table": _order_table_json(exp.order_table),
    }
    if args.order == 1:
        out.update(h1=exp.h1, delta11=exp.delta11, y=exp.y, c_hat=exp.c_hat)
    text = canonical_json(out)
    if args.out:
        _write(args.out, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_verify(args) -> int:
    pair = load_problem(args.file)
    st = pair.structure
    rhos = [_check_rho(args.rho, st)] if args.rho is not None else st.valid_rhos()
    if not np.isfinite(args.perturb_h1):
        raise ParseError(f"--perturb-h1 {args.perturb_h1} is not finite")
    if args.swap_root and 1 in rhos:
        raise ParseError("--swap-root needs rho >= 2: rho = 1 has a single root branch")
    all_reports = [
        rep
        for rho in rhos
        for rep in verify_all(pair, rho, perturb_h1=args.perturb_h1, swap_root=args.swap_root)
    ]
    for rep in all_reports:
        status = "PASS" if rep.passed else "FAIL"
        if rep.floor_limited:
            status += " (floor-limited)"
            print(f"[{status}] {rep.quantity}: claimed {rep.claimed_slope:.3f}")
        else:
            print(
                f"[{status}] {rep.quantity}: slope {rep.fitted_slope:.3f} "
                f"(claimed {rep.claimed_slope:.3f}), r^2 {rep.r_squared:.4f}"
            )
    if args.out_json:
        _write(args.out_json, canonical_json([r.to_dict() for r in all_reports]))
    if args.out_csv:
        import csv

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\r\n")
        writer.writerow(["quantity", "t", "error"])
        for rep in all_reports:
            for t, e in rep.samples:
                err = _fmt_float(e) if np.isfinite(e) else ""  # a non-finite error fails its claim
                writer.writerow([rep.quantity, _fmt_float(t), err])
        _write(args.out_csv, buf.getvalue(), newline="")
    return EXIT_OK if all(r.passed for r in all_reports) else EXIT_VERIFY_FAIL


def cmd_generate(args) -> int:
    try:
        sizes = tuple(int(s) for s in args.sizes.split(","))
        lam_re, lam_im = (float(v) for v in args.lambda0.split(","))
        structure = JordanStructure(complex(lam_re, lam_im), sizes)
    except ValueError as exc:
        raise ParseError(f"bad --sizes or --lambda0: {exc}") from exc
    if not (np.isfinite(lam_re) and np.isfinite(lam_im)):
        raise ParseError(f"--lambda0 {args.lambda0} is not finite")
    if not np.isfinite(args.scale):
        raise ParseError(f"--scale {args.scale} is not finite")
    if not 0 <= args.seed < 2**128:  # the range of a Philox key
        raise ParseError(f"--seed {args.seed} outside 0..2**128 - 1")
    spec = CaseSpec(
        structure=structure,
        seed=args.seed,
        scale=args.scale,
        ensure_generic=args.scale != 0,
        ensure_distinct_gammas=args.scale != 0,
    )
    pair = generate(spec)
    doc = {
        "lambda0": complex(structure.lambda0),
        "sizes": list(sizes),
        "d11": pair.d11,
    }
    _write(args.out, canonical_json(doc))
    print(f"wrote {args.out}")
    return EXIT_OK


class _ArgumentParser(argparse.ArgumentParser):
    """A usage error is a :class:`ParseError` (exit 3), not argparse's exit 2,
    which is the precondition code.  Subparsers are built from this class too."""

    def error(self, message):
        raise ParseError(message)


def build_parser() -> argparse.ArgumentParser:
    ap = _ArgumentParser(
        prog="jordanperturb",
        description="Fractional-order perturbation expansions for matrices with Jordan blocks.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="structure summary, W_i conditioning, spectra")
    p.add_argument("file")
    p.add_argument("--rho", type=int, default=None)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("expand", help="subspace expansion for a selected cluster")
    p.add_argument("file")
    p.add_argument("--rho", type=int, required=True)
    p.add_argument("--cluster", required=True, help="'idx:N' or 'val:RE,IM:RADIUS'")
    p.add_argument("--root", type=int, default=0)
    p.add_argument("--order", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("verify", help="oracle t-sweep and slope fits")
    p.add_argument("file")
    p.add_argument("--rho", type=int, default=None)
    p.add_argument("--out-json", default=None)
    p.add_argument("--out-csv", default=None)
    p.add_argument("--perturb-h1", type=float, default=0.0,
                   help="negative control: corrupt H1 with noise of this relative norm")
    p.add_argument("--swap-root", action="store_true",
                   help="negative control: pair the subspace with a rotated root branch")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("generate", help="write a seeded random problem file")
    p.add_argument("--sizes", required=True, help="comma-separated s_1,...,s_k")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--lambda0", default="0,0", help="RE,IM")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except _PRECONDITION_ERRORS as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except JordanPerturbError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
