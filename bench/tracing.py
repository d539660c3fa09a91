"""Per-layer spans of jordanperturb, recorded from outside the library.

``Tracer.install`` replaces each traced public function at every module
attribute that binds it (``jordanperturb.verify.solve_riccati``,
``jordanperturb.core_linalg.eig``, the package re-exports, ...), so the
library's own callers such as ``verify_all`` and the CLI run unchanged but
pass through a span. ``Tracer.uninstall`` puts the originals back.

A span is (id, parent id, name, start, end, error, iterations). Parents
come from a per-thread stack; work the library hands to a thread pool
(``JORDANPERTURB_THREADS`` > 1) is recorded without a parent.
"""

from __future__ import annotations

import importlib
import json
import threading
import time

# (defining module, function) -> span name "<layer>.<function>"
TRACED = (
    ("generator", "generate"),
    ("pencil", "assemble_pencil"),
    ("pencil", "reduce_pencil"),
    ("expansion", "eigenvalue_expansions"),
    ("expansion", "select_subspace"),
    ("first_order", "complement_pair"),
    ("first_order", "first_order_expansion"),
    ("first_order", "theta_perturbation"),
    ("first_order", "solve_riccati"),
    ("verify", "verify_all"),
    ("verify", "exact_subspace_basis"),
    ("verify", "slope_fit"),
    ("core_linalg", "eig"),
    ("core_linalg", "solve_sylvester"),
    ("reduction", "reduce"),
    ("cli", "load_problem"),
    ("cli", "main"),
)

MODULES = (
    "", "structure", "reduction", "pencil", "expansion", "first_order",
    "verify", "generator", "core_linalg", "cli",
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._local = threading.local()
        self._next_id = 0
        self._id_lock = threading.Lock()
        self._patched: list[tuple] = []

    def _new_id(self) -> int:
        with self._id_lock:
            self._next_id += 1
            return self._next_id

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called name."""
        stack = self._stack()
        sid = self._new_id()
        parent = stack[-1] if stack else None
        stack.append(sid)
        error = None
        iterations = None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            iterations = getattr(result, "iterations", None)
            return result
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, parent, name, start, end, error, iterations))

    def install(self):
        pkg = importlib.import_module("jordanperturb")
        importlib.import_module("jordanperturb.cli")
        modules = [importlib.import_module("jordanperturb" + ("." + m if m else "")) for m in MODULES]
        for mod_name, fn_name in TRACED:
            original = getattr(getattr(pkg, mod_name), fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _wrap(self, name, original):
        def traced(*args, **kwargs):
            return self.call(name, original, *args, **kwargs)

        traced.__wrapped__ = original
        return traced

    def records(self) -> list[dict]:
        fields = ("id", "parent", "name", "start", "end", "error", "iterations")
        return [dict(zip(fields, s)) for s in self.spans]


def dump_spans(path: str, groups: dict[str, list[dict]], meta: dict | None = None):
    """Write named lists of spans (ids are unique within each list)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"meta": meta or {}, **groups}, fh)


def load_spans(path: str, id_offset: int = 0, group: str = "spans") -> list[dict]:
    """One list of spans written by dump_spans, with ids shifted so that
    spans from several processes can be merged into one list."""
    with open(path, encoding="utf-8") as fh:
        spans = json.load(fh)[group]
    for s in spans:
        s["id"] += id_offset
        if s["parent"] is not None:
            s["parent"] += id_offset
    return spans


def self_times(spans: list[dict]) -> dict[str, float]:
    """Total self time per span name: duration less the time of direct children."""
    child = {}
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] = child.get(s["parent"], 0.0) + s["end"] - s["start"]
    out: dict[str, float] = {}
    for s in spans:
        own = s["end"] - s["start"] - child.get(s["id"], 0.0)
        out[s["name"]] = out.get(s["name"], 0.0) + own
    return out


def layer_metrics(spans: list[dict], rounds: int) -> dict[str, float]:
    """Per-round time and counts of each traced layer (times in seconds)."""
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    errors: dict[str, int] = {}
    iterations = 0
    names = {s["id"]: s["name"] for s in spans}
    oracle_eig = 0.0
    for s in spans:
        name, dur = s["name"], s["end"] - s["start"]
        total[name] = total.get(name, 0.0) + dur
        calls[name] = calls.get(name, 0) + 1
        if s["error"]:
            errors[name] = errors.get(name, 0) + 1
        if name == "first_order.solve_riccati" and s["iterations"] is not None:
            iterations += s["iterations"]
        if name == "core_linalg.eig" and names.get(s["parent"]) == "verify.verify_all":
            oracle_eig += dur
    own = self_times(spans)
    pencils = calls.get("pencil.reduce_pencil", 0)
    out = {
        "first_order.solve_riccati_s": total.get("first_order.solve_riccati", 0.0),
        "first_order.solve_riccati_calls": calls.get("first_order.solve_riccati", 0),
        "first_order.solve_riccati_failed": errors.get("first_order.solve_riccati", 0),
        "first_order.newton_iterations": iterations,
        "verify.oracle_eig_s": oracle_eig,
        "verify.exact_subspace_basis_s": total.get("verify.exact_subspace_basis", 0.0),
        "verify.slope_fit_s": total.get("verify.slope_fit", 0.0),
        "verify.self_s": own.get("verify.verify_all", 0.0),
        "pencil.assemble_s": total.get("pencil.assemble_pencil", 0.0),
        "pencil.reduce_s": total.get("pencil.reduce_pencil", 0.0),
        "pencil.calls": pencils,
        "expansion.eigenvalue_expansions_s": total.get("expansion.eigenvalue_expansions", 0.0),
        "expansion.select_subspace_s": total.get("expansion.select_subspace", 0.0),
        "expansion.select_subspace_calls": calls.get("expansion.select_subspace", 0),
        "first_order.complement_pair_s": total.get("first_order.complement_pair", 0.0),
        "first_order.first_order_expansion_s": total.get("first_order.first_order_expansion", 0.0),
        "first_order.theta_perturbation_s": total.get("first_order.theta_perturbation", 0.0),
        "first_order.theta_perturbation_calls": calls.get("first_order.theta_perturbation", 0),
        "core_linalg.solve_sylvester_s": total.get("core_linalg.solve_sylvester", 0.0),
        "core_linalg.solve_sylvester_calls": calls.get("core_linalg.solve_sylvester", 0),
        "core_linalg.eig_calls": calls.get("core_linalg.eig", 0),
        "reduction.reduce_s": total.get("reduction.reduce", 0.0),
        "cli.main_s": total.get("cli.main", 0.0),
    }
    out = {k: v / rounds for k, v in out.items()}
    out["first_order.theta_perturbation_per_pencil"] = (
        calls.get("first_order.theta_perturbation", 0) / pencils if pencils else 0.0
    )
    return out
