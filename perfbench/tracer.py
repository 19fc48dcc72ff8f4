"""Traced ``foldstab`` child, and the per-layer metrics made from its spans.

Run as a script it behaves like ``python -m foldstab`` and writes the same
bytes to stdout:

    python3 perfbench/tracer.py SPANS_JSON OP_ID -- <foldstab arguments>

Before the command runs it wraps the public functions of each layer in
place, in every module that bound them (``cli.classify_cell`` as well as
``cells.classify_cell``, ``hearts.hom_dim`` as well as ``reps.hom_dim``).  A
wrapper records a span (name, start, end, parent) in memory; at exit the
spans go to SPANS_JSON with the op id that they share.  Hot predicates that
only need a count (Coxeter descents) are counted without a span.

``layer_metrics`` turns the span files of a pass into the ``module.metric``
numbers the benchmark reports.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (layer, qualified attribute) of every function that gets a span.  Besides
# the functions the metrics name, the module operations a tilt calls in reps
# get spans, so that their time counts as reps and not as hearts.
SPANNED = (
    ("cli", "main"),
    ("specfile", "parse_quiver"),
    ("quiver", "fold"),
    ("quiver", "dynkin_type"),
    ("reps", "Catalog.__init__"),
    ("reps", "Catalog.transport_index"),
    ("reps", "Catalog.identify"),
    ("reps", "hom_dim"),
    ("reps", "ext1_dim"),
    ("reps", "universal_extension"),
    ("reps", "universal_coextension"),
    ("reps", "stack_hom_vertical"),
    ("reps", "stack_hom_horizontal"),
    ("reps", "kernel_module"),
    ("reps", "cokernel_module"),
    ("hearts", "build_interval_eg"),
    ("hearts", "build_folded_eg"),
    ("hearts", "tilt_forward"),
    ("hearts", "tilt_backward"),
    ("hearts", "orbit_tilt"),
    ("cells", "numerical_constraints"),
    ("cells", "classify_cell"),
    ("cells", "verify_classification"),
    ("ratlp", "solve_strict_system"),
    ("ratlp", "verify_infeasibility"),
    ("linalg", "kernel_basis"),
    ("linalg", "solve"),
    ("linalg", "inverse"),
    ("braid", "CoxeterSystem.__init__"),
    ("braid", "normal_form"),
    ("braid", "render_nf"),
)

COUNTED = (
    ("braid", "CoxeterSystem.left_descents", "braid.descent_calls"),
    ("braid", "CoxeterSystem.right_descents", "braid.descent_calls"),
)

LAYERS = ("cli", "specfile", "quiver", "reps", "hearts", "cells", "ratlp", "linalg", "braid")


def _outcomes(name: str, args: tuple, result) -> dict[str, int]:
    """Counts read off a call's arguments or result."""
    if name == "reps.Catalog.__init__":
        return {"reps.catalog_roots": len(args[0].reps)}
    if name in ("hearts.build_interval_eg", "hearts.build_folded_eg"):
        return {"hearts.hearts_found": len(result.hearts)}
    if name == "cells.classify_cell" and not result.feasible:
        return {"cells.empty_cells": 1, "cells.certificates": len(result.certificates)}
    if name == "ratlp.solve_strict_system" and isinstance(result, sys.modules["foldstab.ratlp"].Infeasibility):
        return {"ratlp.infeasible": 1}
    if name == "braid.CoxeterSystem.__init__":
        return {"braid.group_order": args[0].order}
    if name == "braid.normal_form":
        return {"braid.nf_letters": len(args[1])}
    return {}


class Tracer:
    """Spans and counts of one child process, kept in memory."""

    def __init__(self, op_id: int):
        self.op_id = op_id
        self.names: list[str] = []
        self.span_name: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = [-1]

    def spanned(self, name: str, fn):
        code = len(self.names)
        self.names.append(name)
        clock = time.perf_counter_ns
        stack = self._stack
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.start)
            self.span_name.append(code)
            self.parent.append(stack[-1])
            self.start.append(clock())
            self.end.append(0)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                self.end[index] = clock()
            for key, value in _outcomes(name, args, result).items():
                counts[key] = counts.get(key, 0) + value
            return result

        return wrapper

    def counted(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Replace each listed function in every foldstab module bound to it."""
        modules = [m for n, m in sys.modules.items() if n == "foldstab" or n.startswith("foldstab.")]
        targets = [(layer, attr, f"{layer}.{attr}", None) for layer, attr in SPANNED]
        targets += [(layer, attr, None, key) for layer, attr, key in COUNTED]
        for layer, attr, span, key in targets:
            owner = sys.modules[f"foldstab.{layer}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                fn = cls.__dict__[meth]
                setattr(cls, meth, self.spanned(span, fn) if span else self.counted(key, fn))
                continue
            fn = getattr(owner, attr)
            wrapped = self.spanned(span, fn) if span else self.counted(key, fn)
            for module in modules:
                for bound, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, bound, wrapped)

    def dump(self, path: str, import_ns: int) -> None:
        doc = {
            "op": self.op_id,
            "import_ns": import_ns,
            "names": self.names,
            "span_name": self.span_name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "counts": self.counts,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _child(argv: list[str]) -> int:
    spans_path, op_id, sep, *args = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS_JSON OP_ID -- <foldstab arguments>")
    t0 = time.perf_counter_ns()
    import foldstab.cli

    import_ns = time.perf_counter_ns() - t0
    tracer = Tracer(int(op_id))
    tracer.install()
    try:
        return foldstab.cli.main(args)
    finally:
        tracer.dump(spans_path, import_ns)


# ---------------------------------------------------------------- metrics

def _read(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def layer_metrics(span_files: list[str], ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a pass, as name -> (value, unit).

    Times are seconds of wall time summed over the pass: ``<fn>_s`` is the
    inclusive time of that function, ``<layer>.self_s`` the time spans of
    the layer spent outside any child span.  Ratios are 0 when their base is.
    """
    calls: dict[str, int] = {}
    incl: dict[str, float] = {}
    self_s = {layer: 0.0 for layer in LAYERS}
    counts: dict[str, int] = {}
    import_s = 0.0
    for path in span_files:
        doc = _read(path)
        import_s += doc["import_ns"] / 1e9
        for key, value in doc["counts"].items():
            counts[key] = counts.get(key, 0) + value
        names, start, end, parent = doc["names"], doc["start"], doc["end"], doc["parent"]
        child_ns = [0] * len(start)
        for i, p in enumerate(parent):
            if p >= 0:
                child_ns[p] += end[i] - start[i]
        for i, code in enumerate(doc["span_name"]):
            name = names[code]
            dur = end[i] - start[i]
            calls[name] = calls.get(name, 0) + 1
            incl[name] = incl.get(name, 0.0) + dur / 1e9
            self_s[name.split(".")[0]] += (dur - child_ns[i]) / 1e9

    def n(name: str) -> int:
        return calls.get(name, 0)

    def t(name: str) -> float:
        return incl.get(name, 0.0)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    tilts = n("hearts.tilt_forward") + n("hearts.tilt_backward")
    classified = n("cells.classify_cell")
    empty = counts.get("cells.empty_cells", 0)
    solves = n("ratlp.solve_strict_system")
    letters = counts.get("braid.nf_letters", 0)
    out: dict[str, tuple[float, str]] = {
        "specfile.parse_s": (t("specfile.parse_quiver"), "s"),
        "quiver.fold_s": (t("quiver.fold"), "s"),
        "quiver.dynkin_type_s": (t("quiver.dynkin_type"), "s"),
        "reps.catalog_builds": (ratio(n("reps.Catalog.__init__"), ops), "count/op"),
        "reps.catalog_s": (t("reps.Catalog.__init__"), "s"),
        "reps.catalog_roots": (counts.get("reps.catalog_roots", 0), "count"),
        "reps.transport_index_s": (t("reps.Catalog.transport_index"), "s"),
        "reps.identify_calls": (n("reps.Catalog.identify"), "count"),
        "reps.identify_s": (t("reps.Catalog.identify"), "s"),
        "reps.hom_dim_calls": (n("reps.hom_dim"), "count"),
        "reps.hom_dim_s": (t("reps.hom_dim"), "s"),
        "reps.ext1_dim_calls": (n("reps.ext1_dim"), "count"),
        "reps.ext1_dim_s": (t("reps.ext1_dim"), "s"),
        "hearts.eg_builds": (ratio(n("hearts.build_interval_eg") + n("hearts.build_folded_eg"), ops), "count/op"),
        "hearts.eg_s": (t("hearts.build_interval_eg"), "s"),
        "hearts.folded_eg_s": (t("hearts.build_folded_eg"), "s"),
        "hearts.tilts": (tilts, "count"),
        "hearts.tilt_s": (t("hearts.tilt_forward") + t("hearts.tilt_backward"), "s"),
        "hearts.hearts_found": (counts.get("hearts.hearts_found", 0), "count"),
        "hearts.new_per_tilt": (ratio(counts.get("hearts.hearts_found", 0), tilts), "ratio"),
        "hearts.orbit_tilts": (n("hearts.orbit_tilt"), "count"),
        "cells.constraints_s": (t("cells.numerical_constraints"), "s"),
        "cells.classify_calls": (classified, "count"),
        "cells.classify_s": (t("cells.classify_cell"), "s"),
        "cells.audit_s": (t("cells.verify_classification"), "s"),
        "cells.empty_cell_ratio": (ratio(empty, classified), "ratio"),
        "cells.certs_per_empty_cell": (ratio(counts.get("cells.certificates", 0), empty), "ratio"),
        "ratlp.solves": (solves, "count"),
        "ratlp.solve_s": (t("ratlp.solve_strict_system"), "s"),
        "ratlp.infeasible_ratio": (ratio(counts.get("ratlp.infeasible", 0), solves), "ratio"),
        "ratlp.solves_per_cell": (ratio(solves, classified), "ratio"),
        "ratlp.cert_verify_s": (t("ratlp.verify_infeasibility"), "s"),
        "linalg.kernel_basis_calls": (n("linalg.kernel_basis"), "count"),
        "linalg.kernel_basis_s": (t("linalg.kernel_basis"), "s"),
        "linalg.solve_s": (t("linalg.solve"), "s"),
        "linalg.inverse_s": (t("linalg.inverse"), "s"),
        "braid.coxeter_setup_s": (t("braid.CoxeterSystem.__init__"), "s"),
        "braid.group_order": (counts.get("braid.group_order", 0), "count"),
        "braid.nf_calls": (n("braid.normal_form"), "count"),
        "braid.nf_s": (t("braid.normal_form"), "s"),
        "braid.nf_letters": (letters, "count"),
        "braid.nf_s_per_letter": (ratio(t("braid.normal_form"), letters), "s/letter"),
        "braid.descent_calls": (counts.get("braid.descent_calls", 0), "count"),
        "braid.render_s": (t("braid.render_nf"), "s"),
        "cli.import_s": (import_s, "s"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (self_s[layer], "s")
    return out


if __name__ == "__main__":
    sys.exit(_child(sys.argv[1:]))
