"""Command line driver.

    foldstab <command> <specfile> [--fold] [--format dot|json|table]
             [--out PATH] [--check "WORD = WORD"]

Commands: fold (orbit table of the folded quiver), eg (exchange graph),
classify (stability cells per heart), braid (folded relation verification),
report (aggregate of all four).  Each command builds one JSON-shaped payload
from a cached ``Analysis`` and renders it as table, dot or JSON; ``report``
is the four payloads, so it computes each artefact once.  Output is
deterministic: identical inputs give byte-identical bytes.  Exit codes:
0 success, 2 input error, 3 unsupported quiver type, 4 internal invariant
failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import cached_property

from .braid import CoxeterSystem, normal_form, parse_word, render_nf, verify_folded_relations
from .cells import classify_cell, fold_charge, numerical_constraints, verify_classification
from .errors import InputError, InternalError, UnsupportedTypeError, quote
from .hearts import (
    ExchangeGraph,
    FoldedEG,
    build_folded_eg,
    build_interval_eg,
    heart_k_matrix,
    heart_label,
    is_f_stable,
    simple_label,
)
from .linalg import solve
from .quiver import Automorphism, Quiver, ValuedQuiver, dynkin_type, fold, valued_type_name
from .reps import Catalog
from .specfile import parse_quiver


def _load(path: str) -> tuple[Quiver, Automorphism]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}") from exc
    q, s = parse_quiver(text)
    return q, (s if s is not None else Automorphism.identity(q))


def _ambient_name(q: Quiver) -> str:
    family, rank, _ = dynkin_type(q)
    return f"{family}{rank}"


def _fmt_complex(x: str, y: str) -> str:
    im = Fraction(y)
    return f"{x}{'+' if im >= 0 else '-'}{abs(im)}i"


class Analysis:
    """The artefacts of one pair (Q, S), each computed on first use and kept.

    Every command reads what it needs from here, so ``report`` builds the
    catalog, the transport permutation and each exchange graph once.
    """

    def __init__(self, q: Quiver, s: Automorphism):
        self.q = q
        self.s = s

    @cached_property
    def folded(self) -> ValuedQuiver:
        return fold(self.q, self.s)

    @cached_property
    def catalog(self) -> Catalog:
        return Catalog(self.q)

    @cached_property
    def perm(self) -> tuple[int, ...]:
        return self.catalog.transport_index(self.s)

    @cached_property
    def interval_eg(self) -> ExchangeGraph:
        return build_interval_eg(self.catalog)

    @cached_property
    def folded_eg(self) -> FoldedEG:
        return build_folded_eg(self.catalog, self.perm)


# ---------------------------------------------------------------- fold

def _fold_payload(a: Analysis) -> dict:
    vq = a.folded
    return {
        "folded_type": valued_type_name(vq),
        "orbits": [
            {"name": ov.name, "size": ov.size, "members": list(ov.members)}
            for ov in vq.vertices
        ],
        "arrows": [
            {
                "name": oa.name,
                "size": oa.size,
                "tail": oa.tail,
                "head": oa.head,
                "members": list(oa.members),
            }
            for oa in vq.arrows
        ],
    }


def _fold_table(p: dict) -> str:
    lines = [f"folded type: {p['folded_type'] or 'unrecognized'}"]
    for ov in p["orbits"]:
        members = " ".join(str(v) for v in ov["members"])
        lines.append(f"orbit {ov['name']}: size {ov['size']}, members {{{members}}}")
    for oa in p["arrows"]:
        lines.append(f"arrow {oa['name']}: {oa['tail']} => {oa['head']}, size {oa['size']}")
    return "\n".join(lines) + "\n"


def _fold_dot(p: dict) -> str:
    lines = ["digraph folded {"]
    for ov in p["orbits"]:
        lines.append(f'  "{ov["name"]}" [label="{ov["name"]} (size {ov["size"]})"];')
    for oa in p["arrows"]:
        lines.append(f'  "{oa["tail"]}" -> "{oa["head"]}" [label="{oa["name"]} (size {oa["size"]})"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- eg

def _eg_payload(a: Analysis, folded: bool) -> dict:
    catalog, perm = a.catalog, a.perm
    if folded:
        graph = a.folded_eg
        edges = graph.edges
    else:
        # An interval edge tilts at one position, a folded edge at an orbit of them.
        graph = a.interval_eg
        edges = [(src, (p,), tgt) for src, p, tgt in graph.edges]
    return {
        "kind": "folded" if folded else "interval",
        "nodes": [
            {
                "id": i,
                "label": heart_label(catalog, h),
                "simples": [[catalog.labels[idx], shift] for idx, shift in h.simples],
                "f_stable": is_f_stable(perm, h),
            }
            for i, h in enumerate(graph.hearts)
        ],
        "edges": [
            {
                "src": src,
                "at": [simple_label(catalog, graph.hearts[src].simples[p]) for p in orbit],
                "tgt": tgt,
            }
            for src, orbit, tgt in edges
        ],
    }


def _eg_dot(p: dict) -> str:
    name = "folded_exchange" if p["kind"] == "folded" else "exchange"
    lines = [f"digraph {name} {{"]
    for n in p["nodes"]:
        marks = ", peripheries=2" if n["f_stable"] else ""
        lines.append(f'  n{n["id"]} [label="{n["label"]}"{marks}];')
    for e in p["edges"]:
        lines.append(f'  n{e["src"]} -> n{e["tgt"]} [label="{",".join(e["at"])}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _eg_table(p: dict) -> str:
    nodes, edges = p["nodes"], p["edges"]
    stable = sum(1 for n in nodes if n["f_stable"])
    lines = [f"hearts: {len(nodes)} (F-stable: {stable})"]
    for n in nodes:
        mark = " [F-stable]" if n["f_stable"] else ""
        lines.append(f"{n['id']}: {n['label']}{mark}")
    lines.append(f"edges: {len(edges)}")
    for e in edges:
        lines.append(f"{e['src']} -{','.join(e['at'])}-> {e['tgt']}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- classify

def _classify_payload(a: Analysis, folded: bool) -> dict:
    catalog, perm, graph, vq = a.catalog, a.perm, a.interval_eg, a.folded
    rows = []
    for i, h in enumerate(graph.hearts):
        constraints = numerical_constraints(catalog, h)
        cls = classify_cell(constraints, len(h.simples))
        if not verify_classification(constraints, cls, len(h.simples)):
            raise InternalError("cell classification failed its audit")
        row = {
            "id": i,
            "label": heart_label(catalog, h),
            "f_stable": is_f_stable(perm, h),
            "feasible": cls.feasible,
        }
        if cls.feasible:
            row["witness"] = [[str(x), str(y)] for x, y in cls.witness]
            if folded:
                b = tuple(tuple(Fraction(c) for c in r) for r in heart_k_matrix(catalog, h))
                xs = solve(b, tuple(z[0] for z in cls.witness))
                ys = solve(b, tuple(z[1] for z in cls.witness))
                if xs is None or ys is None:
                    raise InternalError("witness could not be moved to the vertex basis")
                charge = tuple(zip(xs, ys))
                folded_charge = fold_charge(vq, charge)
                row["folded_charge"] = [
                    {"orbit": ov.name, "charge": [str(z[0]), str(z[1])]}
                    for ov, z in zip(vq.vertices, folded_charge)
                ]
        else:
            row["witness"] = None
            row["branches"] = len(cls.certificates)
        rows.append(row)
    feasible = sum(1 for r in rows if r["feasible"])
    stable = sum(1 for r in rows if r["f_stable"])
    agree = all(r["feasible"] == r["f_stable"] for r in rows)
    summary = {
        "hearts": len(rows),
        "feasible": feasible,
        "f_stable": stable,
        "agreement": agree,
    }
    return {"hearts": rows, "summary": summary}


def _classify_table(p: dict) -> str:
    summary = p["summary"]
    lines = []
    for r in p["hearts"]:
        stable = "F-stable" if r["f_stable"] else "not F-stable"
        if r["feasible"]:
            zs = ", ".join(_fmt_complex(x, y) for x, y in r["witness"])
            cell = f"numerical cell nonempty; witness ({zs})"
        else:
            cell = f"numerical cell empty ({r['branches']} branch certificates)"
        lines.append(f"heart {r['id']} {r['label']}: {stable}, {cell}")
        if "folded_charge" in r:
            parts = ", ".join(
                f"orbit {fc['orbit']}: {_fmt_complex(*fc['charge'])}" for fc in r["folded_charge"]
            )
            lines.append(f"  folded charge: {parts}")
    lines.append(
        "summary: numerically feasible hearts = F-stable hearts: "
        f"{summary['feasible']} feasible, {summary['f_stable']} F-stable, "
        f"{summary['hearts']} total; equivalence "
        + ("holds" if summary["agreement"] else "FAILS")
    )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- braid

def _braid_payload(a: Analysis, check: str | None) -> dict:
    ambient = _ambient_name(a.q)
    if check is not None:
        if check.count("=") != 1:
            raise InputError('braid --check expects "WORD = WORD"')
        lhs_text, rhs_text = check.split("=")
        system, _ = CoxeterSystem.from_quiver(a.q)
        lhs = parse_word(lhs_text)
        rhs = parse_word(rhs_text)
        for slot, _ in lhs + rhs:
            if slot >= system.rank:
                raise InputError(f"generator {quote(slot + 1)} out of range for {ambient}")
        nf_l = normal_form(system, lhs)
        nf_r = normal_form(system, rhs)
        return {
            "ambient_type": ambient,
            "check": check.strip(),
            "lhs_nf": render_nf(system, nf_l),
            "rhs_nf": render_nf(system, nf_r),
            "verified": nf_l == nf_r,
        }
    checks, folded_name = verify_folded_relations(a.q, a.s)
    relations = [
        {
            "source": c.source_orbit,
            "target": c.target_orbit,
            "exponent": c.exponent,
            "holds": c.holds,
            "lhs_nf": c.lhs_nf,
            "rhs_nf": c.rhs_nf,
        }
        for c in checks
    ]
    return {
        "ambient_type": ambient,
        "folded_type": folded_name,
        "relations": relations,
        "verified": all(r["holds"] for r in relations),
    }


def _braid_table(d: dict) -> str:
    lines = [f"ambient type: {d['ambient_type']}"]
    if "check" in d:
        lines.append(f"check: {d['check']}")
        lines.append(f"lhs normal form: {d['lhs_nf']}")
        lines.append(f"rhs normal form: {d['rhs_nf']}")
        lines.append("VERIFIED" if d["verified"] else "FAILED")
    else:
        name = d["folded_type"] or "folded"
        lines.append(f"folded type: {name}")
        for r in d["relations"]:
            status = "VERIFIED" if r["holds"] else "FAILED"
            lines.append(
                f"relation ({r['source']}, {r['target']}) m={r['exponent']}: {status}"
            )
            lines.append(f"  lhs normal form: {r['lhs_nf']}")
            lines.append(f"  rhs normal form: {r['rhs_nf']}")
        lines.append(f"{name} relation: " + ("VERIFIED" if d["verified"] else "FAILED"))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- report

# (report key, command, table heading) of each section, in output order.
_SECTIONS = (
    ("fold", "fold", "fold"),
    ("exchange_graph", "eg", "exchange graph"),
    ("classification", "classify", "classification"),
    ("braid", "braid", "braid"),
)


def _payload(cmd: str, a: Analysis, folded: bool, check: str | None) -> dict:
    if cmd == "fold":
        return _fold_payload(a)
    if cmd == "eg":
        return _eg_payload(a, folded)
    if cmd == "classify":
        return _classify_payload(a, folded)
    if cmd == "braid":
        return _braid_payload(a, check)
    return {key: _payload(sub, a, folded, None) for key, sub, _ in _SECTIONS}


def _report_table(p: dict) -> str:
    return "\n\n".join(
        f"== {heading} ==\n" + _TABLES[sub](p[key]).rstrip("\n") for key, sub, heading in _SECTIONS
    ) + "\n"


_TABLES = {
    "fold": _fold_table,
    "eg": _eg_table,
    "classify": _classify_table,
    "braid": _braid_table,
    "report": _report_table,
}
_DOTS = {"fold": _fold_dot, "eg": _eg_dot}


# ---------------------------------------------------------------- driver

_DEFAULT_FORMAT = {
    "fold": "table",
    "eg": "dot",
    "classify": "table",
    "braid": "table",
    "report": "json",
}


def _render(cmd: str, fmt: str, a: Analysis, folded: bool, check: str | None) -> str:
    if fmt == "dot" and cmd not in _DOTS:
        raise InputError(f"{cmd} has no dot rendering; use --format table or json")
    payload = _payload(cmd, a, folded, check)
    if fmt == "json":
        return json.dumps({"schema": 1, **payload}, indent=2) + "\n"
    return (_DOTS if fmt == "dot" else _TABLES)[cmd](payload)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="foldstab",
        description="Fold Dynkin quivers, walk exchange graphs, classify "
        "stability cells, and verify folded braid relations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, blurb in (
        ("fold", "orbit table of the folded (valued) quiver"),
        ("eg", "exchange graph of hearts under simple tilting"),
        ("classify", "numerical stability cell per heart, with proofs"),
        ("braid", "verify the folded braid relations via Garside forms"),
        ("report", "run fold, eg, classify, and braid in one bundle"),
    ):
        p = sub.add_parser(name, help=blurb)
        p.add_argument("specfile", help="quiver spec file")
        p.add_argument("--fold", action="store_true", help="use the folded graph/charges")
        p.add_argument(
            "--format",
            choices=("dot", "json", "table"),
            default=None,
            help=f"output format (default: {_DEFAULT_FORMAT[name]})",
        )
        p.add_argument("--out", default=None, help="write output to this file")
        if name == "braid":
            p.add_argument(
                "--check",
                default=None,
                metavar='"WORD = WORD"',
                help="check one braid word equality, e.g. \"1 2 1 = 2 1 2\"",
            )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        analysis = Analysis(*_load(args.specfile))
        fmt = args.format or _DEFAULT_FORMAT[args.command]
        text = _render(args.command, fmt, analysis, args.fold, getattr(args, "check", None))
    except InputError as exc:
        print(f"foldstab: error: {exc}", file=sys.stderr)
        return 2
    except UnsupportedTypeError as exc:
        print(f"foldstab: error: {exc}", file=sys.stderr)
        return 3
    except InternalError as exc:
        print(f"foldstab: internal error: {exc}", file=sys.stderr)
        return 4
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"foldstab: error: cannot write {args.out}: {exc.strerror}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
