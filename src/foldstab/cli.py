"""Command line driver.

    foldstab fold     <specfile> [--format dot|json|table] [--out PATH]
    foldstab eg       <specfile> [--fold] [--format dot|json|table] [--out PATH]
    foldstab classify <specfile> [--fold] [--format json|table] [--out PATH]
    foldstab braid    <specfile> [--check "WORD = WORD"] [--format json|table] [--out PATH]
    foldstab report   <specfile> [--fold] [--format json|table] [--out PATH]

Commands: fold (orbit table of the folded quiver), eg (exchange graph),
classify (stability cells per heart), braid (folded relation verification),
report (aggregate of all four).  One table, ``_COMMANDS``, holds each
command's help text, default format, payload builder, table renderer, dot
renderer if it has one, and the help of ``--fold`` if the flag changes its
output; the parser is built from it, so a flag or format that would do
nothing is an argument error.  A payload is JSON-shaped and built from a
cached ``Analysis``; ``report`` is the four other payloads, so it computes
each artefact once.  Output is deterministic: identical inputs give
byte-identical bytes.  Exit codes: 0 success, 2 input error, 3 unsupported
quiver type, 4 internal invariant failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Callable
from functools import cached_property
from typing import NamedTuple, NoReturn

from .braid import CoxeterSystem, normal_form, parse_word, render_nf, verify_folded_relations
from .cells import (
    CellCache,
    classify_cell,
    fold_charge,
    numerical_constraints,
    vertex_charge,
    verify_classification,
)
from .errors import InputError, InternalError, UnsupportedTypeError, quote
from .hearts import (
    ExchangeGraph,
    build_folded_eg,
    build_interval_eg,
    heart_label,
    is_f_stable,
    simple_label,
)
from .quiver import Automorphism, Quiver, ValuedQuiver, dynkin_type, fold, valued_type_name
from .reps import Catalog
from .specfile import parse_quiver


def _load(path: str) -> tuple[Quiver, Automorphism]:
    try:
        # utf-8-sig would count the offset of a bad byte from after the BOM.
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read().removeprefix("\ufeff")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"cannot read {path}: not UTF-8 ({exc.reason} at byte {exc.start})") from exc
    q, s = parse_quiver(text)
    return q, (s if s is not None else Automorphism.identity(q))


def _fmt_complex(x: str, y: str) -> str:
    sign, im = ("-", y[1:]) if y.startswith("-") else ("+", y)
    return f"{x}{sign}{im}i"


class Analysis:
    """The artefacts of one pair (Q, S), each computed on first use and kept.

    Every command reads what it needs from here, so ``report`` builds the
    fold, the catalog, the transport permutation, each exchange graph and
    the Coxeter system once.
    """

    def __init__(self, q: Quiver, s: Automorphism):
        self.q = q
        self.s = s

    @cached_property
    def folded(self) -> ValuedQuiver:
        return fold(self.q, self.s)

    @cached_property
    def folded_type(self) -> str | None:
        return valued_type_name(self.folded)

    @cached_property
    def coxeter(self) -> tuple[str, CoxeterSystem, dict[int, int]]:
        """Q's type name, and its Coxeter system with the vertex -> slot map."""
        family, rank, order = dynkin_type(self.q)
        return (f"{family}{rank}", *CoxeterSystem.from_quiver(self.q, order))

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
    def folded_eg(self) -> ExchangeGraph:
        return build_folded_eg(self.catalog, self.perm)


# ---------------------------------------------------------------- fold

def _fold_payload(a: Analysis, folded: bool, check: str | None) -> dict:
    vq = a.folded
    return {
        "folded_type": a.folded_type,
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

def _eg_payload(a: Analysis, folded: bool, check: str | None) -> dict:
    catalog, perm = a.catalog, a.perm
    graph = a.folded_eg if folded else a.interval_eg
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
                "at": [simple_label(catalog, graph.hearts[src].simples[p]) for p in positions],
                "tgt": tgt,
            }
            for src, positions, tgt in graph.edges
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

def _classify_payload(a: Analysis, folded: bool, check: str | None) -> dict:
    catalog, perm, graph, vq = a.catalog, a.perm, a.interval_eg, a.folded
    cache = CellCache()
    rows = []
    for i, h in enumerate(graph.hearts):
        n = len(h.simples)
        label = heart_label(catalog, h)
        constraints = numerical_constraints(catalog, h)
        cls = classify_cell(constraints, n, cache)
        if not verify_classification(constraints, cls, n):
            raise InternalError(f"classify: cell of heart {label} failed its audit")
        row = {
            "id": i,
            "label": label,
            "f_stable": is_f_stable(perm, h),
            "feasible": cls.feasible,
        }
        if cls.feasible:
            row["witness"] = [[str(x), str(y)] for x, y in cls.witness]
            if folded:
                folded_charge = fold_charge(vq, vertex_charge(catalog, h, cls.witness))
                row["folded_charge"] = [
                    {"orbit": ov.name, "charge": [str(z[0]), str(z[1])]}
                    for ov, z in zip(vq.vertices, folded_charge)
                ]
        else:
            row["witness"] = None
            # The chain proof rules out every one of the 2^n branches.
            row["branches"] = 2**n
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

def _braid_payload(a: Analysis, folded: bool, check: str | None) -> dict:
    ambient, system, slot_of = a.coxeter
    if check is not None:
        if check.count("=") != 1:
            raise InputError('braid --check expects "WORD = WORD"')
        lhs_text, rhs_text = check.split("=")
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
    checks = verify_folded_relations(a.folded, system, slot_of)
    relations = [c._asdict() for c in checks]
    return {
        "ambient_type": ambient,
        "folded_type": a.folded_type,
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


def _report_payload(a: Analysis, folded: bool, check: str | None) -> dict:
    return {key: _COMMANDS[cmd].payload(a, folded, None) for key, cmd, _ in _SECTIONS}


def _report_table(p: dict) -> str:
    return "\n\n".join(
        f"== {heading} ==\n" + _COMMANDS[cmd].table(p[key]).rstrip("\n")
        for key, cmd, heading in _SECTIONS
    ) + "\n"


# ---------------------------------------------------------------- driver

class _Command(NamedTuple):
    """What the parser offers a command, and how its payload is built and rendered."""

    help: str
    default_format: str
    payload: Callable[[Analysis, bool, str | None], dict]
    table: Callable[[dict], str]
    dot: Callable[[dict], str] | None = None
    fold_help: str | None = None  # None: --fold would not change the output


_COMMANDS = {
    "fold": _Command(
        "orbit table of the folded (valued) quiver", "table", _fold_payload, _fold_table, _fold_dot
    ),
    "eg": _Command(
        "exchange graph of hearts under simple tilting", "dot", _eg_payload, _eg_table, _eg_dot,
        "the exchange graph of F-stable hearts under orbit tilts",
    ),
    "classify": _Command(
        "numerical stability cell per heart, with proofs", "table", _classify_payload,
        _classify_table, fold_help="add the folded central charge of each nonempty cell",
    ),
    "braid": _Command(
        "verify the folded braid relations via Garside forms", "table", _braid_payload, _braid_table
    ),
    "report": _Command(
        "run fold, eg, classify, and braid in one bundle", "json", _report_payload, _report_table,
        fold_help="pass --fold to eg and classify",
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="foldstab",
        description="Fold Dynkin quivers, walk exchange graphs, classify "
        "stability cells, and verify folded braid relations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, cmd in _COMMANDS.items():
        p = sub.add_parser(name, help=cmd.help)
        p.add_argument("specfile", help="quiver spec file")
        if cmd.fold_help:
            p.add_argument("--fold", action="store_true", help=cmd.fold_help)
        formats = ("dot", "json", "table") if cmd.dot else ("json", "table")
        p.add_argument("--format", choices=formats, default=cmd.default_format,
                       help=f"output format (default: {cmd.default_format})")
        p.add_argument("--out", help="write output to this file")
        if name == "braid":
            p.add_argument("--check", metavar='"WORD = WORD"',
                           help='check one braid word equality, e.g. "1 2 1 = 2 1 2"')
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cmd = _COMMANDS[args.command]
    try:
        analysis = Analysis(*_load(args.specfile))
        payload = cmd.payload(analysis, getattr(args, "fold", False), getattr(args, "check", None))
        if args.format == "json":
            import json

            text = json.dumps({"schema": 1, **payload}, indent=2) + "\n"
        else:
            text = (cmd.dot if args.format == "dot" else cmd.table)(payload)
    except (InputError, UnsupportedTypeError, InternalError) as exc:
        internal = isinstance(exc, InternalError)
        print(f"foldstab: {'internal error' if internal else 'error'}: {exc}", file=sys.stderr)
        return 4 if internal else 3 if isinstance(exc, UnsupportedTypeError) else 2
    try:
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
            sys.stdout.flush()
    except OSError as exc:
        print(f"foldstab: error: cannot write {args.out or 'stdout'}: {exc.strerror}", file=sys.stderr)
        if not args.out:
            # The exit-time flush of stdout would fail again; point fd 1 at devnull.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    return 0


def run() -> NoReturn:
    """Entry point of ``python -m foldstab`` and of the ``foldstab`` script.

    Runs `main`, flushes stdout and stderr, and ends the process with
    ``os._exit``, which skips interpreter teardown: nothing is left to do
    once the output is flushed, and an ``--out`` file is closed by `main`.
    An exception or SystemExit from `main` (argparse errors, --help) leaves
    through the normal exit.
    """
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    sys.exit(main())
