"""Independently known answers, and checkers for every output the benchmark reads.

The numbers come from the combinatorics of finite root systems, not from
running the program:

* the interval exchange graph [H, H[1]] of a Dynkin quiver has W-Catalan
  many hearts, for every orientation;
* its Hasse diagram is n-regular, so it has n * Cat / 2 edges;
* the F-stable hearts, and the folded exchange graph, are counted by the
  Catalan number of the folded type, with rank * Cat / 2 edges;
* every folded braid relation holds in the ambient Artin group;
* a ``--check`` pair is equal by construction (braid and commutation moves,
  ``s s^-1`` insertion) or differs in exponent sum.

Each checker takes the raw stdout bytes and returns None when the output is
right, or a one-line reason when it is not.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

# W-Catalan numbers: sum over the exponents formula, tabulated.
CATALAN = {
    "A3": 14, "A4": 42, "A5": 132, "A6": 429, "A7": 1430,
    "D4": 50, "D5": 182, "D6": 672,
    "B2": 6, "B3": 20, "B4": 70, "B5": 252,
    "C3": 20, "C4": 70,
    "G2": 8, "F4": 105, "E6": 833,
}


def rank_of(type_name: str) -> int:
    return int(type_name[1:])


def edge_count(type_name: str) -> int:
    """Edges of the interval exchange graph: rank * Cat / 2."""
    return rank_of(type_name) * CATALAN[type_name] // 2


class Mismatch(Exception):
    """An output disagrees with its expected answer."""


def _expect(what: str, got, want) -> None:
    if got != want:
        raise Mismatch(f"{what}: got {got!r}, expected {want!r}")


def _in_half_plane(x: Fraction, y: Fraction) -> bool:
    return y > 0 or (y == 0 and x > 0)


_COMPLEX = re.compile(r"^(-?\d+(?:/\d+)?)([+-])(\d+(?:/\d+)?)i$")


def _parse_complex(text: str) -> tuple[Fraction, Fraction]:
    m = _COMPLEX.match(text.strip())
    if not m:
        raise Mismatch(f"unreadable charge {text!r}")
    y = Fraction(m.group(3))
    return Fraction(m.group(1)), (y if m.group(2) == "+" else -y)


# ---------------------------------------------------------------- classify

def _check_classify_rows(rows: list[dict], ambient: str, folded: str, fold_charges: bool) -> None:
    _expect("hearts", len(rows), CATALAN[ambient])
    _expect("F-stable hearts", sum(1 for r in rows if r["f_stable"]), CATALAN[folded])
    for r in rows:
        if r["feasible"]:
            zs = [(Fraction(x), Fraction(y)) for x, y in r["witness"]]
            _expect(f"witness size of heart {r['id']}", len(zs), rank_of(ambient))
            if not all(_in_half_plane(x, y) for x, y in zs):
                raise Mismatch(f"witness of heart {r['id']} leaves the half plane")
            if fold_charges:
                _expect(f"folded charge size of heart {r['id']}", len(r["folded_charge"]), rank_of(folded))
        elif r["witness"] is not None or r.get("branches", 0) < 1:
            raise Mismatch(f"empty cell of heart {r['id']} has no certificates")


def _check_classify_summary(summary: dict, rows: list[dict]) -> None:
    _expect("summary hearts", summary["hearts"], len(rows))
    _expect("summary feasible", summary["feasible"], sum(1 for r in rows if r["feasible"]))
    _expect("summary F-stable", summary["f_stable"], sum(1 for r in rows if r["f_stable"]))


def classify_json(out: bytes, ambient: str, folded: str, fold_charges: bool) -> None:
    doc = json.loads(out)
    _expect("schema", doc["schema"], 1)
    _check_classify_rows(doc["hearts"], ambient, folded, fold_charges)
    _check_classify_summary(doc["summary"], doc["hearts"])


_HEART_LINE = re.compile(r"^heart (\d+) \{[^}]*\}: (F-stable|not F-stable), (.*)$")
_SUMMARY = re.compile(r"^summary: .*: (\d+) feasible, (\d+) F-stable, (\d+) total; equivalence (holds|FAILS)$")


def _classify_table_rows(lines: list[str]) -> tuple[list[dict], dict]:
    rows = []
    summary = None
    for line in lines:
        m = _HEART_LINE.match(line)
        if m:
            cell = m.group(3)
            row = {"id": int(m.group(1)), "f_stable": m.group(2) == "F-stable", "folded_charge": []}
            if cell.startswith("numerical cell nonempty; witness ("):
                row["feasible"] = True
                row["witness"] = [
                    tuple(str(c) for c in _parse_complex(z)) for z in cell[cell.index("(") + 1 : -1].split(", ")
                ]
            elif re.match(r"^numerical cell empty \((\d+) branch certificates\)$", cell):
                row["feasible"] = False
                row["witness"] = None
                row["branches"] = int(re.search(r"\d+", cell).group())
            else:
                raise Mismatch(f"unreadable cell of heart {m.group(1)}")
            rows.append(row)
        elif line.startswith("  folded charge: "):
            rows[-1]["folded_charge"] = line.split(": ", 1)[1].split(", orbit ")
        elif line.startswith("summary: "):
            m = _SUMMARY.match(line)
            if not m:
                raise Mismatch("unreadable classify summary")
            summary = {"feasible": int(m.group(1)), "f_stable": int(m.group(2)), "hearts": int(m.group(3))}
    if summary is None:
        raise Mismatch("classify table has no summary")
    return rows, summary


def classify_table(out: bytes, ambient: str, folded: str, fold_charges: bool) -> None:
    rows, summary = _classify_table_rows(out.decode().splitlines())
    _check_classify_rows(rows, ambient, folded, fold_charges)
    _check_classify_summary(summary, rows)


# ---------------------------------------------------------------- exchange graphs

def _check_graph(hearts: int, stable: int, edges: int, ambient: str, folded: str | None, kind: str) -> None:
    if kind == "folded":
        _expect("folded hearts", hearts, CATALAN[folded])
        _expect("F-stable hearts", stable, CATALAN[folded])
        _expect("folded edges", edges, edge_count(folded))
    else:
        _expect("hearts", hearts, CATALAN[ambient])
        _expect("F-stable hearts", stable, CATALAN[folded] if folded else CATALAN[ambient])
        _expect("edges", edges, edge_count(ambient))


def eg_json(out: bytes, ambient: str, folded: str | None, kind: str) -> None:
    doc = json.loads(out)
    _expect("schema", doc["schema"], 1)
    _expect("kind", doc["kind"], kind)
    _check_eg_payload(doc, ambient, folded, kind)


def _check_eg_payload(doc: dict, ambient: str, folded: str | None, kind: str) -> None:
    nodes = doc["nodes"]
    stable = sum(1 for n in nodes if n["f_stable"])
    _check_graph(len(nodes), stable, len(doc["edges"]), ambient, folded, kind)


_DOT_NODE = re.compile(r'^  n\d+ \[label="[^"]*"(, peripheries=2)?\];$')
_DOT_EDGE = re.compile(r'^  n\d+ -> n\d+ \[label="[^"]*"\];$')


def eg_dot(out: bytes, ambient: str, folded: str | None, kind: str) -> None:
    lines = out.decode().splitlines()
    name = "folded_exchange" if kind == "folded" else "exchange"
    _expect("dot header", lines[0], f"digraph {name} {{")
    _expect("dot footer", lines[-1], "}")
    nodes = [_DOT_NODE.match(x) for x in lines[1:-1]]
    hearts = sum(1 for m in nodes if m)
    stable = sum(1 for m in nodes if m and m.group(1))
    edges = sum(1 for x in lines[1:-1] if _DOT_EDGE.match(x))
    _expect("dot lines", hearts + edges, len(lines) - 2)
    _check_graph(hearts, stable, edges, ambient, folded, kind)


# ---------------------------------------------------------------- braid

def _relation_count(folded: str) -> int:
    r = rank_of(folded)
    return r * (r - 1) // 2


def braid_table(out: bytes, ambient: str, folded: str) -> None:
    lines = out.decode().splitlines()
    _expect("ambient line", lines[0], f"ambient type: {ambient}")
    _expect("folded line", lines[1], f"folded type: {folded}")
    relations = [x for x in lines if x.startswith("relation (")]
    _expect("relations", len(relations), _relation_count(folded))
    if not all(x.endswith(": VERIFIED") for x in relations):
        raise Mismatch("a folded relation failed")
    _expect("verdict", lines[-1], f"{folded} relation: VERIFIED")


def braid_check(out: bytes, ambient: str, equal: bool) -> None:
    lines = out.decode().splitlines()
    _expect("ambient line", lines[0], f"ambient type: {ambient}")
    _expect("verdict", lines[-1], "VERIFIED" if equal else "FAILED")


# ---------------------------------------------------------------- report

def report_json(out: bytes, ambient: str, folded: str) -> None:
    doc = json.loads(out)
    _expect("schema", doc["schema"], 1)
    _expect("folded type", doc["fold"]["folded_type"], folded)
    _expect("orbits", len(doc["fold"]["orbits"]), rank_of(folded))
    _check_eg_payload(doc["exchange_graph"], ambient, folded, "interval")
    cls = doc["classification"]
    _check_classify_rows(cls["hearts"], ambient, folded, False)
    _check_classify_summary(cls["summary"], cls["hearts"])
    braid = doc["braid"]
    _expect("braid ambient", braid["ambient_type"], ambient)
    _expect("braid folded", braid["folded_type"], folded)
    _expect("relations", len(braid["relations"]), _relation_count(folded))
    if not (braid["verified"] and all(r["holds"] for r in braid["relations"])):
        raise Mismatch("a folded relation failed")


def report_table(out: bytes, ambient: str, folded: str) -> None:
    text = out.decode()
    sections = {}
    for chunk in text.split("== ")[1:]:
        title, _, body = chunk.partition(" ==\n")
        sections[title] = body.strip("\n").splitlines()
    _expect("sections", sorted(sections), ["braid", "classification", "exchange graph", "fold"])
    _expect("fold line", sections["fold"][0], f"folded type: {folded}")
    eg = sections["exchange graph"]
    m = re.match(r"^hearts: (\d+) \(F-stable: (\d+)\)$", eg[0])
    edges_line = next((x for x in eg if x.startswith("edges: ")), None)
    if not m or edges_line is None:
        raise Mismatch("unreadable exchange graph section")
    _check_graph(int(m.group(1)), int(m.group(2)), int(edges_line[7:]), ambient, folded, "interval")
    rows, summary = _classify_table_rows(sections["classification"])
    _check_classify_rows(rows, ambient, folded, False)
    _check_classify_summary(summary, rows)
    braid_table(("\n".join(sections["braid"]) + "\n").encode(), ambient, folded)


def check(checker: str, out: bytes, **expected) -> str | None:
    """Run the checker named ``checker``; None when right, else the reason."""
    try:
        CHECKERS[checker](out, **expected)
    except Mismatch as exc:
        return str(exc)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
    return None


CHECKERS = {
    "classify_json": classify_json,
    "classify_table": classify_table,
    "eg_json": eg_json,
    "eg_dot": eg_dot,
    "braid_table": braid_table,
    "braid_check": braid_check,
    "report_json": report_json,
    "report_table": report_table,
}
