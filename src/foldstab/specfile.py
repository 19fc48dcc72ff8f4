"""Parser for the quiver spec format.

Grammar (line oriented; '#' starts a comment unless inside a string; every
entry fits on one line):

    file     := (blank | comment | section | entry)*
    section  := '[' name ']'                 name in {quiver, automorphism}
    entry    := key '=' value
    value    := string | int | list
    list     := '[' (item (',' item)* ','?)? ']'    items all strings or all ints
    string   := '"' characters '"'

Sections and their keys:

    [quiver]        vertices = [1, 2, 3]            required, distinct ints
                    arrows   = ["a: 2 -> 1", ...]   optional; each item is
                                                    'name: tail -> head'
    [automorphism]  vertex_perm = "(1 3)"           required, cycles on vertex
                                                    ids, fixed points omitted
                    arrow_perm  = "(a b)"           optional, cycles on arrow
                                                    names; inferred when the
                                                    vertex permutation forces
                                                    a unique arrow bijection

Unknown sections or keys, duplicates, and entries before any section are
rejected.  Parse errors carry 1-based line and column numbers.
"""

from __future__ import annotations

import re

from .errors import InputError, SpecParseError, quote
from .quiver import Automorphism, Quiver

_ARROW_RE = re.compile(r"^\s*([A-Za-z_]\w*)\s*:\s*(-?\d+)\s*->\s*(-?\d+)\s*$")

_SCHEMA = {
    "quiver": {"vertices", "arrows"},
    "automorphism": {"vertex_perm", "arrow_perm"},
}


class _Line:
    """Single-line scanner with column tracking."""

    def __init__(self, text: str, lineno: int):
        self.text = text
        self.lineno = lineno
        self.pos = 0

    def error(self, message: str, column: int | None = None):
        raise SpecParseError(message, self.lineno, (self.pos if column is None else column) + 1)

    def skip_space(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def at_end(self) -> bool:
        self.skip_space()
        return self.pos >= len(self.text) or self.text[self.pos] == "#"

    def peek(self) -> str:
        self.skip_space()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str) -> None:
        if self.peek() != ch:
            self.error(f"expected {ch!r}")
        self.pos += 1

    def ident(self) -> str:
        self.skip_space()
        m = re.match(r"[A-Za-z_]\w*", self.text[self.pos :])
        if not m:
            self.error("expected a name")
        self.pos += m.end()
        return m.group()

    def integer(self) -> int:
        self.skip_space()
        m = re.match(r"-?\d+", self.text[self.pos :])
        if not m:
            self.error("expected an integer")
        try:
            value = int(m.group())
        except ValueError:
            self.error("integer literal is too long")
        self.pos += m.end()
        return value

    def string(self) -> tuple[str, int]:
        self.skip_space()
        start = self.pos
        if self.peek() != '"':
            self.error("expected a string")
        end = self.text.find('"', start + 1)
        if end < 0:
            self.error("unterminated string", start)
        self.pos = end + 1
        return self.text[start + 1 : end], start + 1

    def value(self):
        """Parse string | int | list; strings carry their start column."""
        c = self.peek()
        if c == '"':
            return self.string()
        if c == "[":
            self.pos += 1
            items: list = []
            while True:
                if self.peek() == "]":
                    self.pos += 1
                    return items
                if items:
                    self.expect(",")
                    if self.peek() == "]":
                        self.pos += 1
                        return items
                items.append(self.string() if self.peek() == '"' else self.integer())
        if c.isdigit() or c == "-":
            return self.integer()
        self.error("expected a value")


def _parse_entries(text: str) -> dict[str, dict[str, tuple]]:
    sections: dict[str, dict[str, tuple]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _Line(raw, lineno)
        if line.at_end():
            continue
        if line.peek() == "[":
            line.pos += 1
            name = line.ident()
            line.expect("]")
            if not line.at_end():
                line.error("trailing characters after section header")
            if name not in _SCHEMA:
                line.error(f"unknown section {quote(name)}", 0)
            if name in sections:
                line.error(f"duplicate section {name!r}", 0)
            sections[name] = {}
            current = name
            continue
        col = line.pos
        key = line.ident()
        if current is None:
            line.error("entry before any section header", col)
        if key not in _SCHEMA[current]:
            line.error(f"unknown key {quote(key)} in section [{current}]", col)
        if key in sections[current]:
            line.error(f"duplicate key {key!r}", col)
        line.expect("=")
        val = line.value()
        if not line.at_end():
            line.error("trailing characters after value")
        sections[current][key] = (val, lineno, col + 1)
    return sections


def _parse_cycles(text: str, kind: str, universe: list, element) -> dict:
    """Parse cycle notation like '(1 3)(2 5)' over the given universe, reading
    each token with `element` (int for vertex ids, str for arrow names)."""
    mapping = {x: x for x in universe}
    body = text.strip()
    pos = 0
    while pos < len(body):
        if body[pos].isspace():
            pos += 1
            continue
        if body[pos] != "(":
            raise InputError(f"{kind}: expected '(' in cycle notation, got {body[pos]!r}")
        end = body.find(")", pos)
        if end < 0:
            raise InputError(f"{kind}: unterminated cycle")
        items = body[pos + 1 : end].replace(",", " ").split()
        pos = end + 1
        if not items:
            continue
        elems = []
        for t in items:
            try:
                elems.append(element(t))
            except ValueError:
                if re.fullmatch(r"[+-]?\d+", t):
                    raise InputError(f"{kind}: integer literal is too long") from None
                raise InputError(f"{kind}: {quote(t)} is not an integer") from None
        for e in elems:
            if e not in mapping:
                raise InputError(f"{kind}: {quote(e)} is not declared")
            if mapping[e] != e:
                raise InputError(f"{kind}: {quote(e)} appears in two cycles")
        for a, b in zip(elems, elems[1:] + elems[:1]):
            mapping[a] = b
    touched = [x for x in universe if mapping[x] != x]
    if sorted(mapping.values(), key=universe.index) != universe and touched:
        raise InputError(f"{kind}: not a permutation")
    return mapping


def _infer_arrow_images(q: Quiver, vmap: dict[int, int]) -> list[str]:
    images = []
    for a in q.arrows:
        candidates = [
            b.name for b in q.arrows if b.tail == vmap[a.tail] and b.head == vmap[a.head]
        ]
        if not candidates:
            raise InputError(
                f"vertex permutation is not a quiver automorphism: no image for arrow {quote(a.name)}"
            )
        if len(candidates) > 1:
            raise InputError(
                f"arrow permutation is ambiguous at {quote(a.name)} (parallel arrows); "
                "add an explicit arrow_perm"
            )
        images.append(candidates[0])
    return images


def parse_quiver(text: str) -> tuple[Quiver, Automorphism | None]:
    """Parse a spec file into a quiver and an optional automorphism."""
    sections = _parse_entries(text)
    if "quiver" not in sections:
        raise InputError("missing [quiver] section")
    qsec = sections["quiver"]
    if "vertices" not in qsec:
        raise InputError("missing 'vertices' in [quiver]")
    vval, vline, vcol = qsec["vertices"]
    if not isinstance(vval, list) or not all(isinstance(x, int) for x in vval):
        raise SpecParseError("'vertices' must be a list of integers", vline, vcol)
    if len(set(vval)) != len(vval):
        raise SpecParseError("duplicate vertex id", vline, vcol)

    arrows = []
    if "arrows" in qsec:
        aval, aline, acol = qsec["arrows"]
        if not isinstance(aval, list) or not all(isinstance(x, tuple) for x in aval):
            raise SpecParseError("'arrows' must be a list of strings", aline, acol)
        for s, col in aval:
            m = _ARROW_RE.match(s)
            if not m:
                raise SpecParseError(
                    f"bad arrow {quote(s)}, expected 'name: tail -> head'", aline, col
                )
            try:
                arrows.append((m.group(1), int(m.group(2)), int(m.group(3))))
            except ValueError:
                raise SpecParseError(
                    f"bad arrow {quote(m.group(1))}: vertex id is too long", aline, col
                ) from None
        names = [a[0] for a in arrows]
        if len(set(names)) != len(names):
            raise SpecParseError("duplicate arrow name", aline, acol)

    q = Quiver.make(vval, arrows)

    if "automorphism" not in sections:
        return q, None
    asec = sections["automorphism"]
    if "vertex_perm" not in asec:
        raise InputError("missing 'vertex_perm' in [automorphism]")
    pval, pline, pcol = asec["vertex_perm"]
    if not isinstance(pval, tuple):
        raise SpecParseError("'vertex_perm' must be a string", pline, pcol)
    vmap = _parse_cycles(pval[0], "vertex_perm", list(q.vertices), int)

    if "arrow_perm" in asec:
        aval, aline, acol = asec["arrow_perm"]
        if not isinstance(aval, tuple):
            raise SpecParseError("'arrow_perm' must be a string", aline, acol)
        amap = _parse_cycles(aval[0], "arrow_perm", [a.name for a in q.arrows], str)
        arrow_images = [amap[a.name] for a in q.arrows]
    else:
        arrow_images = _infer_arrow_images(q, vmap)

    s = Automorphism(q, tuple(vmap[v] for v in q.vertices), tuple(arrow_images))
    return q, s
