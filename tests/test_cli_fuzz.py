"""Fuzz the CLI exit-code contract on mutated spec fixtures.

Every input, however malformed, must end in exit code 0, 2, 3 or 4; a
traceback (an exception escaping ``main``) is a bug.  ``fold`` runs on many
mutants; ``eg``, ``classify`` and ``braid --check`` run on fewer, because a
mutant that stays a valid fold classifies every cell.  The mutants are the
`specs/` fixtures with lines dropped or duplicated and tokens replaced by
other tokens of the fixtures.  The cycle reader is fuzzed on its own, with
random cycle strings over a small universe.  The search is derandomized so
the suite stays deterministic.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from foldstab.cli import main  # noqa: E402
from foldstab.errors import InputError  # noqa: E402
from foldstab.specfile import _parse_cycles, ascii_int  # noqa: E402

SPECS = Path(__file__).resolve().parent.parent / "specs"
FIXTURES = [p.read_text(encoding="utf-8") for p in sorted(SPECS.glob("*.toml"))]
TOKEN = re.compile(r"\w+|\S")
# Replacement tokens: every token of the fixtures, plus deletion and a line break.
VOCABULARY = sorted({t for text in FIXTURES for t in TOKEN.findall(text)} | {"", "\n"})


@st.composite
def mutated_specs(draw) -> str:
    lines = draw(st.sampled_from(FIXTURES)).splitlines(keepends=True)
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(("drop", "copy", "replace")))
        spans = [m.span() for m in TOKEN.finditer(lines[i])]
        if op == "drop":
            del lines[i]
        elif op == "copy":
            lines.insert(i, lines[i])
        elif spans:
            start, stop = draw(st.sampled_from(spans))
            lines[i] = lines[i][:start] + draw(st.sampled_from(VOCABULARY)) + lines[i][stop:]
    return "".join(lines)


@pytest.fixture(scope="module")
def spec_path(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("fuzz") / "spec.toml"


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(text=mutated_specs())
def test_fold_exit_codes_on_mutated_specs(spec_path, text) -> None:
    spec_path.write_text(text, encoding="utf-8")
    assert main(["fold", str(spec_path)]) in {0, 2, 3, 4}


COMMANDS = (("eg",), ("classify",), ("braid", "--check", "1 2 1 = 2 1 2"))


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(text=mutated_specs())
def test_command_exit_codes_on_mutated_specs(spec_path, text) -> None:
    spec_path.write_text(text, encoding="utf-8")
    for command, *options in COMMANDS:
        assert main([command, str(spec_path), *options]) in {0, 2, 3, 4}


# Tokens 0 and 5 are not in the universe.
UNIVERSE = [1, 2, 3, 4]


@settings(derandomize=True, database=None, max_examples=500, deadline=None)
@given(
    cycles=st.lists(st.lists(st.integers(0, 5), max_size=4), max_size=4),
    sep=st.sampled_from((" ", ",", ", ")),
)
def test_cycle_strings_read_as_a_bijection_or_are_refused(cycles, sep) -> None:
    text = " ".join("(" + sep.join(map(str, c)) + ")" for c in cycles)
    listed = [e for c in cycles for e in c]
    try:
        mapping = _parse_cycles(text, "vertex_perm", UNIVERSE, ascii_int)
    except InputError:
        assert len(set(listed)) < len(listed) or not set(listed) <= set(UNIVERSE)
        return
    assert len(set(listed)) == len(listed)
    assert sorted(mapping.values()) == UNIVERSE
    for c in cycles:
        for a, b in zip(c, c[1:] + c[:1]):
            assert mapping[a] == b
    assert all(mapping[x] == x for x in UNIVERSE if x not in listed)
