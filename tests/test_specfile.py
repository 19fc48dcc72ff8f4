from __future__ import annotations

import pytest

from foldstab.errors import InputError, SpecParseError, quote
from foldstab.specfile import parse_quiver


def test_minimal_quiver() -> None:
    q, s = parse_quiver("[quiver]\nvertices = [1]\n")
    assert q.vertices == (1,)
    assert q.arrows == ()
    assert s is None


def test_full_spec_with_automorphism() -> None:
    text = """
# three-vertex chain
[quiver]
vertices = [1, 2, 3]
arrows = ["a: 2 -> 1", "b: 2 -> 3"]

[automorphism]
vertex_perm = "(1 3)"
arrow_perm = "(a b)"
"""
    q, s = parse_quiver(text)
    assert q.vertices == (1, 2, 3)
    assert [(a.name, a.tail, a.head) for a in q.arrows] == [("a", 2, 1), ("b", 2, 3)]
    assert s is not None
    assert s.vertex(1) == 3 and s.vertex(3) == 1 and s.vertex(2) == 2
    assert s.arrow("a") == "b"


def test_arrow_perm_inferred_from_vertices() -> None:
    text = """
[quiver]
vertices = [0, 1, 2, 3]
arrows = ["c1: 0 -> 1", "c2: 0 -> 2", "c3: 0 -> 3"]
[automorphism]
vertex_perm = "(1 2 3)"
"""
    _, s = parse_quiver(text)
    assert s is not None
    assert s.arrow("c1") == "c2"
    assert s.arrow("c3") == "c1"


def test_comments_and_spacing_are_ignored() -> None:
    text = '[quiver]  # section\n  vertices = [ 1 ,2, 3 ]  # ids\narrows = ["a: 2->1","b: 2 ->3",]\n'
    q, _ = parse_quiver(text)
    assert q.vertices == (1, 2, 3)
    assert len(q.arrows) == 2


def test_cycle_notation_variants() -> None:
    base = '[quiver]\nvertices = [1, 2, 3, 4, 5]\narrows = ["p1: 1 -> 2", "p2: 2 -> 3", "p4: 4 -> 3", "p5: 5 -> 4"]\n[automorphism]\nvertex_perm = "{}"\n'
    for notation in ("(1 5)(2 4)", "(1,5)(2,4)", "(1, 5) (2, 4)"):
        _, s = parse_quiver(base.format(notation))
        assert s is not None and s.vertex(1) == 5 and s.vertex(4) == 2


def test_untouched_identity_cycles() -> None:
    text = '[quiver]\nvertices = [1, 2]\narrows = ["a: 1 -> 2"]\n[automorphism]\nvertex_perm = "()"\n'
    _, s = parse_quiver(text)
    assert s is not None and s.is_identity()


def _parse_error(text: str) -> SpecParseError:
    with pytest.raises(SpecParseError) as info:
        parse_quiver(text)
    return info.value


def test_error_positions() -> None:
    err = _parse_error("vertices = [1]\n")
    assert (err.line, err.column) == (1, 1)

    err = _parse_error("[quiver]\nvertices = [1, 1]\n")
    assert err.line == 2

    err = _parse_error("[nonsense]\n")
    assert (err.line, err.column) == (1, 1)

    err = _parse_error("[quiver]\ncolor = 3\n")
    assert (err.line, err.column) == (2, 1)

    err = _parse_error("[quiver]\nvertices = [1] extra\n")
    assert err.line == 2

    err = _parse_error('[quiver]\nvertices = [1, 2]\narrows = ["a: 1 => 2"]\n')
    assert err.line == 3

    err = _parse_error('[quiver]\nvertices = "one"\n')
    assert err.line == 2

    err = _parse_error('[quiver]\nvertices = [1\n')
    assert err.line == 2

    err = _parse_error('[quiver]\nvertices = [1]\nvertices = [2]\n')
    assert err.line == 3


def test_duplicate_section_rejected() -> None:
    err = _parse_error("[quiver]\nvertices = [1]\n[quiver]\n")
    assert err.line == 3


def test_semantic_errors_are_input_errors() -> None:
    with pytest.raises(InputError):
        parse_quiver("")
    with pytest.raises(InputError):
        parse_quiver("[quiver]\narrows = []\n")
    with pytest.raises(InputError):
        parse_quiver("[quiver]\nvertices = [1, 2]\n[automorphism]\narrow_perm = \"()\"\n")
    with pytest.raises(InputError):
        parse_quiver(
            '[quiver]\nvertices = [1, 2]\narrows = ["a: 1 -> 2"]\n'
            '[automorphism]\nvertex_perm = "(1 4)"\n'
        )
    with pytest.raises(InputError):
        parse_quiver(
            '[quiver]\nvertices = [1, 2]\narrows = ["a: 1 -> 2"]\n'
            '[automorphism]\nvertex_perm = "(1 2)"\n'
        )


def test_vertex_perm_double_use_rejected() -> None:
    with pytest.raises(InputError):
        parse_quiver(
            '[quiver]\nvertices = [1, 2, 3]\narrows = ["a: 2 -> 1", "b: 2 -> 3"]\n'
            '[automorphism]\nvertex_perm = "(1 3)(3 1)"\n'
        )


@pytest.mark.parametrize(
    "perm, repeated", [("(1 1)", 1), ("(3)(1 3)", 3), ("(1)(1 3)", 1), ("(1 3)(3)", 3)]
)
def test_vertex_perm_repeat_is_refused(tmp_path, capsys, perm, repeated) -> None:
    from foldstab.cli import main

    text = '[quiver]\nvertices = [1, 2, 3]\narrows = ["a: 2 -> 1", "b: 2 -> 3"]\n'
    text += f'[automorphism]\nvertex_perm = "{perm}"\n'
    with pytest.raises(InputError, match=rf"^vertex_perm: {repeated} appears twice$"):
        parse_quiver(text)
    spec = tmp_path / "repeat.toml"
    spec.write_text(text, encoding="utf-8")
    assert main(["fold", str(spec)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1


def test_arrow_perm_repeat_is_refused() -> None:
    with pytest.raises(InputError, match=r"^arrow_perm: 'a' appears twice$"):
        parse_quiver(
            '[quiver]\nvertices = [1, 2, 3]\narrows = ["a: 2 -> 1", "b: 2 -> 3"]\n'
            '[automorphism]\nvertex_perm = "(1 3)"\narrow_perm = "(a)(a b)"\n'
        )


def test_signed_integers_read_as_unsigned(tmp_path, capsys) -> None:
    from foldstab.cli import main

    unsigned = '[quiver]\nvertices = [1, 2, 3]\narrows = ["a: 2 -> 1", "b: 2 -> 3"]\n'
    unsigned += '[automorphism]\nvertex_perm = "(1 3)"\n'
    signed = unsigned.replace("[1, 2, 3]", "[+1, 2, 3]").replace("2 -> 1", "2 -> +1")
    assert parse_quiver(signed) == parse_quiver(unsigned)
    outputs = []
    for name, text in (("signed", signed), ("unsigned", unsigned)):
        spec = tmp_path / f"{name}.toml"
        spec.write_text(text, encoding="utf-8")
        for fmt in ("table", "json"):
            assert main(["fold", str(spec), "--format", fmt]) == 0
            outputs.append(capsys.readouterr())
    assert outputs[:2] == outputs[2:]
    with pytest.raises(SpecParseError, match="expected an integer"):
        parse_quiver("[quiver]\nvertices = +x\n")


def test_vertex_perm_non_integer_token_rejected() -> None:
    with pytest.raises(InputError, match=r"vertex_perm: 'x3' is not an integer"):
        parse_quiver(
            '[quiver]\nvertices = [1, 2, 3]\narrows = ["a: 2 -> 1", "b: 2 -> 3"]\n'
            '[automorphism]\nvertex_perm = "(1 x3)"\n'
        )


def test_arrow_perm_without_arrows_rejected() -> None:
    with pytest.raises(InputError, match=r"arrow_perm: 'a' is not declared"):
        parse_quiver(
            "[quiver]\nvertices = [1, 2]\n"
            '[automorphism]\nvertex_perm = "(1 2)"\narrow_perm = "(a b)"\n'
        )


def test_overlong_integer_literal_is_positioned_error(tmp_path) -> None:
    from foldstab.cli import main

    text = "[quiver]\nvertices = [2, " + "1" * 5000 + "]\n"
    with pytest.raises(SpecParseError, match="integer literal is too long") as info:
        parse_quiver(text)
    assert (info.value.line, info.value.column) == (2, 16)
    spec = tmp_path / "long.toml"
    spec.write_text(text, encoding="utf-8")
    assert main(["fold", str(spec)]) == 2


def test_overlong_arrow_endpoint_is_positioned_error() -> None:
    text = '[quiver]\nvertices = [1, 2]\narrows = ["a: ' + "1" * 5000 + ' -> 2"]\n'
    with pytest.raises(SpecParseError, match="bad arrow 'a': vertex id is too long") as info:
        parse_quiver(text)
    assert (info.value.line, info.value.column) == (3, 11)


def test_overlong_vertex_perm_token_reports_too_long(tmp_path, capsys) -> None:
    from foldstab.cli import main

    text = (
        '[quiver]\nvertices = [1, 2, 3]\narrows = ["a: 2 -> 1", "b: 2 -> 3"]\n'
        '[automorphism]\nvertex_perm = "(1 ' + "1" * 5000 + ')"\n'
    )
    with pytest.raises(InputError, match=r"^vertex_perm: integer literal is too long$"):
        parse_quiver(text)
    spec = tmp_path / "long_perm.toml"
    spec.write_text(text, encoding="utf-8")
    assert main(["fold", str(spec)]) == 2
    assert "1" * 100 not in capsys.readouterr().err


def test_quote_cuts_long_tokens() -> None:
    assert quote("a" * 40) == repr("a" * 40)
    assert quote("a" * 41) == repr("a" * 40) + "..."
    assert quote(7) == "7"
    assert quote(10**45) == "1" + "0" * 39 + "..."


_LONG = "x" * 5000
_CHAIN = '[quiver]\nvertices = [1, 2, 3]\narrows = ["a: 2 -> 1", "b: 2 -> 3"]\n'


@pytest.mark.parametrize(
    "text",
    [
        _CHAIN + '[automorphism]\nvertex_perm = "(1 ' + _LONG + ')"\n',
        _CHAIN + '[automorphism]\nvertex_perm = "(1 3)"\narrow_perm = "(a ' + _LONG + ')"\n',
        '[quiver]\nvertices = [1, 2]\narrows = ["' + _LONG + '"]\n',
        "[quiver]\nvertices = [1, 2]\n" + _LONG + " = 1\n",
        "[" + _LONG + "]\n",
        '[quiver]\nvertices = [1, 2]\narrows = ["' + _LONG + ': 1 -> 9"]\n',
    ],
    ids=["vertex_perm_integer", "arrow_perm_declared", "bad_arrow", "unknown_key", "unknown_section", "undeclared_vertex"],
)
def test_long_token_error_is_short(tmp_path, capsys, text) -> None:
    from foldstab.cli import main

    spec = tmp_path / "long_token.toml"
    spec.write_text(text, encoding="utf-8")
    assert main(["fold", str(spec)]) == 2
    err = capsys.readouterr().err
    assert "x" * 40 + "'..." in err
    assert len(err.encode()) < 200


@pytest.mark.parametrize(
    "text, message",
    [
        ("[quiver]\nvertices = [\u0661, 2]\n", "expected an integer"),
        ("[quiver]\nvertices = [1, 2]\narrows = [\"a: \u0661 -> 2\"]\n", "bad arrow"),
        ("[quiver]\nvertices = [1, 2]\narrows = [\"a: 1_0 -> 2\"]\n", "bad arrow"),
        (
            "[quiver]\nvertices = [1, 2, 10]\n[automorphism]\nvertex_perm = \"(1_0 2)\"\n",
            "'1_0' is not an integer",
        ),
        (
            "[quiver]\nvertices = [1, 2]\n[automorphism]\nvertex_perm = \"(1 \u0662)\"\n",
            "is not an integer",
        ),
    ],
    ids=["vertex-arabic-digit", "arrow-arabic-digit", "arrow-underscore", "perm-underscore", "perm-arabic-digit"],
)
def test_integers_take_ascii_digits_only(tmp_path, capsys, text, message) -> None:
    from foldstab.cli import main

    with pytest.raises(InputError, match=message):
        parse_quiver(text)
    spec = tmp_path / "digits.toml"
    spec.write_text(text, encoding="utf-8")
    assert main(["fold", str(spec)]) == 2
    assert capsys.readouterr().out == ""
