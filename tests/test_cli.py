from __future__ import annotations

import functools
import importlib.util
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from foldstab.cli import build_parser, main

ROOT = Path(__file__).resolve().parent.parent
SPECS = ROOT / "specs"
A3 = str(SPECS / "a3_flip.toml")
A2 = str(SPECS / "a2_chain.toml")
A1 = str(SPECS / "a1_trivial.toml")
D4_ROT = str(SPECS / "d4_triality.toml")
D4_SWAP = str(SPECS / "d4_swap.toml")
A5 = str(SPECS / "a5_flip.toml")
E6 = str(SPECS / "e6_fold.toml")

COMMANDS = ("fold", "eg", "classify", "braid", "report")
# The commands whose output --fold changes, and those with a dot rendering.
FOLD_COMMANDS = ("eg", "classify", "report")
DOT_COMMANDS = ("fold", "eg")


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_fold_table_a3(capsys) -> None:
    code, out, err = run_cli(capsys, "fold", A3)
    assert code == 0
    assert err == ""
    assert out.splitlines() == [
        "folded type: B2",
        "orbit 1: size 2, members {1 3}",
        "orbit 2: size 1, members {2}",
        "arrow a: 2 => 1, size 2",
    ]


def test_fold_table_variants(capsys) -> None:
    _, out, _ = run_cli(capsys, "fold", D4_SWAP)
    assert out.splitlines()[0] == "folded type: B3"
    _, out, _ = run_cli(capsys, "fold", D4_ROT)
    assert out.splitlines()[0] == "folded type: G2"
    _, out, _ = run_cli(capsys, "fold", A5)
    assert out.splitlines()[0] == "folded type: C3"
    _, out, _ = run_cli(capsys, "fold", E6)
    assert out.splitlines()[0] == "folded type: F4"


def test_fold_names_disconnected_order4_cover(capsys, tmp_path) -> None:
    # Two D4 stars swapped by an order-4 automorphism: its folded Cartan matrix is B3.
    spec = tmp_path / "d4_double.toml"
    spec.write_text(
        "[quiver]\nvertices = [1, 2, 3, 4, 5, 6, 7, 8]\n"
        'arrows = ["a: 2 -> 1", "b: 2 -> 3", "c: 2 -> 4", "e: 6 -> 5", "f: 6 -> 7", "g: 6 -> 8"]\n'
        '[automorphism]\nvertex_perm = "(1 5)(2 6)(3 7 4 8)"\n',
        encoding="utf-8",
    )
    code, out, err = run_cli(capsys, "fold", str(spec))
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == "folded type: B3"


def test_fold_identity_when_no_automorphism(capsys) -> None:
    code, out, _ = run_cli(capsys, "fold", A2)
    assert code == 0
    assert out.splitlines() == [
        "folded type: A2",
        "orbit 1: size 1, members {1}",
        "orbit 2: size 1, members {2}",
        "arrow a: 1 => 2, size 1",
    ]


def test_fold_json(capsys) -> None:
    code, out, _ = run_cli(capsys, "fold", A3, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["folded_type"] == "B2"
    assert payload["orbits"] == [
        {"name": 1, "size": 2, "members": [1, 3]},
        {"name": 2, "size": 1, "members": [2]},
    ]
    assert payload["arrows"] == [
        {"name": "a", "size": 2, "tail": 2, "head": 1, "members": ["a", "b"]},
    ]


def test_fold_dot(capsys) -> None:
    code, out, _ = run_cli(capsys, "fold", A3, "--format", "dot")
    assert code == 0
    assert out.startswith("digraph folded {")
    assert '"2" -> "1" [label="a (size 2)"];' in out


def test_eg_dot_default(capsys) -> None:
    code, out, _ = run_cli(capsys, "eg", A1)
    assert code == 0
    assert out.startswith("digraph exchange {")
    assert out.count("peripheries=2") == 2
    assert out.count("->") == 1


def test_eg_table_a3(capsys) -> None:
    code, out, _ = run_cli(capsys, "eg", A3, "--format", "table")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "hearts: 14 (F-stable: 6)"
    assert "0: {T1, T2, T3} [F-stable]" in lines
    assert "edges: 21" in lines


def test_eg_folded(capsys) -> None:
    code, out, _ = run_cli(capsys, "eg", A3, "--fold", "--format", "table")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "hearts: 6 (F-stable: 6)"
    assert "edges: 6" in lines


def test_eg_json_shape(capsys) -> None:
    _, out, _ = run_cli(capsys, "eg", A3, "--format", "json")
    payload = json.loads(out)
    assert payload["kind"] == "interval"
    assert len(payload["nodes"]) == 14
    assert len(payload["edges"]) == 21
    seed = payload["nodes"][0]
    assert seed == {
        "id": 0,
        "label": "{T1, T2, T3}",
        "simples": [["T1", 0], ["T2", 0], ["T3", 0]],
        "f_stable": True,
    }
    assert all(set(e) == {"src", "at", "tgt"} for e in payload["edges"])


def test_classify_table_summary(capsys) -> None:
    code, out, _ = run_cli(capsys, "classify", A3)
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == (
        "summary: numerically feasible hearts = F-stable hearts: "
        "6 feasible, 6 F-stable, 14 total; equivalence holds"
    )
    assert sum("numerical cell nonempty" in l for l in lines) == 6
    assert sum("numerical cell empty" in l for l in lines) == 8


def test_classify_folded_charges(capsys) -> None:
    code, out, _ = run_cli(capsys, "classify", A3, "--fold", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    feasible = [r for r in payload["hearts"] if r["feasible"]]
    assert len(feasible) == 6
    seed = payload["hearts"][0]
    assert seed["folded_charge"] == [
        {"orbit": 1, "charge": ["0", "2"]},
        {"orbit": 2, "charge": ["0", "1"]},
    ]
    infeasible = [r for r in payload["hearts"] if not r["feasible"]]
    assert all(r["witness"] is None and r["branches"] == 8 for r in infeasible)


def test_classify_identity_a2(capsys) -> None:
    code, out, _ = run_cli(capsys, "classify", A2)
    assert code == 0
    assert out.splitlines()[-1].endswith(
        "5 feasible, 5 F-stable, 5 total; equivalence holds"
    )


def test_classify_audit_failure_names_the_heart(capsys, monkeypatch) -> None:
    import foldstab.cli as cli

    _, out, _ = run_cli(capsys, "classify", A3, "--format", "json")
    label = json.loads(out)["hearts"][0]["label"]
    monkeypatch.setattr(cli, "verify_classification", lambda *args: False)
    code, out, err = run_cli(capsys, "classify", A3)
    assert code == 4
    assert out == ""
    assert err == f"foldstab: internal error: classify: cell of heart {label} failed its audit\n"


def test_braid_table(capsys) -> None:
    code, out, _ = run_cli(capsys, "braid", A3)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "ambient type: A3"
    assert lines[1] == "folded type: B2"
    assert "relation (1, 2) m=4: VERIFIED" in lines
    assert lines[-1] == "B2 relation: VERIFIED"


def test_braid_check(capsys) -> None:
    code, out, _ = run_cli(capsys, "braid", A2, "--check", "1 2 1 = 2 1 2")
    assert code == 0
    assert out.splitlines()[-1] == "VERIFIED"
    code, out, _ = run_cli(capsys, "braid", A2, "--check", "1 2 = 2 1")
    assert code == 0
    assert out.splitlines()[-1] == "FAILED"


def test_braid_check_errors(capsys) -> None:
    code, _, err = run_cli(capsys, "braid", A2, "--check", "1 2 1")
    assert code == 2
    assert err.startswith("foldstab: error:")
    code, _, err = run_cli(capsys, "braid", A2, "--check", "1 5 = 5 1")
    assert code == 2
    assert "out of range" in err


# Plain E7 and E8 quivers numbered along their canonical slot order: a chain
# 1 - ... - (n-1) with vertex n on the branch vertex n-3.
E_SPECS = {
    7: '[quiver]\nvertices = [1, 2, 3, 4, 5, 6, 7]\narrows = ["a1: 1 -> 2", "a2: 2 -> 3", '
    '"a3: 3 -> 4", "a4: 4 -> 5", "a5: 5 -> 6", "a7: 7 -> 4"]\n',
    8: '[quiver]\nvertices = [1, 2, 3, 4, 5, 6, 7, 8]\narrows = ["a1: 1 -> 2", "a2: 2 -> 3", '
    '"a3: 3 -> 4", "a4: 4 -> 5", "a5: 5 -> 6", "a6: 6 -> 7", "a8: 8 -> 5"]\n',
}


# Each right-hand word is the left one after braid moves (121 = 212 and the
# like on bonded generators) and commutations of unbonded ones; the unequal
# word flips the sign of one letter, which changes the exponent sum.
@pytest.mark.parametrize(
    "rank, lhs, equal, unequal",
    [
        (
            7,
            "1 2 1 3 5 4 7 4 6 5 6 3^-1 7",
            "2 1 2 5 3 7 4 7 5 6 5 7 3^-1",
            "2 1 2 5 3 7 4^-1 7 5 6 5 7 3^-1",
        ),
        (
            8,
            "1 2 1 4 8 5 8 7 6 7 3^-1 1 2^-1",
            "2 1 2 4 5 8 5 6 7 6 1 3^-1 2^-1",
            "2 1 2 4^-1 5 8 5 6 7 6 1 3^-1 2^-1",
        ),
    ],
    ids=["E7", "E8"],
)
def test_braid_check_e7_e8(capsys, tmp_path, rank, lhs, equal, unequal) -> None:
    spec = tmp_path / f"e{rank}.toml"
    spec.write_text(E_SPECS[rank], encoding="utf-8")
    for rhs, verdict in ((equal, "VERIFIED"), (unequal, "FAILED")):
        code, out, err = run_cli(capsys, "braid", str(spec), "--check", f"{lhs} = {rhs}")
        assert code == 0
        assert err == ""
        lines = out.splitlines()
        assert lines[0] == f"ambient type: E{rank}"
        assert lines[-1] == verdict


def test_braid_check_bad_letter(capsys) -> None:
    code, out, err = run_cli(capsys, "braid", A2, "--check", "1 2 = x")
    assert code == 2
    assert out == ""
    assert err.startswith("foldstab: error:")
    assert "'x'" in err
    code, _, err = run_cli(capsys, "braid", A2, "--check", "1^a = 1")
    assert code == 2
    assert "'1^a'" in err
    code, _, err = run_cli(capsys, "braid", A2, "--check", "1 = " + "y" * 5000)
    assert code == 2
    assert "y" * 40 + "'..." in err and len(err.encode()) < 200
    code, _, err = run_cli(capsys, "braid", A2, "--check", "1 = " + "9" * 4000)
    assert code == 2
    assert "9" * 40 + "..." in err and len(err.encode()) < 200


def test_braid_check_refuses_huge_exponents(capsys) -> None:
    code, out, err = run_cli(capsys, "braid", A2, "--check", "1^99999999999 = 1")
    assert code == 2
    assert out == ""
    assert err == "foldstab: error: braid word has 99999999999 letters; the limit is 100000\n"
    code, _, err = run_cli(capsys, "braid", A2, "--check", "1 = 2^60000 1^-40001")
    assert code == 2
    assert "100001 letters" in err
    code, _, err = run_cli(capsys, "braid", A2, "--check", "1^" + "9" * 4000 + " = 1")
    assert code == 2
    assert len(err.encode()) < 200


def test_report_json(capsys) -> None:
    code, out, _ = run_cli(capsys, "report", A3)
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"schema", "fold", "exchange_graph", "classification", "braid"}
    assert payload["schema"] == 1
    assert payload["fold"]["folded_type"] == "B2"
    assert payload["classification"]["summary"] == {
        "hearts": 14,
        "feasible": 6,
        "f_stable": 6,
        "agreement": True,
    }
    assert payload["braid"]["verified"] is True


# (report key, standalone command, report table heading) of each section.
REPORT_SECTIONS = (
    ("fold", "fold", "fold"),
    ("exchange_graph", "eg", "exchange graph"),
    ("classification", "classify", "classification"),
    ("braid", "braid", "braid"),
)


def json_payload(capsys, *argv: str) -> dict:
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload.pop("schema") == 1
    return payload


@pytest.mark.parametrize("flags", [(), ("--fold",)], ids=["interval", "folded"])
@pytest.mark.parametrize("spec", [A3, D4_ROT], ids=["a3_flip", "d4_triality"])
def test_report_json_sections_equal_standalone_payloads(capsys, spec, flags) -> None:
    report = json_payload(capsys, "report", spec, *flags)
    assert list(report) == [key for key, _, _ in REPORT_SECTIONS]
    for key, cmd, _ in REPORT_SECTIONS:
        own = flags if cmd in FOLD_COMMANDS else ()
        assert report[key] == json_payload(capsys, cmd, spec, *own), key


@pytest.mark.parametrize("flags", [(), ("--fold",)], ids=["interval", "folded"])
@pytest.mark.parametrize("spec", [A3, D4_ROT], ids=["a3_flip", "d4_triality"])
def test_report_table_sections_equal_standalone_tables(capsys, spec, flags) -> None:
    code, out, _ = run_cli(capsys, "report", spec, "--format", "table", *flags)
    assert code == 0
    sections = []
    for _, cmd, heading in REPORT_SECTIONS:
        own = flags if cmd in FOLD_COMMANDS else ()
        code, table, _ = run_cli(capsys, cmd, spec, "--format", "table", *own)
        assert code == 0
        sections.append(f"== {heading} ==\n{table}")
    assert out == "\n".join(sections)


@pytest.mark.parametrize("flags", [(), ("--fold",)], ids=["interval", "folded"])
def test_report_builds_each_artefact_once(capsys, monkeypatch, flags) -> None:
    import foldstab.cli as cli
    from foldstab import quiver
    from foldstab.braid import CoxeterSystem
    from foldstab.reps import Catalog

    calls = dict.fromkeys(
        ("catalog", "coxeter", "interval_eg", "folded_eg", "fold", "valued_type_name", "dynkin_type"), 0
    )

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(Catalog, "__init__", counted("catalog", Catalog.__init__))
    monkeypatch.setattr(CoxeterSystem, "__init__", counted("coxeter", CoxeterSystem.__init__))
    monkeypatch.setattr(cli, "build_interval_eg", counted("interval_eg", cli.build_interval_eg))
    monkeypatch.setattr(cli, "build_folded_eg", counted("folded_eg", cli.build_folded_eg))
    # Wrap the quiver functions in every foldstab module that bound them.
    for name in ("fold", "valued_type_name", "dynkin_type"):
        fn = getattr(quiver, name)
        for module in [m for n, m in sys.modules.items() if n.startswith("foldstab")]:
            if getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, counted(name, fn))
    code, _, _ = run_cli(capsys, "report", A5, *flags)
    assert code == 0
    # Catalog checks the type on its own, so dynkin_type may run twice.
    assert calls.pop("dynkin_type") <= 2
    assert calls == {
        "catalog": 1,
        "coxeter": 1,
        "interval_eg": 1,
        "folded_eg": len(flags),
        "fold": 1,
        "valued_type_name": 1,
    }


def test_missing_file(capsys) -> None:
    code, _, err = run_cli(capsys, "fold", "/nonexistent/x.toml")
    assert code == 2
    assert err.startswith("foldstab: error: cannot read")


def test_spec_that_is_not_utf8_is_an_input_error(capsys, tmp_path) -> None:
    spec = tmp_path / "latin1.toml"
    # The offset counts from the start of the file, byte order mark included.
    for bom in (b"", b"\xef\xbb\xbf"):
        data = bom + "# quiver für A1\n[quiver]\nvertices = [1]\n".encode("latin-1")
        spec.write_bytes(data)
        code, out, err = run_cli(capsys, "fold", str(spec))
        assert code == 2
        assert out == ""
        offset = data.index(b"\xfc")
        assert err == f"foldstab: error: cannot read {spec}: not UTF-8 (invalid start byte at byte {offset})\n"


def test_spec_with_a_byte_order_mark_reads_as_without(capsys, tmp_path) -> None:
    spec = tmp_path / "bom.toml"
    spec.write_bytes(b"\xef\xbb\xbf" + Path(A3).read_bytes())
    for argv in (("fold",), ("report", "--format", "table")):
        code, plain, _ = run_cli(capsys, argv[0], A3, *argv[1:])
        assert code == 0
        code, out, err = run_cli(capsys, argv[0], str(spec), *argv[1:])
        assert (code, err) == (0, "")
        assert out == plain


@pytest.mark.parametrize(
    "word",
    ["\u0661 \u0662 = 1 2", "1 2 = \u0661 \u0662", "1_0 = 1", "1 = 1^\u0662"],
    ids=["arabic-left", "arabic-right", "underscore", "arabic-exponent"],
)
def test_braid_letters_take_ascii_digits_only(capsys, word) -> None:
    code, out, err = run_cli(capsys, "braid", A2, "--check", word)
    assert code == 2
    assert out == ""
    assert err.startswith("foldstab: error: bad braid letter")


def test_parse_error_position(capsys, tmp_path) -> None:
    bad = tmp_path / "bad.toml"
    bad.write_text("[quiver]\nvertices = [1\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "fold", str(bad))
    assert code == 2
    assert "line 2" in err


def test_dot_unsupported_for_classify(capsys) -> None:
    with pytest.raises(SystemExit) as exc:
        main(["classify", A3, "--format", "dot"])
    assert exc.value.code == 2
    assert "argument --format: invalid choice: 'dot'" in capsys.readouterr().err


@pytest.mark.parametrize("command", COMMANDS)
def test_parser_offers_each_command_only_its_own_flags(capsys, command) -> None:
    parser = build_parser()
    extras = (
        (("--fold",), command in FOLD_COMMANDS),
        (("--format", "dot"), command in DOT_COMMANDS),
        (("--check", "1 = 1"), command == "braid"),
    )
    for extra, accepted in extras:
        argv = [command, A3, *extra]
        if accepted:
            parser.parse_args(argv)
            continue
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("usage: foldstab") and "Traceback" not in err
        assert extra[-1] in err.splitlines()[-1]
    with pytest.raises(SystemExit) as exc:
        parser.parse_args([command, "--help"])
    assert exc.value.code == 0
    help_text = capsys.readouterr().out
    assert ("--fold" in help_text) == (command in FOLD_COMMANDS)
    assert ("{dot," in help_text) == (command in DOT_COMMANDS)
    assert ("--check" in help_text) == (command == "braid")


def test_jobs_validation(capsys) -> None:
    with pytest.raises(SystemExit) as exc:
        main(["fold", A3, "--jobs", "4"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --jobs 4" in capsys.readouterr().err


def test_unsupported_type_exit_code(capsys, tmp_path) -> None:
    spec = tmp_path / "kronecker.toml"
    spec.write_text(
        '[quiver]\nvertices = [1, 2]\narrows = ["a: 1 -> 2", "b: 1 -> 2"]\n',
        encoding="utf-8",
    )
    code, _, err = run_cli(capsys, "eg", str(spec))
    assert code == 3
    assert err.startswith("foldstab: error:")
    code, _, _ = run_cli(capsys, "classify", str(spec))
    assert code == 3
    code, _, _ = run_cli(capsys, "fold", str(spec))
    assert code == 0


def linear_a_spec(tmp_path, n: int) -> str:
    spec = tmp_path / f"a{n}.toml"
    arrows = ", ".join(f'"a{v}: {v} -> {v + 1}"' for v in range(1, n))
    spec.write_text(f"[quiver]\nvertices = {list(range(1, n + 1))}\narrows = [{arrows}]\n", encoding="utf-8")
    return str(spec)


def test_catalog_guard_refuses_a12_before_any_walk(capsys, monkeypatch, tmp_path) -> None:
    """A12, and A80 as well, are refused from the type alone: no root
    closure and no walk starts."""
    import foldstab

    def no_walk(*args):
        raise AssertionError("the exchange graph walk started")

    def no_roots(*args):
        raise AssertionError("the positive roots were closed")

    # Without the guard the walk would visit 742,900 hearts; fail fast instead.
    # On A80 the root closure alone takes about a second.
    monkeypatch.setattr(foldstab.cli, "build_interval_eg", no_walk)
    monkeypatch.setattr(foldstab.cli, "build_folded_eg", no_walk)
    for module in (foldstab.quiver, foldstab.reps, foldstab.braid):
        monkeypatch.setattr(module, "positive_roots", no_roots)
    for n, hearts in ((12, 742900), (80, 4462290049988320482463241297506133183499654740)):
        spec = linear_a_spec(tmp_path, n)
        for argv in (("eg",), ("eg", "--fold"), ("classify",)):
            start = time.perf_counter()
            code, out, err = run_cli(capsys, argv[0], spec, *argv[1:])
            assert time.perf_counter() - start < 1.0
            assert (code, out) == (3, "")
            assert err == f"foldstab: error: A{n} has {hearts} hearts; the limit is E8's 25080\n"


def test_braid_check_on_a12_spaces_letters(capsys, tmp_path) -> None:
    code, out, err = run_cli(capsys, "braid", linear_a_spec(tmp_path, 12), "--check", "12 = 1 2")
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "ambient type: A12",
        "check: 12 = 1 2",
        "lhs normal form: 12",
        "rhs normal form: 1 2",
        "FAILED",
    ]


def test_out_writes_file(capsys, tmp_path) -> None:
    target = tmp_path / "fold.txt"
    code, out, _ = run_cli(capsys, "fold", A3, "--out", str(target))
    assert code == 0
    assert out == ""
    _, direct, _ = run_cli(capsys, "fold", A3)
    assert target.read_text(encoding="utf-8") == direct


def test_out_to_missing_directory(capsys, tmp_path) -> None:
    target = tmp_path / "missing" / "fold.txt"
    code, out, err = run_cli(capsys, "fold", A3, "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith(f"foldstab: error: cannot write {target}")
    assert not target.parent.exists()


def test_full_stdout_exits_2_without_traceback(child_env) -> None:
    if not os.path.exists("/dev/full"):
        pytest.skip("/dev/full is not available")
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "foldstab", "fold", A3],
            stdout=full,
            stderr=subprocess.PIPE,
            text=True,
            env=child_env(os.environ),
        )
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("foldstab: error: cannot write stdout: ")
    assert "Traceback" not in proc.stderr


def test_e6_exchange_graphs_count_w_catalan(capsys) -> None:
    code, out, _ = run_cli(capsys, "eg", E6, "--format", "table")
    assert code == 0
    assert out.startswith("hearts: 833 (F-stable: 105)\n")
    code, out, _ = run_cli(capsys, "eg", E6, "--fold", "--format", "table")
    assert code == 0
    assert out.startswith("hearts: 105 (F-stable: 105)\n")


def test_inadmissible_automorphism(capsys, tmp_path) -> None:
    spec = tmp_path / "swap.toml"
    spec.write_text(
        '[quiver]\nvertices = [1, 2]\narrows = ["a: 1 -> 2"]\n\n'
        '[automorphism]\nvertex_perm = "(1 2)"\n',
        encoding="utf-8",
    )
    code, _, err = run_cli(capsys, "fold", str(spec))
    assert code == 2
    assert err.startswith("foldstab: error:")


def test_entry_point_runs(child_env) -> None:
    env = child_env(os.environ)
    proc = subprocess.run(
        [sys.executable, "-m", "foldstab", "fold", A3],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "folded type: B2"
    if shutil.which("foldstab") is None:
        pytest.skip("console script 'foldstab' is not on PATH; pip install creates it")
    script = subprocess.run(
        ["foldstab", "fold", A3], capture_output=True, text=True, env=env
    )
    assert script.returncode == 0
    assert script.stdout == proc.stdout


def test_import_loads_every_traced_layer_and_no_dataclasses(child_env) -> None:
    """Every command starts by importing foldstab.cli.  That import must load
    all the layers perfbench/tracer.py wraps (it wraps them right after the
    import), and none of the modules that cost start-up time and that most
    commands never use: dataclasses and its inspect, fractions with decimal
    and numbers (only the Fraction routines of linalg import it), and json
    (only --format json imports it)."""
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, foldstab.cli; print(*sys.modules)"],
        capture_output=True,
        text=True,
        env=child_env(os.environ),
        check=True,
    )
    loaded = set(proc.stdout.split())
    assert not {"dataclasses", "inspect", "fractions", "decimal", "numbers", "json"} & loaded
    assert len(tracer.LAYERS) == 9
    assert {f"foldstab.{layer}" for layer in tracer.LAYERS} <= loaded
    for layer, attr in tracer.SPANNED:
        functools.reduce(getattr, attr.split("."), importlib.import_module(f"foldstab.{layer}"))


def test_module_entry_writes_what_main_writes_and_exits_with_its_code(
    capsysbinary, child_env, tmp_path
) -> None:
    """`python -m foldstab` ends with os._exit once main has returned and the
    output is flushed; nothing of the output or the exit code may be lost."""
    env = child_env(os.environ)

    def child(*argv: str) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, "-m", "foldstab", *argv], capture_output=True, env=env)

    for spec in (A3, D4_ROT):
        for command in COMMANDS:
            for fmt in ("dot", "json", "table") if command in DOT_COMMANDS else ("json", "table"):
                argv = (command, spec, "--format", fmt)
                assert main(list(argv)) == 0
                proc = child(*argv)
                assert (proc.returncode, proc.stdout, proc.stderr) == (0, capsysbinary.readouterr().out, b""), argv
    target = tmp_path / "report.json"
    proc = child("report", D4_ROT, "--out", str(target))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")
    main(["report", D4_ROT])
    assert target.read_bytes() == capsysbinary.readouterr().out
    assert child("fold", str(tmp_path / "missing.toml")).returncode == 2
    kronecker = tmp_path / "kronecker.toml"
    kronecker.write_text('[quiver]\nvertices = [1, 2]\narrows = ["a: 1 -> 2", "b: 1 -> 2"]\n', encoding="utf-8")
    proc = child("eg", str(kronecker))
    assert proc.returncode == 3
    assert proc.stderr.startswith(b"foldstab: error:")
    with pytest.raises(SystemExit) as exc:
        main(["nonsense", A3])
    assert exc.value.code == 2
    proc = child("nonsense", A3)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, b"", capsysbinary.readouterr().err)


def test_repeat_runs_byte_identical(child_env) -> None:
    first = subprocess.run(
        [sys.executable, "-m", "foldstab", "report", D4_ROT],
        capture_output=True,
        env=child_env({"PYTHONHASHSEED": "1", "PATH": "/usr/bin:/bin"}),
    )
    second = subprocess.run(
        [sys.executable, "-m", "foldstab", "report", D4_ROT],
        capture_output=True,
        env=child_env({"PYTHONHASHSEED": "77", "PATH": "/usr/bin:/bin"}),
    )
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def test_one_process_classifies_each_graph_afresh(capsys, child_env) -> None:
    """A5 then A1 in one process print what fresh processes print: nothing
    that one graph's classification keeps reaches the next graph."""
    runs = [(spec, command) for spec in (A5, A1) for command in (("classify",), ("report", "--format", "table"))]
    fresh = [
        subprocess.run(
            [sys.executable, "-m", "foldstab", command[0], spec, *command[1:]],
            capture_output=True, text=True, env=child_env(os.environ), check=True,
        ).stdout
        for spec, command in runs
    ]
    for (spec, command), expected in zip(runs, fresh):
        code, out, _ = run_cli(capsys, command[0], spec, *command[1:])
        assert code == 0
        assert out == expected, (spec, command)
