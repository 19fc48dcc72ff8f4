from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from foldstab.cli import main

SPECS = Path(__file__).resolve().parent.parent / "specs"
A3 = str(SPECS / "a3_flip.toml")
A2 = str(SPECS / "a2_chain.toml")
A1 = str(SPECS / "a1_trivial.toml")
D4_ROT = str(SPECS / "d4_triality.toml")
D4_SWAP = str(SPECS / "d4_swap.toml")
A5 = str(SPECS / "a5_flip.toml")
E6 = str(SPECS / "e6_fold.toml")


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
        assert report[key] == json_payload(capsys, cmd, spec, *flags), key


@pytest.mark.parametrize("flags", [(), ("--fold",)], ids=["interval", "folded"])
@pytest.mark.parametrize("spec", [A3, D4_ROT], ids=["a3_flip", "d4_triality"])
def test_report_table_sections_equal_standalone_tables(capsys, spec, flags) -> None:
    code, out, _ = run_cli(capsys, "report", spec, "--format", "table", *flags)
    assert code == 0
    sections = []
    for _, cmd, heading in REPORT_SECTIONS:
        code, table, _ = run_cli(capsys, cmd, spec, "--format", "table", *flags)
        assert code == 0
        sections.append(f"== {heading} ==\n{table}")
    assert out == "\n".join(sections)


@pytest.mark.parametrize("flags", [(), ("--fold",)], ids=["interval", "folded"])
def test_report_builds_each_artefact_once(capsys, monkeypatch, flags) -> None:
    import foldstab.cli as cli
    from foldstab.reps import Catalog

    calls = {"catalog": 0, "interval_eg": 0, "folded_eg": 0}
    catalog_init = Catalog.__init__

    def counting_init(self, *args, **kwargs):
        calls["catalog"] += 1
        catalog_init(self, *args, **kwargs)

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(Catalog, "__init__", counting_init)
    monkeypatch.setattr(cli, "build_interval_eg", counted("interval_eg", cli.build_interval_eg))
    monkeypatch.setattr(cli, "build_folded_eg", counted("folded_eg", cli.build_folded_eg))
    code, _, _ = run_cli(capsys, "report", A5, *flags)
    assert code == 0
    assert calls == {"catalog": 1, "interval_eg": 1, "folded_eg": len(flags)}


def test_missing_file(capsys) -> None:
    code, _, err = run_cli(capsys, "fold", "/nonexistent/x.toml")
    assert code == 2
    assert err.startswith("foldstab: error: cannot read")


def test_parse_error_position(capsys, tmp_path) -> None:
    bad = tmp_path / "bad.toml"
    bad.write_text("[quiver]\nvertices = [1\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "fold", str(bad))
    assert code == 2
    assert "line 2" in err


def test_dot_unsupported_for_classify(capsys) -> None:
    code, _, err = run_cli(capsys, "classify", A3, "--format", "dot")
    assert code == 2
    assert "no dot rendering" in err


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
