"""Smoke test of tools/bench.py on the smallest fixture."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from test_stdout_digests import DIGESTS

ROOT = Path(__file__).resolve().parent.parent


def test_bench_script_runs_every_case_of_a1(tmp_path) -> None:
    out = tmp_path / "bench.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "bench.py"), str(out),
         "--spec", str(ROOT / "specs" / "a1_trivial.toml"), "--repeat", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["trees"] == ["change"] and doc["outputs_differ"] == []
    # fold 3 formats, eg 3 x 2, classify 2 x 2, braid 2, report 2 x 2
    assert len(doc["cases"]) == 19
    args = {tuple(case["args"]): case["trees"]["change"] for case in doc["cases"]}
    assert ("report", "--format", "table", "--fold") in args and ("fold", "--format", "dot") in args
    for run in args.values():
        assert run["exit"] == 0
        assert run["wall_s"] > 0 and run["peak_rss_mb"] > 1
    assert args["classify", "--format", "table"]["stdout_sha256"] == DIGESTS["a1_trivial", "classify"]
