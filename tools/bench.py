"""Wall time and peak RSS of every foldstab command on every fixture.

    python tools/bench.py OUT.json [--tree NAME=DIR ...] [--spec PATH ...] [--repeat N]

Each case is one command line: a command, a format and, where the command
takes it, --fold, on one spec file.  Every run is a fresh
``python -m foldstab`` child with the tree's ``src`` on PYTHONPATH, and its
stdout and stderr go to files, which are hashed and never read into memory.
Wall time is taken around the child; peak RSS is the child's ``ru_maxrss``
from ``os.wait4``.  On Linux a child's ``ru_maxrss`` starts at the RSS of
the process that forked it, and this script is larger than a small
``foldstab`` run.  So one lean launcher process, which imports nothing but
``os``, ``sys`` and ``time``, forks every child and times it.  The children
run as a plain interpreter does, with a bytecode cache and buffered stdout:
PYTHONDONTWRITEBYTECODE and PYTHONUNBUFFERED are dropped from their
environment, and one unmeasured run per tree writes the cache.

Each tree is a checkout: NAME=DIR runs DIR/src, and the default is this
checkout as "change".  With several trees, every case runs once per tree in
each repeat, in turns whose order alternates, so the trees see the host at
the same speed.  OUT gets, per case and tree, the median and minimum wall
time, the median peak RSS, the exit code, and sha256 digests of stdout and
stderr; cases whose output differs between trees are listed.  It needs
nothing beyond the standard library.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (command, formats, whether it takes --fold), as the command line offers them.
COMMANDS = (
    ("fold", ("dot", "json", "table"), False),
    ("eg", ("dot", "json", "table"), True),
    ("classify", ("json", "table"), True),
    ("braid", ("json", "table"), False),
    ("report", ("json", "table"), True),
)


def cases(specs: list[Path]) -> list[tuple[str, tuple[str, ...]]]:
    """(spec stem, foldstab arguments) of every case, in a fixed order."""
    out = []
    for spec in specs:
        for command, formats, folds in COMMANDS:
            for fmt in formats:
                for fold in ((), ("--fold",)) if folds else ((),):
                    out.append((spec.stem, (command, str(spec), "--format", fmt, *fold)))
    return out


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


# Reads one run per line (stdout file, stderr file, src, foldstab arguments,
# tab-separated) and answers "wall_s ru_maxrss_kib exit_code".
LAUNCHER = r"""
import os, sys, time
for name in ("PYTHONDONTWRITEBYTECODE", "PYTHONUNBUFFERED"):
    os.environ.pop(name, None)
for line in sys.stdin:
    out, err, src, *args = line.rstrip("\n").split("\t")
    os.environ["PYTHONPATH"] = src
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            os.dup2(os.open(out, os.O_WRONLY | os.O_CREAT | os.O_TRUNC), 1)
            os.dup2(os.open(err, os.O_WRONLY | os.O_CREAT | os.O_TRUNC), 2)
            os.execv(sys.executable, [sys.executable, "-m", "foldstab", *args])
        finally:
            os._exit(127)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    print(wall, usage.ru_maxrss, os.waitstatus_to_exitcode(status), flush=True)
"""


def run_once(launcher: subprocess.Popen, src: Path, args: tuple[str, ...], tmpdir: str) -> dict:
    """One fresh child: wall seconds, peak RSS in MB, exit code and output digests."""
    out_path, err_path = os.path.join(tmpdir, "stdout"), os.path.join(tmpdir, "stderr")
    launcher.stdin.write("\t".join((out_path, err_path, str(src), *args)) + "\n")
    launcher.stdin.flush()
    wall, rss_kib, code = launcher.stdout.readline().split()
    return {
        "wall_s": float(wall),
        "peak_rss_mb": int(rss_kib) / 1024,  # KiB on Linux
        "exit": int(code),
        "stdout_sha256": _sha256(out_path),
        "stderr_sha256": _sha256(err_path),
    }


def measure(trees: dict[str, Path], specs: list[Path], repeat: int) -> dict:
    results = []
    with tempfile.TemporaryDirectory() as tmpdir, subprocess.Popen(
        [sys.executable, "-c", LAUNCHER], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
    ) as launcher:
        for tree in trees.values():
            run_once(launcher, tree / "src", cases(specs)[0][1], tmpdir)
        for stem, args in cases(specs):
            runs: dict[str, list[dict]] = {name: [] for name in trees}
            for r in range(repeat):
                order = list(trees) if r % 2 == 0 else list(reversed(trees))
                for name in order:
                    runs[name].append(run_once(launcher, trees[name] / "src", args, tmpdir))
            row = {"spec": stem, "args": [args[0], *args[2:]], "trees": {}}
            for name, rs in runs.items():
                walls = [r["wall_s"] for r in rs]
                row["trees"][name] = {
                    "wall_s": round(statistics.median(walls), 4),
                    "wall_s_min": round(min(walls), 4),
                    "peak_rss_mb": round(statistics.median(r["peak_rss_mb"] for r in rs), 1),
                    # Every run of a case must agree; a flaky one shows as null.
                    **{
                        key: rs[0][key] if all(r[key] == rs[0][key] for r in rs) else None
                        for key in ("exit", "stdout_sha256", "stderr_sha256")
                    },
                }
            results.append(row)
    keys = ("exit", "stdout_sha256", "stderr_sha256")
    differ = [
        f"{row['spec']} {' '.join(row['args'])}"
        for row in results
        if len({tuple(t[k] for k in keys) for t in row["trees"].values()}) > 1
    ]
    totals = {
        name: {
            "wall_s": round(sum(row["trees"][name]["wall_s"] for row in results), 3),
            "peak_rss_mb_max": max(row["trees"][name]["peak_rss_mb"] for row in results),
        }
        for name in trees
    }
    return {
        "schema": 1,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "repeat": repeat,
        "trees": list(trees),
        "totals": totals,
        "outputs_differ": differ,
        "cases": results,
    }


def dump(doc: dict) -> str:
    """The document as JSON with one line per case, so that files diff by case."""
    head = json.dumps({key: value for key, value in doc.items() if key != "cases"}, indent=1)
    cases_text = ",\n  ".join(json.dumps(case) for case in doc["cases"])
    return f'{head[:-2]},\n "cases": [\n  {cases_text}\n ]\n}}\n'


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", help="the JSON file to write, such as BENCH_<n>.json")
    parser.add_argument("--tree", action="append", metavar="NAME=DIR",
                        help="a checkout to measure (default: change=this checkout)")
    parser.add_argument("--spec", action="append", type=Path,
                        help="a spec file to run (default: specs/*.toml of this checkout)")
    parser.add_argument("--repeat", type=int, default=3, help="runs per case and tree (default: 3)")
    args = parser.parse_args(argv)
    trees = {}
    for item in args.tree or [f"change={ROOT}"]:
        name, sep, path = item.partition("=")
        if not sep or not (Path(path) / "src" / "foldstab").is_dir():
            parser.error(f"--tree {item!r}: expected NAME=DIR with DIR/src/foldstab")
        trees[name] = Path(path).resolve()
    specs = [p.resolve() for p in args.spec] if args.spec else sorted((ROOT / "specs").glob("*.toml"))
    doc = measure(trees, specs, max(1, args.repeat))
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(dump(doc))
    for name, total in doc["totals"].items():
        print(f"{name}: {total['wall_s']:.3f} s over {len(doc['cases'])} cases, "
              f"peak RSS up to {total['peak_rss_mb_max']} MB")
    if doc["outputs_differ"]:
        print(f"output differs between trees on {len(doc['outputs_differ'])} cases")
    return 0


if __name__ == "__main__":
    sys.exit(main())
