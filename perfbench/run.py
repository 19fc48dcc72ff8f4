"""foldstab benchmark: one closed-loop client running ``python -m foldstab`` ops.

    python3 perfbench/run.py --workload cells|tilts|coxeter|words \
        --seed N --seconds S --trace 0|1

Run it from the root of a foldstab checkout; the package is imported from
``src`` with no install.  Each op is a fresh child process, started after the
previous one ends, because every real invocation pays interpreter start,
import and all set-up.  A run makes max(1, round(S / pass seconds)) passes
over the op list that the seed generates (see workloads.py), checks every
output against independently known answers (expect.py), and prints as its
last line one JSON object with every metric by name and unit.

--trace 0 reports the end-to-end metrics.  Every op and every set-up sample
runs twice: on the program in ``src`` and on the reference, a frozen copy of
the program in ``reference/``.  The two take turns in 50 ms slices, so only
one runs at a time and both meet the host at the same speed.  The times
reported are the reference's times on the host that defined the benchmark
(REFERENCE_S), scaled by program / reference as measured in this run.  So a
change of the host's speed, within a run or between runs, cancels out, and
a change of the program's speed shows in full.

--trace 1 runs every op twice, untraced and then under tracer.py, requires
byte-identical stdout from the two, and reports the per-layer metrics plus
the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import expect  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

REFERENCE = os.path.join(HERE, "reference")

# The reference's times per workload on the 2-vCPU x86 VM that defined the
# benchmark, medians over seeds, rounded: wall and CPU seconds of one pass,
# and wall seconds of one set-up.
REFERENCE_S = {
    "cells": {"wall": 10.9, "cpu": 10.6, "setup": 0.100},
    "tilts": {"wall": 11.0, "cpu": 10.8, "setup": 0.080},
    "coxeter": {"wall": 7.4, "cpu": 7.2, "setup": 0.080},
    "words": {"wall": 8.2, "cpu": 8.1, "setup": 0.090},
}

SETUP_SAMPLES = 9  # set-up pairs in a run
# The program and the reference take turns in slices this long.
QUANTUM_S = 0.05
# A run must end within 180 s; ops still queued after this many are failed.
RUN_LIMIT_S = 160.0

SETUP_CODE = """\
import sys
import foldstab.cli
from foldstab.specfile import parse_quiver
for path in sys.argv[1:]:
    with open(path, encoding="utf-8") as fh:
        parse_quiver(fh.read())
"""


@dataclass
class Result:
    wall_s: float
    cpu_s: float
    rss_kb: int
    code: int
    stdout: bytes


class Runner:
    """Starts children one at a time and stops any that outlive the run."""

    def __init__(self, root: str, workdir: str):
        self.root = root
        self.workdir = workdir
        self.started = time.perf_counter()
        self.env = self._env(os.path.join(root, "src"))
        self.reference_env = self._env(REFERENCE)

    @staticmethod
    def _env(src: str) -> dict:
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        # Children run as a plain interpreter does: with a bytecode cache,
        # as an installed package has, and with buffered stdout.
        for name in ("PYTHONDONTWRITEBYTECODE", "PYTHONUNBUFFERED"):
            env.pop(name, None)
        return env

    def remaining(self) -> float:
        return RUN_LIMIT_S - (time.perf_counter() - self.started)

    def run(self, argv: list[str]) -> Result:
        out_path = os.path.join(self.workdir, "stdout")
        with open(out_path, "wb") as out, open(os.devnull, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env, stdout=out, stderr=err)
            timer = threading.Timer(max(self.remaining(), 0.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, "rb") as fh:
            stdout = fh.read()
        return Result(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, proc.returncode, stdout)

    def pair(self, argv: list[str], swap: bool) -> tuple[Result, Result]:
        """Run argv on the program and on the reference, taking turns.

        Only one of the two runs at any time: each runs for QUANTUM_S, is
        stopped with SIGSTOP and waits while the other runs, until both have
        ended.  A side's wall time is the sum of its turns.  So both meet
        the host at the same speed, even when that speed changes within
        seconds.  Each side is a process group of its own and the signals
        go to the group, so worker processes a side starts take turns too.
        The reference starts first when swap.  Returns (program, reference).
        """
        order = (True, False) if swap else (False, True)
        outs, procs, pidfds, results = {}, {}, {}, {}
        wall = dict.fromkeys(order, 0.0)
        try:
            with open(os.devnull, "wb") as err:
                turn = 0
                while len(results) < 2:
                    ref = order[turn % 2]
                    turn += 1
                    if ref in results:
                        continue
                    t0 = time.perf_counter()
                    if ref in procs:
                        os.killpg(procs[ref].pid, signal.SIGCONT)
                    else:
                        outs[ref] = open(os.path.join(self.workdir, f"stdout_{int(ref)}"), "w+b")
                        env = self.reference_env if ref else self.env
                        procs[ref] = subprocess.Popen(argv, cwd=self.root, env=env, stdout=outs[ref], stderr=err,
                                                      process_group=0)
                        pidfds[ref] = os.pidfd_open(procs[ref].pid)
                    alone = len(results) == 1
                    limit = max(self.remaining(), 0.0)
                    ready, _, _ = select.select([pidfds[ref]], [], [], limit if alone else min(QUANTUM_S, limit))
                    if not ready:
                        os.killpg(procs[ref].pid, signal.SIGKILL if self.remaining() <= 0 else signal.SIGSTOP)
                    _, status, usage = os.wait4(procs[ref].pid, os.WUNTRACED)
                    wall[ref] += time.perf_counter() - t0
                    if os.WIFSTOPPED(status):
                        continue
                    procs[ref].returncode = os.waitstatus_to_exitcode(status)
                    outs[ref].seek(0)
                    results[ref] = Result(wall[ref], usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
                                          procs[ref].returncode, outs[ref].read())
        finally:
            for ref, proc in procs.items():
                if ref not in results:
                    os.killpg(proc.pid, signal.SIGKILL)
                    proc.wait()
            for fd in pidfds.values():
                os.close(fd)
            for out in outs.values():
                out.close()
        return results[False], results[True]

    def foldstab(self, args: tuple[str, ...]) -> Result:
        return self.run([sys.executable, "-m", "foldstab", *args])

    def traced(self, args: tuple[str, ...], spans_path: str, op_id: int) -> Result:
        script = os.path.join(HERE, "tracer.py")
        return self.run([sys.executable, script, spans_path, str(op_id), "--", *args])


def log(line: str) -> None:
    print(line, flush=True)


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and its value.

    With n samples that is the (n - 10)-th smallest, percentile 100 (n - 10) / n.
    Below eleven samples no percentile qualifies and the maximum is reported
    as percentile 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def judge(op: workloads.Op, res: Result) -> str | None:
    if res.code != 0:
        return f"exit code {res.code}"
    return expect.check(op.check, res.stdout, **op.expected)


def setup_pair(runner: Runner, specs: list[str], swap: bool) -> tuple[float, float]:
    """Wall times, program and reference, of a fresh interpreter that imports
    foldstab and parses the specs, running no command."""
    res, ref = runner.pair([sys.executable, "-c", SETUP_CODE, *specs], swap)
    if res.code != 0 or ref.code != 0:
        raise SystemExit("set-up child failed: foldstab could not import or parse the specs")
    return res.wall_s, ref.wall_s


def end_to_end(runner: Runner, workload: str, passes: list[list[workloads.Op]]) -> tuple[dict, int, int]:
    """Time every op on the program and on the reference, with the set-up
    pairs spread evenly between the ops, so that set-up is sampled across
    the run and not in one stretch of it.  Which side runs first alternates."""
    specs = [op.args[-1] for op in passes[0]]
    total = sum(len(ops) for ops in passes)
    setup_before = Counter(k * total // SETUP_SAMPLES for k in range(SETUP_SAMPLES))
    setup_pairs = []
    pass_wall, pass_cpu, op_walls = [], [], []
    peak_kb = 0
    attempted = failed = 0

    for ops in passes:
        wall = cpu = ref_wall = ref_cpu = 0.0
        for op in ops:
            if runner.remaining() <= 0:
                attempted += 1
                failed += 1
                log(f"FAIL {op.label}: not started, run limit reached")
                continue
            for _ in range(setup_before[attempted]):
                setup_pairs.append(setup_pair(runner, specs, len(setup_pairs) % 2 == 1))
            res, ref = runner.pair([sys.executable, "-m", "foldstab", *op.args], attempted % 2 == 1)
            attempted += 1
            if ref.code != 0 and runner.remaining() > 0:
                raise SystemExit(f"the reference exited with code {ref.code} on {op.label}")
            why = judge(op, res)
            log(f"{res.wall_s:8.3f} s  {ref.wall_s:8.3f} s ref  {op.label}")
            if why:
                failed += 1
                log(f"FAIL {op.label}: {why}")
            wall += res.wall_s
            cpu += res.cpu_s
            ref_wall += ref.wall_s
            ref_cpu += ref.cpu_s
            op_walls.append(res.wall_s)
            peak_kb = max(peak_kb, res.rss_kb)
        if ref_wall:
            log(f"pass: {wall:.6g} s wall, {cpu:.6g} s cpu; reference {ref_wall:.6g} s wall, {ref_cpu:.6g} s cpu")
            pass_wall.append(wall / ref_wall)
            pass_cpu.append(cpu / ref_cpu)
    if not pass_wall:
        raise SystemExit("run limit reached before any op finished")
    if not setup_pairs:
        setup_pairs.append(setup_pair(runner, specs, False))
    pct, tail_s = tail(op_walls)
    log(f"ops: {len(op_walls)} samples; op_p50_s = {statistics.median(op_walls):.6g} s; "
        f"op_tail_s = {tail_s:.6g} s at p{pct:.1f}; passes: {len(passes)} (measured, not scaled)")
    log(f"failed_ratio: {failed}/{attempted}")
    setup_ratio = statistics.median(prog / ref for prog, ref in setup_pairs)
    log(f"set-up: {statistics.median(p for p, _ in setup_pairs):.6g} s; "
        f"reference {statistics.median(r for _, r in setup_pairs):.6g} s (medians, measured)")
    log(f"program / reference: wall {statistics.median(pass_wall):.6g}, cpu {statistics.median(pass_cpu):.6g}, "
        f"setup {setup_ratio:.6g} (median of {len(setup_pairs)})")
    scale = REFERENCE_S[workload]
    metrics = {
        "wall_s": (scale["wall"] * statistics.median(pass_wall), "s"),
        "cpu_s": (scale["cpu"] * statistics.median(pass_cpu), "s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
        "setup_s": (scale["setup"] * setup_ratio, "s"),
    }
    return metrics, attempted, failed


def per_layer(runner: Runner, passes: list[list[workloads.Op]]) -> tuple[dict, int, int]:
    attempted = failed = 0
    plain_wall = traced_wall = 0.0
    span_files = []
    op_id = 0
    for ops in passes:
        for op in ops:
            attempted += 1
            op_id += 1
            if runner.remaining() <= 0:
                failed += 1
                log(f"FAIL {op.label}: not started, run limit reached")
                continue
            plain = runner.foldstab(op.args)
            spans_path = os.path.join(runner.workdir, f"spans_{op_id:04d}.json")
            traced = runner.traced(op.args, spans_path, op_id)
            why = judge(op, plain)
            if not why and (traced.code, traced.stdout) != (plain.code, plain.stdout):
                why = "traced stdout differs from untraced"
            if why:
                failed += 1
                log(f"FAIL {op.label}: {why}")
            if os.path.exists(spans_path):
                span_files.append(spans_path)
            plain_wall += plain.wall_s
            traced_wall += traced.wall_s
    metrics = {
        name: (value / len(passes), unit) if unit in ("s", "count") else (value, unit)
        for name, (value, unit) in tracer.layer_metrics(span_files, attempted).items()
    }
    metrics["trace.overhead_ratio"] = ((traced_wall - plain_wall) / plain_wall if plain_wall else 0.0, "ratio")
    log(f"failed_ratio: {failed}/{attempted}")
    return metrics, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Stopped from outside, end the child in flight before exiting.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "foldstab", "cli.py")):
        print("run.py: no src/foldstab here; run from the root of a foldstab checkout", file=sys.stderr)
        return 2
    workdir = os.path.join("perfbench", ".work", f"{args.workload}-{args.seed}-{args.trace}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)

    try:
        ops = workloads.build(args.workload, args.seed, workdir)
        count = max(1, round(args.seconds / workloads.PASS_S[args.workload]))
        passes = [ops] * count
        runner = Runner(root, workdir)
        setup_pair(runner, [op.args[-1] for op in ops], False)  # writes the bytecode caches
        if args.trace:
            metrics, attempted, failed = per_layer(runner, passes)
        else:
            metrics, attempted, failed = end_to_end(runner, args.workload, passes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, (value, unit) in metrics.items():
        log(f"{name} = {value:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
