"""The four workloads: which ``foldstab`` commands run on which generated inputs.

``build`` writes a workload's spec files for one seed and returns one pass:
the ops in the order they run.  Every op carries the checker that judges its
output and the answers that checker expects.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

import gen

WORKLOADS = ("cells", "tilts", "coxeter", "words")

# Seconds one pass takes on a 2-core x86 box at the commit that defined the
# benchmark, counting both the program and the reference (run.py runs every
# op once on each).  A run makes max(1, round(seconds / PASS_S)) passes, so
# the work in a run depends on --seconds and never on how fast the program is.
PASS_S = {"cells": 22.0, "tilts": 24.0, "coxeter": 15.0, "words": 17.0}


@dataclass(frozen=True)
class Op:
    label: str
    args: tuple[str, ...]
    check: str  # a key of expect.CHECKERS
    expected: dict


def _folded_type(fold: str) -> tuple[str, str]:
    family, rank, _, folded = gen.FOLDS[fold]
    return f"{family}{rank}", folded


def _ops(rng: random.Random, workdir: str, jobs: list[tuple]) -> list[Op]:
    """Shuffle jobs (label, file stem, spec text, args, check, expected) into
    run order, write each spec file and append its path to the args."""
    rng.shuffle(jobs)
    out = []
    for index, (label, stem, text, args, check, expected) in enumerate(jobs):
        path = os.path.join(workdir, f"{index:02d}_{stem}.toml")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        out.append(Op(label, (*args, path), check, expected))
    return out


# One classify command and one report command per fold and pass.
_CLASSIFY_COMMANDS = (
    (("classify",), "classify_table", {"fold_charges": False}),
    (("classify", "--fold", "--format", "json"), "classify_json", {"fold_charges": True}),
)
_REPORT_COMMANDS = (
    (("report",), "report_json", {}),
    (("report", "--format", "table"), "report_table", {}),
)


def _cells(rng: random.Random, workdir: str) -> list[Op]:
    """A classify and a report on every working fold.

    The seed picks which classify command (table, or ``--fold`` json) and
    which report format each fold gets, and gives the two ops two distinct
    F-invariant orientations of the fold.
    """
    jobs = []
    for fold in ("a3_b2", "d4_g2", "d4_b3", "a5_c3"):
        family, rank, perm, _ = gen.FOLDS[fold]
        orientations = gen.invariant_orientations(family, rank, perm)
        rng.shuffle(orientations)
        commands = (rng.choice(_CLASSIFY_COMMANDS), rng.choice(_REPORT_COMMANDS))
        ambient, folded = _folded_type(fold)
        for (args, check, extra), orientation in zip(commands, orientations):
            text = gen.fold_spec(rng, fold, orientation)
            expected = dict(ambient=ambient, folded=folded, **extra)
            jobs.append((f"{' '.join(args)} {fold}", fold, text, args, check, expected))
    return _ops(rng, workdir, jobs)


def _tilts(rng: random.Random, workdir: str) -> list[Op]:
    """Plain exchange graphs of A5, A6, D5 and folded ones of three folds,
    each in both formats.  The formats need different memory, so a seeded
    choice of format would move peak_rss_mb from seed to seed."""
    jobs = []
    for family, rank in (("A", 5), ("A", 6), ("D", 5)):
        stem = f"{family.lower()}{rank}"
        for fmt in ("dot", "json"):
            args = ("eg", "--format", fmt)
            expected = dict(ambient=f"{family}{rank}", folded=None, kind="interval")
            jobs.append((f"eg --format {fmt} {stem}", stem, gen.plain_spec(rng, family, rank), args, f"eg_{fmt}", expected))
    for fold in ("a5_c3", "d5_b4", "a7_c4"):
        family, rank, perm, _ = gen.FOLDS[fold]
        orientations = gen.invariant_orientations(family, rank, perm)
        rng.shuffle(orientations)
        ambient, folded = _folded_type(fold)
        for fmt, orientation in zip(("dot", "json"), orientations):
            args = ("eg", "--fold", "--format", fmt)
            expected = dict(ambient=ambient, folded=folded, kind="folded")
            jobs.append((f"eg --fold --format {fmt} {fold}", fold, gen.fold_spec(rng, fold, orientation), args, f"eg_{fmt}", expected))
    return _ops(rng, workdir, jobs)


def _coxeter(rng: random.Random, workdir: str) -> list[Op]:
    """Plain ``braid`` on five folds, D6 -> B5 the largest (|W(D6)| = 23040).

    E6 -> F4 is left out to keep a run short: it takes about 18 s, and a
    run makes it twice, on the program and on the reference."""
    jobs = []
    for fold in ("d6_b5", "d5_b4", "d4_g2", "d4_b3", "a5_c3"):
        family, rank, perm, _ = gen.FOLDS[fold]
        text = gen.fold_spec(rng, fold, rng.choice(gen.invariant_orientations(family, rank, perm)))
        ambient, folded = _folded_type(fold)
        jobs.append((f"braid {fold}", fold, text, ("braid",), "braid_table", dict(ambient=ambient, folded=folded)))
    return _ops(rng, workdir, jobs)


WORD_LENGTH = 50
WORD_INVERSES = 10
WORDS_PER_TYPE = 2  # per pass: one equal pair and one unequal


def _words(rng: random.Random, workdir: str) -> list[Op]:
    """``braid --check`` on word pairs over A4, A5, D4 and D5.

    The braids are a constant corpus: random words drawn from a fixed seed.
    The run's seed writes each of them as two random words.  The normal-form
    work of a random 50-letter word varies by a factor of 4, so a corpus that
    changed with the seed would move the pass time more than the program
    does.  Two words for one braid vary about half as much.
    """
    corpus = random.Random("foldstab-bench:words:corpus")
    jobs = []
    for family, rank in (("A", 4), ("A", 5), ("D", 4), ("D", 5)):
        stem = f"{family.lower()}{rank}"
        for k in range(WORDS_PER_TYPE):
            base = gen.random_word(corpus, rank, WORD_LENGTH, WORD_INVERSES)
            equal = k % 2 == 0
            pair = gen.word_pair(rng, family, rank, base, equal)
            label = f"braid --check {stem} {'equal' if equal else 'unequal'}"
            expected = dict(ambient=f"{family}{rank}", equal=equal)
            jobs.append((label, stem, gen.plain_spec(rng, family, rank), ("braid", "--check", pair), "braid_check", expected))
    return _ops(rng, workdir, jobs)


_BUILDERS = {"cells": _cells, "tilts": _tilts, "coxeter": _coxeter, "words": _words}


def build(workload: str, seed: int, workdir: str) -> list[Op]:
    """One pass of ``workload`` for ``seed``; spec files go into ``workdir``."""
    rng = random.Random(f"foldstab-bench:{workload}:{seed}")
    return _BUILDERS[workload](rng, workdir)
