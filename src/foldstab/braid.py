"""Garside normal forms for Artin braid groups of finite Coxeter systems.

Elements of the Coxeter group are integer matrices in the reflection
representation attached to a crystallographic Cartan matrix (for a quiver,
`quiver.cartan_matrix` in Dynkin order).  The group is never enumerated:
descents are sign tests on the roots of `quiver.positive_roots` (Bjorner-
Brenti, GTM 231, section 4.4), the longest element is a greedy product of
generators, and the group order comes from the root heights.  A product
with a generator is a row or column update, and conjugation by the longest
element permutes rows and columns.  Braid words (letters are generators or
their inverses) are put into left-greedy normal form Delta^k x_1 ... x_r
one letter at a time, renormalising from the right end only; two words are
equal in the braid group exactly when their normal forms coincide.
"""

from __future__ import annotations

from math import prod
from operator import mul
from typing import NamedTuple

from .errors import InputError, UnsupportedTypeError, quote
from .linalg import IntMatrix, int_identity
from .quiver import (
    Quiver,
    ValuedQuiver,
    cartan_for_type,
    cartan_matrix,
    dynkin_type,
    folded_cartan,
    positive_roots,
    weyl_degrees,
)
from .specfile import ascii_int

# Coxeter exponent m of a pair of simples from the product c_ij * c_ji.
_EXPONENT = {0: 2, 1: 3, 2: 4, 3: 6}

# Most letters a braid word may expand to; a larger exponent sum is refused
# before the word is built.
MAX_WORD_LETTERS = 100_000


class CoxeterSystem:
    """A finite Coxeter group in its reflection representation.

    Column s of w is w(alpha_s), so s is a right descent iff that column is
    negative.  s is a left descent iff w^-1(alpha_s) < 0, i.e. iff
    (alpha_s, w 2rho) < 0 in the W-invariant form B = D . C, where 2rho, the
    sum of the positive roots, has C . 2rho = (2, ..., 2).  D is a positive
    diagonal, so that is the sign of row s of C . w . 2rho.
    """

    def __init__(self, cartan: IntMatrix):
        self.cartan = cartan
        self.rank = len(cartan)
        n = self.rank
        # The nonzero entries (k, c_tk) of row t of C: s_t touches only these.
        self._bonds = tuple(tuple((k, c) for k, c in enumerate(row) if c) for row in cartan)
        self.identity = int_identity(n)
        self.gens: tuple[IntMatrix, ...] = tuple(self.gen_times(t, self.identity) for t in range(n))
        roots = positive_roots(cartan)
        self._two_rho = tuple(map(sum, zip(*roots)))
        self.order = prod(weyl_degrees(roots))
        w = self.identity
        while True:
            up = next((s for s, col in enumerate(zip(*w)) if sum(col) > 0), None)
            if up is None:
                break
            w = self.times_gen(w, up)
        self.w0: IntMatrix = w
        # w0 = -P_sigma: w0(alpha_i) = -alpha_sigma(i), and sigma is an involution.
        self.sigma = tuple(col.index(-1) for col in zip(*w))

    @classmethod
    def from_quiver(
        cls, q: Quiver, order: tuple[int, ...] | None = None
    ) -> tuple["CoxeterSystem", dict[int, int]]:
        """System of the underlying Dynkin diagram plus vertex -> slot map.
        The slots follow `order`, by default the one `dynkin_type` gives."""
        if order is None:
            _, _, order = dynkin_type(q)
        c = cartan_matrix(q)
        idx = [q.vertex_index[v] for v in order]
        system = cls(tuple(tuple(c[i][j] for j in idx) for i in idx))
        return system, {v: i for i, v in enumerate(order)}

    @classmethod
    def from_type(cls, family: str, rank: int) -> "CoxeterSystem":
        return cls(cartan_for_type(family, rank))

    def times_gen(self, w: IntMatrix, t: int) -> IntMatrix:
        """w . s_t: column j loses c_tj times column t, so only rows that are
        nonzero in column t change."""
        out = []
        for row in w:
            a = row[t]
            if a:
                row = list(row)
                for j, c in self._bonds[t]:
                    row[j] -= c * a
                row = tuple(row)
            out.append(row)
        return tuple(out)

    def gen_times(self, t: int, w: IntMatrix) -> IntMatrix:
        """s_t . w: only row t changes, to row t - sum_k c_tk row k."""
        row = list(w[t])
        for k, c in self._bonds[t]:
            for j, x in enumerate(w[k]):
                row[j] -= c * x
        return w[:t] + (tuple(row),) + w[t + 1:]

    def left_descents(self, w: IntMatrix) -> tuple[int, ...]:
        w_rho = [sum(map(mul, row, self._two_rho)) for row in w]
        return tuple(s for s, row in enumerate(self.cartan) if sum(map(mul, row, w_rho)) < 0)

    def right_descents(self, w: IntMatrix) -> tuple[int, ...]:
        return tuple(s for s, col in enumerate(zip(*w)) if sum(col) < 0)

    def tau(self, w: IntMatrix) -> IntMatrix:
        """Conjugation by the longest element, w0 w w0 = P_sigma w P_sigma:
        entry (i, j) of the result is entry (sigma i, sigma j) of w."""
        sigma = self.sigma
        return tuple(tuple(w[i][j] for j in sigma) for i in sigma)

    def reduced_word(self, w: IntMatrix) -> tuple[int, ...]:
        letters = []
        while w != self.identity:
            s = min(self.left_descents(w))
            letters.append(s)
            w = self.gen_times(s, w)
        return tuple(letters)


class GarsideNF(NamedTuple):
    """Left-greedy form Delta^power x_1 ... x_r with nontrivial simples x_i."""

    power: int
    factors: tuple[IntMatrix, ...]

    def is_trivial(self) -> bool:
        return self.power == 0 and not self.factors


# A factor of a form under construction, with its left and right descents.
_Factor = tuple[IntMatrix, tuple[int, ...], tuple[int, ...]]


def _renormalize(system: CoxeterSystem, factors: list[_Factor]) -> None:
    """Make the form left-weighted again after a simple was appended.

    Only the last pair can fail R(x) >= L(y).  Moving letters from y to x
    until it holds keeps the pair right of (x, y) left-weighted and can
    spoil only the pair to its left (Epstein et al., Word Processing in
    Groups, ch. 9), so the walk goes left until a pair needs no move.
    """
    i = len(factors) - 1
    while i > 0:
        x, _, rx = factors[i - 1]
        y, ly, _ = factors[i]
        move = next((s for s in ly if s not in rx), None)
        if move is None:
            return
        while move is not None:
            x, y = system.times_gen(x, move), system.gen_times(move, y)
            rx, ly = system.right_descents(x), system.left_descents(y)
            move = next((s for s in ly if s not in rx), None)
        factors[i - 1] = (x, system.left_descents(x), rx)
        factors[i] = (y, ly, system.right_descents(y))
        i -= 1


def normal_form(system: CoxeterSystem, word) -> GarsideNF:
    """Left-greedy normal form of a braid word.

    The word is a sequence of (generator slot, +1 or -1) letters.  A letter
    s^-1 cancels s when s is a right descent of the last factor.  Otherwise
    it is Delta^-1 (w0 s), and moving Delta^-1 to the front applies tau to
    every factor.  So the factors are kept in the frame tau^twisted, which
    maps left-weighted pairs to left-weighted pairs, and tau is applied once
    at the end.
    """
    n = system.rank
    power = 0
    twisted = False
    factors: list[_Factor] = []
    for slot, exp in word:
        if not 0 <= slot < n:
            raise InputError(f"generator slot {quote(slot)} out of range")
        t = system.sigma[slot] if twisted else slot
        if exp == 1:
            w = system.gens[t]
        elif exp == -1:
            if factors and t in factors[-1][2]:
                w = system.times_gen(factors.pop()[0], t)
            else:
                power -= 1
                twisted = not twisted
                w = system.gen_times(t, system.w0)  # s_t w0 = tau^twisted(w0 s_slot)
        else:
            raise InputError("letter exponent must be +1 or -1")
        factors.append((w, system.left_descents(w), system.right_descents(w)))
        _renormalize(system, factors)
        # Only the last factor can empty out: every other one starts with a
        # right descent of the factor before it.  Only w0 has every simple
        # as a left descent.
        if not factors[-1][1]:
            factors.pop()
        while factors and len(factors[0][1]) == n:
            power += 1
            factors.pop(0)
    return GarsideNF(power, tuple(system.tau(w) if twisted else w for w, _, _ in factors))


def words_equal(system: CoxeterSystem, u, v) -> bool:
    return normal_form(system, u) == normal_form(system, v)


def parse_word(text: str) -> tuple[tuple[int, int], ...]:
    """Parse letters like '1 2 1^-1' into 0-based (slot, exponent) pairs.

    A word of more than MAX_WORD_LETTERS letters, exponents expanded, is an
    input error; the count is taken before anything is expanded.
    """
    powers = []
    for tok in text.replace(",", " ").split():
        base, caret, e = tok.partition("^")
        try:
            slot, exp = ascii_int(base), (ascii_int(e) if caret else 1)
        except ValueError:
            raise InputError(f"bad braid letter {quote(tok)}") from None
        if slot < 1:
            raise InputError("generators are numbered from 1")
        powers.append((slot, exp))
    letters = sum(abs(exp) for _, exp in powers)
    if letters > MAX_WORD_LETTERS:
        raise InputError(
            f"braid word has {quote(letters)} letters; the limit is {MAX_WORD_LETTERS}"
        )
    out = []
    for slot, exp in powers:
        out.extend([(slot - 1, 1 if exp > 0 else -1)] * abs(exp))
    return tuple(out)


def render_nf(system: CoxeterSystem, nf: GarsideNF) -> str:
    """Delta power, then each factor as a reduced word; from rank 10 on, the
    letters of a factor are spaced so that 12 and 1 2 differ."""
    sep = " " if system.rank >= 10 else ""
    parts = []
    if nf.power:
        parts.append(f"D^{nf.power}" if nf.power != 1 else "D")
    for f in nf.factors:
        parts.append(sep.join(str(s + 1) for s in system.reduced_word(f)))
    return " . ".join(parts) if parts else "e"


class RelationCheck(NamedTuple):
    source: str  # orbit names
    target: str
    exponent: int
    holds: bool
    lhs_nf: str
    rhs_nf: str


def orbit_words(vq: ValuedQuiver, slot_of: dict[int, int]) -> dict[str, tuple[int, ...]]:
    """Each orbit maps to the slots of its members, ascending by vertex id."""
    return {ov.name: tuple(slot_of[v] for v in ov.members) for ov in vq.vertices}


def verify_folded_relations(
    vq: ValuedQuiver, system: CoxeterSystem, slot_of: dict[int, int]
) -> tuple[RelationCheck, ...]:
    """Check the folded braid relations inside the ambient braid group.

    `vq` is the fold of Q, and `system` with `slot_of` is the Coxeter system
    of Q with its vertex -> slot map (`CoxeterSystem.from_quiver`).  For every
    pair of vertex orbits the folded exponent m is read off the product
    c_IJ c_JI of `folded_cartan`; the two alternating products of m orbit
    generators must agree.  Returns the per-pair results with rendered
    normal forms.
    """
    c = folded_cartan(vq)
    n = len(c)
    try:
        exponents = {(i, j): _EXPONENT[c[i][j] * c[j][i]] for i in range(n) for j in range(i + 1, n)}
    except KeyError:
        raise UnsupportedTypeError("fold is not of Dynkin shape") from None
    words = orbit_words(vq, slot_of)
    checks = []
    for (i, j), m in exponents.items():
        a, b = vq.vertices[i].name, vq.vertices[j].name
        lhs: list[tuple[int, int]] = []
        rhs: list[tuple[int, int]] = []
        for k in range(m):
            lhs.extend((slot, 1) for slot in words[a if k % 2 == 0 else b])
            rhs.extend((slot, 1) for slot in words[b if k % 2 == 0 else a])
        nf_l = normal_form(system, lhs)
        nf_r = normal_form(system, rhs)
        checks.append(
            RelationCheck(
                str(a), str(b), m, nf_l == nf_r,
                render_nf(system, nf_l), render_nf(system, nf_r),
            )
        )
    return tuple(checks)
