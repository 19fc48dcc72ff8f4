"""Garside normal forms for Artin braid groups of finite Coxeter systems.

Elements of the Coxeter group are integer matrices in the reflection
representation attached to a crystallographic Cartan matrix (for a quiver,
`quiver.cartan_matrix` in Dynkin order).  The group is never enumerated:
descents are sign tests on the roots of `quiver.positive_roots` (Bjorner-
Brenti, GTM 231, section 4.4), the longest element is a greedy product of
generators, and the group order comes from the root heights.  Braid words
(letters are generators or their inverses) are put into left-greedy normal
form Delta^k x_1 ... x_r; two words are equal in the braid group exactly
when their normal forms coincide.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .errors import InputError, UnsupportedTypeError, quote
from .linalg import IntMatrix, int_identity, mat_mul, mat_vec
from .quiver import (
    Automorphism,
    Quiver,
    cartan_matrix,
    dynkin_type,
    fold,
    folded_coxeter_exponents,
    positive_roots,
    valued_type_name,
)

def cartan_for_type(family: str, rank: int) -> IntMatrix:
    """Standard crystallographic Cartan matrices, short roots at the high end."""
    c = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]

    def bond(i, j, down=1, up=1):
        c[i][j] = -down
        c[j][i] = -up

    if family == "A":
        for i in range(rank - 1):
            bond(i, i + 1)
    elif family in ("B", "C"):
        if rank < 2:
            raise UnsupportedTypeError(f"{family}{rank} is not a valid type")
        for i in range(rank - 2):
            bond(i, i + 1)
        if family == "B":
            bond(rank - 2, rank - 1, down=2, up=1)
        else:
            bond(rank - 2, rank - 1, down=1, up=2)
    elif family == "D":
        if rank < 3:
            raise UnsupportedTypeError(f"D{rank} is not a valid type")
        for i in range(rank - 2):
            bond(i, i + 1)
        bond(rank - 3, rank - 1)
    elif family == "E":
        if rank not in (6, 7, 8):
            raise UnsupportedTypeError(f"E{rank} is not a valid type")
        for i in range(rank - 2):
            bond(i, i + 1)
        bond(2, rank - 1)
    elif family == "F":
        if rank != 4:
            raise UnsupportedTypeError("only F4 exists")
        bond(0, 1)
        bond(1, 2, down=2, up=1)
        bond(2, 3)
    elif family == "G":
        if rank != 2:
            raise UnsupportedTypeError("only G2 exists")
        bond(0, 1, down=3, up=1)
    else:
        raise UnsupportedTypeError(f"unknown family {family!r}")
    return tuple(tuple(row) for row in c)


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
        gens = []
        for i in range(n):
            m = [[1 if r == s else 0 for s in range(n)] for r in range(n)]
            for j in range(n):
                m[i][j] -= cartan[i][j]
            gens.append(tuple(tuple(row) for row in m))
        self.gens: tuple[IntMatrix, ...] = tuple(gens)
        self.identity = int_identity(n)
        roots = positive_roots(cartan)
        self._two_rho = tuple(map(sum, zip(*roots)))
        # Roots by height form the partition dual to the exponents m_i
        # (Kostant), and |W| is the product of the degrees m_i + 1.
        by_height = Counter(map(sum, roots))
        self.order = 1
        for h, count in by_height.items():
            self.order *= (h + 1) ** (count - by_height.get(h + 1, 0))
        w = self.identity
        while True:
            up = next((s for s, col in enumerate(zip(*w)) if sum(col) > 0), None)
            if up is None:
                break
            w = mat_mul(w, self.gens[up])
        self.w0: IntMatrix = w

    @classmethod
    def from_quiver(cls, q: Quiver) -> tuple["CoxeterSystem", dict[int, int]]:
        """System of the underlying Dynkin diagram plus vertex -> slot map."""
        _, _, order = dynkin_type(q)
        c = cartan_matrix(q)
        idx = [q.vertex_index[v] for v in order]
        system = cls(tuple(tuple(c[i][j] for j in idx) for i in idx))
        return system, {v: i for i, v in enumerate(order)}

    @classmethod
    def from_type(cls, family: str, rank: int) -> "CoxeterSystem":
        return cls(cartan_for_type(family, rank))

    def left_descents(self, w: IntMatrix) -> tuple[int, ...]:
        w_rho = mat_vec(self.cartan, mat_vec(w, self._two_rho))
        return tuple(s for s, x in enumerate(w_rho) if x < 0)

    def right_descents(self, w: IntMatrix) -> tuple[int, ...]:
        return tuple(s for s, col in enumerate(zip(*w)) if sum(col) < 0)

    def tau(self, w: IntMatrix) -> IntMatrix:
        """Conjugation by the longest element; an involution on simples."""
        return mat_mul(mat_mul(self.w0, w), self.w0)

    def reduced_word(self, w: IntMatrix) -> tuple[int, ...]:
        letters = []
        while w != self.identity:
            s = min(self.left_descents(w))
            letters.append(s)
            w = mat_mul(self.gens[s], w)
        return tuple(letters)


@dataclass(frozen=True)
class GarsideNF:
    """Left-greedy form Delta^power x_1 ... x_r with nontrivial simples x_i."""

    power: int
    factors: tuple[IntMatrix, ...]

    def is_trivial(self) -> bool:
        return self.power == 0 and not self.factors


def _renormalize(system: CoxeterSystem, factors: list[IntMatrix]) -> list[IntMatrix]:
    changed = True
    while changed:
        changed = False
        for i in range(len(factors) - 1):
            x, y = factors[i], factors[i + 1]
            while True:
                right = set(system.right_descents(x))
                move = next((s for s in system.left_descents(y) if s not in right), None)
                if move is None:
                    break
                x = mat_mul(x, system.gens[move])
                y = mat_mul(system.gens[move], y)
                changed = True
            factors[i], factors[i + 1] = x, y
        factors = [f for f in factors if f != system.identity]
    return factors


def normal_form(system: CoxeterSystem, word) -> GarsideNF:
    """Left-greedy normal form of a braid word.

    The word is a sequence of (generator slot, +1 or -1) letters.
    """
    power = 0
    factors: list[IntMatrix] = []
    for slot, exp in word:
        if not 0 <= slot < system.rank:
            raise InputError(f"generator slot {quote(slot)} out of range")
        g = system.gens[slot]
        if exp == 1:
            factors.append(g)
        elif exp == -1:
            power -= 1
            factors = [system.tau(f) for f in factors]
            comp = mat_mul(system.w0, g)
            if comp != system.identity:
                factors.append(comp)
        else:
            raise InputError("letter exponent must be +1 or -1")
        factors = _renormalize(system, factors)
        while factors and factors[0] == system.w0:
            power += 1
            factors.pop(0)
    return GarsideNF(power, tuple(factors))


def words_equal(system: CoxeterSystem, u, v) -> bool:
    return normal_form(system, u) == normal_form(system, v)


def parse_word(text: str) -> tuple[tuple[int, int], ...]:
    """Parse letters like '1 2 1^-1' into 0-based (slot, exponent) pairs."""
    out = []
    for tok in text.replace(",", " ").split():
        base, caret, e = tok.partition("^")
        try:
            slot, exp = int(base), (int(e) if caret else 1)
        except ValueError:
            raise InputError(f"bad braid letter {quote(tok)}") from None
        if slot < 1:
            raise InputError("generators are numbered from 1")
        sign = 1 if exp > 0 else -1
        out.extend([(slot - 1, sign)] * abs(exp))
    return tuple(out)


def render_nf(system: CoxeterSystem, nf: GarsideNF) -> str:
    parts = []
    if nf.power:
        parts.append(f"D^{nf.power}" if nf.power != 1 else "D")
    for f in nf.factors:
        parts.append("".join(str(s + 1) for s in system.reduced_word(f)))
    return " . ".join(parts) if parts else "e"


@dataclass(frozen=True)
class RelationCheck:
    source_orbit: str
    target_orbit: str
    exponent: int
    holds: bool
    lhs_nf: str
    rhs_nf: str


def orbit_words(q: Quiver, s: Automorphism, slot_of: dict[int, int]) -> dict[str, tuple[int, ...]]:
    """Each orbit maps to the slots of its members, ascending by vertex id."""
    vq = fold(q, s)
    return {ov.name: tuple(slot_of[v] for v in ov.members) for ov in vq.vertices}


def verify_folded_relations(q: Quiver, s: Automorphism) -> tuple[tuple[RelationCheck, ...], str | None]:
    """Check the folded braid relations inside the ambient braid group.

    For every pair of vertex orbits the folded exponent m is read off the
    valued quiver; the two alternating products of m orbit generators must
    agree.  Returns the per-pair results (with rendered normal forms) and
    the folded type name.
    """
    vq = fold(q, s)
    exponents = folded_coxeter_exponents(vq)
    system, slot_of = CoxeterSystem.from_quiver(q)
    words = orbit_words(q, s, slot_of)
    checks = []
    names = [ov.name for ov in vq.vertices]
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            m = exponents.get((min(a, b), max(a, b)), 2)
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
    return tuple(checks), valued_type_name(vq)


def twist_k_matrix(v: tuple[int, ...], form: tuple[tuple[int, ...], ...]) -> IntMatrix:
    """Matrix of the reflection-like twist x -> x + v (v^T E x) on classes."""
    n = len(v)
    ve = tuple(sum(v[k] * form[k][j] for k in range(n)) for j in range(n))
    return tuple(
        tuple((1 if i == j else 0) + v[i] * ve[j] for j in range(n)) for i in range(n)
    )
