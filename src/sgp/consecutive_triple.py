"""Closed forms for semigroups generated by three consecutive integers.

Throughout, S = <a, a+1, a+2> with a >= 3.  Write ell_r = floor(r / a) and
eps_r = r mod a.  Then r is a member iff eps_r <= 2 * ell_r, and the vector

    phi_r = (ell_r - floor((eps_r + 1) / 2), eps_r mod 2, floor(eps_r / 2))

is a factorization of r whenever it is non-negative.  Any two
factorizations of the same element with equal length differ by a multiple
of omega = (-1, 2, -1), the trade of one a and one a+2 for two copies of
a+1.  A factorization (x, y, z) of length ell has y + 2z = e = r - a*ell
with 0 <= e <= 2*ell, so the lengths of r form the interval L(r) =
[ceil(r/(a+2)), floor(r/a)], empty exactly off S, and F(r) is one
omega-orbit per length: {phi + j*omega : 0 <= j <= min(phi_1, phi_3)}
of phi = (ell - ceil(e/2), e mod 2, floor(e/2)), and phi = phi_r at
ell = ell_r.  Below the threshold L_a (the least element with two
factorization lengths) L(r) = {ell_r}; write kappa_r = min(phi_1, phi_3).

The unique-length members are Ap(S, UBetti(S)).  Those of length ell
form the interval S^ell = {r : L(r) = {ell}} = [max(a*ell, (a+2)*ell -
a - 1), min(a*ell + a - 1, (a+2)*ell)], empty exactly when ell > a.
There e = eps_r < a, so phi_r is the box point (lam, mu, eta) of r: mu
in {0, 1}, 0 <= lam <= m_mu and 0 <= eta < m_mu for m_mu = floor(a/2) +
(a mod 2)(1 - mu), one point per member, m_0(m_0 + 1) + m_1(m_1 + 1) in
all.  The unbalanced Betti elements are the corners (m_0 + 1)a and
m_0(a+2) just outside the mu = 0 side, one element for even a; the
smaller is the threshold L_a.

Everything here is O(1) or O(a^2) arithmetic, or O(|F(r)|) to list F(r),
with no caching and no call into the generic engine, so the functions
are freely usable from concurrent code.  Every public function validates
a (and r) inline and then does only its arithmetic: the per-element ones
compare floor(r/a) with ceil(r/(a+2)) for L(r), take phi_r from one
divmod in their own frame, with no helper call, and L_a in O(1);
`factorizations_triple` and the triple's count walk L(r) in one loop,
down from ell_r with e up by a at each step; and `decompose_triple`
builds its record with `tuple.__new__`.  Over the 574 members below L_a
at a = 45, whose orbits hold 4.5 vectors on average, a call costs about
0.10 us for `member_triple`, 0.11 us for `ulf_membership_triple`, 0.20
us for `denumerant_triple`, 0.29 us for the count, 0.44 us for
`decompose_triple` and 1.1 us for `factorizations_triple`, against 0.065
us for the bare membership test in the same loop (best of 15, five runs,
2 cores, Python 3.11.7).  A helper frame for phi_r cost about 0.1 us a
call, and so did each call of the builtin `min` or `abs`, so the count,
`denumerant_triple` and `decompose_triple` compare phi_1 with phi_3
instead.  So `verify` calls each per-element form for every r at little
more than that arithmetic.  `seed` is the public view of phi_r.  The
generic counterparts in core_semigroup are the reference implementation.
This module imports nothing from the engine: its records come from
`records`, so its closed forms answer without loading `core_semigroup`.
"""

from collections import namedtuple
from itertools import chain
from operator import index

from .records import (  # NotMemberError re-exported: the closed forms raise it
    BettiClassification, Factorization, NotMemberError, Presentation,
    not_member)

# Trading one a and one a+2 for two copies of a+1 keeps the value fixed.
OMEGA = (-1, 2, -1)

_SUPERSCRIPTS = str.maketrans("0123456789", "⁰¹²³⁴⁵⁶⁷⁸⁹")


def _small_a(a):
    # raised after `if index(a) < 3:`, inline in every public function
    # (index() is the TypeError for a non-integer).  a = 1 gives N, with
    # unique factorizations, and a = 2 gives <2, 3>, where all lengths of
    # an element differ; the formulas here assume neither shape.
    return ValueError("need a >= 3, got %r" % (a,))


def _past_threshold(r, a):
    # the refusal of the forms defined only below the threshold L_a
    return ValueError("%d is not below the two-length threshold %d; use the "
                      "generic engine there" % (r, _threshold(a)))


def _m(a, mu):
    # the box bound m_mu of the module docstring
    return a // 2 + (a % 2) * (1 - mu)


def _threshold(a):
    # L_a = (m_0 + 1)a, the smaller unbalanced Betti corner; m_0 + 1 =
    # (a + 3) // 2
    return (a + 3) // 2 * a


def _ubetti(a):
    # the unbalanced Betti elements, ascending: the corners (m_0 + 1)a and
    # m_0(a+2), which coincide for even a
    lo, hi = _threshold(a), _m(a, 0) * (a + 2)
    return (lo,) if lo == hi else (lo, hi)


class TripleSemigroup:
    """<a, a+1, a+2> as a record: its constants and its answers.

    generators is (a, a+1, a+2), L the largest length realized below the
    threshold, D the largest denumerant there, frob the Frobenius number,
    ulf_bound the threshold L_a itself, ulf_size the number of
    unique-length members and table_size the cells of the partition
    table, each an O(1) property, so a build only checks a.
    It answers what `sgp` asks, in the engine's bytes: `info()`,
    `betti()` and `presentation()` in O(1), `factorization_count(r,
    cap)` in at most about 1500 steps for cap 10**6, walking L(r) as
    `factorizations_triple` does, `factorizations(r)` in O(|F(r)| log
    |L(r)|), lexicographic as the engine lists them, and `ulf_runs()`,
    (ulf_size, listing) in O(1), where listing() gives the ranges S^0,
    ..., S^a in O(a), built by C-level iterators over the arithmetic
    progressions of their bounds, one pair on each of the three pieces
    ell < a // 2, ell = a // 2 and ell > a // 2.  The count takes 0.3 us
    on a one-length member at a = 45, 0.7-1.2 us with two or more
    lengths (r up to 3a^2, a = 10 and 30), and the listing 0.044-0.058
    ms at a = 300 (2 cores, Python 3.11.7).  It has no `apery_runs`: the
    engine answers it, with a note.
    """

    __slots__ = ("a",)

    generators = property(lambda self: (self.a, self.a + 1, self.a + 2))
    L = property(lambda self: (self.a - 1) // 2)
    D = property(lambda self: (self.a + 3) // 4)
    frob = property(lambda self: self.a // 2 * self.a - 1)
    ulf_bound = property(lambda self: _threshold(self.a))
    # m_0(m_0 + 1) + m_1(m_1 + 1) = 2 m_0 (m_1 + 1), as m_0 - m_1 = a mod 2
    ulf_size = property(lambda self: (self.a + 1) // 2 * (self.a // 2 + 1) * 2)
    table_size = property(lambda self: (self.L + 1) ** 2)

    def __init__(self, a):
        if index(a) < 3:
            raise _small_a(a)
        self.a = a

    def __repr__(self):
        return "TripleSemigroup(%d)" % self.a

    def info(self):
        return self.generators, self.frob, ubetti_triple(self.a), self.ulf_size

    def betti(self):
        return ubetti_triple(self.a)

    def presentation(self):
        return presentation_triple(self.a)

    def factorization_count(self, r, cap):
        # (n, exact): n = |F(r)|, or a lower bound above cap if not exact;
        # orbits of min(phi_1, phi_3) + 1, longest first, growing by ~a/2
        a, n, r = self.a, 0, index(r)
        low = -(-r // (a + 2))
        ell, e = divmod(r, a)
        while ell >= low:
            if n > cap:
                return n, False
            p1, p3 = ell - (e + 1) // 2, e // 2
            n += (p1 if p1 < p3 else p3) + 1
            ell -= 1
            e += a
        return n, True

    def factorizations(self, r):
        return factorizations_triple(self.a, r)

    def ulf_runs(self):
        return self.ulf_size, lambda: list(_s_ells(self.a))


class SeedDescriptor(namedtuple("SeedDescriptor",
                                 "r ell eps phi kappa xi iota c")):
    """phi_r and the statistics derived from it.

    kappa / xi are min / max of the outer coordinates, iota is
    phi_2 + |phi_1 - phi_3| and c = phi_3 - phi_1 = eps_r - ell_r.
    """

    __slots__ = ()


class TripleDecomposition(namedtuple("TripleDecomposition", "d i c")):
    """The unique (d, i, c) with r = (a+1)(2d - 2 + i) + c and c in Gamma_i."""

    __slots__ = ()


class UlfElement(namedtuple("UlfElement", "r lam mu eta")):
    """A unique-length member r = lam*a + mu*(a+1) + eta*(a+2) with its
    box coordinates (lam, mu, eta) = phi_r of the module docstring."""

    __slots__ = ()


def _phi(a, r, ell=None):
    # the seed of length ell of the module docstring, phi_r by default,
    # for a valid a and an int r >= 0
    ell, e = divmod(r, a) if ell is None else (ell, r - a * ell)
    return ell - (e + 1) // 2, e % 2, e // 2


def _s_ells(a):
    # S^0, ..., S^a as ranges, from C-level iterators.  The bounds of
    # `s_ell` are a*ell and (a+2)*ell + 1 for ell < h = a // 2, a*ell and
    # a*ell + a at ell = h, and (a+2)*ell - a - 1 and a*ell + a for ell >
    # h: on each piece, two arithmetic progressions in ell.
    b, h = a + 2, a // 2

    def piece(p, q, start, step, stop, stride):  # ell in [p, q)
        return map(range, range(start + step * p, start + step * q, step),
                   range(stop + stride * p, stop + stride * q, stride))

    return chain(piece(0, h, 0, a, 1, b), piece(h, h + 1, 0, a, a, a),
                 piece(h + 1, a + 1, -a - 1, b, a, a))


def _ulf(a):
    # (r, phi_r) over the unique-length members, ascending: S^0, ..., S^a
    for ell, run in enumerate(_s_ells(a)):
        for r in run:
            yield r, _phi(a, r, ell)


def seed(a, r) -> SeedDescriptor:
    """Seed data of r; pure arithmetic, defined for every r >= 0.

    phi has a negative first coordinate exactly when r is not a member.
    """
    if index(a) < 3:
        raise _small_a(a)
    r = index(r)
    if r < 0:
        raise ValueError("r must be non-negative")
    p1, p2, p3 = phi = _phi(a, r)
    return SeedDescriptor(r, r // a, r % a, phi, min(p1, p3), max(p1, p3),
                          p2 + abs(p1 - p3), p3 - p1)


def member_triple(a, r) -> bool:
    """Membership test: r mod a <= 2 * floor(r / a)."""
    if index(a) < 3:
        raise _small_a(a)
    r = index(r)
    return r >= 0 and r % a <= 2 * (r // a)


def ubetti_triple(a) -> BettiClassification:
    """Betti elements of <a, a+1, a+2>, split balanced / unbalanced.

    The balanced one is 2(a+1) = a + (a+2), both sides of length 2.  The
    unbalanced ones are the box corners of the module docstring; each
    carries a long power-of-a factorization against a shorter one.
    """
    if index(a) < 3:
        raise _small_a(a)
    balanced = (2 * (a + 1),)
    unbalanced = _ubetti(a)
    return BettiClassification(tuple(sorted(balanced + unbalanced)),
                               balanced, unbalanced)


def ulf_membership_triple(a, r) -> bool:
    """Whether r is a member whose factorizations share one length, in
    O(1): the interval L(r) of the module docstring has one point."""
    if index(a) < 3:
        raise _small_a(a)
    r = index(r)
    return r // a == -(-r // (a + 2))


def factorizations_triple(a, r):
    """F(r, S) by closed form: one omega-orbit per length in L(r), in
    lexicographic order, the order of `core_semigroup.factorizations`.

    One loop walks L(r) down from floor(r/a), each orbit falling in x.  A
    unique-length member's single orbit is reversed in place; with two or
    more lengths the orbits are sorted in place, each orbit one run for
    the sort: O(|F(r)| log |L(r)|) time and O(|F(r)|) memory.  A call
    takes 1.1 us below L_a at a = 45 (4.5 vectors on average), 14-15 us
    with two or more lengths (r <= 3a^2, a = 10 and 30; 53 vectors).
    """
    if index(a) < 3:
        raise _small_a(a)
    r = index(r)
    low = -(-r // (a + 2))
    top, e = divmod(r, a)
    if low > top:
        raise not_member(r, (a, a + 1, a + 2))
    out, ell = [], top
    while True:  # e = r - a*ell; x and z stay >= 0, as e <= 2*ell on L(r)
        x, y, z = ell - (e + 1) // 2, e % 2, e // 2
        out.append(Factorization((x, y, z)))
        while x and z:
            x -= 1
            y += 2
            z -= 1
            out.append(Factorization((x, y, z)))
        if ell == low:
            break
        ell -= 1
        e += a
    if low == top:
        out.reverse()
    else:
        out.sort()
    return out


def denumerant_triple(a, r) -> int:
    """kappa_r + 1, the factorization count below the threshold."""
    if index(a) < 3:
        raise _small_a(a)
    r = index(r)
    ell, e = divmod(r, a)
    # e > 2 * ell for every negative r, since then ell < 0 <= e
    if e > 2 * ell:
        raise not_member(r, (a, a + 1, a + 2))
    if r >= (a + 3) // 2 * a:  # L_a, inline `_threshold(a)`
        raise _past_threshold(r, a)
    p1, p3 = ell - (e + 1) // 2, e // 2
    return (p1 if p1 < p3 else p3) + 1


def length_triple(a, r) -> int:
    """The single factorization length floor(r / a) of a unique-length
    member, the one point of L(r); O(1)."""
    if index(a) < 3:
        raise _small_a(a)
    r = index(r)
    low, top = -(-r // (a + 2)), r // a
    if low > top:
        raise not_member(r, (a, a + 1, a + 2))
    if low < top:
        raise ValueError(
            "%d has factorizations of two different lengths" % r)
    return top


def decompose_triple(a, r) -> TripleDecomposition:
    """The unique (d, i, c) with r = (a+1)(2d - 2 + i) + c, c in Gamma_i.

    d is the denumerant of r and 2d - 2 + i its factorization length;
    only defined below the two-length threshold.
    """
    if index(a) < 3:
        raise _small_a(a)
    r = index(r)
    ell, e = divmod(r, a)
    if e > 2 * ell:  # as in `denumerant_triple`
        raise not_member(r, (a, a + 1, a + 2))
    if r >= (a + 3) // 2 * a:
        raise _past_threshold(r, a)
    p1, p3 = ell - (e + 1) // 2, e // 2
    c = p3 - p1
    # tuple.__new__ skips the Python-level __new__ of the namedtuple;
    # d = min(p1, p3) + 1 and i = phi_2 + |c|
    if p1 < p3:
        return tuple.__new__(TripleDecomposition, (p1 + 1, e % 2 + c, c))
    return tuple.__new__(TripleDecomposition, (p3 + 1, e % 2 - c, c))


def gamma(i):
    """Gamma_0 = {0}, Gamma_1 = {-1, 0, 1}, Gamma_i = {-i, -i+1, i-1, i}."""
    if index(i) < 0:
        raise ValueError("i must be non-negative")
    if i == 0:
        return [0]
    if i == 1:
        return [-1, 0, 1]
    return [-i, -i + 1, i - 1, i]


def s_ell(a, ell):
    """S^ell, the members whose single factorization length is ell.

    The interval of the module docstring, returned as a range in O(1);
    empty for every ell > a.
    """
    if index(a) < 3:
        raise _small_a(a)
    if index(ell) < 0:
        raise ValueError("ell must be non-negative")
    return range(max(a * ell, (a + 2) * ell - a - 1),
                 min(a * ell + a, (a + 2) * ell + 1))


def s_d_i(a, d, i):
    """S_{d,i} = {(a+1)(2d - 2 + i) + c : c in Gamma_i}, ascending.

    These are the elements of denumerant d and length 2d - 2 + i; valid
    for 1 <= d <= D and 0 <= i <= L + 2 - 2d.
    """
    ts = TripleSemigroup(a)
    d, i = index(d), index(i)
    if not 1 <= d <= ts.D:
        raise ValueError("need 1 <= d <= %d, got %d" % (ts.D, d))
    cap = ts.L + 2 - 2 * d
    if not 0 <= i <= cap:
        raise ValueError("need 0 <= i <= %d for d=%d, got %d" % (cap, d, i))
    base = (a + 1) * (2 * d - 2 + i)
    return [base + c for c in gamma(i)]


def s_d_ulf(a, d):
    """The unique-length members of denumerant d, ascending.

    These are the r with min(phi_1, phi_3) = d - 1, read off S^0, ...,
    S^a in order: O(a^2) time, O(|result|) memory.
    """
    if index(a) < 3:
        raise _small_a(a)
    top = _m(a, 0)
    if not 1 <= index(d) <= top:
        raise ValueError("need 1 <= d <= %d, got %d" % (top, d))
    return [r for r, (lam, _, eta) in _ulf(a) if min(lam, eta) == d - 1]


def ulf_triple(a):
    """Every unique-length member with its box coordinates phi_r,
    ascending in r: S^0, ..., S^a in order, O(a^2) time and memory.
    """
    if index(a) < 3:
        raise _small_a(a)
    return [UlfElement(r, *phi) for r, phi in _ulf(a)]


def presentation_triple(a) -> Presentation:
    """A minimal presentation of <a, a+1, a+2>, read off the Apery box.

    The short relator trades 2(a+1) for a + (a+2).  Each long relator is
    the two factorizations of one unbalanced Betti corner: for odd a,
    m_0(a+2) = (m_1 + 1)a + (a+1); then (m_0 + 1)a = (a mod 2)(a+1) +
    m_1(a+2), the only corner for even a.
    """
    if index(a) < 3:
        raise _small_a(a)
    m0, m1 = _m(a, 0), _m(a, 1)
    pairs = [(Factorization((0, 2, 0)), Factorization((1, 0, 1)))]
    if a % 2:
        pairs.append((Factorization((m1 + 1, 1, 0)),
                      Factorization((0, 0, m0))))
    pairs.append((Factorization((m0 + 1, 0, 0)),
                  Factorization((0, a % 2, m1))))
    return Presentation(tuple(pairs))


def _monomial(vec, superscript=False) -> str:
    parts = []
    for name, exp in zip("xyz", vec):
        if exp == 0:
            continue
        if exp == 1:
            parts.append(name)
        elif superscript:
            parts.append(name + str(exp).translate(_SUPERSCRIPTS))
        else:
            parts.append("%s^%d" % (name, exp))
    return "".join(parts) or "1"


def monomial_basis(a, r, superscript=False):
    """The omega-orbit of r rendered as monomials in x, y, z, ordered by j.

    Exponent 1 is omitted, exponent 0 drops the variable and the zero
    vector renders as "1".  ASCII carets by default ("x^2yz"); pass
    superscript=True for Unicode exponents.  Only defined below the
    two-length threshold, where the orbit is the whole basis of r.
    """
    if index(a) < 3:
        raise _small_a(a)
    r = index(r)
    # every r >= L_a is a member, as F < L_a, so refusing it before a
    # non-member keeps the refusal order of `denumerant_triple`
    if r >= _threshold(a):
        raise _past_threshold(r, a)
    return [_monomial(f, superscript)
            for f in reversed(factorizations_triple(a, r))]
