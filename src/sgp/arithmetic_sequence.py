"""Betti data for semigroups generated by generalized arithmetic sequences.

S = <a, a+d, ..., a+nd> with gcd(a, d) = 1 and 1 <= n <= a - 1, which
makes the listed generators minimal.  Writing a = c*n + b with b in
[1, n], a minimal presentation consists of the exchange relators
e_i + e_{j+1} = e_j + e_{i+1} (all of degree 2a + (i+j-1)d) plus a family
of long relators (c+d)e_1 + e_{k-2} = c*e_{n+1} + e_{b+k-2} for
k in [3, n+3-b], whose two sides have lengths c+d+1 and c+1.  The long
relators are exactly the ones witnessing two different factorization
lengths, so their degrees form the unbalanced Betti elements.

Indices here follow the 1-based e_1 .. e_{n+1} convention of the
formulas; vectors are stored 0-based.

Two generators, n = 1, are the simplest case, and `PairSemigroup`
answers every question of `sgp` on them but `apery` and `table` from
their classical closed forms.
"""

from math import gcd

from .records import (BettiClassification, Factorization, Presentation,
                      not_member)


class ArithSemigroup:
    """<a, a+d, ..., a+nd> with the derived split a = c*n + b, a record
    that answers `betti()` in O(n^2 log n) and `presentation()` in O(n^3)
    for `sgp`.  It has no name for the other questions, so `sgp` hands
    them to the engine with a note; two generators have the subclass
    `PairSemigroup`, which answers all of them but `apery` and `table`."""

    __slots__ = ("a", "d", "n", "b", "c", "generators")

    def __init__(self, a, d, n):
        if a < 2 or d < 1 or n < 1:
            raise ValueError("need a >= 2, d >= 1, n >= 1")
        if n > a - 1:
            raise ValueError(
                "need n <= a - 1, otherwise the generators are not minimal")
        if gcd(a, d) != 1:
            raise ValueError("a and d must be coprime, got gcd %d" % gcd(a, d))
        self.a, self.d, self.n = a, d, n
        self.b = (a - 1) % n + 1
        self.c = (a - self.b) // n  # n <= a - 1 forces c >= 1
        self.generators = tuple(a + i * d for i in range(n + 1))

    def __repr__(self):
        return "ArithSemigroup(a=%d, d=%d, n=%d)" % (self.a, self.d, self.n)

    def betti(self):
        return classify_arith(self)

    def presentation(self):
        return presentation_arith(self)


class PairSemigroup(ArithSemigroup):
    """<p, q> with 2 <= p < q and gcd(p, q) = 1: the arithmetic sequence
    with n = 1 and d = q - p, as a record that answers every question of
    `sgp` but `apery` and `table` without the engine.

    The factorizations of r are (x, (r - xp)/q) for x = x0, x0 + q, ... up
    to r // p, where x0 = r p^-1 mod q (Popoviciu), so r is a member
    exactly when x0 p <= r.  The Frobenius number is pq - p - q
    (Sylvester), the one Betti element is pq, with lengths p and q, and
    the unique-length set Ap(S, pq) is {xp + yq : 0 <= x < q, 0 <= y < p},
    pq members in a span of 2pq - p - q + 1.  Costs:

    - `info()`, `betti()` and `presentation()`: O(1);
    - `ulf_size`: pq, an O(1) property, so `sgp` refuses an oversized
      listing before anything is built;
    - `factorization_count(r, cap)`: one modular inverse, exact at any
      size;
    - `factorizations(r)`: O(|F(r)|), lexicographic, as the engine lists
      them;
    - `ulf_runs()`: (pq, listing) in O(1), where listing() gives one 0/1
      byte mask of the unique-length set in p slice assignments, O(pq).

    `apery_runs` is not here: the engine answers it, with a note.
    """

    __slots__ = ()

    ulf_size = property(lambda self: self.a * (self.a + self.d))

    def __init__(self, p, q):
        ArithSemigroup.__init__(self, p, q - p, 1)

    def info(self):
        p, q = self.generators
        return self.generators, p * q - p - q, classify_arith(self), p * q

    def _xs(self, r):
        # the x of the factorizations (x, y) of r, empty off S (r < 0 too)
        p, q = self.generators
        return range(r * pow(p, -1, q) % q, r // p + 1, q)

    def factorization_count(self, r, cap):
        # (n, True): n = |F(r)| whatever cap is, by arithmetic, since len()
        # of a range longer than sys.maxsize overflows
        xs = self._xs(r)
        if not xs:
            raise not_member(r, self.generators)
        return (xs[-1] - xs.start) // xs.step + 1, True

    def factorizations(self, r):
        # y falls by p as x rises by q
        p, q = self.generators
        xs = self._xs(r)
        return list(map(Factorization, zip(
            xs, range((r - xs.start * p) // q, -1, -p))))

    def ulf_runs(self):
        p, q = self.generators

        def listing():
            mask, ones = bytearray(2 * p * q - p - q + 1), b"\x01" * q
            for y in range(0, p * q, q):  # the members xp + yq, 0 <= x < q
                mask[y:y + (q - 1) * p + 1:p] = ones
            return [mask]

        return p * q, listing


def presentation_arith(S: ArithSemigroup) -> Presentation:
    """The minimal presentation: exchange relators plus the long family."""
    n, b, c, d = S.n, S.b, S.c, S.d
    e = n + 1
    pairs = []
    for i in range(1, n):
        for j in range(i + 1, n + 1):
            x = [0] * e
            x[i - 1] += 1
            x[j] += 1  # e_i + e_{j+1}
            y = [0] * e
            y[j - 1] += 1
            y[i] += 1  # e_j + e_{i+1}
            pairs.append((Factorization(x), Factorization(y)))
    for k in range(3, n + 4 - b):
        x = [0] * e
        x[0] = c + d
        x[k - 3] += 1  # (c+d) e_1 + e_{k-2}
        y = [0] * e
        y[e - 1] = c
        y[b + k - 3] += 1  # c e_{n+1} + e_{b+k-2}
        pairs.append((Factorization(x), Factorization(y)))
    return Presentation(tuple(pairs))


def _degrees(S):
    # the exchange degrees and the long ones of the module docstring, sets
    a, d, n = S.a, S.d, S.n
    return ({2 * a + (i + j + 1) * d for i in range(n - 1)
             for j in range(i + 1, n)},
            {(S.c + d + 1) * a + (k - 3) * d for k in range(3, n + 4 - S.b)})


def betti_arith(S: ArithSemigroup):
    """All Betti elements, ascending: exchange degrees plus the long ones."""
    return sorted(set.union(*_degrees(S)))


def ubetti_arith(S: ArithSemigroup):
    """The Betti elements with two factorization lengths, ascending.

    Exactly the degrees of the long relators; the exchange degrees stay
    balanced unless they collide with one of these (possible when c = 1).
    """
    return sorted(_degrees(S)[1])


def classify_arith(S: ArithSemigroup) -> BettiClassification:
    """betti_arith split into balanced and unbalanced, as betti_elements
    of the engine splits it, from one build of the degrees."""
    exchange, long = _degrees(S)
    return BettiClassification(tuple(sorted(exchange | long)),
                               tuple(sorted(exchange - long)),
                               tuple(sorted(long)))
