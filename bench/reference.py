"""Brute-force references the benchmark checks `sgp` answers against.

Nothing here imports `sgp`: a rewrite of the engine is judged by code it
does not share.  Two families:

- `RefSemigroup` works on any generating set.  Membership comes from the
  least member of each residue class mod n1 (shortest paths over the
  residues), length sets from a bitmask recurrence, Betti elements from
  the connected components of the generators i with r - n_i in S, joined
  when r - n_i - n_j is in S (one component per class of factorizations
  of r that share a generator).
- the `triple_*` functions work on <a, a+1, a+2> for a up to 10**6 from the
  definition alone: x1 + x2 + x3 = l and x2 + 2*x3 = r - l*a, so r has a
  factorization of length l iff 0 <= r - l*a <= 2*l.
"""

from __future__ import annotations

import functools
import heapq
from math import gcd


class RefSemigroup:
    """Membership, length sets and Betti data of a numerical semigroup."""

    def __init__(self, gens):
        gens = sorted(set(gens))
        n1 = gens[0]
        # least[i] is the least member congruent to i mod n1.
        least = [None] * n1
        least[0] = 0
        heap = [(0, 0)]
        while heap:
            w, i = heapq.heappop(heap)
            if w != least[i]:
                continue
            for g in gens[1:]:
                j, v = (i + g) % n1, w + g
                if least[j] is None or v < least[j]:
                    least[j] = v
                    heapq.heappush(heap, (v, j))
        self.n1 = n1
        self.least = least
        self.frobenius = max(least) - n1
        self.gens = [g for g in gens
                     if not any(h < g and (g - h) in self for h in gens)]
        self._masks = [1]

    def __contains__(self, r):
        return r >= 0 and r >= self.least[r % self.n1]

    def masks(self, top):
        """Length sets of 0..top as bitmasks: bit l set iff r has length l."""
        m = self._masks
        for r in range(len(m), top + 1):
            acc = 0
            for g in self.gens:
                if g <= r:
                    acc |= m[r - g]
            m.append(acc << 1)
        return m

    def classes(self, r):
        """Components of the generator graph of r (indices into gens)."""
        gens = self.gens
        live = [i for i, g in enumerate(gens) if (r - g) in self]
        parent = {i: i for i in live}

        def find(i):
            while parent[i] != i:
                i = parent[i]
            return i

        for x in live:
            for y in live:
                if x < y and (r - gens[x] - gens[y]) in self:
                    parent[find(x)] = find(y)
        comps = {}
        for i in live:
            comps.setdefault(find(i), []).append(i)
        return sorted(comps.values())

    def betti(self):
        """(betti, balanced, unbalanced), ascending.

        Every Betti element is at most frobenius + n1 + ne.
        """
        top = self.frobenius + self.gens[0] + self.gens[-1]
        masks = self.masks(top)
        betti, balanced, unbalanced = [], [], []
        for r in range(1, top + 1):
            if r in self and len(self.classes(r)) >= 2:
                betti.append(r)
                (balanced if masks[r].bit_count() == 1
                 else unbalanced).append(r)
        return betti, balanced, unbalanced

    def ulf(self):
        """Members with a single factorization length (S != N assumed).

        Beyond frobenius + u, for an unbalanced Betti element u, every
        member is u + s with s in S and inherits two lengths from u.
        """
        _, _, unbalanced = self.betti()
        top = self.frobenius + max(unbalanced)
        masks = self.masks(top)
        return [r for r in range(top + 1) if masks[r].bit_count() == 1]

    def apery(self, xs):
        top = self.frobenius + max(xs)
        return [s for s in range(top + 1)
                if s in self and all((s - x) not in self for x in xs)]

    def factorizations(self, r):
        """Exponent vectors over the minimal generators, lexicographic."""
        gens = self.gens
        out = [()]
        for k, g in enumerate(gens):
            last = k == len(gens) - 1
            nxt = []
            for vec in out:
                rem = r - sum(c * h for c, h in zip(vec, gens))
                if last:
                    if rem % g == 0:
                        nxt.append(vec + (rem // g,))
                else:
                    nxt.extend(vec + (c,) for c in range(rem // g + 1))
            out = nxt
        return sorted(list(v) for v in out)


def triple_lengths(a, r):
    """Factorization lengths of r in <a, a+1, a+2>; empty for non-members.

    r - l*a <= 2*l holds exactly for l >= r / (a+2), so they form a range.
    """
    if r < 0:
        return range(0)
    return range(-(-r // (a + 2)), r // a + 1)


def triple_factorizations(a, r):
    out = []
    for l in triple_lengths(a, r):
        s = r - l * a
        for x3 in range(max(0, s - l), s // 2 + 1):
            x2 = s - 2 * x3
            out.append([l - x2 - x3, x2, x3])
    return sorted(out)


def _least_multiple_in_two(n, p, q):
    """Least c > 0 with c*n in <p, q>, for coprime p, q.

    v is in <p, q> iff v >= y*q for the y in [0, p) with y*q = v mod p;
    for v = c*n that y steps by n/q mod p as c grows.
    """
    step = n * pow(q, -1, p) % p
    c, y = 1, step
    while y * q > c * n:
        c, y = c + 1, (y + step) % p
    return c


def triple_betti(a):
    """(betti, balanced, unbalanced) of <a, a+1, a+2>.

    A three-generated semigroup has its Betti elements at c_i * n_i, c_i
    the least c > 0 with c * n_i in the semigroup of the other two
    generators (Herzog 1970).  For even a, a and a+2 share the factor 2:
    c * (a+1) then needs c even, and <a/2, a/2+1> decides the rest.
    """
    gens = (a, a + 1, a + 2)
    betti = set()
    for i, n in enumerate(gens):
        p, q = (g for j, g in enumerate(gens) if j != i)
        g = gcd(p, q)
        c = g * _least_multiple_in_two(n, p // g, q // g)
        betti.add(c * n)
    betti = sorted(betti)
    balanced = [b for b in betti if len(triple_lengths(a, b)) == 1]
    unbalanced = [b for b in betti if len(triple_lengths(a, b)) > 1]
    return betti, balanced, unbalanced


def triple_classes(a, r):
    """RefSemigroup.classes for <a, a+1, a+2>, by the length test."""
    gens = (a, a + 1, a + 2)
    live = [i for i in range(3) if triple_lengths(a, r - gens[i])]
    comps = [[i] for i in live]
    for x in live:
        for y in live:
            if x < y and triple_lengths(a, r - gens[x] - gens[y]):
                cx = next(c for c in comps if x in c)
                cy = next(c for c in comps if y in c)
                if cx is not cy:
                    comps.remove(cy)
                    cx.extend(cy)
    return sorted(sorted(c) for c in comps)


@functools.cache
def triple_threshold(a):
    """The least member with two factorization lengths."""
    r = 0
    while len(triple_lengths(a, r)) < 2:
        r += 1
    return r


def triple_ulf(a):
    """Unique-length members, ascending (see RefSemigroup.ulf for the cut)."""
    top = triple_frobenius(a) + max(triple_betti(a)[2])
    return [r for r in range(top + 1) if r // a == -(-r // (a + 2))]


def triple_frobenius(a):
    return RefSemigroup((a, a + 1, a + 2)).frobenius


_SMALL_CLASSES = {(0, 0): "zero", (1, -1): "m1", (1, 0): "z1", (1, 1): "p1"}


def cell_class(iota, c):
    if iota < 2:
        return _SMALL_CLASSES[(iota, c)]
    return {-iota: "neg_i", -iota + 1: "neg_i1",
            iota - 1: "pos_i1", iota: "pos_i"}[c]


def triple_table(a):
    """Rows (ell, d, r, iota, c, class) of the length-by-denumerant table.

    The table holds every member up to (a+2)L, L = (a-1)//2; those all
    have a single length ell <= L, and d counts their factorizations.
    """
    L = (a - 1) // 2
    rows = []
    for r in range((a + 2) * L + 1):
        lengths = triple_lengths(a, r)
        if not lengths:
            continue
        (ell,) = lengths
        s = r - ell * a
        d = s // 2 - max(0, s - ell) + 1
        iota, c = ell - 2 * d + 2, r - (a + 1) * ell
        rows.append([ell, d, r, iota, c, cell_class(iota, c)])
    return sorted(rows)


def verify_checks(a, arith):
    """The checks `sgp verify` counts for one a (plus two per --random).

    Per r up to the threshold plus 3a: one membership check, one
    unique-length check for members and four more below the threshold;
    one threshold check per a; three per arithmetic sequence (d in 1..3,
    n in 2..min(4, a-1), gcd(a, d) = 1) for a >= 5.
    """
    t = triple_threshold(a)
    checks = 1
    for r in range(t + 3 * a + 1):
        member = bool(triple_lengths(a, r))
        checks += 1 + member + (4 if member and r < t else 0)
    if arith and a >= 5:
        checks += 3 * sum(1 for d in (1, 2, 3) if gcd(a, d) == 1
                          for _n in range(2, min(4, a - 1) + 1))
    return checks
