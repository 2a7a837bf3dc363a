"""Reference definitions of the invariants, for checking the engine.

Each function here is the literal definition of its invariant, computed
from factorizations: membership by a descent that stops at the first one,
the rest by listing them with the plain descent of `factorizations`.  Of
a `Semigroup` it reads only the minimal generators: never the Apery
table, the stored Frobenius number or the engine's membership test, and
it shares no algorithm with the engine, so a fault in those shows up as
a disagreement rather than being copied.  The engine in `core_semigroup`
and the closed forms in the sibling modules are tested against this
module.  It is slow on purpose; use it on small semigroups only.
"""

from collections import namedtuple

from .records import BettiClassification, Factorization, not_member


# edges: (i, j) index pairs into vertices, i < j
class FactorizationGraph(namedtuple("FactorizationGraph",
                                     "element vertices edges n_components")):
    """The graph on F(r, S) joining factorizations with overlapping support.

    Two exponent vectors are adjacent exactly when their dot product is
    positive, which for non-negative vectors means they share a generator.
    """

    __slots__ = ()


def factorizations(S, r):
    """F(r) by plain descent, lexicographic: each coordinate but the last
    takes every value that fits, and the last one what is left, if it
    divides."""
    if r < 0:
        raise ValueError("r must be non-negative")
    gens = S.minimal_generators

    def descend(prefix, rem):
        if len(prefix) == len(gens) - 1:
            q, rest = divmod(rem, gens[-1])
            return [] if rest else [Factorization(prefix + (q,))]
        g = gens[len(prefix)]
        return [f for x in range(rem // g + 1)
                for f in descend(prefix + (x,), rem - x * g)]

    return descend((), r)


def member(S, r) -> bool:
    """r is in S exactly when it has a factorization.

    The descent takes as many of the largest generator as fit first and
    stops at the first factorization, so a member far above F costs about
    as much as one just above it, not the size of its factorization set.
    """
    def writable(i, rem):
        if i == 0:
            return rem % gens[0] == 0
        return any(writable(i - 1, rem - k * gens[i])
                   for k in range(rem // gens[i], -1, -1))

    gens = S.minimal_generators
    return r >= 0 and writable(len(gens) - 1, r)


def _factorizations_of_member(S, r):
    facs = factorizations(S, r) if r >= 0 else []
    if not facs:
        raise not_member(r, S.minimal_generators)
    return facs


def denumerant(S, r) -> int:
    """Number of factorizations of r (0 when r is not a member)."""
    return len(factorizations(S, r))


def length_set(S, r):
    """Sorted set of factorization lengths of a member r."""
    return sorted({f.length for f in _factorizations_of_member(S, r)})


def nabla_graph(S, r) -> FactorizationGraph:
    """The factorization graph of a member r."""
    verts = _factorizations_of_member(S, r)
    edges = []
    for i in range(len(verts)):
        for j in range(i + 1, len(verts)):
            if any(u and v for u, v in zip(verts[i], verts[j])):
                edges.append((i, j))
    label = list(range(len(verts)))
    for i, j in edges:
        if label[i] != label[j]:
            label = [label[i] if x == label[j] else x for x in label]
    return FactorizationGraph(r, tuple(verts), tuple(edges), len(set(label)))


def frobenius(S) -> int:
    """The largest non-member, -1 for N.

    Scans up from 0 until n1 consecutive members: adding n1 to those
    reaches every larger integer, so the integer before the run is the
    last gap.
    """
    n1, run, r = S.minimal_generators[0], 0, 0
    while run < n1:
        run = run + 1 if member(S, r) else 0
        r += 1
    return r - n1 - 1


def betti_elements(S) -> BettiClassification:
    """Members with a disconnected factorization graph, split by length set.

    Scans every member up to F + n1 + ne.  Past that bound r - n_i - n1 is
    a member for every generator n_i, so each factorization shares a
    generator with one that uses n1, and those all share n1: the graph is
    connected.
    """
    gens = S.minimal_generators
    betti = [r for r in range(frobenius(S) + gens[0] + gens[-1] + 1)
             if member(S, r) and nabla_graph(S, r).n_components > 1]
    return BettiClassification(
        tuple(betti),
        tuple(b for b in betti if len(length_set(S, b)) == 1),
        tuple(b for b in betti if len(length_set(S, b)) > 1))


def apery_multi(S, xs):
    """Ap(S, X) = {s in S : s - x not in S for every x in X}, ascending.

    Every s in Ap(S, x) is at most F + x, since past that s - x is a
    member, so the scan stops at F + min X.  X must be a nonempty set of
    members.
    """
    for x in xs:
        if not member(S, x):
            raise not_member(x, S.minimal_generators)
    return [s for s in range(frobenius(S) + min(xs) + 1)
            if member(S, s) and not any(member(S, s - x) for x in xs)]


def ulf(S, bound=None):
    """Members whose factorizations all have one length, ascending.

    For a Betti element u with two lengths, a member r > F + u lies in
    u + S and so has two lengths too; the scan stops at F + min UBetti.
    Only N has no such u, and then an explicit bound is required.
    """
    unbalanced = betti_elements(S).unbalanced
    if unbalanced:
        top = frobenius(S) + unbalanced[0]
    elif bound is None:
        raise ValueError("every member of %r has a one-length factorization "
                         "set; pass an explicit bound" % S)
    else:
        top = bound
    return [r for r in range(top + 1)
            if len({f.length for f in factorizations(S, r)}) == 1]
