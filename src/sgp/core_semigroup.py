"""Generic numerical-semigroup engine.

A numerical semigroup is the set of all non-negative integer combinations
of a finite set of positive generators whose gcd is 1.  Membership, the
Apery sets Ap(S, X) and the Betti search all rest on Ap(S, n1), the
Apery set of the smallest generator (see `Semigroup`); only
`factorizations`, which lists F(r) for `sgp factorize`, enumerates
factorization sets.  Tables over [0, bound] come from dynamic programs
over the generators instead: length sets as int bitmasks, read into
one frozenset per distinct L(r) that equal entries share
(`length_sets_up_to`), and factorization counts by coin change
(`_denumerants`).  There are no closed forms, so the fast paths in the
sibling modules can be checked against the engine.  The engine itself is
checked against `sgp.oracle`, which holds the literal definitions
(membership, F, length sets, factorization graphs, Apery sets, Betti
elements, unique-length members) and reads none of the engine's tables.

Conventions used throughout:

- a factorization of r is an exponent vector over the *minimal* generators,
  represented as a tuple of non-negative ints;
- every collection-valued operation returns a sorted list (ints ascending,
  vectors lexicographic, chains by construction order), so output is
  reproducible byte for byte.
"""

from functools import partial, reduce
from heapq import heappop, heappush
from itertools import accumulate, chain, compress, islice, repeat
from math import gcd
from operator import floordiv, index, lshift, or_, sub

from .records import (  # re-exported: the engine returns and raises them
    BettiClassification,
    Factorization,
    NotMemberError,
    Presentation,
    not_member,
)

# The window: the member int M, Ap(S, X) and the Betti search are read
# off ints of at most _WINDOW * n1 + 1 bits, O(n1) bytes like Ap(S, n1)
_WINDOW = 32


class Semigroup:
    """The numerical semigroup generated by a set of positive integers.

    Construction validates the input (nonempty, positive, gcd 1; a
    non-integer generator is a TypeError).  The semigroup is then held as
    Ap(S, n1), the Apery set of the smallest generator n1: a list of n1
    ints whose entry i is the least member congruent to i mod n1.  So r is
    a member exactly when r is at least the entry for r mod n1; a
    non-integer query is a TypeError.  The Frobenius number is the
    largest entry minus n1, and the minimal generators are derived with
    O(e^2) membership tests.  An instance keeps O(n1) memory: a rule in
    `__init__` picks `_member_closure` or `_dijkstra` to build the table,
    and the closure's member int M, at most 4 * n1 bytes, is kept for
    `_member_bits`.  Instances are immutable and thread-safe.

    An instance answers what `sgp` asks, under the names the closed-form
    records use, at the cost of the module function each calls: `betti()`
    one `betti_elements` search, `info()` that search and the count of
    Ap(S, UBetti), `factorization_count(r, cap)` and `factorizations(r)`
    one descent, and `ulf_runs()` and `apery_runs(xs)` (n, listing): the
    count n of the members of Ap(S, X) by `_apery_sized`, and listing(),
    which gives them as one run.  It has no `presentation()`.
    """

    __slots__ = ("generators", "minimal_generators", "frobenius", "_apery",
                 "_member")

    def __init__(self, generators):
        gens = sorted({index(g) for g in generators})
        if not gens:
            raise ValueError("need at least one generator")
        if gens[0] <= 0:
            raise ValueError("generators must be positive, got %d" % gens[0])
        g = reduce(gcd, gens)
        if g != 1:
            raise ValueError(
                "not a numerical semigroup: gcd of generators is %d" % g)
        self.generators = tuple(gens)
        n1 = gens[0]
        # The closure is tried where it measured faster (time per
        # construction on CPython 3.11, generators drawn from (n1, 2 * n1)
        # and (n1, 4 * n1)).  From n1 = 20 to 100 a closure that kept M
        # took 0.39-0.61x the Dijkstra's time in the median of each e from
        # 3 to 5, and one that failed cost 3-6 us, 0.11-0.15x.  Below, it
        # took 1.01-1.14x at n1 from 10 to 14, and 1.2-1.5x at e = 2.
        # Above, F + n1 outgrows the window on most inputs with e = 3 from
        # n1 = 300, e = 4 from 1000 and e = 5 from 3000, and a failure costs
        # 4-17% of the Dijkstra's time, the most near n1 = 10^6, where M no
        # longer fits in cache; neither the count of sums in the window nor
        # the volume bound on it tells half of those inputs apart.  The rule
        # counts input generators, so a redundant one, as in <n1, n2, n1 +
        # n2>, sends an e = 2 semigroup to the closure, at 1.1-1.2x.  A
        # generator past the window adds nothing to M.
        self._member, self.frobenius, ap = (
            _member_closure(gens) if 20 <= n1 <= 100 and len(gens) >= 3
            and gens[2] <= _WINDOW * n1 else None) or _dijkstra(gens)
        self._apery = ap
        # g splits as s + t with both parts nonzero members exactly when
        # g - m is a member for some smaller minimal generator m: a smaller
        # h that is not minimal is m + u with u a nonzero member.
        mins = [n1]
        for g in gens[1:]:
            if all(g - m < ap[(g - m) % n1] for m in mins):
                mins.append(g)
        self.minimal_generators = tuple(mins)

    def __contains__(self, n) -> bool:
        # A negative n is below every entry; a non-integer cannot index.
        return n >= self._apery[n % self.generators[0]]

    def __repr__(self):
        return "Semigroup(%s)" % ", ".join(map(str, self.minimal_generators))

    def info(self):
        # |ULF| = |Ap(S, UBetti)| is counted without listing; None on N
        cls = betti_elements(self)
        return self.minimal_generators, self.frobenius, cls, _apery_sized(
            self, cls.unbalanced)[0] if cls.unbalanced else None

    def betti(self):
        return betti_elements(self)

    def factorization_count(self, r, cap):
        if r not in self:
            raise not_member(r, self.minimal_generators)
        return _factorization_count(self, r, cap)

    def factorizations(self, r):
        return factorizations(self, r)

    def ulf_runs(self):
        n, listing = _ulf_sized(self)
        return n, lambda: [listing()]

    def apery_runs(self, xs):
        n, listing = _apery_sized(self, xs)
        return n, lambda: [listing()]


def _pair_solutions(p, q):
    """For p < q, a function from s >= 0 to the range of the x >= 0 with
    p*x + q*y = s for some y >= 0.

    With g = gcd(p, q) and m = q/g there are none unless g divides s, and
    then they are exactly the x = x0 (mod m) with 0 <= x <= s/p, where x0
    solves (p/g) x = s/g (mod m); each call is O(1).
    """
    g = gcd(p, q)
    m = q // g
    inv = pow(p // g, -1, m)

    def xs(s):
        return range(0) if s % g else range(s // g * inv % m, s // p + 1, m)

    return xs


def factorizations(S: Semigroup, r: int):
    """All exponent vectors x with sum(x_i * n_i) = r, lexicographic.

    Bounded recursive descent over the coordinates of the minimal
    generators n_1 < ... < n_e except the last two; the pair n_{e-1} <
    n_e is solved by `_pair_solutions`, stepping x_{e-1} over its
    solutions only.  Empty exactly when r is not a member.  It takes about
    prod_{i<e-1} (r/n_i + 1) descent steps plus the output;
    `_factorization_count` counts the vectors without listing them.
    """
    r = index(r)
    if r < 0:
        raise ValueError("r must be non-negative")
    gens = S.minimal_generators
    if len(gens) == 1:  # N = <1>
        return [Factorization((r,))]
    *outer, p, q = gens
    pair = _pair_solutions(p, q)
    k = len(outer)
    out = []
    coords = [0] * (k + 2)

    def descend(i, rem):
        # coords[:i] are fixed; every deeper entry is set before it is read
        if i == k:
            for x in pair(rem):
                coords[k:] = x, (rem - x * p) // q
                out.append(Factorization(coords))
            return
        n = outer[i]
        for x in range(rem // n + 1):
            coords[i] = x
            descend(i + 1, rem - x * n)

    descend(0, r)
    return out


def _factorization_count(S: Semigroup, r: int, cap: int):
    """(n, exact): n is the number of factorizations of r >= 0, or, once
    the running count passes cap with some of it left uncounted, that
    running count, a lower bound above cap, and exact is false.

    The coordinates of the largest generators are fixed one at a time,
    largest first; the two smallest, p < q, are counted in O(1) by
    `_pair_solutions`.
    """
    gens = S.minimal_generators
    if len(gens) == 1:  # N: one factorization
        return 1, True
    pair, outer = _pair_solutions(gens[0], gens[1]), gens[2:]
    exact = True

    def tally(k, s, cap):
        # factorizations of s over the two smallest and outer[:k]
        nonlocal exact
        if k == 0:  # len() of a range wider than sys.maxsize overflows
            xs = pair(s)
            return max(0, (xs.stop - xs.start + xs.step - 1) // xs.step)
        n, total = outer[k - 1], 0
        top = s // n
        for x in range(top + 1):
            total += tally(k - 1, s - x * n, cap - total)
            if total > cap and x < top:
                exact = False
                break
        return total

    n = tally(len(outer), r, cap)
    return n, exact


def _length_masks(S: Semigroup, bound: int):
    """Length sets of [0, bound] as ints: bit l of entry r is set exactly
    when l is in L(r), so a non-member is 0; [] for a negative bound.

    Entry r is the OR over minimal generators g <= r of entry r - g,
    shifted up one, with entry 0 = 1.  A Python loop fills r up to n_e,
    the largest minimal generator.  Past n_e every r - g is in the table,
    so the rest is one `extend` at C speed: for each g a list iterator
    over the table from n_e + 1 - g, the iterators ORed by nested `map`s
    and each OR shifted by one.  An iterator reads entry r - g only after
    `extend` has appended entry r - 1, and a list iterator checks the
    list's length at every step, so it never stops early.

    Every length of r is at most r/n1, so entry r has at most
    floor(r/n1) + 1 bits.  That makes O(bound * e) big-int operations on
    ints of at most floor(bound/n1) + 1 bits, all but the first n_e of
    them in C, and O(bound^2 / n1) bits of memory for the list.  Best of
    20 or more on 2 cores with Python 3.11.7: <45, 46, 47> up to 1215
    takes 0.12 ms and <42, 55, 71, 83> up to 20000 4.0 ms (0.24 and
    6.8 ms filled one entry at a time).
    """
    if bound < 0:
        return []
    gens = S.minimal_generators
    ne = gens[-1]
    masks = [1]
    for r in range(1, min(ne, bound) + 1):
        m = 0
        for g in gens:
            if g > r:
                break
            m |= masks[r - g]
        masks.append(m << 1)
    if bound > ne:
        ors = reduce(partial(map, or_),
                     [islice(masks, ne + 1 - g, None) for g in gens])
        masks.extend(islice(map(lshift, ors, repeat(1)), bound - ne))
    return masks


# translates the digits b"0" / b"1" of a binary string to bytes 0 / 1
_BITS = bytes.maketrans(b"01", b"\x00\x01")


def length_sets_up_to(S: Semigroup, bound: int):
    """The length set L(r) of every r in [0, bound], by dynamic programming.

    Entry r is the set L(r) as a frozenset, or None when r is not a
    member.  The table is built as int bitmasks, L(r) = OR over generators
    g of (L(r - g) << 1) with L(0) = 1 (Barron, O'Neill & Pelayo, Math.
    Comp. 2017), by `_length_masks`.  Each distinct mask is read into its
    frozenset once, at C speed: shifted down to its least length lo, its
    binary digits, least significant first, become the bytes 0 and 1, and
    `compress` keeps the ones from a shared list of lengths, one int
    object per length, read from lo on.  The lengths are gathered in a
    set and frozen from it, so that the frozenset's table is sized once
    for its count c (grown one insert at a time, it may end with twice the
    slots): one table of the least power of two above 2c slots, 16 bytes
    a slot, or the 8 slots inside the object for c <= 4.  Entries with
    equal length sets are the same object, so the memory is the list plus
    one set per distinct L(r) (and the masks while the table is built).
    Under tracemalloc (Python 3.11), building the table peaks at 16.3 MiB
    on <42, 55, 71, 83> up to 20000 (20001 entries, 2832 distinct length
    sets), at 28.4 MiB on <42, 62, 83> up to 14337 (7192 distinct) and at
    47.4 MiB on <42, 61, 83> up to 15664 (10958 distinct).
    Entries are immutable, so a caller that changes one must copy it.
    The recurrence is checked against `oracle.length_set` in the test
    suite.
    """
    bound = index(bound)
    masks = _length_masks(S, bound)
    lengths = list(range(max(bound, 0) // S.generators[0] + 1))
    memo = dict.fromkeys(masks)
    for m in memo:
        if m:
            lo = (m & -m).bit_length() - 1
            memo[m] = frozenset(set(compress(
                islice(lengths, lo, None),
                bin(m >> lo)[:1:-1].encode().translate(_BITS))))
    return list(map(memo.__getitem__, masks))


def _denumerants(S: Semigroup, bound: int):
    """Entry r is the number of factorizations of r, for r in [0, bound];
    [] for a negative bound.

    The coin-change count over the minimal generators: the pass for
    generator g adds entry r - g to entry r, a prefix sum along each
    residue class mod g, so each class is one slice assignment from
    `accumulate`.  O(bound * e) additions, all in C: <42, 55, 71, 83> up
    to 20000 takes 2.7 ms and <1001, 1003> up to 1004003 60 ms (5.2 and
    119 ms one entry at a time; best of 10 or more on 2 cores, Python
    3.11.7).  It shares no code with `factorizations` or any closed
    form, so it can check either.
    """
    if bound < 0:
        return []
    d = [1] + [0] * bound
    for g in S.minimal_generators:
        for i in range(min(g, bound + 1)):
            d[i::g] = accumulate(d[i::g])
    return d


def apery_multi(S: Semigroup, xs):
    """Ap(S, X) = S minus (X + S), the intersection of the Apery sets.

    Listed ascending by `_apery_sized`, at most min(X) elements.  Ap(S, x)
    of one nonzero member x is apery_multi(S, (x,)): the least member of
    each residue class mod x, so exactly x elements.  X must be a nonempty
    set of members: X = {} would give all of S, which is infinite.
    """
    return _members(_apery_sized(S, sorted(set(xs)))[1]())


def _members(run):
    """The ascending list of a listing run of `_apery_sized`: a list as it
    is, a 0/1 byte mask as the positions of its ones."""
    return run if isinstance(run, list) else list(
        compress(range(len(run)), run))


def _close(gens, top):
    """The sums of gens up to top as an int: bit x is set exactly when
    0 <= x <= top is a sum of the gens, 0 the empty one, and no higher
    bit is set.

    M starts as 1 and is closed under each g in turn by M |= M << s for s
    = g, 2g, 4g, ... up to top, then cut to top + 1 bits: the doubling ORs
    in every multiple of g that fits, so after the last g M holds every
    sum up to top.  That is O(log(top / g)) shift-ORs per g on ints of at
    most top + 1 bits, O(e * log(top / n1) * top / 64) word operations in
    all, n1 the least g.
    """
    cut = (2 << top) - 1
    member = 1
    for g in gens:
        s = g
        while s <= top:
            member |= member << s
            s += s
        member &= cut
    return member


def _member_closure(gens):
    """(M, F, Ap(S, n1)) for the sorted generators gens, M = `_close`(gens,
    top) up to top = `_WINDOW` * n1, or None when F + n1 > top.

    Every x > F is a member, so the top n1 bits of M are all set exactly
    when the highest gap, F, is at most top - n1.  Then Ap(S, n1) is read
    off the gaps by Selmer's formula: w[i] = i + n1 * (the number of gaps
    congruent to i mod n1), since a residue class holds gaps below w[i]
    and members from it on.  The gaps up to F become one byte each, from
    the binary digits of the gap int, and the rows of n1 bytes are summed
    by folding the int in halves; a byte sums at most `_WINDOW` rows, so none
    carries.  That is O(e * n1) word operations for M, plus O(F) for the
    digits.
    """
    n1 = gens[0]
    top = _WINDOW * n1
    member = _close(gens, top)
    gaps = member ^ ((2 << top) - 1)
    frob = gaps.bit_length() - 1
    if frob > top - n1:
        return None
    counts = int.from_bytes(bin(gaps)[:1:-1].encode().translate(_BITS),
                            "little")
    rows, width = frob // n1 + 1, 8 * n1
    while rows > 1:
        rows = (rows + 1) // 2
        counts = ((counts & ((1 << rows * width) - 1))
                  + (counts >> rows * width))
    return member, frob, [i + n1 * k for i, k in
                          enumerate(counts.to_bytes(n1, "little"))]


def _dijkstra(gens):
    """(None, F, Ap(S, n1)) for the sorted generators gens, the return of
    `_member_closure` with no member int: Dijkstra over the residues mod
    n1, Nijenhuis's minimal-path algorithm (Amer. Math. Monthly 86, 1979).

    Adding generator g is an edge of weight g from residue i to (i + g)
    mod n1, and ap holds each residue's tentative weight from residue 0,
    n1 * gens[-1] standing for none (every entry is below it).  The heap
    holds int weights w, each at residue w mod n1, and w + g is pushed
    only when it lowers its entry; so a popped w is settled when it is
    still the entry of its residue, and any other is stale.  It stops once
    all n1 residues are settled.  For e <= n1 generators that takes O(n1
    * e * log n1) time, and the heap holds at most 1 + n1 * (e - 1)
    entries, one per edge out of a settled residue.  Bocker & Liptak's
    heap-free round robin measured no faster.
    """
    n1, outer = gens[0], gens[1:]
    ap = [n1 * gens[-1]] * n1
    ap[0], left, heap = 0, n1, [0]
    while left:  # until every residue is settled
        w = heappop(heap)
        if w == ap[w % n1]:
            left -= 1
            for g in outer:
                v = w + g
                if v < ap[v % n1]:
                    ap[v % n1] = v
                    heappush(heap, v)
    return None, max(ap) - n1, ap


def _member_bits(S: Semigroup, top):
    """The members up to top as an int M: for 0 <= x <= top, bit x is set
    exactly when x is a member, and no higher bit is set.

    A semigroup built by `_member_closure` keeps M up to the window, and
    M is cut to top + 1 bits with every bit above F set, past the window
    too, in O(top / 64) word operations.  Every other semigroup closes its
    minimal generators up to top by `_close`, which took 0.37-1.03x the
    time of unrolling Ap(S, n1) into M in the median of each e and band of
    n1 up to 50, and 0.22-0.39x with n1 from 120 to 3000 (CPython 3.11).
    """
    # the cut took 0.61 us in the median against 3.3 us for a new closure
    # (CPython 3.11, the Betti top of the benchmark's generic semigroups)
    if S._member is not None:  # -2^(F+1) has every bit above F set
        return (S._member | -(1 << S.frobenius + 1)) & ((2 << top) - 1)
    return _close(S.minimal_generators, top)


def _apery_sized(S: Semigroup, xs):
    """(n, listing): n is |Ap(S, X)|, and listing() returns its members,
    so a caller can check n before anything is listed.

    Every member r of Ap(S, X) is at most top = F + min(X), since r - x is
    a member once it exceeds F.  listing() gives one run of them in one of
    two forms: a 0/1 byte mask of span top + 1, whose byte r is 1 exactly
    when r is a member, or the ascending list of ints.  The mask makes no
    int per member.  An X with no finite Apery set, empty, holding 0 or
    holding a non-member, is refused, in that order, before anything is
    counted.
    """
    if not xs:
        raise ValueError("Ap(S, {}) is all of S: X must be nonempty")
    if 0 in xs:
        raise ValueError("the Apery set of 0 is not defined")
    for x in xs:
        if x not in S:
            raise not_member(x, S.minimal_generators)
    top = S.frobenius + min(xs)
    # Past the window top / n1 has no bound, and a top-bit int could
    # outgrow the Apery table (F / n1 is 5403 on <99991, 100003, 166651>).
    # The window is also where the int stops paying (time per call on
    # CPython 3.11, random semigroups with n1 from 3 to 120 and e from 2
    # to 5): inside it, count and list took 0.41-0.79x the residues' time
    # in the median of each e and band of top / n1, and from there to 48 *
    # n1 a quarter of the calls took 1.25x or more.
    if top <= _WINDOW * S.generators[0]:
        return _apery_bits(S, xs, top)
    counts = _apery_counts(S, xs)
    return sum(counts), lambda: _apery_list(S, counts, top + 1)


def _apery_bits(S: Semigroup, xs, top):
    """The (n, listing) of `_apery_sized` for Ap(S, X), top = F + min(X),
    read off M = `_member_bits`(S, top).

    B = M & ~(M << x) over the x in X keeps the members r with r - x not
    in S, and an x above top removes nothing, so it is not shifted.  n is
    the popcount of B, and the listing is always the mask, B's binary
    digits read least significant first as the bytes 0 and 1: a list
    would be read off the same digits, one int per position, and took
    1.01-1.3x the mask's time (listing and writing, median of each band of
    span / n from 8 to 1024, n1 from 8 to 100).  That is O(|X| * top / 64)
    word operations on ints of top + 1 bits, plus O(top) for the listing.
    """
    member = bits = _member_bits(S, top)
    for x in xs:
        if x <= top:
            bits &= ~(member << x)
    n = bits.bit_count()
    return n, lambda: bin(bits)[:1:-1].encode().translate(_BITS)


def _apery_counts(S: Semigroup, xs):
    """Entry i is the number of members of Ap(S, X) congruent to i mod n1.

    With w = Ap(S, n1), the member w[i] + k*n1 is outside x + S exactly
    while it is below w[(i - x) mod n1] + x, and the difference is a
    multiple of n1.  So the sum is |Ap(S, X)|, in O(n1 * |X|) with no
    listing.  The column i -> w[(i - x) mod n1] + x is w rotated right by
    x mod n1, plus x: each is read lazily through `islice` and `chain`,
    and `map(min, ...)` takes the least over X, so no per-x list is built
    and the loops run at C speed.  X is a nonempty set of nonzero members,
    as `_apery_sized` checks.  `_apery_list` lists them.
    """
    w, n1 = S._apery, S.generators[0]
    cols = [map(x.__add__, chain(islice(w, n1 - x % n1, None),
                                 islice(w, n1 - x % n1))) for x in xs]
    least = cols[0] if len(cols) == 1 else map(min, *cols)
    return list(map(floordiv, map(sub, least, w), repeat(n1)))


def _apery_list(S: Semigroup, counts, span):
    """The members of Ap(S, X), all below span, from its `_apery_counts`:
    with n of them, a 0/1 byte mask of length span, one slice assignment
    per residue, when span <= 8 * n, else the ascending list, built from
    n1 progressions, O(span) or O(n log n1) time."""
    w, n1 = S._apery, S.generators[0]
    # against the list, the mask took 0.41x the time (listing and writing)
    # at spans under 2x n, 0.85x at 4-8x and 1.64x at 8-16x
    if span > 8 * sum(counts):
        return sorted(chain.from_iterable(
            [range(wi, wi + c * n1, n1) for wi, c in zip(w, counts)]))
    mask, ones = bytearray(span), b"\x01" * max(counts)
    for wi, c in zip(w, counts):
        mask[wi:wi + c * n1:n1] = ones[:c]
    return mask


def _depths(S: Semigroup):
    """Entry i is the length of one factorization of w[i], w = Ap(S, n1).

    A member x with one length has length (x - w[i]) / n1 + depth[i],
    i = x mod n1.  Built over Ap(S, n1) ascending: a w > 0 in it is not
    in n1 + S, so some factorization uses a g > n1 and w - g is in S; then
    w - g is in Ap(S, n1) too (else w - n1 = (w - g - n1) + g would be in
    S) and smaller, so depth[w mod n1] = depth[(w - g) mod n1] + 1 reads
    an entry already set.  O(n1 log n1 + n1 * e) time, O(n1) memory.
    """
    gens = S.minimal_generators
    w, n1, outer = S._apery, gens[0], gens[1:]
    depth = [0] * n1
    for v in sorted(w)[1:]:
        for g in outer:
            x = v - g
            if x >= w[x % n1]:
                depth[v % n1] = depth[x % n1] + 1
                break
    return depth


def betti_elements(S: Semigroup) -> BettiClassification:
    """All members with a disconnected factorization graph, classified.

    Only the candidates w + n_j (w in Ap(S, n1), n_j > n1 minimal) can be
    Betti elements: a disconnected graph of r has a component C without
    n1, and for n_j in its support r - n1 - n_j is not in S (z + e_1 + e_j
    would join C to the n1 side), so r - n_j is in Ap(S, n1).  They are
    at most X = max Ap(S, n1) + n_e.

    `_betti_bits` or `_betti_filter` of all candidates finds the Betti
    elements, and `_betti_classify` splits them.
    """
    gens = S.minimal_generators
    n1 = gens[0]
    # Past the window an X-bit int would outgrow the Apery table (X / n1
    # is 5406 on <99991, 100003, 166651>).  Inside it the bit pass took
    # 0.10-0.95x the filter's time, candidates included, in the median of
    # each e from 3 to 5 and n1 from 4 to 96, and 1.16x at n1 = 3; at e =
    # 2 it took 0.50-0.97x from n1 = 7 and 1.02-1.35x below (CPython 3.11,
    # 15 random semigroups per e and n1).  Those losses are a few
    # microseconds: taking the bit pass there too cost no band of the
    # benchmark's generic `sgp` requests, by command, e and n1, more than
    # 2% of its time.
    if S.frobenius + n1 + gens[-1] <= _WINDOW * n1:
        return _betti_classify(S, _betti_bits(S))
    return _betti_classify(S, _betti_filter(
        S, sorted({v + g for v in S._apery for g in gens[1:]})))


def _betti_filter(S: Semigroup, candidates):
    """The ascending candidates with a disconnected factorization graph,
    by O(e^2) inline membership tests each.

    Membership alone decides, each test read inline as x >= w[x mod n1]
    with w = Ap(S, n1).  The components (R-classes) match those of the
    graph on the live g (r - g in S), joining g and h when r - g - h is in
    S: each support is a clique there, and each edge lies in a support.  A
    candidate with fewer than two live generators is connected; otherwise
    one traversal from the first live generator, stopped once every live
    generator is reached, decides.  The live test and the traversal are
    plain loops: before CPython 3.12 a comprehension is a function call.
    """
    gens = S.minimal_generators
    w, n1 = S._apery, gens[0]
    betti = []
    for r in candidates:
        live = []
        for g in gens:
            if r - g >= w[(r - g) % n1]:
                live.append(g)
        if len(live) < 2:
            continue
        todo, rest = live[:1], live[1:]
        while todo:
            s, near, far = r - todo.pop(), [], []
            for h in rest:
                (far if s - h < w[(s - h) % n1] else near).append(h)
            if not far:  # every live generator is reached
                break
            todo += near
            rest = far
        if far:
            betti.append(r)
    return betti


def _betti_classify(S: Semigroup, betti):
    """The `BettiClassification` of the ascending Betti elements betti.

    Ascending, every unbalanced u < r is known.  If r - u in S, r is
    unbalanced.  If not, no r - g lies in u + S, so by the theorem `ulf`
    rests on each r - g in S has one length and L(r) is those lengths
    plus 1, each read off the `_depths` table.  That takes O(e) membership
    tests per Betti element, and `_depths`, O(n1 log n1 + n1 * e) time
    and O(n1) memory.
    """
    gens = S.minimal_generators
    w, n1, depth = S._apery, gens[0], _depths(S)
    balanced, unbalanced = [], []
    for r in betti:
        for u in unbalanced:
            if r - u >= w[(r - u) % n1]:
                break
        else:
            lengths = set()
            for g in gens:
                x = r - g
                if x >= w[x % n1]:
                    lengths.add((x - w[x % n1]) // n1 + depth[x % n1])
            if len(lengths) == 1:
                balanced.append(r)
                continue
        unbalanced.append(r)
    return BettiClassification(tuple(betti), tuple(balanced),
                               tuple(unbalanced))


def _betti_bits(S: Semigroup):
    """The candidates w + n_j of `betti_elements` with a disconnected
    graph, ascending, all decided at once on ints whose bit r stands for
    the candidate r <= X = max Ap(S, n1) + n_e.

    M = `_member_bits`(S, X) holds the members up to X, and A = M & ~(M
    << n1) those of Ap(S, n1), the members r with r - n1 not in S.

    The candidates are C = OR over j >= 2 of A << n_j.  Generator g is
    live at r when r - g is in S, so live_g = C & (M << g), and g and h
    are joined at r when r - g - h is in S, bit r of M << (g + h); such
    an edge lies inside live_g & live_h.  Each candidate starts reached
    at its first live generator, in generator order, and each round
    grows reach_g |= reach_h & (M << (g + h)) over all pairs, building
    an edge only where an unreached bit of live_g meets reach_h.  A path
    between live generators has fewer than e edges, so e - 1 rounds
    suffice, and a round that adds nothing ends the growth.  The
    candidates with a live generator left unreached are disconnected.
    Each round takes O(e^2 * X / 64) word operations, and the ints O(e *
    X) bits of memory.
    """
    gens = S.minimal_generators
    member = _member_bits(S, S.frobenius + gens[0] + gens[-1])
    a = member & ~(member << gens[0])
    cand = 0
    for g in gens[1:]:
        cand |= a << g
    live, reach, seen = [], [], 0
    for g in gens:
        bits = cand & (member << g)
        live.append(bits)
        reach.append(bits & ~seen)  # rooted at its first live generator
        seen |= bits
    for _ in gens[1:]:
        grown = False
        for k, g in enumerate(gens):
            left = live[k] & ~reach[k]
            if not left:
                continue
            for j, h in enumerate(gens):
                hit = left & reach[j]  # 0 at j == k
                if hit:
                    hit &= member << (g + h)
                    if hit:
                        reach[k] |= hit
                        left &= ~hit
                        grown = True
        if not grown:
            break
    split = 0
    for bits, got in zip(live, reach):
        split |= bits & ~got
    digits, out = bin(split)[:1:-1], []
    r = digits.find("1")
    while r >= 0:
        out.append(r)
        r = digits.find("1", r + 1)
    return out


def _ulf_sized(S: Semigroup):
    """The `_apery_sized` of Ap(S, UBetti(S)), the unique-length members,
    after one Betti search.  Among numerical semigroups only N has no
    unbalanced Betti element, and its unique-length set, all of N, is
    refused."""
    unbalanced = betti_elements(S).unbalanced
    if not unbalanced:
        raise ValueError("every member of N has one factorization length: "
                         "the unique-length set of N is all of N")
    return _apery_sized(S, unbalanced)


def ulf(S: Semigroup):
    """All members whose factorization length set is a singleton.

    Listed as Ap(S, UBetti(S)) by `_ulf_sized`, which refuses N, where
    every member qualifies, with a ValueError.
    """
    return _members(_ulf_sized(S)[1]())
