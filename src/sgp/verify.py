"""`sgp verify`: the closed forms checked against the generic engine.

For each a in [a-min, a-max], `_verify_triple` checks every closed form
of `consecutive_triple` on every r up to 3a past the two-length
threshold of <a, a+1, a+2>; --arith adds the Betti formulas and
presentations of `arithmetic_sequence`, and --random N spot-checks N
random semigroups for the unique-length/Apery identity.  `cli.main`
imports this module only for `verify`, so no other command compiles it.

The triple sweep is O(a^3) for large a, because it checks every listed
vector; its cost is the closed forms' arithmetic and that check.  At
a = 45 (1216 values of r, 2598 vectors) `_verify_triple` takes 3.3 ms,
0.3 ms of it the engine's tables (median of five best-of-200 timings, 2
cores, Python 3.11.7).
"""

from itertools import compress, repeat
from operator import eq

from . import cli
from . import consecutive_triple as ct
from . import core_semigroup as core


def _last_r(a):
    # the last r that _verify_triple(a) checks, 3a past the two-length
    # threshold: its length table has _last_r(a) + 1 entries
    return ct.TripleSemigroup(a).ulf_bound + 3 * a


def _verify_triple(a):
    """Check every closed form for one a; (checks, failure or None).

    Nothing is enumerated.  Membership and length sets come from the
    bitmask table of `core._length_masks` (bit l of entry r set exactly
    when l is in L(r)), and factorization counts d(r) from the
    coin-change table of `core._denumerants`, which shares no code with
    the closed forms.  The closed-form list for r is the factorization
    set F(r) exactly when its vectors have three non-negative coordinates
    and value r (so each lies in F(r)), are distinct, and number d(r) =
    |F(r)|: a set of d(r) distinct elements of F(r) is all of F(r).  So
    the check equals sorted(list) == sorted(F(r)) without listing F(r).

    Each vector is checked in one plain loop, and a vector of other than
    three coordinates fails its unpacking.  The closed forms are read
    from `consecutive_triple` once per call, so a replaced one is the one
    checked.
    """
    S = core.Semigroup((a, a + 1, a + 2))
    threshold = ct.TripleSemigroup(a).ulf_bound
    masks = core._length_masks(S, _last_r(a))
    counts = core._denumerants(S, threshold)
    member, one_length, factorizations, denumerant, decompose, gamma = (
        ct.member_triple, ct.ulf_membership_triple, ct.factorizations_triple,
        ct.denumerant_triple, ct.decompose_triple, ct.gamma)
    n2, n3 = a + 1, a + 2
    checks = 0
    for r, mask in enumerate(masks):
        if member(a, r) != (mask != 0):
            return checks, (a, r, "membership mismatch")
        checks += 1
        if not mask:
            continue
        if one_length(a, r) != (mask & (mask - 1) == 0):
            return checks, (a, r, "unique-length membership mismatch")
        checks += 1
        if r >= threshold:
            continue
        count = counts[r]
        fast = factorizations(a, r)
        if len(fast) != count or len(set(fast)) != count:
            return checks, (a, r, "factorization set mismatch")
        try:
            for x, y, z in fast:
                if x < 0 or y < 0 or z < 0 or a * x + n2 * y + n3 * z != r:
                    return checks, (a, r, "factorization set mismatch")
        except ValueError:  # a vector of other than three coordinates
            return checks, (a, r, "factorization set mismatch")
        if denumerant(a, r) != count:
            return checks, (a, r, "denumerant mismatch")
        if mask != 1 << (r // a):
            return checks, (a, r, "length set is not {floor(r/a)}")
        d, i, c = decompose(a, r)
        if n2 * (2 * d - 2 + i) + c != r or c not in gamma(i) or d != count:
            return checks, (a, r, "decomposition mismatch")
        checks += 4
    if masks[threshold].bit_count() < 2:
        return checks, (a, threshold, "threshold should have two lengths")
    checks += 1
    return checks, None


def _verify_arith(a):
    from . import arithmetic_sequence as arith

    checks = 0
    for d in (1, 2, 3):
        for n in range(2, min(4, a - 1) + 1):
            try:
                A = arith.ArithSemigroup(a, d, n)
            except ValueError:
                continue
            S = core.Semigroup(A.generators)
            cls = core.betti_elements(S)
            if list(cls.betti) != arith.betti_arith(A):
                return checks, (a, (d, n), "betti mismatch")
            if list(cls.unbalanced) != arith.ubetti_arith(A):
                return checks, (a, (d, n), "unbalanced betti mismatch")
            gens = S.minimal_generators
            for x, y in arith.presentation_arith(A).relations:
                if x.value(gens) != y.value(gens):
                    return checks, (a, (d, n), "relator with unequal sides")
            checks += 3
    return checks, None


def _verify_random(count, seed):
    import random

    rng = random.Random(seed)
    checks = 0
    done = 0
    while done < count:
        k = rng.randint(2, 4)
        cand = sorted(rng.sample(range(2, 31), k))
        try:
            S = core.Semigroup(cand)
        except ValueError:
            continue
        if not 2 <= len(S.minimal_generators) <= 4:
            continue
        done += 1
        cls = core.betti_elements(S)
        thm = core.apery_multi(S, cls.unbalanced)
        top = max(max(thm), max(cls.betti)) + max(S.minimal_generators) + 1
        masks = core._length_masks(S, top)
        # the members with one length: masks with one bit set
        brute = list(compress(range(len(masks)),
                              map(eq, map(int.bit_count, masks), repeat(1))))
        if brute != thm:
            return checks, (tuple(S.minimal_generators), None,
                            "unique-length set differs from the Apery form")
        b, thm_set = min(cls.unbalanced), set(thm)
        below = thm_set.issuperset(compress(range(b), masks))
        if not below or b in thm_set:
            return checks, (tuple(S.minimal_generators), b,
                            "least unbalanced Betti element contract")
        checks += 2
    return checks, None


def cmd_verify(ns):
    """The PASS or FAIL line of one verify run, and its exit code."""
    if ns.gens is not None or ns.a is not None:
        raise ValueError("verify sweeps its own semigroups; "
                         "it takes neither --gens nor --a")
    if ns.a_min < 3 or ns.a_max < ns.a_min:
        raise ValueError("need 3 <= a-min <= a-max")
    if ns.random < 0:
        raise ValueError("--random wants a non-negative count")
    # the length table of _verify_triple is the longest at a-max
    size = _last_r(ns.a_max) + 1
    # cli.MAX_LISTED is read per call, so a change to it after import holds
    if size > cli.MAX_LISTED:
        raise ValueError("verify would build a length table of %d entries "
                         "for a = %d, more than %d"
                         % (size, ns.a_max, cli.MAX_LISTED))
    a_values = range(ns.a_min, ns.a_max + 1)
    results = [_verify_triple(a) for a in a_values]
    if ns.arith:
        results += [_verify_arith(a) for a in a_values if a >= 5]
    if ns.random:
        results.append(_verify_random(ns.random, ns.seed))
    for _, failure in results:
        if failure is not None:
            return "FAIL %s\n" % (failure,), 1
    return "PASS (%d checks)\n" % sum(c for c, _ in results), 0
