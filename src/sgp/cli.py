"""Command-line interface.

    sgp [--gens LIST | --a N] [--format json|csv|text] [--fast|--oracle]
        COMMAND [ARGS]

Exactly one of --gens / --a selects the semigroup; --a N is shorthand for
the consecutive triple <a, a+1, a+2> and unlocks the closed-form paths.
`verify` sweeps its own semigroups and takes neither.  By default each
command uses the closed form where one applies and falls back to the
generic engine of `core_semigroup` otherwise, noting the fallback on
stderr; --fast demands the closed form (usage error outside its domain)
and --oracle skips the closed forms and answers with the generic engine.
JSON output carries a "method" field naming the code path that produced
it: "closed-form" or "enumeration", the latter meaning the generic
engine.

Exit codes: 0 ok, 1 verification failure, 2 usage error, 3 non-member
query.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache, partial
from itertools import chain

from . import consecutive_triple as ct
from . import core_semigroup as core

CLOSED_FORM = "closed-form"
ENUMERATION = "enumeration"
# factorize, apery, ulf and table refuse to list more, and verify to build
# a longer length table
MAX_LISTED = 10 ** 6
# the generic engine's Apery table has n1 entries; larger n1 is refused
MAX_N1 = 10 ** 6


class UsageError(ValueError):
    pass


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The sgp parser, built on first use and then shared by every call."""
    p = argparse.ArgumentParser(
        prog="sgp",
        description="Exact factorization analytics for numerical semigroups.")
    p.add_argument("--gens", metavar="LIST",
                   help="comma-separated generators, e.g. 3,4,5")
    p.add_argument("--a", type=int, metavar="N",
                   help="use the semigroup <N, N+1, N+2>")
    p.add_argument("--format", choices=("json", "csv", "text"),
                   default="text", dest="fmt")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--fast", action="store_true",
                      help="closed forms only; error outside their domain")
    mode.add_argument("--oracle", action="store_true",
                      help="skip the closed forms; answer with the "
                           "generic engine")

    sub = p.add_subparsers(dest="command", required=True)
    sub.add_parser("info", help="generators, Frobenius number, Betti "
                                "classification, unique-length count")
    text = ("all factorizations of an element (refused above %d)"
            % MAX_LISTED)
    f = sub.add_parser("factorize", help=text, description=text)
    f.add_argument("r", type=int)
    text = ("Apery set of one or more members (refused above %d members)"
            % MAX_LISTED)
    ap = sub.add_parser("apery", help=text, description=text)
    ap.add_argument("x", type=int, nargs="+")
    sub.add_parser("betti", help="Betti elements, balanced and unbalanced")
    text = ("all members with a one-length factorization set (refused "
            "above %d members)" % MAX_LISTED)
    u = sub.add_parser("ulf", help=text, description=text)
    u.add_argument("--bound", type=int, default=None,
                   help="window bound (>= 0), needed only when the set "
                        "is infinite")
    text = ("length-by-denumerant partition table (consecutive triples "
            "only; refused above %d members)" % MAX_LISTED)
    sub.add_parser("table", help=text, description=text)
    sub.add_parser("presentation", help="minimal presentation (consecutive "
                                        "triples and arithmetic sequences)")
    text = ("closed forms against the engine, up to 3a past the two-length "
            "threshold (refused when the length table of a-max would have "
            "more than %d entries)" % MAX_LISTED)
    v = sub.add_parser("verify", help=text, description=text)
    v.add_argument("--a-min", type=int, default=3)
    v.add_argument("--a-max", type=int, default=12)
    v.add_argument("--arith", action="store_true",
                   help="also sweep the arithmetic-sequence Betti formulas")
    v.add_argument("--random", type=int, default=0, metavar="N",
                   help="also spot-check N random semigroups for the "
                        "unique-length/Apery identity")
    v.add_argument("--seed", type=int, default=0,
                   help="seed for --random sampling")
    return p


class Target:
    """The semigroup a command addresses.

    gens are the parsed generators, sorted and deduplicated; a is the a of
    <a, a+1, a+2> when they are one (a >= 3), else None.  Only the
    generic-engine paths build core.Semigroup(gens), through _engine.
    """

    def __init__(self, ns):
        if (ns.gens is None) == (ns.a is None):
            raise UsageError("exactly one of --gens / --a is required")
        if ns.a is not None:
            if ns.a < 1:
                raise UsageError("--a wants a positive integer")
            gens = (ns.a, ns.a + 1, ns.a + 2)
        else:
            try:
                gens = [int(part) for part in ns.gens.split(",")]
            except ValueError:
                raise UsageError("--gens wants comma-separated integers, "
                                 "got %r" % ns.gens)
        g = self.gens = tuple(sorted(set(gens)))
        self.a = g[0] if len(g) == 3 and g[2] == g[0] + 2 and g[0] >= 3 \
            else None


def _resolve(target, ns, command, closed, enum,
             reason="not a consecutive triple"):
    """Answer one command by closed form or generic engine: (result, method).

    closed and enum are thunks; closed is None where no closed form
    applies, with reason saying why, and enum (the generic engine) is None
    for commands that have no enumeration mode.  --oracle skips the
    closed forms and answers with the generic engine; without it the
    closed form runs unless it is None.  Otherwise a command without
    enumeration, or --fast, is a usage error; a consecutive triple falling
    back without --oracle notes the fallback on stderr; and enum runs.
    """
    if closed is not None and not ns.oracle:
        return closed(), CLOSED_FORM
    if enum is None:
        if ns.oracle:
            raise UsageError("%s has no enumeration mode for --oracle"
                             % command)
        raise UsageError("no closed form for %s (%s), and it has no "
                         "enumeration mode" % (command, reason))
    if ns.fast:
        raise UsageError("--fast: no closed form for %s (%s)"
                         % (command, reason))
    if target.a is not None and not ns.oracle:
        print("fallback=%s command=%s reason=%s" % (ENUMERATION, command,
                                                    reason), file=sys.stderr)
    return enum(), ENUMERATION


def _emit(ns, text, obj, csv):
    """Write one answer to stdout in one piece, in the format ns.fmt.

    text and csv are thunks giving the lines of those formats, and obj one
    giving the JSON object; only the one for ns.fmt runs.
    """
    if ns.fmt == "json":
        out = json.dumps(obj(), sort_keys=True) + "\n"
    else:
        lines = (text if ns.fmt == "text" else csv)()
        out = "".join([line + "\n" for line in lines])
    sys.stdout.write(out)


def _check_listed(command, n, what="members"):
    # what names the items, and says so when n is only a lower bound
    if n > MAX_LISTED:
        raise UsageError("%s would list %d %s, more than %d"
                         % (command, n, what, MAX_LISTED))


def _engine(t):
    """core.Semigroup(t.gens), refused at once when n1 > MAX_N1."""
    if t.gens[0] > MAX_N1:
        raise UsageError("the engine would build an Apery table of n1 = %d "
                         "entries, more than %d" % (t.gens[0], MAX_N1))
    return core.Semigroup(t.gens)


def _triple_form(t, fn):
    """fn(t.a) as a thunk when t is a consecutive triple, else None."""
    return partial(fn, t.a) if t.a is not None else None


def cmd_info(t, ns) -> int:
    def closed(a):
        ts = ct.TripleSemigroup(a)
        return (ts.generators, ts.frob, ct.ubetti_triple(a), ts.ulf_size,
                ts.ulf_bound)

    def enum():
        S = _engine(t)
        cls = core.betti_elements(S)
        # |ULF(S)| = |Ap(S, UBetti)|, counted without listing; None on N
        size = (sum(core._apery_counts(S, cls.unbalanced))
                if cls.unbalanced else None)
        return S.minimal_generators, S.frobenius, cls, size, None

    (mingens, frob, cls, ulf_size, threshold), method = _resolve(
        t, ns, "info", _triple_form(t, closed), enum)

    def obj():
        o = {"method": method,
             "generators": list(t.gens),
             "minimal_generators": list(mingens),
             "frobenius": frob,
             "betti": list(cls.betti),
             "balanced": list(cls.balanced),
             "unbalanced": list(cls.unbalanced),
             "ulf_size": ulf_size}
        if threshold is not None:
            o["ulf_bound"] = threshold
        return o

    def text():
        lines = ["minimal generators: %s" % (list(mingens),),
                 "frobenius: %d" % frob]
        if threshold is not None:
            lines.append("two-length threshold: %d" % threshold)
        return lines + [
            "betti: %s (balanced %s, unbalanced %s)"
            % (list(cls.betti), list(cls.balanced), list(cls.unbalanced)),
            "unique-length members: %s"
            % ("unbounded" if ulf_size is None else ulf_size)]

    _emit(ns, text, obj, lambda: [  # a list holds commas: quote it
        "%s,%s" % (k, '"%s"' % v if "," in str(v) else v)
        for k, v in sorted(obj().items())])
    return 0


def cmd_factorize(t, ns) -> int:
    r = ns.r
    closed = None
    if t.a is not None and not ns.oracle:  # else the engine count decides
        lengths = ct._lengths(t.a, r)
        # one omega-orbit of min(phi_1, phi_3) + 1 vectors per length,
        # growing by about a/2 per length from the longest: the sum passes
        # MAX_LISTED or L(r) ends within about 1500 lengths
        n, what = 0, "factorizations"
        for ell in reversed(lengths):
            if n > MAX_LISTED:
                what = "or more factorizations"
                break
            p1, _, p3 = ct._phi(t.a, r, ell)
            n += min(p1, p3) + 1
        _check_listed("factorize", n, what)
        closed = partial(ct.factorizations_triple, t.a, r)

    def enum():
        S = _engine(t)
        if r not in S:
            raise core.NotMemberError("%d is not in %r" % (r, S))
        _check_listed("factorize",
                      core._factorization_count(S, r, MAX_LISTED),
                      "or more factorizations")
        return core.factorizations(S, r)

    facs, method = _resolve(t, ns, "factorize", closed, enum)
    _emit(ns, lambda: [" ".join(map(str, f)) for f in facs],
          lambda: {"method": method, "r": r,
                   "factorizations": [list(f) for f in facs]},
          lambda: [",".join(map(str, f)) for f in facs])
    return 0


def cmd_apery(t, ns) -> int:
    xs = sorted(set(ns.x))

    def enum():
        S = _engine(t)
        # counted in O(n1 * |X|), so a huge Apery set is refused at once,
        # and listed from the same counts
        counts = core._apery_counts(S, xs)
        _check_listed("apery", sum(counts))
        return core._apery_list(S, counts)

    members, method = _resolve(t, ns, "apery", None, enum, "enumeration only")
    _emit(ns, lambda: [" ".join(map(str, members))],
          lambda: {"method": method, "x": xs, "apery": members},
          lambda: map(str, members))
    return 0


def cmd_betti(t, ns) -> int:
    cls, method = _resolve(
        t, ns, "betti", _triple_form(t, ct.ubetti_triple),
        lambda: core.betti_elements(_engine(t)))
    _emit(ns,
          lambda: ["betti: %s" % (list(cls.betti),),
                   "balanced: %s" % (list(cls.balanced),),
                   "unbalanced: %s" % (list(cls.unbalanced),)],
          lambda: {"method": method, "betti": list(cls.betti),
                   "balanced": list(cls.balanced),
                   "unbalanced": list(cls.unbalanced)},
          lambda: ["%d,%s" % (b, "balanced" if b in cls.balanced
                                else "unbalanced")
                   for b in cls.betti])
    return 0


def cmd_ulf(t, ns) -> int:
    if ns.bound is not None and ns.bound < 0:
        raise UsageError("--bound wants a non-negative integer")
    if t.a is not None:  # O(1), so a huge triple is refused at once
        _check_listed("ulf", ct.TripleSemigroup(t.a).ulf_size)

    def enum():
        # core.ulf, sized before listing and listed from the same counts;
        # on N the listing stops at --bound, and apery_multi refuses a
        # missing one
        S = _engine(t)
        ubetti = core.betti_elements(S).unbalanced
        if not ubetti:
            _check_listed("ulf", (ns.bound or 0) + 1)
            return core.apery_multi(S, ubetti, ns.bound)
        counts = core._apery_counts(S, ubetti)
        _check_listed("ulf", sum(counts))
        return core._apery_list(S, counts)

    members, method = _resolve(
        t, ns, "ulf",
        _triple_form(t, lambda a: list(chain.from_iterable(
            ct.s_ell(a, ell) for ell in range(a + 1)))), enum)
    _emit(ns, lambda: [" ".join(map(str, members))],
          lambda: {"method": method, "count": len(members), "ulf": members},
          lambda: map(str, members))
    return 0


def cmd_table(t, ns) -> int:
    from . import render

    if t.a is not None:
        _check_listed("table", (ct.TripleSemigroup(t.a).L + 1) ** 2)
    table, _ = _resolve(
        t, ns, "table", _triple_form(t, render.partition_table), None)
    write = {"csv": render.table_to_csv, "json": render.table_to_json,
             "text": render.table_to_text}[ns.fmt]
    sys.stdout.write(write(table))
    return 0


def _arith_form(g):
    """presentation_arith as a thunk when the sorted distinct generators g
    are an arithmetic sequence it covers, else None."""
    from . import arithmetic_sequence as arith

    if len(g) < 2:
        return None
    d = g[1] - g[0]
    if any(g[i] - g[i - 1] != d for i in range(1, len(g))):
        return None
    try:
        return partial(arith.presentation_arith,
                       arith.ArithSemigroup(g[0], d, len(g) - 1))
    except ValueError:
        return None


def cmd_presentation(t, ns) -> int:
    closed = _triple_form(t, ct.presentation_triple) or _arith_form(t.gens)
    pres, method = _resolve(
        t, ns, "presentation", closed, None,
        "need a consecutive triple or an arithmetic sequence")
    _emit(ns,
          lambda: ["%s  =  %s   (value %d)"
                   % (" ".join(map(str, x)), " ".join(map(str, y)),
                      x.value(t.gens))
                   for x, y in pres.relations],
          lambda: {"method": method,
                   "relations": [[list(x), list(y)]
                                 for x, y in pres.relations]},
          lambda: ["%s,%s" % (" ".join(map(str, x)), " ".join(map(str, y)))
                   for x, y in pres.relations])
    return 0


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
    """
    S = core.Semigroup((a, a + 1, a + 2))
    ts = ct.TripleSemigroup(a)
    top = ts.ulf_bound + 3 * a
    masks = core._length_masks(S, top)
    counts = core._denumerants(S, ts.ulf_bound)
    checks = 0
    for r, mask in enumerate(masks):
        member = mask != 0
        if ct.member_triple(a, r) != member:
            return checks, (a, r, "membership mismatch")
        checks += 1
        if member:
            one_length = mask & (mask - 1) == 0
            if ct.ulf_membership_triple(a, r) != one_length:
                return checks, (a, r, "unique-length membership mismatch")
            checks += 1
        if member and r < ts.ulf_bound:
            fast = ct.factorizations_triple(a, r)
            if (any(len(x) != 3 or min(x) < 0
                    or a * x[0] + (a + 1) * x[1] + (a + 2) * x[2] != r
                    for x in fast)
                    or len(set(fast)) != len(fast)
                    or len(fast) != counts[r]):
                return checks, (a, r, "factorization set mismatch")
            if ct.denumerant_triple(a, r) != counts[r]:
                return checks, (a, r, "denumerant mismatch")
            if mask != 1 << (r // a):
                return checks, (a, r, "length set is not {floor(r/a)}")
            dec = ct.decompose_triple(a, r)
            if ((a + 1) * (2 * dec.d - 2 + dec.i) + dec.c != r
                    or dec.c not in ct.gamma(dec.i)
                    or dec.d != counts[r]):
                return checks, (a, r, "decomposition mismatch")
            checks += 4
    if masks[ts.ulf_bound].bit_count() < 2:
        return checks, (a, ts.ulf_bound, "threshold should have two lengths")
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
            for x, y in arith.presentation_arith(A).relations:
                if S.value(x) != S.value(y):
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
        brute = [r for r, m in enumerate(masks) if m and m & (m - 1) == 0]
        if brute != thm:
            return checks, (tuple(S.minimal_generators), None,
                            "unique-length set differs from the Apery form")
        b, thm_set = min(cls.unbalanced), set(thm)
        below = all(r in thm_set for r in range(b) if masks[r])
        if not below or b in thm_set:
            return checks, (tuple(S.minimal_generators), b,
                            "least unbalanced Betti element contract")
        checks += 2
    return checks, None


def cmd_verify(ns) -> int:
    if ns.gens is not None or ns.a is not None:
        raise UsageError("verify sweeps its own semigroups; "
                         "it takes neither --gens nor --a")
    if ns.a_min < 3 or ns.a_max < ns.a_min:
        raise UsageError("need 3 <= a-min <= a-max")
    if ns.random < 0:
        raise UsageError("--random wants a non-negative count")
    # _verify_triple(a) builds a length table of ulf_bound + 3a + 1
    # entries, the most at a-max
    size = ct.TripleSemigroup(ns.a_max).ulf_bound + 3 * ns.a_max + 1
    if size > MAX_LISTED:
        raise UsageError("verify would build a length table of %d entries "
                         "for a = %d, more than %d"
                         % (size, ns.a_max, MAX_LISTED))
    a_values = range(ns.a_min, ns.a_max + 1)
    results = [_verify_triple(a) for a in a_values]
    if ns.arith:
        results += [_verify_arith(a) for a in a_values if a >= 5]
    if ns.random:
        results.append(_verify_random(ns.random, ns.seed))
    total = sum(c for c, _ in results)
    for _, failure in results:
        if failure is not None:
            print("FAIL %s" % (failure,))
            return 1
    print("PASS (%d checks)" % total)
    return 0


COMMANDS = {"info": cmd_info, "factorize": cmd_factorize, "apery": cmd_apery,
            "betti": cmd_betti, "ulf": cmd_ulf, "table": cmd_table,
            "presentation": cmd_presentation}


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        if ns.command == "verify":
            return cmd_verify(ns)
        return COMMANDS[ns.command](Target(ns), ns)
    except core.NotMemberError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    except ValueError as exc:  # UsageError and invalid generators
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
