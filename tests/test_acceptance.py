"""Acceptance gate: nine criteria, one test and one printed verdict line each.

Every criterion is exact (zero mismatches tolerated); the three that carry
runtime ceilings assert wall-clock time measured around the sweep alone.
Run with -s (or read the captured output of a failure) to see the verdict
lines; `pytest -v` gives the per-criterion pass/fail from the test names.
"""

import random
import time
from contextlib import contextmanager

import golden
from sgp.arithmetic_sequence import ArithSemigroup, betti_arith, presentation_arith, ubetti_arith
from sgp.consecutive_triple import (
    TripleSemigroup,
    decompose_triple,
    denumerant_triple,
    factorizations_triple,
    gamma,
    length_triple,
    member_triple,
    s_d_ulf,
    s_ell,
    ulf_triple,
)
from sgp.core_semigroup import (
    Semigroup,
    apery_multi,
    betti_elements,
    factorizations,
    length_sets_up_to,
    ulf,
)
from sgp.render import (
    monomial_table,
    partition_table,
    ulf_by_denumerant_report,
    ulf_by_length_report,
)


@contextmanager
def criterion(n, label):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print("ACCEPTANCE %d: FAIL (%s)" % (n, label))
        raise
    print("ACCEPTANCE %d: PASS (%s, %.2fs)" % (n, label,
                                               time.perf_counter() - t0))


def test_criterion_1_betti_reproduction():
    with criterion(1, "Betti sets of the three reference triples, <1s each"):
        for gens, expected in sorted(golden.BETTI.items()):
            if len(gens) != 3 or gens[0] < 9:
                continue
            t0 = time.perf_counter()
            cls = betti_elements(Semigroup(gens))
            elapsed = time.perf_counter() - t0
            assert list(cls.betti) == expected, gens
            assert elapsed < 1.0, (gens, elapsed)


def test_criterion_2_ulf_reproduction():
    with criterion(2, "unique-length sets match the transcript lists"):
        assert ulf(Semigroup((10, 11, 12))) == sorted(golden.APERY_60_A10)
        assert ulf(Semigroup((15, 16, 17))) == golden.ULF_A15


def test_criterion_3_figure_goldens():
    with criterion(3, "partition figures and monomial figure, exact strings"):
        for a, cells in ((10, golden.FIGURE_A10), (15, golden.FIGURE_A15)):
            table = partition_table(a)
            assert {k: tuple(v) for k, v in table.cells.items()} == cells, a
        reference = monomial_table(15, 7, 4).cells
        assert {k: tuple(v) for k, v in reference.items()} == \
            golden.MONOMIAL_CELLS
        for a in (17, 20):
            assert monomial_table(a, 7, 4).cells == reference, a


def test_criterion_4_oracle_equivalence_sweep():
    t0 = time.perf_counter()
    with criterion(4, "closed forms equal the engine for a in [3,40], <2min"):
        for a in range(3, 41):
            S = Semigroup((a, a + 1, a + 2))
            bound = TripleSemigroup(a).ulf_bound
            lsets = length_sets_up_to(S, bound + 3 * a)
            for r in range(bound + 3 * a + 1):
                assert member_triple(a, r) == (lsets[r] is not None), (a, r)
            for r in range(bound):
                if lsets[r] is None:
                    continue
                facs = factorizations(S, r)
                assert factorizations_triple(a, r) == facs, (a, r)
                assert denumerant_triple(a, r) == len(facs), (a, r)
                assert lsets[r] == {r // a}, (a, r)
                assert length_triple(a, r) == r // a, (a, r)
                dec = decompose_triple(a, r)
                assert (a + 1) * (2 * dec.d - 2 + dec.i) + dec.c == r, (a, r)
                assert dec.d == len(facs), (a, r)
                assert dec.c in gamma(dec.i), (a, r)
                assert 2 * (dec.d - 1) + dec.i == r // a, (a, r)
        assert time.perf_counter() - t0 < 120.0


def test_criterion_5_unique_length_apery_identity():
    with criterion(5, "ULF = Ap(S, UBetti) on 30 random semigroups"):
        rng = random.Random(20260823)
        done = 0
        while done < 30:
            k = rng.randint(2, 4)
            cand = tuple(sorted(rng.sample(range(2, 31), k)))
            try:
                S = Semigroup(cand)
            except ValueError:
                continue
            if not 2 <= len(S.minimal_generators) <= 4:
                continue
            done += 1
            cls = betti_elements(S)
            assert cls.unbalanced, cand
            members = apery_multi(S, cls.unbalanced)
            window = max(members[-1], cls.betti[-1]) + \
                S.minimal_generators[-1] + 1
            lsets = length_sets_up_to(S, window)
            brute = [r for r in range(window + 1)
                     if lsets[r] is not None and len(lsets[r]) == 1]
            assert members == brute, cand
            b = cls.unbalanced[0]
            in_ulf = set(members)
            assert b not in in_ulf, cand
            for r in range(b):
                if lsets[r] is not None:
                    assert r in in_ulf, (cand, r)


def test_criterion_6_partition_properties():
    with criterion(6, "S^ell and S_d partitions of the unique-length set"):
        for a in range(3, 41):
            everything = {u.r for u in ulf_triple(a)}
            seen = set()
            for ell in range(a + 1):
                piece = set(s_ell(a, ell))
                assert not (piece & seen), (a, ell)
                seen |= piece
            assert seen == everything, a
            T = TripleSemigroup(a)
            S = Semigroup(T.generators)
            low = set()
            for ell in range(T.L + 1):
                low |= set(s_ell(a, ell))
            cap = (a + 2) * T.L
            assert low == {r for r in range(cap + 1) if r in S}, a
            seen = set()
            top_d = a // 2 if a % 2 == 0 else (a + 1) // 2
            for d in range(1, top_d + 1):
                piece = set(s_d_ulf(a, d))
                assert not (piece & seen), (a, d)
                seen |= piece
            assert seen == everything, a


def test_criterion_7_transcript_displays():
    with criterion(7, "by-length and by-denumerant displays, a=10 and a=9"):
        rows = ulf_by_length_report(Semigroup((10, 11, 12)))
        assert [row for _, row in rows] == golden.BY_LENGTH_A10
        rows = ulf_by_denumerant_report(Semigroup((10, 11, 12)))
        assert [row for _, row in rows] == golden.BY_DENUMERANT_A10
        rows = ulf_by_denumerant_report(Semigroup((9, 10, 11)))
        assert [row for _, row in rows] == golden.BY_DENUMERANT_A9
        # no printed transcript exists for this display; the closed-form
        # rows stand in for it
        rows = ulf_by_length_report(Semigroup((9, 10, 11)))
        assert [row for _, row in rows] == \
            [list(s_ell(9, ell)) for ell in range(10)]


def _closure_connects(facs, relators):
    """True when the relator moves link every factorization of one element."""
    parent = {f: f for f in facs}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    known = set(facs)
    moves = []
    for x, y in relators:
        moves.append((tuple(x), tuple(y)))
        moves.append((tuple(y), tuple(x)))
    for f in facs:
        for x, y in moves:
            if all(fi >= xi for fi, xi in zip(f, x)):
                g = tuple(fi - xi + yi for fi, xi, yi in zip(f, x, y))
                if g in known:
                    ra, rb = find(f), find(g)
                    if ra != rb:
                        parent[ra] = rb
    return len({find(f) for f in facs}) == 1


def test_criterion_8_arithmetic_formulas():
    t0 = time.perf_counter()
    with criterion(8, "arithmetic-sequence Betti and presentations, <3min"):
        for a in range(5, 21):
            for d in (1, 2, 3):
                for n in range(2, min(4, a - 1) + 1):
                    try:
                        A = ArithSemigroup(a, d, n)
                    except ValueError:
                        continue  # gcd(a, d) > 1
                    S = Semigroup(A.generators)
                    cls = betti_elements(S)
                    assert betti_arith(A) == list(cls.betti), (a, d, n)
                    assert ubetti_arith(A) == list(cls.unbalanced), (a, d, n)
                    relators = presentation_arith(A).relations
                    gens = S.minimal_generators
                    for x, y in relators:
                        assert x.value(gens) == y.value(gens), (a, d, n)
                    window = S.frobenius + 2 * A.generators[-1]
                    for r in range(window + 1):
                        facs = [tuple(f) for f in factorizations(S, r)]
                        if len(facs) > 1:
                            assert _closure_connects(facs, relators), \
                                (a, d, n, r)
        assert time.perf_counter() - t0 < 180.0


def test_criterion_9_boundary_sharpness():
    with criterion(9, "two-length threshold sharp for a in [3,60]"):
        for a in range(3, 61):
            T = TripleSemigroup(a)
            S = Semigroup(T.generators)
            bound = T.ulf_bound
            facs = factorizations(S, bound)
            assert len(facs) == 2, a
            lengths = sorted(f.length for f in facs)
            assert lengths[1] - lengths[0] == 1, a
            if a % 2 == 0:
                k = a // 2
                assert set(map(tuple, facs)) == {(k + 1, 0, 0), (0, 0, k)}, a
                assert lengths == [k, k + 1], a
            else:
                k = (a - 1) // 2
                assert set(map(tuple, facs)) == {(k + 2, 0, 0), (0, 1, k)}, a
                assert lengths == [k + 1, k + 2], a
            lsets = length_sets_up_to(S, bound - 1)
            for r, ls in enumerate(lsets):
                if ls is not None:
                    assert ls == {r // a}, (a, r)
