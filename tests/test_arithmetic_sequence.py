"""Arithmetic-sequence closed forms: <a, a+d, ..., a+nd> with gcd(a,d)=1."""

from math import gcd
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sgp import oracle
from sgp.arithmetic_sequence import (
    ArithSemigroup,
    PairSemigroup,
    betti_arith,
    classify_arith,
    presentation_arith,
    ubetti_arith,
)
from sgp.consecutive_triple import presentation_triple
from sgp.core_semigroup import Semigroup, betti_elements, factorizations
from sgp.oracle import length_set
from sgp.records import NotMemberError


def test_construction():
    A = ArithSemigroup(10, 1, 2)
    assert A.generators == (10, 11, 12)
    assert (A.b, A.c) == (2, 4)
    A = ArithSemigroup(9, 1, 2)
    assert (A.b, A.c) == (1, 4)
    A = ArithSemigroup(5, 3, 3)
    assert A.generators == (5, 8, 11, 14)
    assert (A.b, A.c) == (2, 1)
    # a = c*n + b with b in [1, n] always
    for a in range(2, 20):
        for n in range(1, a):
            A = ArithSemigroup(a, 1, n)
            assert A.a == A.c * A.n + A.b
            assert 1 <= A.b <= A.n and A.c >= 1


def test_construction_rejects_bad_parameters():
    with pytest.raises(ValueError):
        ArithSemigroup(6, 2, 2)  # gcd(a, d) = 2
    with pytest.raises(ValueError):
        ArithSemigroup(5, 1, 5)  # n > a - 1, not minimal
    with pytest.raises(ValueError):
        ArithSemigroup(5, 0, 2)
    with pytest.raises(ValueError):
        ArithSemigroup(0, 1, 1)


def test_betti_spot_values():
    assert betti_arith(ArithSemigroup(10, 1, 2)) == [22, 60]
    assert betti_arith(ArithSemigroup(9, 1, 2)) == [20, 54, 55]
    assert ubetti_arith(ArithSemigroup(10, 1, 2)) == [60]
    assert ubetti_arith(ArithSemigroup(15, 1, 2)) == [135, 136]


def test_betti_matches_engine_spot():
    for a, d, n in [(5, 2, 2), (7, 2, 3), (8, 3, 3), (11, 2, 4)]:
        A = ArithSemigroup(a, d, n)
        S = Semigroup(A.generators)
        cls = betti_elements(S)
        assert betti_arith(A) == list(cls.betti), (a, d, n)
        assert ubetti_arith(A) == list(cls.unbalanced), (a, d, n)


@st.composite
def covered_sequences(draw):
    """(a, d, n) with a <= 40, 1 <= n <= a - 1, d <= 12, gcd(a, d) = 1."""
    a = draw(st.integers(min_value=2, max_value=40))
    n = draw(st.integers(min_value=1, max_value=a - 1))
    d = draw(st.integers(min_value=1, max_value=12).filter(
        lambda d: gcd(a, d) == 1))
    return a, d, n


@settings(max_examples=300, deadline=None)
@given(covered_sequences())
@example((8, 5, 1))  # n = 1: two generators
@example((7, 1, 6))  # n = a - 1: an interval of generators
@example((11, 3, 4))  # d > 1 with several exchange degrees
@example((5, 3, 3))  # c = 1, where exchange and long degrees may meet
def test_betti_formulas_match_engine(params):
    # sgp betti answers with these on every covered arithmetic sequence
    a, d, n = params
    A = ArithSemigroup(a, d, n)
    cls = betti_elements(Semigroup(A.generators))
    assert betti_arith(A) == list(cls.betti)
    assert ubetti_arith(A) == list(cls.unbalanced)
    assert classify_arith(A) == cls


def assert_minimal_presentation(gens, pres):
    """Assert that pres is a minimal presentation of <gens>, whose listed
    generators are minimal, by the oracle alone.

    A set of relations is a minimal presentation exactly when, at each
    Betti element b, its relations of degree b join the k_b R-classes of
    b, the components of `oracle.nabla_graph(S, b)`, with k_b - 1 edges
    that connect them all (Rosales and Garcia-Sanchez, Numerical
    Semigroups, ch. 7), and no relation has another degree.
    """
    S = SimpleNamespace(minimal_generators=tuple(gens))
    by_degree = {}
    for x, y in pres.relations:
        by_degree.setdefault(x.value(gens), []).append((x, y))
    betti = oracle.betti_elements(S).betti
    assert set(by_degree) <= set(betti), (gens, sorted(by_degree), betti)
    for b in betti:
        graph = oracle.nabla_graph(S, b)
        # the R-class of each factorization of b, one label a component
        label = list(range(len(graph.vertices)))
        for i, j in graph.edges:
            old, new = label[i], label[j]
            label = [new if c == old else c for c in label]
        cls = dict(zip(graph.vertices, label))
        classes = set(label)
        relations = by_degree.get(b, [])
        assert len(relations) == len(classes) - 1, (gens, b)
        joined = {c: c for c in classes}  # the classes the relations join
        for x, y in relations:
            assert x in cls and y in cls, (gens, b, x, y)
            assert cls[x] != cls[y], (gens, b, x, y)
            old, new = joined[cls[x]], joined[cls[y]]
            joined = {c: new if k == old else k for c, k in joined.items()}
        assert len(set(joined.values())) == 1, (gens, b)


def test_closed_presentations_are_minimal():
    # the triple's for a in [3, 20], and the arithmetic sequences' for
    # a < 14, d <= 3 and n from 1 to 4, a pair's (n = 1) from its record
    for a in range(3, 21):
        assert_minimal_presentation((a, a + 1, a + 2),
                                    presentation_triple(a))
    for a in range(2, 14):
        for d in (1, 2, 3):
            for n in range(1, min(4, a - 1) + 1):
                if gcd(a, d) == 1:
                    A = (PairSemigroup(a, a + d) if n == 1
                         else ArithSemigroup(a, d, n))
                    assert_minimal_presentation(A.generators,
                                                presentation_arith(A))


def test_presentation_shape_and_balance():
    for a, d, n in [(5, 3, 3), (7, 2, 3), (9, 2, 4), (13, 1, 3)]:
        A = ArithSemigroup(a, d, n)
        gens = Semigroup(A.generators).minimal_generators
        pres = presentation_arith(A)
        exchange = n * (n - 1) // 2
        long_rels = n + 1 - A.b
        assert len(pres.relations) == exchange + long_rels
        for x, y in pres.relations:
            assert x.value(gens) == y.value(gens)


def test_unbalanced_witness_lengths():
    # each unbalanced element carries one factorization of length c+d+1
    # and one of length c+1
    for a, d, n in [(9, 1, 2), (10, 1, 2), (7, 2, 3), (11, 3, 4)]:
        A = ArithSemigroup(a, d, n)
        S = Semigroup(A.generators)
        for b in ubetti_arith(A):
            lengths = length_set(S, b)
            assert A.c + d + 1 in lengths, (a, d, n, b)
            assert A.c + 1 in lengths, (a, d, n, b)


def test_degrees_of_presentation_are_betti_elements():
    for a, d, n in [(5, 2, 2), (8, 3, 3), (11, 2, 4)]:
        A = ArithSemigroup(a, d, n)
        gens = Semigroup(A.generators).minimal_generators
        degrees = sorted({x.value(gens) for x, _ in
                          presentation_arith(A).relations})
        assert degrees == betti_arith(A)


@st.composite
def coprime_pairs(draw):
    """(p, q) with 2 <= p < q <= 30 and gcd(p, q) = 1."""
    p = draw(st.integers(min_value=2, max_value=12))
    q = draw(st.integers(min_value=p + 1, max_value=30).filter(
        lambda q: gcd(p, q) == 1))
    return p, q


@settings(max_examples=100, deadline=None)
@given(coprime_pairs())
@example((2, 3))  # the smallest pair
@example((2, 29))  # p = 2, a long ulf box
@example((7, 8))  # q = p + 1
@example((12, 13))
def test_pair_record_matches_engine_and_oracle(pair):
    # sgp info, factorize, betti and ulf answer with these on every pair
    p, q = pair
    P, S = PairSemigroup(p, q), Semigroup(pair)
    gens, frob, cls, ulf_size = P.info()
    assert gens == pair == S.minimal_generators
    assert frob == p * q - p - q == S.frobenius == oracle.frobenius(S)
    assert cls == P.betti() == betti_elements(S) == oracle.betti_elements(S)
    assert cls.unbalanced == (p * q,) and cls.balanced == ()
    # membership, from the count and its refusal, over [-3, pq + 4]
    for r in range(-3, p * q + 5):
        if oracle.member(S, r):
            n, exact = P.factorization_count(r, 10 ** 6)
            assert (n, exact) == (oracle.denumerant(S, r), True), r
        else:
            with pytest.raises(NotMemberError) as refused:
                P.factorization_count(r, 10 ** 6)
            assert str(refused.value) == "%d is not in %r" % (r, S)
    n, listing = P.ulf_runs()
    mask, = listing()
    members = [r for r, one in enumerate(mask) if one]
    assert set(mask) == {0, 1} and len(mask) == 2 * p * q - p - q + 1
    assert members == oracle.ulf(S)
    assert n == ulf_size == P.ulf_size == len(members) == p * q
    for r in range(3 * p * q):
        facs = P.factorizations(r)
        assert facs == factorizations(S, r), r
        if facs:
            assert P.factorization_count(r, 10 ** 6) == (len(facs), True), r
