"""Engine tests: membership, factorizations, Apery sets, Betti elements.

The references are the literal definitions in `sgp.oracle`, which read
nothing of a Semigroup but its minimal generators.
"""

import copy
import json
import math
import random
import sys
import tracemalloc
from functools import lru_cache
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import golden
from sgp import core_semigroup, oracle
from sgp.consecutive_triple import TripleSemigroup
from sgp.core_semigroup import (
    BettiClassification,
    Factorization,
    NotMemberError,
    Semigroup,
    _apery_bits,
    _apery_counts,
    _apery_list,
    _apery_sized,
    _betti_bits,
    _betti_classify,
    _betti_filter,
    _close,
    _denumerants,
    _dijkstra,
    _factorization_count,
    _length_masks,
    _member_bits,
    _member_closure,
    _members,
    apery_multi,
    betti_elements,
    factorizations,
    length_sets_up_to,
    ulf,
)
from sgp.oracle import denumerant, length_set, nabla_graph
from test_cli_golden import observe


@lru_cache(maxsize=None)
def sg(*gens):
    return Semigroup(gens)


SMALL_GENERATORS = st.lists(st.integers(min_value=1, max_value=20),
                            min_size=1, max_size=4)
# dense semigroups, which `betti_elements` decides on int bitsets: e from
# 3 to 5 and n1 from 10, the other generators in (n1, 2 * n1), so all minimal
DENSE_GENERATORS = st.integers(min_value=10, max_value=30).flatmap(
    lambda n1: st.lists(st.integers(n1 + 1, 2 * n1 - 1), min_size=2,
                        max_size=4, unique=True).map(lambda g: [n1] + g))


def _small_semigroup(gens):
    if math.gcd(*gens) != 1:
        gens = gens + [gens[0] + 1]
    return Semigroup(tuple(gens))


# ---------------------------------------------------------------------------
# construction and membership

def test_rejects_bad_generator_lists():
    with pytest.raises(ValueError):
        Semigroup(())
    with pytest.raises(ValueError):
        Semigroup((0, 3))
    with pytest.raises(ValueError):
        Semigroup((-2, 5))
    with pytest.raises(ValueError):
        Semigroup((4, 6))  # gcd 2, complement infinite


def test_membership_small():
    S = sg(3, 4, 5)
    assert S.frobenius == 2
    assert [r in S for r in range(8)] == [
        True, False, False, True, True, True, True, True]
    assert 10 ** 9 in S
    assert -1 not in S
    # a non-integer query is an error, not an answer, even past frobenius
    for n in (2.5, 10 ** 9 + 0.5, -1.5):
        with pytest.raises(TypeError):
            n in S


def test_two_generator_frobenius():
    # frobenius of <p, q> is pq - p - q for coprime p, q
    for p, q in [(2, 3), (3, 7), (4, 7), (5, 11), (29, 30), (2003, 4001),
                 (2, 10 ** 9 + 1)]:
        assert sg(p, q).frobenius == p * q - p - q


def test_construction_memory_is_linear_in_n1():
    # memory grows with n1 = 2003, not with the Frobenius number 8007999
    tracemalloc.start()
    try:
        Semigroup((2003, 4001))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024


def test_natural_numbers_semigroup():
    N = sg(1)
    assert N.frobenius == -1
    assert 0 in N and 1 in N


def test_minimal_generators():
    assert sg(3, 4, 5).minimal_generators == (3, 4, 5)
    assert sg(4, 6, 7, 13).minimal_generators == (4, 6, 7)
    assert sg(2, 3, 4).minimal_generators == (2, 3)
    assert sg(5, 5, 6).minimal_generators == (5, 6)


def test_membership_iff_factorization_exists():
    for gens in [(3, 4, 5), (4, 7), (5, 7, 9), (2, 3)]:
        S = sg(*gens)
        assert S.frobenius == oracle.frobenius(S), gens
        for r in range(S.frobenius + 12):
            assert (r in S) == oracle.member(S, r), (gens, r)


def test_apery_of_n1_matches_oracle_at_engine_cli_sizes():
    # the Dijkstra's Ap(S, n1), Frobenius number and minimal generators
    # against the definitions, on seeded generator lists the size of the
    # benchmark's generic requests (e from 2 to 5, the others below
    # 2 * n1, not always minimal) and on edges: N, N with a redundant
    # generator, n1 = 2, a repeated generator and a sum of two others.
    # The oracle is handed the input generators, not the engine's minimal
    # ones, so it shares nothing with the construction.
    rng = random.Random(22)
    cases = [(1,), (1, 5), (2, 3), (5, 5, 6), (4, 6, 7, 13)]
    while len(cases) < 45:
        n1, e = rng.randint(8, 40), rng.randint(2, 5)
        gens = (n1,) + tuple(rng.sample(range(n1 + 1, 2 * n1), e - 1))
        if math.gcd(*gens) == 1:
            cases.append(gens)
    for gens in cases:
        S, n1 = Semigroup(gens), min(gens)
        ref = SimpleNamespace(minimal_generators=tuple(sorted(set(gens))))
        assert [w % n1 for w in S._apery] == list(range(n1)), gens
        assert sorted(S._apery) == oracle.apery_multi(ref, [n1]), gens
        assert S.frobenius == oracle.frobenius(ref), gens
        assert S.minimal_generators == tuple(sorted(
            {g for g in gens
             if not any(oracle.member(ref, m) and oracle.member(ref, g - m)
                        for m in range(1, g))})), gens


@settings(max_examples=60, deadline=None)
@given(st.one_of(SMALL_GENERATORS, DENSE_GENERATORS))
# each side of each bound of the member-int construction: 2 and 3 input
# generators, n1 = 19 and 20, n1 = 100 and 101, a third generator at 32 *
# n1 and one past it, and F + n1 = 32 * n1 - 1 and 32 * n1 + 1 (F is a
# gap, never a multiple of n1, so F + n1 = 32 * n1 cannot occur); in <20,
# 21, 41> the third input generator is 20 + 21.  In <4, 9>, closed up to
# top 2 * n1 = 8, only the shift s = 8 = top sets bit 8
@example([20, 21])
@example([20, 21, 23])
@example([19, 21, 23])
@example([100, 101, 116])
@example([101, 102, 120])
@example([20, 21, 640])
@example([20, 21, 641])
@example([20, 61, 90])
@example([20, 39, 407])
@example([20, 21, 41])
@example([4, 9])
def test_construction_matches_oracle(gens):
    # Ap(S, n1), F, the minimal generators and membership against the
    # definitions, handed the input generators; the member int is kept
    # exactly where the rule builds it, and cut to any top it is the
    # members up to top
    S = _small_semigroup(gens)
    gens = S.generators
    n1 = gens[0]
    ref = SimpleNamespace(minimal_generators=gens)
    F = oracle.frobenius(ref)
    assert sorted(S._apery) == oracle.apery_multi(ref, [n1])
    assert [w % n1 for w in S._apery] == list(range(n1))
    assert S.frobenius == F
    assert S.minimal_generators == tuple(sorted(
        {g for g in gens
         if not any(oracle.member(ref, m) and oracle.member(ref, g - m)
                    for m in range(1, g))}))
    assert [r in S for r in range(-3, F + 2 * n1 + 1)] == \
        [oracle.member(ref, r) for r in range(-3, F + 2 * n1 + 1)]
    assert (S._member is not None) == (
        20 <= n1 <= 100 and len(gens) >= 3 and gens[2] <= 32 * n1
        and F + n1 <= 32 * n1)
    for top in (0, 2 * n1, max(F, 0), F + n1 + gens[-1], 40 * n1):
        assert core_semigroup._member_bits(S, top) == sum(
            1 << r for r in range(top + 1) if r in S), top


# the member int is tried with n1 from 20 to 100 and 3 input generators up
# to 32 * n1, and kept when F + n1 <= 32 * n1; the Dijkstra builds the
# rest.  <20, 61, 90> keeps it at F + n1 = 31.95 * n1, and <351, 352, 385>,
# which would keep it at 31.97 * n1, is past the n1 range
@pytest.mark.parametrize("gens, tried, kept", [((20, 21), False, False),
                                               ((20, 21, 23), True, True),
                                               ((19, 21, 23), False, False),
                                               ((100, 101, 116), True, True),
                                               ((101, 102, 120), False, False),
                                               ((20, 21, 640), True, True),
                                               ((20, 21, 641), False, False),
                                               ((20, 61, 90), True, True),
                                               ((20, 39, 407), True, False),
                                               ((20, 21, 41), True, True),
                                               ((351, 352, 385), False, False)])
def test_construction_takes_the_member_int_on_dense_inputs(
        monkeypatch, gens, tried, kept):
    calls, closure = [], core_semigroup._member_closure
    monkeypatch.setattr(core_semigroup, "_member_closure",
                        lambda g: calls.append(g) or closure(g))
    S = Semigroup(gens)
    assert calls == ([list(gens)] if tried else [])
    assert (S._member is not None) == kept


# the member int a closure kept is cut to any top, past 32 * n1 too, and
# every other semigroup closes its minimal generators again: past the
# closure's n1 range, at e = 2, and where the closure was tried and declined
@pytest.mark.parametrize("gens, kept", [((20, 21, 23), True),
                                        ((100, 101, 116), True),
                                        ((19, 21, 23), False),
                                        ((20, 21), False),
                                        ((20, 39, 407), False)])
def test_member_bits_cuts_the_member_int_the_closure_kept(monkeypatch, gens,
                                                          kept):
    S, calls = Semigroup(gens), []
    monkeypatch.setattr(core_semigroup, "_close",
                        lambda g, top: calls.append(top) or _close(g, top))
    for top in (S.frobenius, 40 * gens[0]):
        assert _member_bits(S, top) == sum(
            1 << r for r in range(top + 1) if r in S), top
    assert calls == ([] if kept else [S.frobenius, 40 * gens[0]])


def _built_by(S, built):
    """A copy of S that holds the (M, F, Ap(S, n1)) of one construction."""
    T = copy.copy(S)
    T._member, T.frobenius, T._apery = built
    return T


# n1 from 2 to 60 and 1 to 4 more generators below 2, 4 or 40 times n1:
# the last reach F + n1 far past 32 * n1
PATH_GENERATORS = st.tuples(st.integers(2, 60), st.sampled_from([2, 4, 40])
                            ).flatmap(lambda t: st.lists(
                                st.integers(t[0] + 1, t[0] * t[1] - 1),
                                min_size=1, max_size=4).map(
                                    lambda g: [t[0]] + g))


@settings(max_examples=120, deadline=None)
@given(PATH_GENERATORS, st.lists(st.integers(1, 4000), min_size=1,
                                 max_size=3))
# N, where F = -1, and n1 = 2; then each side of each bound: n1 = 19 and
# 20, 100 and 101, e = 2, F + n1 = 32 * n1 - 1 and 32 * n1 + 1 (<20, 61,
# 90> and <20, 39, 407>), F + min(X) = 32 * n1 - 1, 32 * n1 and 32 * n1 +
# 1 (F = 38 on <10, 11, 13>), and spans of 8 * n - 1, 8 * n and between 8
# * n and 9 * n (F = 551, 559 and 287 on <9, 70>, <9, 71> and <10, 33>)
@example([1], [1])
@example([2, 3], [2])
@example([19, 21, 23], [5])
@example([20, 21, 23], [5])
@example([100, 101, 116], [7])
@example([101, 102, 120], [7])
@example([20, 21], [3000])
@example([20, 61, 90], [61])
@example([20, 39, 407], [39])
@example([10, 11, 13], [281])
@example([10, 11, 13], [282])
@example([10, 11, 13], [283])
@example([9, 70], [79])
@example([9, 71], [80])
@example([10, 33], [40])
def test_both_sides_of_every_rule_agree(gens, picks):
    # every measured rule of the engine picks between paths that give the
    # same answers, so each is a pure performance choice.  Both sides are
    # called directly on every draw, past each rule's bound too: the two
    # constructions, and on the table of each the kept member int cut or
    # closed again, the Betti bit pass and the filter of all candidates,
    # and Ap(S, X) off the member int or the residues, listed as the rule
    # picks and as a list.  A pick x is a member x, or F + 1 + x past F
    S = _small_semigroup(gens)
    gens, mins, n1 = list(S.generators), S.minimal_generators, S.generators[0]
    F = S.frobenius
    closure, dijkstra = _member_closure(gens), _dijkstra(gens)
    assert dijkstra == (None, F, S._apery)
    assert (closure is None) == (F + n1 > 32 * n1)
    tables = [_built_by(S, dijkstra)]
    if closure:
        assert closure[1:] == dijkstra[1:]
        assert closure[0] == _close(gens, 32 * n1)
        tables.append(_built_by(S, closure))
    xs = sorted({x if x in S else F + 1 + x for x in picks})
    top = F + min(xs)
    candidates = sorted({v + g for v in S._apery for g in mins[1:]})
    answers = []
    for T in tables:
        for t in (0, max(F, 0), 32 * n1, F + n1 + mins[-1], top):
            assert _member_bits(T, t) == _close(mins, t), t
        betti = _betti_bits(T)
        assert betti == _betti_filter(T, candidates)
        assert _betti_classify(T, betti) == betti_elements(S)
        n, listing = _apery_bits(T, xs, top)
        ap = _members(listing())
        counts = _apery_counts(T, xs)
        assert n == sum(counts) == len(ap)
        for span in (top + 1, max(top + 1, 8 * n + 1)):
            assert _members(_apery_list(T, counts, span)) == ap, span
        answers.append((betti, ap))
    assert all(answer == answers[0] for answer in answers)


# ---------------------------------------------------------------------------
# factorizations

def test_factorizations_golden():
    S = sg(3, 4, 5)
    for r, expected in golden.TINY_FACTORIZATIONS.items():
        assert set(map(tuple, factorizations(S, r))) == expected
    with pytest.raises(ValueError, match="r must be non-negative"):
        factorizations(S, -1)


def test_factorizations_sorted_and_exact():
    S = sg(6, 9, 20)
    for r in (0, 6, 29, 60, 61, 120):
        facs = factorizations(S, r)
        assert facs == sorted(facs)
        assert len(set(facs)) == len(facs)
        for f in facs:
            assert f.value(S.minimal_generators) == r
            assert f.length == sum(f)


def test_factorization_value_helper():
    f = Factorization((2, 1, 1))
    assert f.length == 4
    assert f.value((10, 11, 12)) == 43


def test_denumerant_counts():
    S = sg(3, 4, 5)
    assert denumerant(S, 8) == 2
    assert denumerant(S, 1) == 0
    assert denumerant(S, 0) == 1


@settings(max_examples=60, deadline=None)
@given(r=st.integers(min_value=0, max_value=250))
def test_factorizations_complete_against_direct_count(r):
    # independent count: iterate the two leading coordinates, divide out
    # the last one
    S = sg(5, 7, 11)
    direct = sum(
        1
        for i in range(r // 5 + 1)
        for j in range((r - 5 * i) // 7 + 1)
        if (r - 5 * i - 7 * j) % 11 == 0
    )
    assert len(factorizations(S, r)) == direct


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=20), min_size=1,
                max_size=5))
@example([1])
@example([5, 6, 8])
@example([7, 9, 12])
@example([7, 8, 9, 10, 12])
def test_factorizations_match_the_oracle_descent(gens):
    # the engine solves its last two coordinates by a congruence; the
    # oracle tries every value, so a wrong step or start shows here (the
    # examples give last pairs with a common factor, e = 1 and e = 5)
    S = _small_semigroup(gens)
    top = oracle.frobenius(S) + 2 * max(S.minimal_generators)
    for r in range(top + 1):
        assert factorizations(S, r) == oracle.factorizations(S, r), r
    with pytest.raises(ValueError, match="r must be non-negative"):
        oracle.factorizations(S, -1)


# ---------------------------------------------------------------------------
# length sets

def test_length_set_two_lengths():
    assert length_set(sg(3, 4, 5), 9) == [2, 3]
    assert length_set(sg(3, 4, 5), 8) == [2]


def test_length_set_rejects_non_member():
    with pytest.raises(NotMemberError):
        length_set(sg(3, 4, 5), 2)


def test_length_sets_up_to_matches_pointwise():
    for gens in [(3, 4, 5), (4, 7, 9), (2, 3)]:
        S = sg(*gens)
        table = length_sets_up_to(S, 60)
        for r in range(61):
            if oracle.member(S, r):
                assert sorted(table[r]) == length_set(S, r), (gens, r)
            else:
                assert table[r] is None


def test_length_sets_read_every_bit_of_wide_alternating_masks():
    # odd generators only: every length has the parity of r, so the masks
    # alternate 0 and 1, and at r near 3000 they are over 64 bits wide
    S = Semigroup((11, 13, 17, 19))
    masks = _length_masks(S, 3000)
    assert masks[3000].bit_length() > 64
    assert masks[3000] & (masks[3000] >> 1) == 0
    assert length_sets_up_to(S, 3000) == [
        {l for l in range(m.bit_length()) if m >> l & 1} or None
        for m in masks]


def test_length_table_memory_is_one_set_per_distinct_length_set():
    # the 20001 entries hold 2832 distinct length sets; a set per entry
    # peaked at 146 MiB, one shared frozenset per distinct set at 16.3 MiB
    S = Semigroup((42, 55, 71, 83))
    tracemalloc.start()
    try:
        table = length_sets_up_to(S, 20000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 1024 * 1024
    assert len({id(t) for t in table if t is not None}) == 2832


def test_length_sets_are_sized_once_for_their_count():
    # 7192 distinct sets of up to 160 lengths; grown one insert at a time,
    # 3881 of them had twice the slots and the call peaked at 36.8 MiB,
    # sized once it peaks at 28.4 MiB (Python 3.11; the bound leaves room
    # for other versions)
    S = Semigroup((42, 62, 83))
    tracemalloc.start()
    try:
        table = length_sets_up_to(S, 14337)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 1024 * 1024
    distinct = {id(t): t for t in table if t is not None}.values()
    assert len(distinct) == 7192
    for t in distinct:
        assert sys.getsizeof(t) == sys.getsizeof(frozenset(set(t))), len(t)


def test_length_sets_of_two_and_three_are_intervals():
    # L(r) = [ceil(r/3), floor(r/2)] on <2, 3>: up to 2000 the least length
    # passes 256, past the small-int cache, and the masks carry up to 667
    # low zero bits
    table = length_sets_up_to(Semigroup((2, 3)), 2000)
    assert table[1] is None
    first = {}  # length set -> its entry at the least r
    for r in (0, *range(2, 2001)):
        t = table[r]
        assert type(t) is frozenset, r
        assert t == frozenset(range(-(-r // 3), r // 2 + 1)), r
        assert t is first.setdefault(t, t), r


# ---------------------------------------------------------------------------
# Apery sets

def test_apery_golden():
    S = sg(10, 11, 12)
    assert apery_multi(S, (60,)) == sorted(golden.APERY_60_A10)


def test_apery_shape():
    for gens, x in [((3, 4, 5), 9), ((10, 11, 12), 60), ((4, 7), 28)]:
        S = sg(*gens)
        members = apery_multi(S, (x,))
        assert len(members) == x
        assert sorted(members) == members
        assert {m % x for m in members} == set(range(x))
        for m in members:
            assert oracle.member(S, m) and not oracle.member(S, m - x)


def test_apery_rejects_bad_x():
    with pytest.raises(ValueError):
        apery_multi(sg(3, 4, 5), (0,))
    with pytest.raises(NotMemberError):
        apery_multi(sg(3, 4, 5), (2,))


def test_apery_multi_is_intersection():
    S = sg(10, 11, 12)
    both = apery_multi(S, (60, 22))
    expected = sorted(set(apery_multi(S, (60,)))
                      & set(apery_multi(S, (22,))))
    assert both == expected


def test_apery_multi_empty_needs_bound():
    # Ap(S, {}) is all of S, which is infinite: an empty X is refused, on
    # N too
    for gens in [(1,), (3, 4, 5), (6, 9, 20)]:
        S = sg(*gens)
        with pytest.raises(ValueError, match="nonempty"):
            apery_multi(S, ())
        with pytest.raises(ValueError, match="nonempty"):
            _apery_sized(S, ())


# ---------------------------------------------------------------------------
# factorization graphs and Betti elements

def test_nabla_graph_disconnected_at_betti():
    g = nabla_graph(sg(10, 11, 12), 22)
    assert g.n_components == 2
    assert g.vertices == ((0, 2, 0), (1, 0, 1))
    assert g.edges == ()
    g = nabla_graph(sg(6, 10, 15), 30)
    assert g.vertices == ((0, 0, 2), (0, 3, 0), (5, 0, 0))
    assert g.edges == ()
    assert g.n_components == 3
    # an edge and still two components
    g = nabla_graph(sg(4, 6, 9), 18)
    assert g.vertices == ((0, 0, 2), (0, 3, 0), (3, 1, 0))
    assert g.edges == ((1, 2),)
    assert g.n_components == 2


def test_nabla_graph_connected():
    g = nabla_graph(sg(3, 4, 5), 12)
    assert g.vertices == ((0, 3, 0), (1, 1, 1), (4, 0, 0))
    assert g.n_components == 1


def test_betti_golden():
    for gens, betti in golden.BETTI.items():
        assert list(betti_elements(sg(*gens)).betti) == betti
    assert list(betti_elements(sg(4, 7)).betti) == [28]
    assert list(betti_elements(sg(2, 3)).betti) == [6]
    assert list(betti_elements(sg(1)).betti) == []


def test_betti_classification_split():
    cls = betti_elements(sg(10, 11, 12))
    assert cls.balanced == (22,)
    assert cls.unbalanced == (60,)
    cls = betti_elements(sg(3, 4, 5))
    assert cls.balanced == (8,)
    assert cls.unbalanced == (9, 10)
    # 36 = 24 + 12, 55 = 30 + 25 and 24 = 18 + 6 are unbalanced because
    # each lies in u + S for an unbalanced u found before it; one descent
    # per r - g misses the second length of the first two when it tries
    # the smallest generator first, and of the third when it tries the
    # largest first
    for gens, unbalanced, r, lengths in [((8, 9, 12), (24, 36), 36, [3, 4]),
                                         ((10, 11, 15), (30, 55), 55, [4, 5]),
                                         ((6, 8, 9), (18, 24), 24, [3, 4])]:
        cls = betti_elements(sg(*gens))
        assert cls.unbalanced == unbalanced and cls.balanced == ()
        assert length_set(sg(*gens), r) == lengths
    # every balanced element keeps one length over several factorizations
    S = sg(15, 16, 17)
    for b in betti_elements(S).balanced:
        assert len(length_set(S, b)) == 1
        assert len(factorizations(S, b)) >= 2
    for b in betti_elements(S).unbalanced:
        assert len(length_set(S, b)) >= 2


def test_betti_default_scan_is_exhaustive():
    # every candidate w + n_j of betti_elements is at most
    # max Ap(S, n_1) + n_e = frobenius + n_1 + n_e; past that every
    # factorization graph must be connected
    S = sg(9, 10, 11)
    gens = S.minimal_generators
    bound = oracle.frobenius(S) + gens[0] + gens[-1]
    assert all(nabla_graph(S, r).n_components == 1
               for r in range(bound + 1, 401) if oracle.member(S, r))


# ---------------------------------------------------------------------------
# unique-length members

def test_ulf_golden():
    assert ulf(sg(2, 3)) == golden.ULF_23
    assert ulf(sg(10, 11, 12)) == sorted(golden.APERY_60_A10)
    assert ulf(sg(15, 16, 17)) == golden.ULF_A15


@settings(max_examples=60, deadline=None)
@given(st.one_of(SMALL_GENERATORS, DENSE_GENERATORS))
@example([3, 4, 5])
@example([4, 7])
@example([5, 8, 11])
@example([6, 9, 20])
@example([1])
@example([10, 11, 13])  # n1 = 10 with e = 3
@example([10, 15, 61])  # max Ap(S, n1) + n_e = 32 * n1: the bit pass
@example([10, 27, 98])  # max Ap(S, n1) + n_e = 32 * n1 + 1: the scan
def test_ulf_equals_singleton_length_scan(gens):
    S = _small_semigroup(gens)
    if 1 in gens:  # S = N: every member has one length
        with pytest.raises(ValueError, match="all of N"):
            ulf(S)
        assert oracle.ulf(S, bound=30) == list(range(31))
    else:
        expected = oracle.ulf(S)
        assert ulf(S) == expected, gens
        unbalanced = betti_elements(S).unbalanced
        assert _apery_sized(S, unbalanced)[0] == \
            sum(_apery_counts(S, unbalanced)) == len(expected), gens


def test_ulf_refuses_n_and_takes_one_argument():
    # the unique-length set of N is all of N, and ulf takes no window
    for gens in [(1,), (1, 2)]:
        with pytest.raises(ValueError, match="all of N"):
            ulf(sg(*gens))
    with pytest.raises(TypeError):
        ulf(sg(1), 5)


def info_ulf_bound(S):
    """The ulf_bound of the engine's `sgp info` on S, the least member
    with two factorization lengths, or None when the answer has none."""
    code, out, _ = observe(["--gens", ",".join(map(str, S.generators)),
                            "--oracle", "--format", "json", "info"])
    assert code == 0
    return json.loads(out).get("ulf_bound")


def test_min_ulf_breaker():
    assert info_ulf_bound(sg(3, 4, 5)) == 9
    assert info_ulf_bound(sg(10, 11, 12)) == 60
    assert info_ulf_bound(sg(15, 16, 17)) == 135
    assert info_ulf_bound(sg(1)) is None


@settings(max_examples=60, deadline=None)
@given(SMALL_GENERATORS)
@example([3, 4, 5])
@example([4, 7])
@example([6, 9, 20])
def test_min_ulf_breaker_contract(gens):
    # the least member with two factorization lengths
    S = _small_semigroup(gens)
    b = info_ulf_bound(S)
    if b is None:
        # any other S has n1 * ne, with the lengths ne and n1
        assert 1 in gens
        return
    assert len(length_set(S, b)) > 1
    for r in range(b):
        if oracle.member(S, r):
            assert len(length_set(S, r)) == 1, (gens, r)


# ---------------------------------------------------------------------------
# randomized cross-checks

@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=2, max_value=24),
                min_size=2, max_size=4))
def test_random_semigroup_invariants(gens):
    if math.gcd(*gens) != 1:
        gens = gens + [gens[0] + 1]
    S = Semigroup(tuple(gens))
    n1 = S.minimal_generators[0]
    # the stopping rule promise: a full run of members right after frobenius
    for k in range(1, n1 + 1):
        assert S.frobenius + k in S
    assert S.frobenius not in S or S.frobenius == -1
    x = S.minimal_generators[-1]
    assert len(apery_multi(S, (x,))) == x
    # membership, F and the minimal generators agree with the oracle,
    # which shares no code with the residue computation
    assert S.frobenius == oracle.frobenius(S)
    for r in range(S.frobenius + n1 + 1):
        assert (r in S) == oracle.member(S, r), r
    assert all(oracle.member(S, g) for g in gens)
    # the minimal generators are the inputs that are not a sum of two
    # nonzero members
    assert list(S.minimal_generators) == sorted(
        {g for g in gens
         if not any(oracle.member(S, m) and oracle.member(S, g - m)
                    for m in range(1, g))})
    for k, g in enumerate(S.minimal_generators):
        unit = tuple(int(i == k) for i in range(len(S.minimal_generators)))
        assert factorizations(S, g) == [unit], g


@settings(max_examples=60, deadline=None)
@given(SMALL_GENERATORS)
@example([8, 9, 12])
@example([10, 11, 15])
@example([6, 8, 9])
@example([3, 4, 5])
@example([10, 11, 12])
@example([5, 8])
@example([1])
@example([4, 5, 6])
@example([5, 6, 8, 9])
@example([5, 6, 9])
def test_betti_candidates_match_full_scan(gens):
    # the candidates w + n_j against every member up to frobenius + n_1 +
    # n_e, split by length set: betti, balanced and unbalanced.  The first
    # three examples are unbalanced only through an earlier unbalanced
    # element; in <3, 4, 5> and <10, 11, 12> the first unbalanced element
    # (9, 60) and the balanced ones (8, 22) are told apart only by the
    # lengths the depth table gives; <5, 8> has e = 2 and <1> is N.  The
    # next two pin the traversal: in <4, 5, 6> the candidate 16 is
    # connected only through a second step (4 reaches 6 by 16 - 4 - 6 = 6,
    # and 6 reaches 5 by 16 - 6 - 5 = 5, while 16 - 4 - 5 = 7 is a gap);
    # in <5, 6, 8, 9> the Betti element 18 = 3*6 = 2*9 = 2*5 + 8 has three
    # R-classes, and the traversal steps from 5 to 8 before it runs out.
    # In <5, 6, 9> the Betti element 18 = 3*6 = 2*9 lies in Ap(S, 5): n1
    # is not live there, so the bit pass roots it at 6
    S = _small_semigroup(gens)
    want = oracle.betti_elements(S)
    assert _betti_paths(S) == _oracle_paths(want)
    assert betti_elements(S) == want


def _betti_paths(S):
    """The bit pass alone, the filter given its Betti elements and given
    every candidate w + n_j, and the split of the bit pass's and of the
    filter's Betti elements, called directly."""
    outer = S.minimal_generators[1:]
    everything = _betti_filter(
        S, sorted({v + g for v in S._apery for g in outer}))
    return (tuple(_betti_bits(S)), tuple(_betti_filter(S, _betti_bits(S))),
            tuple(everything), _betti_classify(S, _betti_bits(S)),
            _betti_classify(S, everything))


def _oracle_paths(want):
    """What `_betti_paths` gives when every path agrees with the oracle's
    classification want."""
    return (want.betti,) * 3 + (want,) * 2


# one semigroup on each side of the bound of the bit pass, X = max Ap(S,
# n1) + n_e at 32 * n1 and one above it; the rule asks nothing else, so
# n1 = 9, e = 2, <3, 4, 5> and N, which has no Betti element, take it too
@pytest.mark.parametrize("gens, bits", [((10, 15, 61), True),
                                        ((10, 27, 98), False),
                                        ((10, 11, 13), True),
                                        ((9, 11, 13), True),
                                        ((10, 11), True),
                                        ((3, 4, 5), True),
                                        ((1,), True)])
def test_betti_takes_the_bit_pass_on_dense_semigroups(monkeypatch, gens,
                                                      bits):
    S, calls = Semigroup(gens), []
    monkeypatch.setattr(core_semigroup, "_betti_bits",
                        lambda S: calls.append(S) or _betti_bits(S))
    want = oracle.betti_elements(S)
    assert betti_elements(S) == want
    assert calls == ([S] if bits else [])
    assert _betti_paths(S) == _oracle_paths(want)


def test_betti_matches_oracle_at_engine_cli_sizes():
    # seeded semigroups the size of the benchmark's generic requests: e
    # from 2 to 5, n1 from 8 to 40, the other minimal generators below
    # 2 * n1; both paths and Ap(S, UBetti) are checked there too
    rng = random.Random(15)
    checked = 0
    while checked < 100:
        n1, e = rng.randint(8, 40), rng.randint(2, 5)
        gens = [n1] + rng.sample(range(n1 + 1, 2 * n1), e - 1)
        if math.gcd(*gens) != 1:
            continue
        S = Semigroup(gens)
        if len(S.minimal_generators) < e:
            continue
        cls = oracle.betti_elements(S)
        assert betti_elements(S) == cls, gens
        assert _betti_paths(S) == _oracle_paths(cls), gens
        assert apery_multi(S, cls.unbalanced) == \
            oracle.apery_multi(S, cls.unbalanced), gens
        checked += 1


@settings(max_examples=60, deadline=None)
@given(SMALL_GENERATORS)
def test_betti_classification_matches_length_sets(gens):
    S = _small_semigroup(gens)
    cls = betti_elements(S)
    assert cls.balanced == tuple(b for b in cls.betti
                                 if len(length_set(S, b)) == 1)
    assert cls.unbalanced == tuple(b for b in cls.betti
                                   if len(length_set(S, b)) > 1)


@settings(max_examples=60, deadline=None)
@given(st.one_of(SMALL_GENERATORS, DENSE_GENERATORS),
       st.lists(st.one_of(st.integers(0, 63), st.integers(-5000, -1)),
                min_size=1, max_size=4))
# on <10, 11, 13>, where F = 38, a pick p < 0 is x = 38 - p: the first
# example takes the member int at n1 = 10 with e = 3, the next X has only
# a member far above F and takes the residues, the third holds it too
# beside a small member, and the int leaves it unshifted; the next two
# put F + min(X) = 76 - p at 32 * n1 and one past it, and the last
# semigroup is one past the 32 * n1 rule of the Betti bit pass
@example([10, 11, 13], [0, 7])
@example([10, 11, 13], [-5000])
@example([10, 11, 13], [3, -5000])
@example([10, 11, 13], [-244])
@example([10, 11, 13], [-245])
@example([10, 27, 98], [0, 2])
def test_apery_multi_matches_set_definition(gens, picks):
    # a pick p >= 0 is a small member, and p < 0 the member max(F, 0) - p
    # above F: every r > F is one
    S = _small_semigroup(gens)
    F = oracle.frobenius(S)
    members = [s for s in range(1, F + 3 * max(gens) + 2)
               if oracle.member(S, s)]
    xs = [members[p % len(members)] if p >= 0 else max(F, 0) - p
          for p in picks]
    expected = oracle.apery_multi(S, xs)
    assert apery_multi(S, xs) == expected
    assert apery_multi(S, xs[:1]) == oracle.apery_multi(S, xs[:1])
    assert _apery_sized(S, xs)[0] == sum(_apery_counts(S, xs)) == \
        len(expected)


# the member int and the residues on each side of F + min(X) = 32 * n1
# (F = 38 on <10, 11, 13>), and a member above that beside a small one;
# the rule asks nothing else, so a semigroup past the bit pass's rule,
# n1 = 9 and e = 2 take the int, and <10, 37>, where F = 323, does not.
# The int lists a byte mask even at a span of 10 times the count, on <10,
# 11>, and the residues a mask up to 8 times the count only: on <10, 33>,
# where F = 287, Ap(S, 40) has 40 members over a span of 328, between 8
# and 9 times that
@pytest.mark.parametrize("gens, xs, bits", [((10, 11, 13), (282,), True),
                                            ((10, 11, 13), (283,), False),
                                            ((10, 11, 13), (11, 5000), True),
                                            ((10, 27, 98), (10,), True),
                                            ((9, 11, 13), (9,), True),
                                            ((10, 11), (10,), True),
                                            ((10, 37), (10,), False),
                                            ((10, 33), (40,), False)])
def test_apery_takes_the_member_int_up_to_32_n1(monkeypatch, gens, xs, bits):
    S, calls = Semigroup(gens), []
    member_bits = core_semigroup._member_bits
    monkeypatch.setattr(core_semigroup, "_member_bits", lambda S, top:
                        calls.append(top) or member_bits(S, top))
    expected = oracle.apery_multi(S, xs)
    assert apery_multi(S, xs) == expected
    assert calls == ([S.frobenius + min(xs)] if bits else [])
    n, listing = _apery_sized(S, xs)
    assert n == len(expected)
    assert isinstance(listing(), list) == (
        not bits and S.frobenius + min(xs) + 1 > 8 * n)


@settings(max_examples=40, deadline=None)
@given(SMALL_GENERATORS)
@example([3, 4, 5])
@example([5, 8])
@example([10, 11, 12])
@example([1])
def test_apery_multi_at_multiples_of_n1(gens):
    # the column of x is Ap(S, n1) rotated by x mod n1: by 0 for x = n1
    # and 2 * n1, by n_e mod n1 != 0 for x = n1 + n_e (unless S = N); a
    # member past the Frobenius number joins the last two sets
    S = _small_semigroup(gens)
    n1, ne = S.minimal_generators[0], S.minimal_generators[-1]
    big = S.frobenius + 2 * n1 + 1
    for xs in ([n1], [2 * n1], [n1 + ne], [n1, 2 * n1], [2 * n1, n1 + ne],
               [n1 + ne, big]):
        expected = oracle.apery_multi(S, xs)
        assert apery_multi(S, xs) == expected, xs
        assert sum(_apery_counts(S, xs)) == len(expected), xs


def _with_bound(gens):
    # gens with a bound from -1 to F + 2 * n_e of their semigroup
    S = _small_semigroup(gens)
    top = oracle.frobenius(S) + 2 * S.minimal_generators[-1]
    return st.tuples(st.just(gens), st.integers(-1, top))


@settings(max_examples=60, deadline=None)
@given(SMALL_GENERATORS.flatmap(_with_bound))
@example(([5, 7, 9], 31))  # F + 2 * n_e
# past n_e the masks are filled by one extend: both sides of n_e
@example(([5, 7, 9], 8))
@example(([5, 7, 9], 9))
@example(([5, 7, 9], 10))
@example(([5, 7, 9], 0))
@example(([5, 7, 9], -1))
@example(([1], 1))  # N: F + 2 * n_e = 1
# 10 = 4 + 6 is not minimal, so n_e = 9 is not the largest input
@example(([4, 6, 9, 10], 29))
def test_length_masks_and_denumerants_match_enumeration(case):
    gens, bound = case
    S = _small_semigroup(gens)
    masks, counts = _length_masks(S, bound), _denumerants(S, bound)
    sets = length_sets_up_to(S, bound)
    assert len(masks) == len(counts) == len(sets) == bound + 1
    first = {}  # mask -> the least r with that mask
    for r in range(bound + 1):
        lengths = length_set(S, r) if oracle.member(S, r) else []
        assert masks[r] == sum(1 << l for l in lengths), r
        assert sets[r] == (set(lengths) or None), r
        assert lengths == [] or type(sets[r]) is frozenset, r
        # entries with equal masks share one object
        assert sets[r] is sets[first.setdefault(masks[r], r)], r
        assert counts[r] == denumerant(S, r), r


@settings(max_examples=80, deadline=None)
@given(SMALL_GENERATORS, st.data())
@example([6, 9, 20], None)
@example([4, 6, 9, 11], None)
@example([9, 10, 11], None)
@example([10, 11, 12], None)
def test_factorization_count_is_capped_denumerant(gens, data):
    # a consecutive triple's closed count is held to the same contract,
    # up to a(a+2) at least, whose lengths are a, a+1 and a+2
    S = _small_semigroup(gens)
    gens = S.minimal_generators
    top = oracle.frobenius(S) + 3 * max(gens)
    counters = [lambda r, cap: _factorization_count(S, r, cap)]
    if len(gens) == 3 and gens[2] - gens[0] == 2:
        top = max(top, gens[0] * gens[2])
        counters.append(TripleSemigroup(gens[0]).factorization_count)
    counts = _denumerants(S, top)
    for r in range(top + 1):
        if data is None:
            caps = (0, counts[r] - 1, counts[r], 10 ** 9)
        else:
            caps = (data.draw(st.integers(0, counts[r] + 2)),)
        for cap in caps:
            for count in counters:
                got, exact = count(r, cap)
                if counts[r] <= cap:
                    assert (got, exact) == (counts[r], True), (r, cap)
                else:
                    assert cap < got <= counts[r], (r, cap)
                    assert got == counts[r] or not exact, (r, cap)
    for r in range(0, top + 1, 7):
        assert _factorization_count(S, r, 10 ** 9) == \
            (denumerant(S, r), True), r


def test_factorization_count_past_sys_maxsize():
    # <3, 5> has d(r + 15) = d(r) + 1, so d(10 + 15k) = d(10) + k
    S = Semigroup((3, 5))
    k = (10 ** 23 - 10) // 15
    expected = denumerant(S, 10) + k
    assert expected > sys.maxsize
    assert _factorization_count(S, 10 ** 23, 10 ** 6) == (expected, True)


# ---------------------------------------------------------------------------
# the oracle itself

def test_oracle_ignores_the_engine_tables():
    # a wrong Apery table and Frobenius number fool the engine, not the
    # oracle, which reads only the minimal generators
    S = Semigroup((10, 11, 12))
    S._apery, S.frobenius = [0] * 10, -1
    assert 1 in S and 49 in S
    T = Semigroup((10, 11, 12))
    assert oracle.frobenius(S) == 49
    assert [r for r in range(80) if oracle.member(S, r)] == \
        [r for r in range(80) if r in T]
    assert oracle.betti_elements(S) == BettiClassification((22, 60), (22,),
                                                           (60,))
    assert oracle.apery_multi(S, (60,)) == sorted(golden.APERY_60_A10)
    assert oracle.apery_multi(S, (60, 22)) == apery_multi(T, (60, 22))
    assert oracle.ulf(S) == sorted(golden.APERY_60_A10)
    assert oracle.length_set(S, 60) == [5, 6]
    assert oracle.denumerant(S, 43) == 2
    assert oracle.nabla_graph(S, 22).n_components == 2
    for bad in (lambda: oracle.length_set(S, 49),
                lambda: oracle.nabla_graph(S, 1),
                lambda: oracle.apery_multi(S, (49,))):
        with pytest.raises(NotMemberError):
            bad()
