"""Closed-form tests for <a, a+1, a+2> against goldens and the engine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import golden
from sgp.consecutive_triple import (
    OMEGA,
    TripleDecomposition,
    TripleSemigroup,
    decompose_triple,
    denumerant_triple,
    factorizations_triple,
    gamma,
    length_triple,
    member_triple,
    monomial_basis,
    presentation_triple,
    s_d_i,
    s_d_ulf,
    s_ell,
    seed,
    ubetti_triple,
    ulf_membership_triple,
    ulf_triple,
)
from sgp.consecutive_triple import _lengths
from sgp.core_semigroup import (
    Factorization,
    NotMemberError,
    Semigroup,
    _length_masks,
    apery_multi,
    betti_elements,
    factorizations,
    length_sets_up_to,
    ulf,
)
from sgp.oracle import denumerant, length_set


def test_rejects_small_a():
    for a in (-1, 0, 1, 2):
        with pytest.raises(ValueError):
            TripleSemigroup(a)


@pytest.mark.parametrize("closed_form, args", [
    pytest.param(closed_form, args, id=closed_form.__name__)
    for closed_form, args in [
        (member_triple, (4,)), (ulf_membership_triple, (4,)),
        (factorizations_triple, (4,)), (denumerant_triple, (4,)),
        (decompose_triple, (4,)), (length_triple, (4,)), (seed, (4,)),
        (monomial_basis, (4,)), (ubetti_triple, ()), (s_ell, (1,)),
        (s_d_i, (1, 0)), (s_d_ulf, (1,)), (ulf_triple, ()),
        (presentation_triple, ())]])
def test_per_element_closed_forms_reject_small_a(closed_form, args):
    # each validates a inline, with the message of TripleSemigroup, and
    # s_d_i through TripleSemigroup itself
    for a in (-1, 0, 1, 2):
        with pytest.raises(ValueError, match="need a >= 3, got"):
            closed_form(a, *args)


def test_attributes():
    T = TripleSemigroup(10)
    assert T.generators == (10, 11, 12)
    assert T.frob == 49
    assert T.L == 4 and T.D == 3
    assert T.ulf_bound == 60
    T = TripleSemigroup(9)
    assert T.frob == 35
    assert T.L == 4 and T.D == 3
    assert T.ulf_bound == 54
    assert TripleSemigroup(15).ulf_bound == 135


def test_frobenius_matches_engine():
    for a in list(range(3, 30)) + [100003]:
        S = Semigroup((a, a + 1, a + 2))
        F = TripleSemigroup(a).frob
        assert F == S.frobenius
        assert all((r in S) == member_triple(a, r)
                   for r in range(F - 2 * a, F + 2 * a + 1)), a


def test_apery_of_a_closed_form():
    # w_i = ceil(i / 2) * a + i is the least member congruent to i mod a
    for a in range(3, 41):
        assert apery_multi(Semigroup((a, a + 1, a + 2)), (a,)) == sorted(
            ((i + 1) // 2) * a + i for i in range(a))


# ---------------------------------------------------------------------------
# seed vectors and membership

def test_seed_spot_values():
    sd = seed(10, 43)
    assert sd.phi == (2, 1, 1)
    assert (sd.ell, sd.eps) == (4, 3)
    assert (sd.kappa, sd.xi) == (1, 2)
    assert (sd.iota, sd.c) == (2, -1)
    assert seed(10, 0).phi == (0, 0, 0)
    assert seed(15, 63).phi == (2, 1, 1)
    with pytest.raises(ValueError, match="r must be non-negative"):
        seed(10, -1)


def test_seed_value_identity():
    for a in (3, 9, 10, 15):
        for r in range(0, TripleSemigroup(a).ulf_bound):
            if not member_triple(a, r):
                continue
            sd = seed(a, r)
            lam, mu, eta = sd.phi
            assert lam * a + mu * (a + 1) + eta * (a + 2) == r
            assert lam + mu + eta == sd.ell


def test_fast_paths_agree_with_the_public_seed():
    # the per-r closed forms compute phi_r inline, each its own copy; pin
    # each to the public seed() and to the membership definition of ulf
    for a in range(3, 61):
        ts = TripleSemigroup(a)
        unbalanced = ubetti_triple(a).unbalanced
        for r in range(ts.ulf_bound + 3 * a + 1):
            sd = seed(a, r)
            member = member_triple(a, r)
            one_length = member and not any(member_triple(a, r - u)
                                            for u in unbalanced)
            assert ulf_membership_triple(a, r) == one_length, (a, r)
            if one_length:  # the orbit of phi_r, lexicographic: x rises
                assert factorizations_triple(a, r) == [
                    tuple(x + j * w for x, w in zip(sd.phi, OMEGA))
                    for j in range(sd.kappa, -1, -1)], (a, r)
            if member and r < ts.ulf_bound:
                assert denumerant_triple(a, r) == sd.kappa + 1, (a, r)
                assert decompose_triple(a, r) == TripleDecomposition(
                    sd.kappa + 1, sd.iota, sd.c), (a, r)
        # the threshold is the least unbalanced Betti element; there the
        # forms defined only below it refuse with ValueError itself, not a
        # NotMemberError
        threshold = ts.ulf_bound
        assert threshold == unbalanced[0], a
        assert member_triple(a, threshold), a
        assert not ulf_membership_triple(a, threshold), a
        assert len(factorizations_triple(a, threshold)) == 2, a
        for below_only in (denumerant_triple, decompose_triple,
                           monomial_basis):
            with pytest.raises(ValueError) as exc:
                below_only(a, threshold)
            assert type(exc.value) is ValueError
            assert str(exc.value) == (
                "%d is not below the two-length threshold %d; use the "
                "generic engine there" % (threshold, threshold))
        with pytest.raises(ValueError) as exc:
            length_triple(a, threshold)
        assert str(exc.value) == (
            "%d has factorizations of two different lengths" % threshold)
        for r in (-1, -a - 2, -threshold):
            assert not member_triple(a, r), (a, r)
            assert not ulf_membership_triple(a, r), (a, r)
            for call in (factorizations_triple, denumerant_triple,
                         decompose_triple, length_triple, monomial_basis):
                with pytest.raises(NotMemberError) as exc:
                    call(a, r)
                assert str(exc.value) == (
                    "%d is not in Semigroup(%d, %d, %d)"
                    % (r, a, a + 1, a + 2)), (call, a, r)


def test_membership_matches_engine():
    for a in (3, 4, 7, 12):
        S = Semigroup((a, a + 1, a + 2))
        for r in range(-3, 3 * TripleSemigroup(a).ulf_bound):
            assert member_triple(a, r) == (r >= 0 and r in S), (a, r)


# ---------------------------------------------------------------------------
# factorizations, denumerant, length, decomposition

def test_factorization_spot_values():
    assert factorizations_triple(10, 43) == [(1, 3, 0), (2, 1, 1)]
    assert factorizations_triple(3, 8) == [(0, 2, 0), (1, 0, 1)]
    for a in (3, 8, 21):
        assert factorizations_triple(a, a + 1) == [(0, 1, 0)]


def test_factorizations_are_the_omega_orbit():
    facs = factorizations_triple(10, 43)
    assert tuple(facs[0]) == tuple(x + w for x, w in zip(facs[1], OMEGA))


def test_factorizations_raise_for_non_member():
    with pytest.raises(NotMemberError):
        factorizations_triple(10, 13)
    with pytest.raises(NotMemberError):
        factorizations_triple(10, -5)


def test_factorizations_delegate_above_threshold():
    # 60 has lengths 5 and 6: one omega-orbit per length, merged in the
    # engine's lexicographic order
    S = Semigroup((10, 11, 12))
    assert factorizations_triple(10, 60) == factorizations(S, 60)
    assert length_set(S, 60) == [5, 6]


def test_factorizations_match_engine_in_order():
    # past the threshold too: L(r) is the interval _lengths(a, r), the set
    # bits of the engine's length mask, and F(r) is the engine's list
    for a in range(3, 41):
        S = Semigroup((a, a + 1, a + 2))
        masks = _length_masks(S, TripleSemigroup(a).ulf_bound + 6 * a)
        for r, mask in enumerate(masks):
            lengths = list(_lengths(a, r))
            assert lengths == [ell for ell in range(mask.bit_length())
                               if mask >> ell & 1], (a, r)
            if mask:
                fast = factorizations_triple(a, r)
                assert fast == factorizations(S, r), (a, r)
                assert all(type(v) is Factorization for v in fast), (a, r)


def test_long_orbits_match_engine():
    # one-length members of <10001, 10002, 10003> far past a <= 40: kappa
    # 1000 (1001 vectors), kappa 0, and kappa 7 and 8, orbits of 8 and 9
    # vectors, with either outer coordinate the smaller
    a = 10001
    S = Semigroup((a, a + 1, a + 2))
    rs = [20004000, 20002000] + [a * 100 + e for e in (14, 16, 184, 186)]
    # kappa is the outer coordinate phi_3 = e // 2 for small e, phi_1 for
    # e near 2 * ell
    assert [seed(a, r).kappa for r in rs] == [1000, 0, 7, 8, 8, 7]
    for r in rs:
        fast = factorizations_triple(a, r)
        assert fast == factorizations(S, r), r
        assert all(type(v) is Factorization for v in fast), r
    assert len(factorizations_triple(a, 20004000)) == 1001


def test_denumerant_spot_values():
    assert denumerant_triple(10, 44) == 3
    assert denumerant_triple(15, 96) == 4
    for a in (3, 10, 17):
        assert denumerant_triple(a, 0) == 1


def test_denumerant_signals_outside_domain():
    with pytest.raises(NotMemberError):
        denumerant_triple(10, 17)
    with pytest.raises(ValueError):
        denumerant_triple(10, 60)


def test_length_spot_values():
    assert length_triple(3, 8) == 2
    assert length_triple(10, 61) == 6
    assert length_triple(10, 109) == 10
    for a in (3, 10, 17):
        assert length_triple(a, 0) == 0


def test_length_signals_two_length_members():
    with pytest.raises(ValueError):
        length_triple(10, 60)
    with pytest.raises(NotMemberError):
        length_triple(10, 13)


def test_length_identity_with_denumerant():
    # ell = 2(delta - 1) + iota on the whole table region
    for a in (4, 9, 10, 15):
        for r in range(TripleSemigroup(a).ulf_bound):
            if member_triple(a, r):
                assert length_triple(a, r) == \
                    2 * (denumerant_triple(a, r) - 1) + seed(a, r).iota


def test_decompose_spot_values():
    d = decompose_triple(10, 43)
    assert (d.d, d.i, d.c) == (2, 2, -1)
    d = decompose_triple(15, 109)
    assert (d.d, d.i, d.c) == (3, 3, -3)
    d = decompose_triple(12, 0)
    assert (d.d, d.i, d.c) == (1, 0, 0)


def test_decompose_reconstructs_r():
    for a in (5, 10, 15):
        for r in range(TripleSemigroup(a).ulf_bound):
            if not member_triple(a, r):
                continue
            d = decompose_triple(a, r)
            assert (a + 1) * (2 * d.d - 2 + d.i) + d.c == r
            assert d.c in gamma(d.i)


def test_decompose_signals_outside_domain():
    with pytest.raises(ValueError):
        decompose_triple(10, 60)
    with pytest.raises(NotMemberError):
        decompose_triple(10, 29)


# ---------------------------------------------------------------------------
# unique-length membership

def test_ulf_membership_matches_engine():
    for a in (3, 6, 9, 14):
        S = Semigroup((a, a + 1, a + 2))
        members = ulf(S)
        top = members[-1] + 2 * a
        table = length_sets_up_to(S, top)
        for r in range(top + 1):
            expected = table[r] is not None and len(table[r]) == 1
            assert ulf_membership_triple(a, r) == expected, (a, r)


def test_ulf_membership_is_constant_time_far_out():
    assert not ulf_membership_triple(10, 10 ** 12)
    assert not ulf_membership_triple(9, 10 ** 12 + 7)
    # L(r) has more than sys.maxsize points here
    assert not ulf_membership_triple(3, 10 ** 23)


# ---------------------------------------------------------------------------
# gamma and the partition pieces

def test_gamma():
    assert gamma(0) == [0]
    assert gamma(1) == [-1, 0, 1]
    assert gamma(2) == [-2, -1, 1, 2]
    assert gamma(3) == [-3, -2, 2, 3]
    with pytest.raises(ValueError):
        gamma(-1)


def test_s_ell_spot_values():
    assert list(s_ell(10, 2)) == [20, 21, 22, 23, 24]
    assert list(s_ell(10, 6)) == [61, 62, 63, 64, 65, 66, 67, 68, 69]
    assert list(s_ell(9, 5)) == list(range(45, 54))
    assert list(s_ell(9, 9)) == [89]
    for a in (3, 10, 23):
        assert list(s_ell(a, 0)) == [0]
        for ell in range(a + 1, a + 6):
            assert list(s_ell(a, ell)) == []
        assert list(s_ell(a, 10 ** 30)) == []
    with pytest.raises(ValueError):
        s_ell(10, -1)


def test_s_ell_rows_group_by_length():
    for a, rows in [(10, golden.BY_LENGTH_A10)]:
        for ell, row in enumerate(rows):
            assert list(s_ell(a, ell)) == row


def test_ulf_listing_is_s_ell_by_ell():
    # the listing `sgp ulf` writes, S^0, ..., S^a, built at C speed from
    # three pieces of arithmetic progressions, is s_ell range by range,
    # and both are the interval of the module docstring on every piece,
    # for odd and even a; s_ell is empty past a, and the last range is the
    # one member of length a, a^2 + a - 1
    for a in range(3, 401):
        ts = TripleSemigroup(a)
        n, listing = ts.ulf_runs()
        runs = listing()
        assert runs == [s_ell(a, ell) for ell in range(a + 1)], a
        intervals = [range(max(a * ell, (a + 2) * ell - a - 1),
                           min(a * ell + a, (a + 2) * ell + 1))
                     for ell in range(a + 4)]
        assert runs == intervals[:a + 1], a
        assert [s_ell(a, ell) for ell in range(a + 4)] == intervals, a
        assert not any(s_ell(a, ell) for ell in range(a + 1, a + 4)), a
        assert n == ts.ulf_size == sum(map(len, runs)), a
        assert list(runs[a]) == [a * a + a - 1], a


def test_s_d_i_spot_values():
    assert s_d_i(10, 2, 2) == [42, 43, 45, 46]
    assert s_d_i(15, 4, 1) == [111, 112, 113]
    for a in (3, 11, 20):
        assert s_d_i(a, 1, 0) == [0]
    with pytest.raises(ValueError):
        s_d_i(10, 4, 0)  # d beyond D=3
    with pytest.raises(ValueError):
        s_d_i(10, 3, 1)  # i beyond I_3=0


def test_s_d_ulf_golden():
    for (a, d), expected in golden.S_D_ULF_CASES.items():
        assert set(s_d_ulf(a, d)) == expected
    with pytest.raises(ValueError):
        s_d_ulf(10, 6)
    with pytest.raises(ValueError):
        s_d_ulf(9, 0)


def test_s_d_ulf_rows_group_by_denumerant():
    for a, rows in [(10, golden.BY_DENUMERANT_A10),
                    (9, golden.BY_DENUMERANT_A9)]:
        for row_index, row in enumerate(rows):
            assert sorted(s_d_ulf(a, row_index + 1)) == row


def test_box_readers_match_engine():
    # s_ell and s_d_ulf each partition the unique-length set, and every
    # piece carries its label: length set {ell}, denumerant d
    for a in range(3, 41):
        S = Semigroup((a, a + 1, a + 2))
        members = ulf(S)
        assert TripleSemigroup(a).ulf_size == len(members)
        lsets = length_sets_up_to(S, members[-1])
        by_length = [list(s_ell(a, ell)) for ell in range(a + 1)]
        for ell, row in enumerate(by_length):
            assert all(lsets[r] == {ell} for r in row), (a, ell)
        assert sorted(sum(by_length, [])) == members
        # the rows come in ascending order, as `sgp ulf` prints them
        assert sum(by_length, []) == [u.r for u in ulf_triple(a)]
        by_denumerant = [s_d_ulf(a, d) for d in range(1, (a + 1) // 2 + 1)]
        for d, row in enumerate(by_denumerant, start=1):
            assert row and all(denumerant(S, r) == d for r in row), (a, d)
        assert sorted(sum(by_denumerant, [])) == members


# ---------------------------------------------------------------------------
# the full unique-length set

def test_ulf_triple_equals_apery_form():
    S = Semigroup((10, 11, 12))
    assert [u.r for u in ulf_triple(10)] == apery_multi(S, (60,))


def test_ulf_triple_a15_golden():
    assert [u.r for u in ulf_triple(15)] == golden.ULF_A15


def test_ulf_triple_contains_zero():
    for a in (3, 8, 13):
        first = ulf_triple(a)[0]
        assert (first.r, first.lam, first.mu, first.eta) == (0, 0, 0, 0)


def test_ulf_triple_cardinality():
    for a in range(3, 26):
        n = len(ulf_triple(a))
        assert TripleSemigroup(a).ulf_size == n
        if a % 2 == 0:
            assert n == (a // 2) * (a + 2)
        else:
            assert n == (a + 1) ** 2 // 2
    assert TripleSemigroup(10 ** 6).ulf_size == 500000 * 1000002


def test_ulf_triple_coordinates_are_factorizations():
    # the coordinates are phi_r; check them against the box definition
    for a in range(3, 41):
        points = [(u.lam, u.mu, u.eta) for u in ulf_triple(a)]
        assert len(set(points)) == len(points)
        for u in ulf_triple(a):
            m = a // 2 + (a % 2) * (1 - u.mu)
            assert u.mu in (0, 1), (a, u)
            assert 0 <= u.lam <= m and 0 <= u.eta < m, (a, u)
            assert u.lam * a + u.mu * (a + 1) + u.eta * (a + 2) == u.r
            facs = set(map(tuple, factorizations_triple(a, u.r)))
            assert (u.lam, u.mu, u.eta) in facs


# ---------------------------------------------------------------------------
# Betti classification and presentation

def test_ubetti_spot_values():
    cls = ubetti_triple(10)
    assert cls.balanced == (22,) and cls.unbalanced == (60,)
    cls = ubetti_triple(15)
    assert cls.betti == (32, 135, 136) and cls.unbalanced == (135, 136)
    assert ubetti_triple(9).betti == (20, 54, 55)


def test_ubetti_matches_engine():
    for a in range(3, 18):
        assert ubetti_triple(a) == betti_elements(Semigroup((a, a + 1, a + 2)))


def test_presentation_even():
    pres = presentation_triple(10)
    assert [(tuple(x), tuple(y)) for x, y in pres.relations] == [
        ((0, 2, 0), (1, 0, 1)), ((6, 0, 0), (0, 0, 5))]


def test_presentation_odd():
    # a=3: c=1, three relators with values 8, 9, 10, and each side must be
    # one of the two factorizations of its value
    pres = presentation_triple(3)
    assert len(pres.relations) == 3
    gens = (3, 4, 5)
    values = []
    for x, y in pres.relations:
        v = x.value(gens)
        assert v == y.value(gens)
        assert {tuple(x), tuple(y)} == golden.TINY_FACTORIZATIONS[v]
        values.append(v)
    assert sorted(values) == [8, 9, 10]


def test_presentation_relators_balance():
    for a in range(3, 32):
        gens = (a, a + 1, a + 2)
        rels = presentation_triple(a).relations
        assert len(rels) == (2 if a % 2 == 0 else 3)
        for x, y in rels:
            assert x.value(gens) == y.value(gens)


def test_presentation_degrees_are_betti_elements():
    for a in (7, 12, 19):
        gens = (a, a + 1, a + 2)
        degrees = sorted({x.value(gens) for x, _ in
                          presentation_triple(a).relations})
        assert degrees == list(ubetti_triple(a).betti)


# ---------------------------------------------------------------------------
# monomial rendering

def test_monomial_spot_values():
    assert monomial_basis(10, 44) == ["x^2z^2", "xy^2z", "y^4"]
    assert monomial_basis(15, 63) == ["x^2yz", "xy^3"]
    for a in (3, 10, 16):
        assert monomial_basis(a, 0) == ["1"]


def test_monomial_superscript_variant():
    assert monomial_basis(10, 44, superscript=True) == ["x²z²", "xy²z", "y⁴"]
    assert monomial_basis(15, 0, superscript=True) == ["1"]


def test_monomial_signals_outside_domain():
    with pytest.raises(NotMemberError):
        monomial_basis(10, 15)
    with pytest.raises(ValueError):
        monomial_basis(10, 60)


# ---------------------------------------------------------------------------
# randomized agreement on the whole unique-length region

@settings(max_examples=25, deadline=None)
@given(a=st.integers(min_value=3, max_value=22),
       data=st.data())
def test_random_members_agree_with_engine(a, data):
    S = Semigroup((a, a + 1, a + 2))
    bound = TripleSemigroup(a).ulf_bound
    r = data.draw(st.integers(min_value=0, max_value=bound - 1))
    if not member_triple(a, r):
        assert r not in S
        return
    facs = factorizations(S, r)
    assert factorizations_triple(a, r) == facs
    assert denumerant_triple(a, r) == len(facs)
    assert length_triple(a, r) == r // a


# ---------------------------------------------------------------------------
# integers only at the public boundary

NON_INTEGERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.fractions(),
    st.decimals(allow_nan=False, allow_infinity=False))


@settings(max_examples=50, deadline=None)
@given(x=NON_INTEGERS, a=st.integers(min_value=3, max_value=30),
       r=st.integers(min_value=0, max_value=300))
def test_non_integers_raise_and_integers_still_answer(x, a, r):
    # a float is rejected even when integral: 10.0 used to slip through
    for call in (lambda: member_triple(x, r), lambda: member_triple(a, x),
                 lambda: seed(x, r), lambda: seed(a, x),
                 lambda: ulf_membership_triple(x, r),
                 lambda: ulf_membership_triple(a, x),
                 lambda: factorizations_triple(x, r),
                 lambda: factorizations_triple(a, x),
                 lambda: denumerant_triple(x, r),
                 lambda: denumerant_triple(a, x),
                 lambda: decompose_triple(x, r),
                 lambda: decompose_triple(a, x),
                 lambda: length_triple(x, r), lambda: length_triple(a, x),
                 lambda: Semigroup([x, a, a + 1]),
                 lambda: s_d_ulf(a, x), lambda: s_d_i(a, x, 0),
                 lambda: s_d_i(a, 1, x), lambda: gamma(x)):
        with pytest.raises(TypeError):
            call()
    S = Semigroup([a, a + 1, a + 2])
    assert S.generators == (a, a + 1, a + 2)
    assert member_triple(a, r) == (r in S)
    sd = seed(a, r)
    ell, eps = divmod(r, a)
    assert (sd.ell, sd.eps) == (ell, eps)
    assert sd.phi == (ell - (eps + 1) // 2, eps % 2, eps // 2)
    assert all(type(v) is int for v in sd.phi + (sd.kappa, sd.xi, sd.iota,
                                                 sd.c))
    assert s_d_ulf(a, 1)[0] == 0 and s_d_i(a, 1, 0) == [0]
    assert gamma(r)[-1] == r
    lengths = length_set(S, r) if r in S else []
    assert ulf_membership_triple(a, r) == (len(lengths) == 1)
    if lengths:
        facs = factorizations_triple(a, r)
        assert facs == factorizations(S, r)
    if len(lengths) == 1:
        assert length_triple(a, r) == lengths[0]
        if r < TripleSemigroup(a).ulf_bound:
            assert denumerant_triple(a, r) == len(facs)
            assert decompose_triple(a, r).d == len(facs)
