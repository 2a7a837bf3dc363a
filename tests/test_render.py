"""Tables, serialization round-trips and the two transcript displays."""

import csv
import hashlib
import io
import json
import tracemalloc
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import golden
from sgp import oracle
from sgp.core_semigroup import (
    Semigroup,
    _denumerants,
    length_sets_up_to,
    ulf,
)
from sgp.render import (
    CSV_HEADER,
    cell_class,
    monomial_table,
    monomial_table_to_text,
    partition_table,
    table_to_csv,
    table_to_json,
    table_to_text,
    ulf_by_denumerant_report,
    ulf_by_length_report,
)


def test_cell_class_mapping():
    assert cell_class(0, 0) == "zero"
    assert cell_class(1, -1) == "m1"
    assert cell_class(1, 0) == "z1"
    assert cell_class(1, 1) == "p1"
    assert cell_class(2, -2) == "neg_i"
    assert cell_class(2, -1) == "neg_i1"
    assert cell_class(2, 1) == "pos_i1"
    assert cell_class(2, 2) == "pos_i"
    assert cell_class(5, -4) == "neg_i1"
    assert cell_class(5, 5) == "pos_i"


def test_cell_class_rejects_invalid_pairs():
    # each c outside Gamma_iota
    for iota, c in [(0, 1), (1, 2), (2, 0), (3, 1), (-1, 0), (5, 0)]:
        with pytest.raises(ValueError):
            cell_class(iota, c)


WRITERS = (table_to_csv, table_to_json, table_to_text)


def test_writers_reject_small_a():
    # the writers take a, and refuse it as TripleSemigroup does
    for write in WRITERS:
        for a in (2, 0, -5):
            with pytest.raises(ValueError, match="need a >= 3"):
                write(a)
        with pytest.raises(TypeError):
            write(10.0)


def as_tuples(cells):
    return {key: tuple(entries) for key, entries in cells.items()}


def test_partition_table_figure_a10():
    t = partition_table(10)
    assert t.a == 10 and t.L == 4 and t.D == 3
    assert as_tuples(t.cells) == golden.FIGURE_A10


def test_partition_table_figure_a15():
    t = partition_table(15)
    assert t.a == 15 and t.L == 7 and t.D == 4
    assert as_tuples(t.cells) == golden.FIGURE_A15


def test_partition_table_matches_engine():
    # the cells against the generic engine: the r of the table are the
    # unique-length members of length <= L, and each r sits in the cell
    # (its one length, its denumerant)
    for a in range(3, 61):
        t = partition_table(a)
        S = Semigroup((a, a + 1, a + 2))
        members = ulf(S)
        lsets = length_sets_up_to(S, members[-1])
        counts = _denumerants(S, members[-1])
        assert sorted(r for trips in t.cells.values() for r, _, _ in trips) \
            == [r for r in members if max(lsets[r]) <= t.L], a
        for (ell, d), trips in t.cells.items():
            for r, _, _ in trips:
                assert lsets[r] == {ell} and counts[r] == d, (a, r)


def test_csv_layout():
    lines = table_to_csv(10).splitlines()
    assert lines[0] == ",".join(CSV_HEADER)
    assert lines[1] == "0,1,0,0,0,zero"
    assert "1,1,10,1,-1,m1" in lines
    assert "4,3,44,0,0,zero" in lines
    # deterministic: rows ordered by (ell, d, r)
    keys = [tuple(map(int, line.split(",")[:3])) for line in lines[1:]]
    assert keys == sorted(keys)


def reference_csv(t):
    """table_to_csv by csv.writer, as it was written before the templates."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(CSV_HEADER)
    for key in sorted(t.cells):
        ell, d = key
        for r, iota, c in t.cells[key]:
            w.writerow([ell, d, r, iota, c, cell_class(iota, c)])
    return buf.getvalue()


def reference_json(t):
    """table_to_json by json.dumps, as it was written before the
    templates."""
    cells = [{"ell": ell, "d": d,
              "triples": [{"r": r, "iota": iota, "c": c,
                           "class": cell_class(iota, c)}
                          for r, iota, c in t.cells[(ell, d)]]}
             for ell, d in sorted(t.cells)]
    return json.dumps(cells, indent=2) + "\n"


def reference_text(t):
    """table_to_text with every cell scanned for the column widths, as it
    was written before the widths were read off row L."""
    cell_lines = {k: ["%d %d %d" % x for x in trips]
                  for k, trips in t.cells.items()}
    cols = range(1, t.D + 1)
    widths = {d: max([len("d=%d" % d)]
                     + [len(s) for ell in range(t.L + 1)
                        for s in cell_lines.get((ell, d), [])])
              for d in cols}
    label_w = len("ell=%d" % t.L)
    lines = [" | ".join([" " * label_w]
                        + [("d=%d" % d).ljust(widths[d]) for d in cols])]
    for ell in range(t.L + 1):
        blocks = {d: cell_lines.get((ell, d), []) for d in cols}
        height = max(1, max(len(b) for b in blocks.values()))
        for k in range(height):
            label = ("ell=%d" % ell) if k == 0 else ""
            row = [label.ljust(label_w)]
            for d in cols:
                b = blocks[d]
                row.append((b[k] if k < len(b) else "").ljust(widths[d]))
            lines.append(" | ".join(row).rstrip())
    return "\n".join(lines) + "\n"


def test_serializers_match_the_library_encoders_byte_for_byte():
    # the writers build no table; each is checked against the encoders
    # run over partition_table(a), and at a in {201, 202}, where L = 100,
    # on ell, iota and |c| with three digits
    for a in [*range(3, 161), 201, 202]:
        t = partition_table(a)
        assert table_to_csv(a) == reference_csv(t), a
        assert table_to_json(a) == reference_json(t), a
        assert table_to_text(a) == reference_text(t), a
    # the CSV writer, whose encoder runs at C speed, also where iota runs
    # up to L = 200 on an odd and an even a
    for a in (401, 402):
        assert table_to_csv(a) == reference_csv(partition_table(a)), a
    # the class lookup is cached per call only: 2.0 == 2 still refuses
    with pytest.raises(TypeError):
        cell_class(2.0, 0)


def test_json_shape():
    doc = json.loads(table_to_json(10))
    by_cell = {(c["ell"], c["d"]): c["triples"] for c in doc}
    assert by_cell[(2, 2)] == [{"r": 22, "iota": 0, "c": 0, "class": "zero"}]
    assert [t["r"] for t in by_cell[(1, 1)]] == [10, 11, 12]


def test_text_rendering_mentions_every_r():
    text = table_to_text(10)
    for cell in golden.FIGURE_A10.values():
        for r, iota, c in cell:
            assert "%d %d %d" % (r, iota, c) in text


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


# sha256 of table_to_text(a), and of
# monomial_table_to_text(monomial_table(41, 12, 6)) without and with
# superscripts: text bytes that cli_golden.json (a <= 10, no monomial
# table) does not pin
TEXT_DIGESTS = {
    3: "e335f5996829050211c8b8f98d333f7084b361310f1bad0f623b78bd1034ce4b",
    10: "3c4f4791bfa76e684bce179b74be134267d8314fd25b14ddecfe848be527fa17",
    41: "087c0595e89bd5ca27952b0790c4cc8b8f564637287de5052c13d4a363c1cd27",
    150: "8dbf2c15f437e18ec540881f2bfb9188de54391d4305e10b9cde51089cb30613",
    201: "8cd8c03a563734ff5c7dca9d7968fe8e2e46b0d34ce420b9df91aa75a0d45fec",
}
MONOMIAL_DIGESTS = {
    False: "59e7b6f33c92a97380fcf5dcb3056cc45986a91688381d50ed836ba05c4286b3",
    True: "965aa12fbbf8dc20682c56273a769bdca1ed1d4aa219c4f9cdb86b435328870c",
}


def test_text_tables_match_recorded_digests():
    for a, digest in TEXT_DIGESTS.items():
        assert sha256(table_to_text(a)) == digest, a
    for superscript, digest in MONOMIAL_DIGESTS.items():
        t = monomial_table(41, 12, 6, superscript)
        assert sha256(monomial_table_to_text(t)) == digest, superscript


def test_writers_hold_no_table():
    # each writer holds its output and the row strings joined into it, not
    # the 40000 triples of the table of 400
    for write in WRITERS:
        tracemalloc.start()
        try:
            n = len(write(400))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * n, (write.__name__, peak, n)


def test_monomial_table_figure():
    t = monomial_table(15, 7, 4)
    assert as_tuples(t.cells) == golden.MONOMIAL_CELLS


def test_monomial_table_is_a_independent():
    reference = monomial_table(15, 7, 4).cells
    # only the grid's cells are built, so a = 10^9 answers at once
    for a in (17, 20, 33, 10 ** 9):
        assert monomial_table(a, 7, 4).cells == reference


def test_monomial_table_rejects_oversized_grid():
    # a=10 only supports ell <= 4; a grid needs ell_max >= 0 and
    # d_max >= 1 to have a cell at all
    for ell_max, d_max in ((7, 4), (2, 0), (-1, 2)):
        with pytest.raises(ValueError, match="%dx%d grid"
                           % (ell_max, d_max)):
            monomial_table(10, ell_max, d_max)


def test_monomial_text_contains_bases():
    text = monomial_table_to_text(monomial_table(15, 7, 4))
    assert "x^2z^2,xy^2z,y^4" in text
    assert "1" in text.splitlines()[1]


def test_by_length_display_a10():
    rows = ulf_by_length_report(Semigroup((10, 11, 12)))
    assert [row for _, row in rows] == golden.BY_LENGTH_A10
    assert [l for l, _ in rows] == list(range(11))


def test_by_denumerant_display_a10():
    rows = ulf_by_denumerant_report(Semigroup((10, 11, 12)))
    assert [row for _, row in rows] == golden.BY_DENUMERANT_A10
    assert [d for d, _ in rows] == [1, 2, 3, 4, 5]


def test_by_denumerant_display_a9():
    rows = ulf_by_denumerant_report(Semigroup((9, 10, 11)))
    assert [row for _, row in rows] == golden.BY_DENUMERANT_A9


def test_displays_on_a_two_generator_semigroup():
    rows = ulf_by_length_report(Semigroup((2, 3)))
    assert [row for _, row in rows] == [[0], [2, 3], [4, 5], [7]]


def test_reports_refuse_n():
    # the unique-length set of N is all of N, and neither report takes a
    # bound: the refusal says so and does not ask for one
    for gens in ((1,), (1, 2)):
        for report in (ulf_by_length_report, ulf_by_denumerant_report):
            with pytest.raises(ValueError, match="all of N") as info:
                report(Semigroup(gens))
            assert "bound" not in str(info.value)


def one_length(S, r):
    (length,) = oracle.length_set(S, r)
    return length


def oracle_rows(S, key, first):
    """oracle.ulf(S) grouped by key(r), rows first..max as the reports."""
    groups = {}
    for r in oracle.ulf(S):
        groups.setdefault(key(r), []).append(r)
    return [(k, groups.get(k, [])) for k in range(first, max(groups) + 1)]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=2, max_value=19), min_size=2,
                max_size=4, unique=True).filter(lambda g: gcd(*g) == 1))
@example([2, 3])
@example([6, 9, 20])
@example([4, 5, 6, 7])
@example([10, 11, 12])
def test_reports_match_the_oracle(gens):
    S = Semigroup(gens)
    assert ulf_by_length_report(S) == oracle_rows(
        S, lambda r: one_length(S, r), 0)
    assert ulf_by_denumerant_report(S) == oracle_rows(
        S, lambda r: oracle.denumerant(S, r), 1)


def test_by_length_report_stays_lean():
    # lengths come from Ap(S, n1), not from a length table over [0, max ULF]
    S = Semigroup((301, 303))
    tracemalloc.start()
    try:
        ulf_by_length_report(S)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20, peak
