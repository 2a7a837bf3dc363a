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
from sgp.core_semigroup import Semigroup
from sgp.render import (
    CSV_HEADER,
    cell_class,
    monomial_table,
    monomial_table_to_text,
    partition_table,
    table_from_csv,
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


# outside Gamma_iota, the last one with iota above the L of a = 10
INVALID_PAIRS = [(0, 1), (1, 2), (2, 0), (3, 1), (-1, 0), (5, 0)]


def test_cell_class_rejects_invalid_pairs():
    for iota, c in INVALID_PAIRS:
        with pytest.raises(ValueError):
            cell_class(iota, c)


def test_writers_reject_invalid_pairs():
    # a hand-built table holding one such triple gets cell_class's error
    t = partition_table(10)
    for iota, c in INVALID_PAIRS:
        bad = t._replace(cells={**t.cells, (4, 3): [(44, iota, c)]})
        for write in (table_to_csv, table_to_json):
            with pytest.raises(ValueError, match=r"\(%d, %d\) is not a valid"
                               % (iota, c)):
                write(bad)


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


def test_csv_round_trip():
    for a in (3, 6, 10, 15, 21):
        t = partition_table(a)
        assert table_from_csv(table_to_csv(t)) == t


def test_csv_layout():
    lines = table_to_csv(partition_table(10)).splitlines()
    assert lines[0] == ",".join(CSV_HEADER)
    assert lines[1] == "0,1,0,0,0,zero"
    assert "1,1,10,1,-1,m1" in lines
    assert "4,3,44,0,0,zero" in lines
    # deterministic: rows ordered by (ell, d, r)
    keys = [tuple(map(int, line.split(",")[:3])) for line in lines[1:]]
    assert keys == sorted(keys)


def test_csv_rejects_foreign_header():
    with pytest.raises(ValueError):
        table_from_csv("x,y\n1,2\n")


def test_csv_without_the_length_one_row():
    # a is read off the (ell, d) = (1, 1) row; without it the error names it
    with pytest.raises(ValueError, match="ell=1, d=1"):
        table_from_csv(",".join(CSV_HEADER) + "\n")


def test_csv_refuses_text_that_table_to_csv_does_not_write():
    text = table_to_csv(partition_table(10))
    header, *rows = text.splitlines(keepends=True)
    bad = [
        # a cell outside Gamma_iota with an unknown class name
        ",".join(CSV_HEADER) + "\n1,1,10,1,5,zz\n",
        header + "".join(rows[:1] + rows[2:3] + rows[1:2] + rows[3:]),
        text.replace("\n", "\r\n"),
        text.replace(",zero\n", ",zz\n"),
        text[:-1],
        text + "4,3,44,0,0,zero\n",
        # an a far larger than any table this text could hold
        header + rows[0] + "1,1,%d,1,-1,m1\n" % 10 ** 12,
    ]
    for t in bad:
        with pytest.raises(ValueError):
            table_from_csv(t)


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


def test_serializers_match_the_library_encoders_byte_for_byte():
    tables = [partition_table(a) for a in range(3, 161)]
    # a table read back from CSV
    tables.append(table_from_csv(table_to_csv(partition_table(37))))
    # hand-built tables, which the writers read and never rebuild from a:
    # every cell's triples reversed, one cell dropped, every r shifted
    t = partition_table(20)
    tables.append(t._replace(cells={k: trips[::-1]
                                    for k, trips in t.cells.items()}))
    tables.append(t._replace(cells={k: trips for k, trips in t.cells.items()
                                    if k != (5, 2)}))
    tables.append(t._replace(cells={k: [(r + 1, i, c) for r, i, c in trips]
                                    for k, trips in t.cells.items()}))
    # and a valid pair with iota above L, which no table of a holds
    tables.append(t._replace(cells={**t.cells, (9, 1): [(200, 11, -11)]}))
    for t in tables:
        assert table_to_csv(t) == reference_csv(t), t.a
        assert table_to_json(t) == reference_json(t), t.a
    # the class lookup is cached per call only: 2.0 == 2 still refuses
    with pytest.raises(TypeError):
        cell_class(2.0, 0)


def test_json_shape():
    doc = json.loads(table_to_json(partition_table(10)))
    by_cell = {(c["ell"], c["d"]): c["triples"] for c in doc}
    assert by_cell[(2, 2)] == [{"r": 22, "iota": 0, "c": 0, "class": "zero"}]
    assert [t["r"] for t in by_cell[(1, 1)]] == [10, 11, 12]


def test_text_rendering_mentions_every_r():
    text = table_to_text(partition_table(10))
    for cell in golden.FIGURE_A10.values():
        for r, iota, c in cell:
            assert "%d %d %d" % (r, iota, c) in text


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


# sha256 of table_to_text(partition_table(a)), and of
# monomial_table_to_text(monomial_table(41, 12, 6)) without and with
# superscripts: text bytes that cli_golden.json (a <= 10, no monomial
# table) does not pin
TEXT_DIGESTS = {
    3: "e335f5996829050211c8b8f98d333f7084b361310f1bad0f623b78bd1034ce4b",
    10: "3c4f4791bfa76e684bce179b74be134267d8314fd25b14ddecfe848be527fa17",
    41: "087c0595e89bd5ca27952b0790c4cc8b8f564637287de5052c13d4a363c1cd27",
    150: "8dbf2c15f437e18ec540881f2bfb9188de54391d4305e10b9cde51089cb30613",
}
MONOMIAL_DIGESTS = {
    False: "59e7b6f33c92a97380fcf5dcb3056cc45986a91688381d50ed836ba05c4286b3",
    True: "965aa12fbbf8dc20682c56273a769bdca1ed1d4aa219c4f9cdb86b435328870c",
}


def test_text_tables_match_recorded_digests():
    for a, digest in TEXT_DIGESTS.items():
        assert sha256(table_to_text(partition_table(a))) == digest, a
    for superscript, digest in MONOMIAL_DIGESTS.items():
        t = monomial_table(41, 12, 6, superscript)
        assert sha256(monomial_table_to_text(t)) == digest, superscript


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
