"""Tables and reports over the length/denumerant partition of <a, a+1, a+2>.

The members up to (a+2)L arrange naturally into a grid with rows indexed
by the common factorization length ell and columns by the denumerant d;
the cell (ell, d) is S_{d,i} = (a+1)ell + Gamma_i with i = ell - 2d + 2,
so the grid is a function of a alone.  One generator, _rows, yields it
row by row from that formula.  partition_table materializes the grid
with (r, iota, c) triples and monomial_table with the rendered monomial
bases.  The writers table_to_csv, table_to_json and table_to_text take
a and write its grid row by row, and never hold the whole grid.  The
by-length and by-denumerant reports work on any semigroup but N through
the generic engine, which only they import.

table_to_csv and table_to_json build one %-template per (iota, c) pair,
with iota, c and the class name in it, so each triple is one % of
("ell,d,", r) in CSV and of r in JSON.  Their output is byte for byte
what csv.writer (lineterminator "\n") and json.dumps(indent=2) + "\n"
write for the rows and cells of partition_table(a), since every field
is an int or a class name, which needs no quoting or escaping.  At the
10^6-item edge of the CLI, a whole `sgp` process (2 cores, Python
3.11.7, three runs on a shared machine) takes:

    sgp --a 2000 table  (10^6 triples)   json 1.2-1.9 s, 269 MiB max RSS
                                         csv  0.8-1.3 s, 86 MiB
                                         text 1.0-1.7 s, 114 MiB
    sgp --a 1410 ulf    (995460 members) json 0.15 s, 38 MiB
                                         csv  0.13 s, 36 MiB
                                         text 0.15 s, 36 MiB
"""

from collections import namedtuple

from . import consecutive_triple as ct

CSV_HEADER = ("ell", "d", "r", "iota", "c", "class")
# one row, to be filled with (iota, c, class) and then with ("ell,d,", r)
_CSV_ROW = "%%s%%d,%d,%d,%s\n"
# one cell and one triple of the json.dumps(indent=2) layout; the triple
# is filled with (iota, c, class) and then with r
_JSON_CELL = ('  {\n    "ell": %d,\n    "d": %d,\n'
              '    "triples": [\n%s\n    ]\n  }')
_JSON_TRIPLE = ('      {\n        "r": %%d,\n        "iota": %d,\n'
                '        "c": %d,\n        "class": "%s"\n      }')

# the family names of Gamma_0, Gamma_1 and Gamma_i (i >= 2), in the order
# of ct.gamma
_CLASS_NAMES = (("zero",), ("m1", "z1", "p1"),
                ("neg_i", "neg_i1", "pos_i1", "pos_i"))


def cell_class(iota, c) -> str:
    """Which of the eight (iota, c) families a triple belongs to.

    The family is the position of c in Gamma_iota: iota 0 and 1 give the
    four singleton families zero, m1, z1, p1; for iota >= 2 the corner c
    picks neg_i, neg_i1, pos_i1 or pos_i.  A non-integer iota is a
    TypeError.
    """
    try:  # gamma refuses iota < 0, and list.index a c outside it
        k = ct.gamma(iota).index(c)
    except ValueError:
        raise ValueError("(%d, %d) is not a valid (iota, c) pair"
                         % (iota, c)) from None
    return _CLASS_NAMES[min(iota, 2)][k]


def _templates(L, fmt):
    """fmt % (iota, c, its class) for each (iota, c) of a table of length
    L, every c of Gamma_iota for iota <= L, keyed by (iota, c)."""
    return {(i, c): fmt % (i, c, name) for i in range(L + 1)
            for c, name in zip(ct.gamma(i), _CLASS_NAMES[min(i, 2)])}


# cells: (ell, d) -> list of (r, iota, c), ascending in r
class PartitionTable(namedtuple("PartitionTable", "a L D cells")):
    """Grid of (r, iota, c) triples; only non-empty cells are stored."""

    __slots__ = ()


# cells: (ell, d) -> list of (basis, iota, c)
class MonomialTable(namedtuple("MonomialTable", "a ell_max d_max cells")):
    """Grid of (monomial basis string, iota, c) triples."""

    __slots__ = ()


def _rows(a, ells, d_max):
    """(ell, {d: triples}) for each ell of the range ells: the non-empty
    cells (ell, d) of the table of a with d <= d_max, ascending in d, each
    S_{d,i} = (a+1) * ell + Gamma_i, i = ell - 2d + 2 >= 0, as (r, i, c)
    triples ascending in r."""
    gammas = [ct.gamma(i) for i in range(ells.stop)]
    for ell in ells:
        base = (a + 1) * ell
        cells = {}
        for d in range(1, min(d_max, ell // 2 + 1) + 1):
            i = ell - 2 * d + 2
            # a loop, not a comprehension, which costs a call per cell
            cells[d] = cell = []
            for c in gammas[i]:
                cell.append((base + c, i, c))
        yield ell, cells


def partition_table(a) -> PartitionTable:
    """All (r, iota_r, c_r) triples for members up to (a+2)L, as a grid.

    Cell (ell, d) is empty exactly when ell < 2d - 2.
    """
    ts = ct.TripleSemigroup(a)
    return PartitionTable(a, ts.L, ts.D, {
        (ell, d): trips for ell, cells in _rows(a, range(ts.L + 1), ts.D)
        for d, trips in cells.items()})


def monomial_table(a, ell_max, d_max, superscript=False) -> MonomialTable:
    """The same grid with each r replaced by its rendered monomial basis.

    Basis monomials are comma-joined into one string per element.  The
    strings only depend on (ell, d, c), not on a, as long as the grid
    fits inside the L x D range of a.  A grid with no cell, ell_max < 0
    or d_max < 1, and one that does not fit are refused with a ValueError.
    Only the cells of the grid are built, so a large a costs nothing more.
    """
    ts = ct.TripleSemigroup(a)
    if ell_max < 0 or d_max < 1:
        raise ValueError("a %dx%d grid has no cell: it needs ell_max >= 0 "
                         "and d_max >= 1" % (ell_max, d_max))
    if ell_max > ts.L or d_max > ts.D:
        raise ValueError(
            "a %dx%d grid does not fit inside the %dx%d table of a=%d"
            % (ell_max, d_max, ts.L, ts.D, a))
    cells = {(ell, d): [(",".join(ct.monomial_basis(a, r, superscript)), i, c)
                        for r, i, c in trips]
             for ell, row in _rows(a, range(ell_max + 1), d_max)
             for d, trips in row.items()}
    return MonomialTable(a, ell_max, d_max, cells)


def table_to_csv(a) -> str:
    """The table of a, one row per (ell, d, r, iota, c, class), sorted by
    (ell, d, r).

    About a^2/4 lines, written one row of the grid at a time, in O(a^2)
    time and memory: the text, and the strings of the rows joined into
    it.  A non-integer a is a TypeError, an a < 3 a ValueError.
    """
    ts = ct.TripleSemigroup(a)
    rows = _templates(ts.L, _CSV_ROW)
    out = [",".join(CSV_HEADER) + "\n"]
    for ell, cells in _rows(a, range(ts.L + 1), ts.D):
        row = []
        for d, trips in cells.items():
            head = "%d,%d," % (ell, d)
            row += [rows[i, c] % (head, r) for r, i, c in trips]
        out.append("".join(row))
    return "".join(out)


def _grid_to_text(L, D, rows, measured, fmt) -> str:
    """The rows (ell, {d: triples}), ell = 0..L, as an aligned grid of the
    columns d = 1..D, one fmt % triple line per triple.

    Column d is as wide as "d=%d" % d or as its widest line in the rows
    measured, which must hold the widest line of every column.
    """
    cols = range(1, D + 1)
    widths = {d: len("d=%d" % d) for d in cols}
    for _, cells in measured:
        for d, trips in cells.items():
            widths[d] = max([widths[d]] + [len(fmt % t) for t in trips])
    label_w = len("ell=%d" % L)
    lines = [" | ".join([" " * label_w]
                        + [("d=%d" % d).ljust(widths[d]) for d in cols])]
    for ell, cells in rows:
        blocks = {d: [fmt % t for t in cells.get(d, ())] for d in cols}
        height = max(1, max(len(b) for b in blocks.values()))
        for k in range(height):
            label = ("ell=%d" % ell) if k == 0 else ""
            row = [label.ljust(label_w)]
            for d in cols:
                b = blocks[d]
                row.append((b[k] if k < len(b) else "").ljust(widths[d]))
            lines.append(" | ".join(row).rstrip())
    lines.append("")  # the last newline, with no copy of the whole text
    return "\n".join(lines)


def table_to_text(a) -> str:
    """The table of a as an aligned plain-text grid, one 'r iota c' line
    per triple, in O(a^2) time and memory, as table_to_csv.

    Each column is as wide as its widest line in row L, so the widths
    are read off that row alone.  Proof: in column d, row ell >= 2d - 2
    holds r = (a+1)ell + c for c in Gamma_i, i = ell - 2d + 2.  One row
    down, i grows by 1, and the smallest r, (a+1)(ell+1) - i - 1, exceeds
    the largest, (a+1)ell + i, by a - 2i >= 1, since i <= L = (a-1)//2.
    So r, iota and |c| never fall as ell grows.  Row L has a cell in
    every column d <= D = (a+3)//4, since 2D - 2 <= L, and it holds the
    line 'r' i' -i'' with i' = L - 2d + 2.  A line 'r i c' of a row above
    L has r < r' and i < i', so i' >= 1, and c has at most the sign and
    the digits of -i'.  So no line of the column is wider than that one.
    """
    ts = ct.TripleSemigroup(a)
    return _grid_to_text(ts.L, ts.D, _rows(a, range(ts.L + 1), ts.D),
                         _rows(a, range(ts.L, ts.L + 1), ts.D), "%d %d %d")


def monomial_table_to_text(t: MonomialTable) -> str:
    cols = range(1, t.d_max + 1)
    rows = [(ell, {d: t.cells[ell, d] for d in cols if (ell, d) in t.cells})
            for ell in range(t.ell_max + 1)]
    return _grid_to_text(t.ell_max, t.d_max, rows, rows, "%s %d %d")


def table_to_json(a) -> str:
    """The table of a as an array of cells with the class tag on every
    triple, in O(a^2) time and memory, as table_to_csv.

    The bytes are those of json.dumps(indent=2) + "\n" for the cells of
    partition_table(a), none of them empty.
    """
    ts = ct.TripleSemigroup(a)
    triples = _templates(ts.L, _JSON_TRIPLE)
    return "[\n" + ",\n".join([
        ",\n".join([_JSON_CELL % (ell, d, ",\n".join([triples[i, c] % r
                                                      for r, i, c in trips]))
                    for d, trips in cells.items()])
        for ell, cells in _rows(a, range(ts.L + 1), ts.D)]) + "\n]\n"


def _ulf_rows(members, key, first):
    """members grouped by key(r), one row per key value from first up to
    the largest; members ascending, empty rows kept."""
    groups = {}
    for r in members:
        groups.setdefault(key(r), []).append(r)
    return [(k, groups.get(k, [])) for k in range(first, max(groups) + 1)]


def ulf_by_length_report(S):
    """Unique-length members of the Semigroup S grouped by that length,
    one row per ell.

    Rows run contiguously from 0 to the largest occupied length, with
    members ascending; empty rows stay in as empty lists.  Both reports
    list `core.ulf`, and refuse S = N with a ValueError.  The length of
    member r is (r - w[i]) / n1 + depth[i], i = r mod n1, with
    w = Ap(S, n1) and depth = `core._depths(S)`: r is w[i] plus
    (r - w[i]) / n1 copies of n1.  So this costs `core.ulf`, plus
    O(n1 log n1 + n1 * e) for `_depths`, plus O(1) per member:
    <1001, 1003> (1004003 members) takes 0.34-0.41 s and 60 MiB max RSS
    (2 cores, Python 3.11, no tracing).
    """
    from .core_semigroup import _depths, ulf

    w, n1, depth = S._apery, S.generators[0], _depths(S)
    return _ulf_rows(ulf(S),
                     lambda r: (r - w[r % n1]) // n1 + depth[r % n1], 0)


def ulf_by_denumerant_report(S):
    """Unique-length members of the Semigroup S grouped by denumerant, one
    row per d >= 1, read off the coin-change table `core._denumerants`
    over [0, M], M = max ULF(S), in O(M * e): <1001, 1003> takes
    0.45-0.62 s and 83 MiB max RSS (2 cores, Python 3.11, no tracing)."""
    from .core_semigroup import _denumerants, ulf

    members = ulf(S)
    return _ulf_rows(members, _denumerants(S, max(members)).__getitem__, 1)
