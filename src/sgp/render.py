"""Tables and reports over the length/denumerant partition of <a, a+1, a+2>.

The members up to (a+2)L arrange naturally into a grid with rows indexed
by the common factorization length ell and columns by the denumerant d;
the cell (ell, d) is S_{d,i} = (a+1)ell + Gamma_i with i = ell - 2d + 2,
so the grid is a function of a alone.  One generator, _rows, holds that
formula: it yields the layout of each row, ell, (a+1)ell and the iota of
each column d, and the tables and writers below all build from it.
partition_table materializes the grid with (r, iota, c) triples and
monomial_table with the rendered monomial bases.  The writers
table_to_csv, table_to_json and table_to_text take a and write its grid
row by row, and never hold the whole grid.  The by-length and
by-denumerant reports work on any semigroup but N through the generic
engine, which only they import.

The CSV and JSON writers keep one template per iota, with iota, c and
the class name of each c of Gamma_iota in it, so a cell of 1, 3 or 4
triples is one % of ell, d and its r = (a+1)ell + c.  The template of
each iota >= 2 is itself one % of a four-line template, the writer's
line with the four class names put in, by (iota, c) for the four c of
Gamma_iota: the 76 templates of a = 151 take 0.09 ms, where four %s, a
list and a join per iota took 0.21 ms (best of 9, 2 cores, Python
3.11.7).  The CSV writer makes each cell's "ell,d," once, by one
concatenation, and fills it into the cell's lines as a string, so its %
converts only the r: table_to_csv takes 1.41 ms at a = 150 and 0.20 s
at a = 2000, where converting ell and d on every line took 1.75 ms and
0.29 s (best of 9 and of 5, same machine).  table_to_text formats each
line as one % of r into a "%d iota c" template kept per (iota, c).  The
CSV and JSON output is byte for byte what csv.writer (lineterminator
"\n") and json.dumps(indent=2) + "\n" write for the rows and cells of
partition_table(a), since every field is an int or a class name, which
needs no quoting or escaping.  At the 10^6-item edge
of the CLI, a whole `sgp` process (2 cores, Python 3.11.7, three runs on
a shared machine) takes:

    sgp --a 2000 table  (10^6 triples)   json 0.7-0.8 s, 274 MiB max RSS
                                         csv  0.5-0.8 s, 72 MiB
                                         text 0.5-0.8 s, 103 MiB
    sgp --a 1410 ulf    (995460 members) json 0.15 s, 38 MiB
                                         csv  0.13 s, 36 MiB
                                         text 0.15 s, 36 MiB
"""

from collections import namedtuple
from itertools import zip_longest

from . import consecutive_triple as ct

CSV_HEADER = ("ell", "d", "r", "iota", "c", "class")
# the lines of one triple, to be filled with (iota, c, class) and then
# with its cell's "ell,d," and r in CSV and with r in json.dumps(indent=2)
# layout, and a JSON cell, to be filled with the template of its triples
_CSV_LINE = "%%s%%d,%d,%d,%s\n"
_JSON_TRIPLE = ('      {\n        "r": %%d,\n        "iota": %d,\n'
                '        "c": %d,\n        "class": "%s"\n      }')
_JSON_CELL = ('  {\n    "ell": %%d,\n    "d": %%d,\n'
              '    "triples": [\n%s\n    ]\n  }')

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


def _cell_templates(L, line, sep):
    """(template, Gamma_iota) for iota = 0..L: the template joins by sep
    one line % (iota, c, its class) for each c of Gamma_iota.

    For iota >= 2 it is one % of the four lines with their class names
    put in place of their last %s, by (iota, c) for c = -iota, 1 - iota,
    iota - 1, iota.
    """
    out = [(sep.join([line % (i, c, name) for c, name
                      in zip(ct.gamma(i), _CLASS_NAMES[i])]), ct.gamma(i))
           for i in (0, 1)]
    four = sep.join([name.join(line.rsplit("%s", 1))
                     for name in _CLASS_NAMES[2]])
    for i in range(2, L + 1):
        out.append((four % (i, -i, i, 1 - i, i, i - 1, i, i),
                    [-i, 1 - i, i - 1, i]))
    return out


# cells: (ell, d) -> list of (r, iota, c), ascending in r
class PartitionTable(namedtuple("PartitionTable", "a L D cells")):
    """Grid of (r, iota, c) triples; only non-empty cells are stored."""

    __slots__ = ()


# cells: (ell, d) -> list of (basis, iota, c)
class MonomialTable(namedtuple("MonomialTable", "a ell_max d_max cells")):
    """Grid of (monomial basis string, iota, c) triples."""

    __slots__ = ()


def _rows(a, ells, d_max):
    """(ell, (a+1) * ell, iotas) for each ell of the range ells: the
    layout of row ell of the table of a, cut at d <= d_max.  Its
    non-empty cells are d = 1..len(iotas), and cell d is S_{d,i} =
    (a+1) * ell + Gamma_i with i = iotas[d - 1] = ell - 2d + 2 >= 0,
    ascending in r as Gamma_i is."""
    for ell in ells:
        yield ell, (a + 1) * ell, range(
            ell, ell - 2 * min(d_max, ell // 2 + 1), -2)


def partition_table(a) -> PartitionTable:
    """All (r, iota_r, c_r) triples for members up to (a+2)L, as a grid.

    Cell (ell, d) is empty exactly when ell < 2d - 2.
    """
    ts = ct.TripleSemigroup(a)
    gammas = [ct.gamma(i) for i in range(ts.L + 1)]
    cells = {}
    for ell, base, iotas in _rows(a, range(ts.L + 1), ts.D):
        for d, i in enumerate(iotas, 1):
            cells[ell, d] = [(base + c, i, c) for c in gammas[i]]
    return PartitionTable(a, ts.L, ts.D, cells)


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
    cells = {(ell, d): [(",".join(ct.monomial_basis(a, base + c, superscript)),
                         i, c) for c in ct.gamma(i)]
             for ell, base, iotas in _rows(a, range(ell_max + 1), d_max)
             for d, i in enumerate(iotas, 1)}
    return MonomialTable(a, ell_max, d_max, cells)


def table_to_csv(a) -> str:
    """The table of a, one row per (ell, d, r, iota, c, class), sorted by
    (ell, d, r).

    About a^2/4 lines, written one row of the grid at a time, in O(a^2)
    time and memory: the text, and the strings of the rows joined into
    it.  Each cell is one % of its iota's template, by its "ell,d," and
    its r.  A non-integer a is a TypeError, an a < 3 a ValueError.
    """
    ts = ct.TripleSemigroup(a)
    cells = _cell_templates(ts.L, _CSV_LINE, "")
    ds = ["%d," % d for d in range(1, ts.D + 1)]
    out = [",".join(CSV_HEADER) + "\n"]
    for ell, base, iotas in _rows(a, range(ts.L + 1), ts.D):
        row = []
        # p is "ell,d," of cell d, made once for its lines
        for p, i in zip(map(("%d," % ell).__add__, ds), iotas):
            fmt, gamma = cells[i]
            if len(gamma) == 4:  # Gamma_i, i >= 2, unrolled
                c0, c1, c2, c3 = gamma
                row.append(fmt % (p, base + c0, p, base + c1, p, base + c2,
                                  p, base + c3))
            else:
                row.append(fmt % tuple([x for c in gamma
                                        for x in (p, base + c)]))
        out.append("".join(row))
    return "".join(out)


def _grid_to_text(L, D, rows, measured) -> str:
    """The rows (ell, blocks), ell = 0..L, as an aligned grid of the
    columns d = 1..D, where blocks[d - 1] holds the lines of column d,
    for the first len(blocks) columns, and the columns after them are
    empty.

    Column d is as wide as "d=%d" % d or as its widest line in the rows
    measured, which must hold the widest line of every column.
    """
    widths = [len("d=%d" % d) for d in range(1, D + 1)]
    for _, blocks in measured:
        for k, lines in enumerate(blocks):
            widths[k] = max([widths[k]] + [len(s) for s in lines])
    blanks = [" " * w for w in widths]
    label_w = len("ell=%d" % L)
    out = [" | ".join([" " * label_w] + [("d=%d" % d).ljust(w) for d, w
                                         in enumerate(widths, 1)])]
    for ell, blocks in rows:
        label, empty = ("ell=%d" % ell).ljust(label_w), blanks[len(blocks):]
        for parts in (list(zip_longest(*blocks, fillvalue=""))
                      or [("",) * len(blocks)]):
            out.append(" | ".join([label, *map(str.ljust, parts, widths),
                                   *empty]).rstrip())
            label = " " * label_w
    out.append("")  # the last newline, with no copy of the whole text
    return "\n".join(out)


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
    # "%d iota c" and c for each c of Gamma_iota
    lines = [[("%%d %d %d" % (i, c), c) for c in ct.gamma(i)]
             for i in range(ts.L + 1)]

    def rows(ells):
        for ell, base, iotas in _rows(a, ells, ts.D):
            yield ell, [[fmt % (base + c) for fmt, c in lines[i]]
                        for i in iotas]

    return _grid_to_text(ts.L, ts.D, rows(range(ts.L + 1)),
                         rows(range(ts.L, ts.L + 1)))


def monomial_table_to_text(t: MonomialTable) -> str:
    cols = range(1, t.d_max + 1)
    rows = [(ell, [["%s %d %d" % x for x in t.cells.get((ell, d), ())]
                   for d in cols])
            for ell in range(t.ell_max + 1)]
    return _grid_to_text(t.ell_max, t.d_max, rows, rows)


def table_to_json(a) -> str:
    """The table of a as an array of cells with the class tag on every
    triple, in O(a^2) time and memory, as table_to_csv.

    The bytes are those of json.dumps(indent=2) + "\n" for the cells of
    partition_table(a), none of them empty.  Each cell is one % of its
    iota's template.
    """
    ts = ct.TripleSemigroup(a)
    cells = [(_JSON_CELL % fmt, gamma) for fmt, gamma
             in _cell_templates(ts.L, _JSON_TRIPLE, ",\n")]
    out = ["[\n"]
    for ell, base, iotas in _rows(a, range(ts.L + 1), ts.D):
        row = []
        for d, i in enumerate(iotas, 1):
            fmt, gamma = cells[i]
            if len(gamma) == 4:  # Gamma_i, i >= 2, unrolled
                c0, c1, c2, c3 = gamma
                row.append(fmt % (ell, d, base + c0, base + c1, base + c2,
                                  base + c3))
            else:
                row.append(fmt % (ell, d, *map(base.__add__, gamma)))
        out += (",\n".join(row), ",\n")
    out[-1] = "\n]\n"  # one join, with no copy of the whole text
    return "".join(out)


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
    0.28-0.38 s and 84 MiB max RSS (2 cores, Python 3.11, no tracing)."""
    from .core_semigroup import _denumerants, ulf

    members = ulf(S)
    return _ulf_rows(members, _denumerants(S, max(members)).__getitem__, 1)
