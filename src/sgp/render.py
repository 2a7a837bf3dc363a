"""Tables and reports over the length/denumerant partition of <a, a+1, a+2>.

The members up to (a+2)L arrange naturally into a grid with rows indexed
by the common factorization length ell and columns by the denumerant d;
the cell (ell, d) is S_{d,i} with i = ell - 2d + 2.  partition_table
materializes that grid with (r, iota, c) triples, monomial_table with the
rendered monomial bases, and both serialize deterministically to CSV,
aligned text and JSON.  The by-length and by-denumerant reports work on
any semigroup but N through the generic engine, which only they import.

partition_table reads each Gamma_i once and visits only the non-empty
cells.  table_to_csv and table_to_json build one %-template per (iota,
c) pair, with iota, c and the class name in it, so each triple is one
% of ("ell,d,", r) in CSV and of r in JSON.  Their output is byte for
byte what csv.writer (lineterminator "\n") and json.dumps(indent=2) +
"\n" write for the same rows and cells, since every field is an int or
a class name, which needs no quoting or escaping.  At the 10^6-item
edge of the CLI, a whole `sgp` process (2 cores, Python 3.11.7, six
runs on a shared machine) takes:

    sgp --a 2000 table  (10^6 triples)   json 1.9-2.8 s, 430 MiB max RSS
                                         csv  1.6-2.3 s, 236 MiB
                                         text 3.0-3.8 s, 376 MiB
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


def _filled(t, fmt, write):
    """write(templates), templates mapping each (iota, c) of the table t to
    fmt % (iota, c, its class).

    The templates are made for every iota <= t.L, the pairs of every table
    partition_table builds, by zipping Gamma_iota with its class names.  A
    hand-built table with another pair gets them from its own pairs by
    cell_class, whose ValueError refuses a c outside Gamma_iota.
    """
    try:
        return write({(i, c): fmt % (i, c, name) for i in range(t.L + 1)
                      for c, name in zip(ct.gamma(i),
                                         _CLASS_NAMES[min(i, 2)])})
    except KeyError:
        return write({(i, c): fmt % (i, c, cell_class(i, c))
                      for trips in t.cells.values() for _, i, c in trips})


# cells: (ell, d) -> list of (r, iota, c), ascending in r
class PartitionTable(namedtuple("PartitionTable", "a L D cells")):
    """Grid of (r, iota, c) triples; only non-empty cells are stored."""

    __slots__ = ()


# cells: (ell, d) -> list of (basis, iota, c)
class MonomialTable(namedtuple("MonomialTable", "a ell_max d_max cells")):
    """Grid of (monomial basis string, iota, c) triples."""

    __slots__ = ()


def _cells(a, ell_max, d_max):
    """The cells (ell, d) of partition_table(a) with ell <= ell_max and
    d <= d_max: S_{d,i} = (a+1) * ell + Gamma_i, i = ell - 2d + 2 >= 0."""
    gammas = [ct.gamma(i) for i in range(ell_max + 1)]
    cells = {}
    for ell in range(ell_max + 1):
        base = (a + 1) * ell
        for d in range(1, min(d_max, ell // 2 + 1) + 1):
            i = ell - 2 * d + 2
            # a loop, not a comprehension, which costs a call per cell
            cells[ell, d] = cell = []
            for c in gammas[i]:
                cell.append((base + c, i, c))
    return cells


def partition_table(a) -> PartitionTable:
    """All (r, iota_r, c_r) triples for members up to (a+2)L, as a grid.

    Cell (ell, d) is empty exactly when ell < 2d - 2.
    """
    ts = ct.TripleSemigroup(a)
    return PartitionTable(a, ts.L, ts.D, _cells(a, ts.L, ts.D))


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
    cells = {k: [(",".join(ct.monomial_basis(a, r, superscript)), i, c)
                 for r, i, c in trips]
             for k, trips in _cells(a, ell_max, d_max).items()}
    return MonomialTable(a, ell_max, d_max, cells)


def table_to_csv(t: PartitionTable) -> str:
    """One row per (ell, d, r, iota, c, class), sorted by (ell, d, r)."""
    def write(rows):
        # joined cell by cell: a flat list of the 10^6 rows at a = 2000
        # would hold about 50 MB of string headers beside 30 MB of text
        out = [",".join(CSV_HEADER) + "\n"]
        for ell, d in sorted(t.cells):
            head = "%d,%d," % (ell, d)
            out.append("".join([rows[i, c] % (head, r)
                                for r, i, c in t.cells[ell, d]]))
        return "".join(out)

    return _filled(t, _CSV_ROW, write)


def table_from_csv(text: str) -> PartitionTable:
    """Read table_to_csv output back as the table it was written from.

    a is the r of the ell = 1, d = 1 row, the second data row, and the
    table is rebuilt as partition_table(a).  Text that table_to_csv does
    not write for that table is refused with a ValueError: any other
    row, class name, row order or line end (CRLF too).
    """
    lines = text.split("\n", 3)
    if lines[0] != ",".join(CSV_HEADER):
        raise ValueError("unrecognized header: %r" % (lines[0],))
    row = lines[2].split(",") if len(lines) > 2 else []
    if row[:2] != ["1", "1"] or len(row) < 3:
        raise ValueError("no row with ell=1, d=1 to read a from")
    a = int(row[2])
    # the text of partition_table(a) has a row of over 2 bytes for each
    # of its (a + 1) // 2 lengths, so an a above len(text) is refused
    # before its table is built
    t = partition_table(a) if a <= len(text) else None
    if t is None or table_to_csv(t) != text:
        raise ValueError("not the table_to_csv text of partition_table(%d)"
                         % a)
    return t


def _grid_to_text(L, D, cells, fmt) -> str:
    """The L x D grid as aligned text, one fmt % triple line per triple."""
    cell_lines = {k: [fmt % t for t in trips] for k, trips in cells.items()}
    cols = range(1, D + 1)
    widths = {d: max([len("d=%d" % d)]
                     + [len(s) for ell in range(L + 1)
                        for s in cell_lines.get((ell, d), [])])
              for d in cols}
    label_w = len("ell=%d" % L)
    lines = [" | ".join([" " * label_w]
                        + [("d=%d" % d).ljust(widths[d]) for d in cols])]
    for ell in range(L + 1):
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


def table_to_text(t: PartitionTable) -> str:
    """Aligned plain-text grid, one 'r iota c' line per triple."""
    return _grid_to_text(t.L, t.D, t.cells, "%d %d %d")


def monomial_table_to_text(t: MonomialTable) -> str:
    return _grid_to_text(t.ell_max, t.d_max, t.cells, "%s %d %d")


def table_to_json(t: PartitionTable) -> str:
    """Array-of-cells JSON with the class tag on every triple.

    The bytes are those of json.dumps(indent=2) + "\n" for a table with
    at least one cell and no empty cell, as every table of partition_table
    and table_from_csv is; json.dumps would write [] for an empty list.
    """
    def write(triples):
        return "[\n" + ",\n".join(
            [_JSON_CELL % (ell, d, ",\n".join([triples[i, c] % r for r, i, c
                                               in t.cells[ell, d]]))
             for ell, d in sorted(t.cells)]) + "\n]\n"

    return _filled(t, _JSON_TRIPLE, write)


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
