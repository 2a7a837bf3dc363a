"""Tables and reports over the length/denumerant partition of <a, a+1, a+2>.

The members up to (a+2)L arrange naturally into a grid with rows indexed
by the common factorization length ell and columns by the denumerant d;
the cell (ell, d) is S_{d,i} with i = ell - 2d + 2.  partition_table
materializes that grid with (r, iota, c) triples, monomial_table with the
rendered monomial bases, and both serialize deterministically to CSV,
aligned text and JSON.  The by-length and by-denumerant reports work on
any semigroup through the generic engine.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

from . import consecutive_triple as ct
from .core_semigroup import Semigroup, _denumerants, _length_masks, ulf

CSV_HEADER = ("ell", "d", "r", "iota", "c", "class")

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


@dataclass(frozen=True)
class PartitionTable:
    """Grid of (r, iota, c) triples; only non-empty cells are stored."""

    a: int
    L: int
    D: int
    cells: dict  # (ell, d) -> list of (r, iota, c), ascending in r


@dataclass(frozen=True)
class MonomialTable:
    """Grid of (monomial basis string, iota, c) triples."""

    a: int
    ell_max: int
    d_max: int
    cells: dict  # (ell, d) -> list of (basis, iota, c)


def partition_table(a) -> PartitionTable:
    """All (r, iota_r, c_r) triples for members up to (a+2)L, as a grid.

    Cell (ell, d) is empty exactly when ell < 2d - 2.
    """
    ts = ct.TripleSemigroup(a)
    cells = {}
    for ell in range(ts.L + 1):
        for d in range(1, ts.D + 1):
            i = ell - 2 * d + 2
            if i >= 0:
                # S_{d,i} = (a+1) * ell + Gamma_i
                cells[(ell, d)] = [((a + 1) * ell + c, i, c)
                                   for c in ct.gamma(i)]
    return PartitionTable(a, ts.L, ts.D, cells)


def monomial_table(a, ell_max, d_max, superscript=False) -> MonomialTable:
    """The same grid with each r replaced by its rendered monomial basis.

    Basis monomials are comma-joined into one string per element.  The
    strings only depend on (ell, d, c), not on a, as long as the grid
    fits inside the L x D range of a.
    """
    t = partition_table(a)
    if ell_max > t.L or d_max > t.D:
        raise ValueError(
            "a %dx%d grid does not fit inside the %dx%d table of a=%d"
            % (ell_max, d_max, t.L, t.D, a))
    cells = {(ell, d): [(",".join(ct.monomial_basis(a, r, superscript)), i, c)
                        for r, i, c in trips]
             for (ell, d), trips in t.cells.items()
             if ell <= ell_max and d <= d_max}
    return MonomialTable(a, ell_max, d_max, cells)


def table_to_csv(t: PartitionTable) -> str:
    """One row per (ell, d, r, iota, c, class), sorted by (ell, d, r)."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(CSV_HEADER)
    for key in sorted(t.cells):
        ell, d = key
        for r, iota, c in t.cells[key]:
            w.writerow([ell, d, r, iota, c, cell_class(iota, c)])
    return buf.getvalue()


def table_from_csv(text: str) -> PartitionTable:
    """Parse table_to_csv output back; round-trips to an equal table."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or tuple(rows[0]) != CSV_HEADER:
        raise ValueError("unrecognized header: %r" % (rows[:1],))
    cells = {}
    for ell, d, r, iota, c, _cls in rows[1:]:
        cells.setdefault((int(ell), int(d)), []).append(
            (int(r), int(iota), int(c)))
    # a is the least member of length 1; L and D are the grid extents.
    if (1, 1) not in cells:
        raise ValueError("no row with ell=1, d=1 to read a from")
    a = min(r for (r, _, _) in cells[(1, 1)])
    L = max(ell for ell, _ in cells)
    D = max(d for _, d in cells)
    return PartitionTable(a, L, D, cells)


def _grid_to_text(L, D, cell_lines) -> str:
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
    cell_lines = {key: ["%d %d %d" % trip for trip in trips]
                  for key, trips in t.cells.items()}
    return _grid_to_text(t.L, t.D, cell_lines)


def monomial_table_to_text(t: MonomialTable) -> str:
    cell_lines = {key: ["%s %d %d" % trip for trip in trips]
                  for key, trips in t.cells.items()}
    return _grid_to_text(t.ell_max, t.d_max, cell_lines)


def table_to_json(t: PartitionTable) -> str:
    """Array-of-cells JSON with the class tag on every triple."""
    cells = [{"ell": ell, "d": d,
              "triples": [{"r": r, "iota": iota, "c": c,
                           "class": cell_class(iota, c)}
                          for r, iota, c in t.cells[(ell, d)]]}
             for ell, d in sorted(t.cells)]
    return json.dumps(cells, indent=2) + "\n"


def _ulf_rows(S, table, key, first):
    """ulf(S) grouped by key(table(S, max ulf)[r]), one row per key value
    from first up to the largest; members ascending, empty rows kept."""
    members = ulf(S)
    entries = table(S, max(members))
    groups = {}
    for r in members:
        groups.setdefault(key(entries[r]), []).append(r)
    return [(k, groups.get(k, [])) for k in range(first, max(groups) + 1)]


def ulf_by_length_report(S: Semigroup):
    """Unique-length members grouped by that length, one row per ell.

    Rows run contiguously from 0 to the largest occupied length, with
    members ascending; empty rows stay in as empty lists.
    """
    # a one-length mask is 1 << l
    return _ulf_rows(S, _length_masks, lambda m: m.bit_length() - 1, 0)


def ulf_by_denumerant_report(S: Semigroup):
    """Unique-length members grouped by denumerant, one row per d >= 1."""
    return _ulf_rows(S, _denumerants, lambda d: d, 1)
