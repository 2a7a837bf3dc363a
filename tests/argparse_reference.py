"""An argparse parser of the sgp command line, written out by hand as a
reference.

It says which argv the sgp command line accepts and what each one means:
`tests/test_cli.py` checks that `sgp.cli.parse` gives the same namespace
for every argv this parser accepts, and exits with the same code for
every argv it rejects.  It is test code only, and does not read
`sgp.cli.SPEC`, the table from which `sgp.grammar` builds the CLI's own
argparse parser, so a slip in that table shows as a difference.
"""

import argparse

from sgp.cli import MAX_LISTED


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="sgp",
        description="Exact factorization analytics for numerical semigroups.")
    p.add_argument("--gens", metavar="LIST",
                   help="comma-separated generators, e.g. 3,4,5")
    p.add_argument("--a", type=int, metavar="N",
                   help="use the semigroup <N, N+1, N+2>")
    p.add_argument("--format", choices=("json", "csv", "text"),
                   default="text", dest="fmt")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--fast", action="store_true",
                      help="closed forms only; error outside their domain")
    mode.add_argument("--oracle", action="store_true",
                      help="skip the closed forms; answer with the "
                           "generic engine")

    sub = p.add_subparsers(dest="command", required=True)
    sub.add_parser("info", help="generators, Frobenius number, Betti "
                                "classification, unique-length count")
    text = ("all factorizations of an element (refused above %d)"
            % MAX_LISTED)
    f = sub.add_parser("factorize", help=text, description=text)
    f.add_argument("r", type=int)
    text = ("Apery set of one or more members (refused above %d members)"
            % MAX_LISTED)
    ap = sub.add_parser("apery", help=text, description=text)
    ap.add_argument("x", type=int, nargs="+")
    sub.add_parser("betti", help="Betti elements, balanced and unbalanced")
    text = ("all members with a one-length factorization set (refused "
            "above %d members, and on N, where it is all of N)" % MAX_LISTED)
    sub.add_parser("ulf", help=text, description=text)
    text = ("length-by-denumerant partition table (consecutive triples "
            "only; refused above %d members)" % MAX_LISTED)
    sub.add_parser("table", help=text, description=text)
    sub.add_parser("presentation", help="minimal presentation (consecutive "
                                        "triples and arithmetic sequences)")
    text = ("closed forms against the engine, up to 3a past the two-length "
            "threshold (refused when the length table of a-max would have "
            "more than %d entries)" % MAX_LISTED)
    v = sub.add_parser("verify", help=text, description=text)
    v.add_argument("--a-min", type=int, default=3)
    v.add_argument("--a-max", type=int, default=12)
    v.add_argument("--arith", action="store_true",
                   help="also sweep the arithmetic-sequence Betti formulas")
    v.add_argument("--random", type=int, default=0, metavar="N",
                   help="also spot-check N random semigroups for the "
                        "unique-length/Apery identity")
    v.add_argument("--seed", type=int, default=0,
                   help="seed for --random sampling")
    return p
