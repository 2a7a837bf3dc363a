"""Command-line interface.

    sgp [-h] [--gens LIST | --a N] [--format json|csv|text]
        [--fast | --oracle] COMMAND [-h] [ARGS]

Global options come before COMMAND, and the command's own options and
arguments after it; `parse` reads them from the table SPEC, which also
gives the help of `sgp -h` and `sgp COMMAND -h`.  `_plain` reads a plain
command line in one pass, and an argparse parser built from SPEC every
other one, with the usage, the errors and the help; its module,
`grammar`, is imported only for an argv that pass declines.

Exactly one of --gens / --a selects the semigroup; --a N is shorthand for
the consecutive triple <a, a+1, a+2>.  `verify` sweeps its own semigroups
and takes neither.  Each command asks one attribute by name, and
`_resolve` alone reads the selector, recognizes the closed family by
`_family`, as its record (a `TripleSemigroup`, a `PairSemigroup` for two
generators, an `ArithSemigroup` or None), and picks who answers: the
record where it has the name, else the generic engine's `Semigroup`
(which has none for table and presentation), noting the fallback on
stderr where there is a record; --fast demands the record (usage error
outside its domain) and --oracle skips it.  JSON output and CSV `info`
name the path in a "method" field, "closed-form" or "enumeration" (the
engine); where both answer, --oracle changes only that word and the
lower bound an oversized `factorize` names.  `info` gives the
two-length threshold, the least unbalanced Betti element; only N, which
has none, leaves it out.  `ulf` lists Ap(S, UBetti(S)), finite but on N,
whose unique-length set is all of N: a usage error there.

Exit codes: 0 ok, 1 verification failure, 2 usage error, 3 non-member
query, 4 the answer or the help could not be written (stdout closed, or
its reader gone).

A process loads only what its command runs.  `_family` reaches
`consecutive_triple` for a consecutive triple and `arithmetic_sequence`
for an arithmetic sequence, `_resolve` the engine on the engine paths
and `cmd_table` `render`, each as an attribute of the package `sgp`,
whose `__getattr__` imports the module on first use; after that it is a
plain attribute, so no closed-form or engine request runs an import
statement.  `parse` imports `grammar`, and with it argparse, only when
`_plain` declines the argv, and `main` the `verify` module only for
`verify`.  Each command returns the text of its answer, and `main` alone
writes and flushes it to stdout, in one piece once every error has been
raised, and picks the exit code.  If stdout takes no more, `_write`,
which also writes the help, prints one `error:` line on stderr, points
stdout's descriptor at os.devnull so that the flush at interpreter exit
writes nothing, and exits 4; a stderr that has gone too is pointed at
os.devnull as well.  No command loads `json`: each answer of fixed
shape is one `%` of a template of its command and format, JSON keys in
sorted order; `_emit_listing` writes the listings of ulf and apery,
`_vectors` the vectors of factorize and presentation, and `render` the
table.
"""

import os
import sys
from io import FileIO
from itertools import compress, islice
from math import gcd
from types import SimpleNamespace

import sgp
from .records import NotMemberError

CLOSED_FORM = "closed-form"
ENUMERATION = "enumeration"
# factorize, apery, ulf and table refuse to list more, and verify to build
# a longer length table
MAX_LISTED = 10 ** 6
# the generic engine's Apery table has n1 entries; larger n1 is refused
MAX_N1 = 10 ** 6


# The command line, read by parse and printed by its help.  Each parser,
# None for sgp itself and otherwise a command, maps to (help, positional,
# options).  The positional is (dest, nargs): sgp's is the command, which
# takes every token after it ("..."), and a command's is an int, one (1)
# or one or more ("+").  Each option maps to (dest, kind, default,
# metavar, help), where kind is int, str, bool (a flag) or a tuple of
# choices.  Every parser also takes -h/--help.
SPEC = {
    None: ("Exact factorization analytics for numerical semigroups.",
           ("command", "..."), {
               "--gens": ("gens", str, None, "LIST",
                          "comma-separated generators, e.g. 3,4,5"),
               "--a": ("a", int, None, "N",
                       "use the semigroup <N, N+1, N+2>"),
               "--format": ("fmt", ("json", "csv", "text"), "text", None,
                            "output format"),
               "--fast": ("fast", bool, False, None,
                          "closed forms only; error outside their domain"),
               "--oracle": ("oracle", bool, False, None,
                            "skip the closed forms; answer with the "
                            "generic engine"),
           }),
    "info": ("generators, Frobenius number, Betti classification, "
             "unique-length count", None, {}),
    "factorize": ("all factorizations of an element (refused above %d)"
                  % MAX_LISTED, ("r", 1), {}),
    "apery": ("Apery set of one or more members (refused above %d "
              "members)" % MAX_LISTED, ("x", "+"), {}),
    "betti": ("Betti elements, balanced and unbalanced", None, {}),
    "ulf": ("all members with a one-length factorization set (refused "
            "above %d members, and on N, where it is all of N)"
            % MAX_LISTED, None, {}),
    "table": ("length-by-denumerant partition table (consecutive triples "
              "only; refused above %d members)" % MAX_LISTED, None, {}),
    "presentation": ("minimal presentation (consecutive triples and "
                     "arithmetic sequences)", None, {}),
    "verify": ("closed forms against the engine, up to 3a past the "
               "two-length threshold (refused when the length table of "
               "a-max would have more than %d entries)" % MAX_LISTED,
               None, {
                   "--a-min": ("a_min", int, 3, None,
                               "least a of the triples <a, a+1, a+2> swept; "
                               "3 or more"),
                   "--a-max": ("a_max", int, 12, None,
                               "greatest a of the triples swept"),
                   "--arith": ("arith", bool, False, None,
                               "also sweep the arithmetic-sequence Betti "
                               "formulas"),
                   "--random": ("random", int, 0, "N",
                                "also spot-check N random semigroups for "
                                "the unique-length/Apery identity"),
                   "--seed": ("seed", int, 0, None,
                              "seed for --random sampling"),
               }),
}
# each parser's option defaults, set on the namespace as it starts
_DEFAULTS = {command: {dest: default for dest, _, default, _, _
                       in options.values()}
             for command, (_, _, options) in SPEC.items()}


def parse(argv=None) -> SimpleNamespace:
    """The namespace of an sgp command line (sys.argv[1:] by default).

    Global options come before the command, and the command's options and
    positionals after it, in any order.  An option takes its value from
    the next token or after "=", and a unique prefix of its name stands
    for it.  A negative number is a value, and "--" ends the options.
    -h/--help prints help and exits 0; a rejected argv prints a usage
    line and an error on stderr and exits 2.

    A plain command line, of exact option names, values that do not start
    with "-" and one command, is read by `_plain` in one pass; every other
    argv, and every one that asks for help or an error, by the general
    reading `grammar.read`, an argparse parser built from SPEC, whose
    module, and argparse, are imported only then.
    """
    args = sys.argv[1:] if argv is None else list(argv)
    ns = _plain(args)
    if ns is None:
        from .grammar import read

        ns = read(args)
    return ns


def _plain(args):
    """The namespace the general reading gives args, when args is made
    only of exact option names of the parser they appear in, values that
    do not start with "-" and one command; else None.

    It declines, with None and without printing, every other token and
    every argv that the general reading would answer with help or an
    error: --fast with --oracle, a bad choice or int, a missing or extra
    positional or an option with no value.  An option after a
    positional's value is declined too, since argparse ends the
    positional there.
    """
    ns = SimpleNamespace(**_DEFAULTS[None])
    command, options, values = None, SPEC[None][2], []
    tokens = iter(args)
    for arg in tokens:
        if arg in options:
            if values:
                return None
            dest, kind, _, _, _ = options[arg]
            if kind is bool:
                setattr(ns, dest, True)
                continue
            text = next(tokens, "-")  # no value left reads as "-"
            if text[:1] == "-":
                return None
            if kind is int:
                try:
                    text = int(text)
                except ValueError:
                    return None
            elif kind is not str and text not in kind:
                return None
            setattr(ns, dest, text)
        elif arg[:1] == "-":
            return None
        elif command is None:
            if arg not in SPEC:
                return None
            command = ns.command = arg
            vars(ns).update(_DEFAULTS[arg])
            options = SPEC[arg][2]
        else:
            values.append(arg)
    if command is None or ns.fast and ns.oracle:
        return None
    positional = SPEC[command][1]
    if positional is None:
        return None if values else ns
    dest, nargs = positional
    if not values or nargs == 1 and len(values) > 1:
        return None
    try:
        values = [int(v) for v in values]
    except ValueError:
        return None
    setattr(ns, dest, values if nargs == "+" else values[0])
    return ns


def _family(g):
    """(record, reason): the closed-form record of the family of the
    sorted generators g, else None, and why a question the record does not
    answer has no closed form.  The record is a TripleSemigroup for <a,
    a+1, a+2> with a >= 3, a PairSemigroup for two coprime generators from
    2 up, which answers every command but apery and table, or the
    ArithSemigroup of a longer arithmetic sequence it covers, which
    answers betti and presentation.  Two generators it does not cover
    (gcd above 1, or 1 among them) keep the ArithSemigroup's reason."""
    if len(g) == 3 and g[2] == g[0] + 2 and g[0] >= 3:
        return (sgp.consecutive_triple.TripleSemigroup(g[0]),
                "enumeration only")  # of apery
    reason = "need a consecutive triple or an arithmetic sequence"
    d = g[1] - g[0] if len(g) > 1 else 0
    if d and all(g[i] - g[i - 1] == d for i in range(2, len(g))):
        try:
            if len(g) == 2:
                S = sgp.arithmetic_sequence.PairSemigroup(*g)
            else:
                S = sgp.arithmetic_sequence.ArithSemigroup(g[0], d, len(g) - 1)
            return S, "an arithmetic sequence has none"
        except ValueError as exc:  # an arithmetic sequence it does not cover
            reason = str(exc)
    return None, reason


def _resolve(ns, name, engine=True):
    """(answerer, method): what answers ns.command by its attribute name,
    the closed-form record of the semigroup ns selects or the generic
    engine's Semigroup, whose generators, like every record's, are the
    input sorted and deduplicated.

    Exactly one of --gens / --a selects it, and `_family` gives its
    record.  The record's <command>_size, the O(1) size of its listing, is
    checked in every mode.  The record answers the names it defines,
    unless --oracle is given; else the engine does, unless it has no
    answer (engine false, known without importing it) or --fast is given,
    both usage errors.  Valid generators with n1 > MAX_N1 are refused
    before the engine is imported, here alone; only then, where a family
    was recognized and --oracle is not given, is the fallback noted on
    stderr.
    """
    if (ns.gens is None) == (ns.a is None):
        raise ValueError("exactly one of --gens / --a is required")
    if ns.a is not None:
        if ns.a < 1:
            raise ValueError("--a wants a positive integer")
        gens = (ns.a, ns.a + 1, ns.a + 2)  # sorted and distinct
    else:
        try:
            gens = tuple(sorted({int(part) for part in ns.gens.split(",")}))
        except ValueError:
            raise ValueError("--gens wants comma-separated integers, got %r"
                             % ns.gens)
    command, (record, reason) = ns.command, _family(gens)
    size = getattr(record, command + "_size", None)
    if size is not None:
        _check_listed(command, size)
    if not ns.oracle and hasattr(record, name):
        return record, CLOSED_FORM
    if not engine:
        if ns.oracle:
            raise ValueError("%s has no enumeration mode for --oracle"
                             % command)
        raise ValueError("no closed form for %s (%s), and it has no "
                         "enumeration mode" % (command, reason))
    if ns.fast:
        raise ValueError("--fast: no closed form for %s (%s)"
                         % (command, reason))
    if gens[0] > MAX_N1 and gcd(*gens) == 1:
        raise ValueError("the engine would build an Apery table of n1 = %d "
                         "entries, more than %d" % (gens[0], MAX_N1))
    if record is not None and not ns.oracle:
        print("fallback=%s command=%s reason=%s" % (ENUMERATION, command,
                                                    reason), file=sys.stderr)
    return sgp.core_semigroup.Semigroup(gens), ENUMERATION


# "000" to "999", the last three digits of 1000h + k, built from the
# two-digit strings, each digit put before all of them
_TRIPS = [e + f for e in "0123456789" for f in "0123456789"]
_TRIPS = [d + p for d in "0123456789" for p in _TRIPS]


def _decimals(runs, sep):
    """sep.join(map(str, members)), for the members of an ascending
    listing given as runs: step-1 ranges, sorted lists of ints and 0/1
    byte masks, whose byte r is 1 when r is a member.

    A range is written a thousand ints at a time: 1000h + k for k in
    [lo, hi) is str(h) + _TRIPS[k], so one join of stored strings writes
    the block.  A mask is written the same way, a thousand positions at a
    time, its bytes picking the _TRIPS by `compress`.  In [100, 1000) the
    head is empty, as _TRIPS[k] has no leading zero for k >= 100, and the
    ints below 100 are written by str.  A list is written by str, whose
    ", " between ints is the JSON one.  Against a hundred ints per join,
    this writes the 45300 members of the triple a = 300 in 0.85 ms, not
    1.02 ms, its 995460 at a = 1410 in 16.5 ms, not 22.0 ms, and the
    9991 of the engine's mask of <97, 103> in 0.40 ms, not 0.52 ms (best
    of 9, 2 cores, Python 3.11.7).
    """
    parts = []
    for run in runs:
        if isinstance(run, range):  # the many runs of a closed form
            lo, hi = run.start, run.stop
            if lo < 100:
                parts += map(str, range(lo, min(hi, 100)))
                lo = 100
            while lo < hi:
                h, k = divmod(lo, 1000)
                top = min(hi - lo + k, 1000)
                head = str(h) if h else ""
                parts.append(head + (sep + head).join(_TRIPS[k:top]))
                lo += top - k
        elif isinstance(run, list):
            if run:
                parts.append(str(run)[1:-1].replace(", ", sep))
        else:  # a mask
            parts += map(str, compress(range(100), run[:100]))
            body = sep.join(compress(islice(_TRIPS, 100, None),
                                     run[100:1000]))
            if body:
                parts.append(body)
            for lo in range(1000, len(run), 1000):
                head = str(lo // 1000)
                body = (sep + head).join(compress(_TRIPS, run[lo:lo + 1000]))
                if body:
                    parts.append(head + body)
    return sep.join(parts)


def _emit_listing(ns, runs, doc):
    """The text of the ascending listing runs: one line in text, one row
    per member in CSV, and in JSON the template doc, whose one %s takes
    the members' list."""
    if ns.fmt == "json":
        return doc % _decimals(runs, ", ")
    out = _decimals(runs, " " if ns.fmt == "text" else "\n")
    out += "\n" if out or ns.fmt == "text" else ""  # in place: no copy
    return out


def _vectors(text, sep=None):
    """The answer of text, the str of a nonempty list of Factorizations
    or of a tuple of pairs of them: in JSON (sep None) as nested lists,
    else one line per vector, its coordinates joined by sep.

    A Factorization is a tuple subclass with tuple's repr and int
    coordinates, so text is the str of plain tuples of ints, written with
    no object per vector, as `_decimals` writes a list of ints.  Once the
    comma of a one-coordinate vector is dropped (",)" to ")"), only the
    brackets differ from JSON: "(" and ")" become "[" and "]".  A listing
    drops the outer brackets and ends a line at each "), (".  The caller
    passes the str alone, so that the vectors are freed before it is
    rewritten.
    """
    out = text.replace(",)", ")")
    if sep is None:
        return out.replace("(", "[").replace(")", "]")
    out = out[2:-2].replace("), (", "\n").replace(", ", sep)
    out += "\n"  # in place: no copy
    return out


def _check_listed(command, n, what="members"):
    # what names the items, and says so when n is a lower bound; that
    # bound depends on the path that counted, so --oracle may name another
    if n > MAX_LISTED:
        raise ValueError("%s would list %d %s, more than %d"
                         % (command, n, what, MAX_LISTED))


# The answers of fixed shape, one `%` of a template per format, JSON keys
# and CSV info rows in sorted order.  A template is filled with the method
# name, ints, lists, nested or not, of ints, and the `_vectors` text of
# tuples of them: str of an int or of such a list is its JSON, ", "
# included, and so is str of such a tuple with its brackets changed, so
# the JSON text is that of json.dumps(answer, sort_keys=True) and a
# newline.  info's ulf_bound, absent on N, comes in through a %s with its
# key, row or line.  An answer of one line per item, betti's CSV and
# presentation's text and CSV, joins one row template per item.
_INFO_JSON = ('{"balanced": %s, "betti": %s, "frobenius": %d, "generators": '
              '%s, "method": "%s", "minimal_generators": %s%s, "ulf_size": '
              '%s, "unbalanced": %s}\n')
_INFO_CSV = ("balanced,%s\nbetti,%s\nfrobenius,%d\ngenerators,%s\nmethod,%s\n"
             "minimal_generators,%s\n%sulf_size,%s\nunbalanced,%s\n")
_INFO_TEXT = ("minimal generators: %s\nfrobenius: %d\n%sbetti: %s (balanced "
              "%s, unbalanced %s)\nunique-length members: %s\n")
_FACTORIZE_JSON = '{"factorizations": %s, "method": "%s", "r": %d}\n'
_BETTI_JSON = ('{"balanced": %s, "betti": %s, "method": "%s", "unbalanced": '
               '%s}\n')
_BETTI_TEXT = "betti: %s\nbalanced: %s\nunbalanced: %s\n"
_PRESENTATION_JSON = '{"method": "%s", "relations": %s}\n'


def _cell(value):
    """The CSV cell of value, quoted, as csv.writer quotes it, when its
    str holds a comma, as that of a list of two or more ints does."""
    text = str(value)
    return '"%s"' % text if "," in text else text


def cmd_info(ns) -> str:
    S, method = _resolve(ns, "info")
    mingens, frob, cls, ulf_size = S.info()
    gens, mingens = list(S.generators), list(mingens)
    betti, balanced, unbalanced = map(list, cls)
    # the least unbalanced Betti element: every member below it has one
    # factorization length, and it has two; None on N
    bound = min(unbalanced, default=None)
    if ns.fmt == "text":
        return _INFO_TEXT % (
            mingens, frob, "" if bound is None else
            "two-length threshold: %d\n" % bound, betti, balanced,
            unbalanced, "unbounded" if ulf_size is None else ulf_size)
    if ns.fmt == "csv":  # ulf_size is an empty cell on N
        return _INFO_CSV % (
            _cell(balanced), _cell(betti), frob, _cell(gens), method,
            _cell(mingens), "" if bound is None else "ulf_bound,%d\n" % bound,
            "" if ulf_size is None else ulf_size, _cell(unbalanced))
    return _INFO_JSON % (  # ulf_size is null on N
        balanced, betti, frob, gens, method, mingens, "" if bound is None
        else ', "ulf_bound": %d' % bound,
        "null" if ulf_size is None else ulf_size, unbalanced)


def cmd_factorize(ns) -> str:
    r = ns.r
    S, method = _resolve(ns, "factorizations")
    n, exact = S.factorization_count(r, MAX_LISTED)
    _check_listed("factorize", n, "factorizations" if exact
                  else "or more factorizations")
    text = str(S.factorizations(r))
    if ns.fmt == "json":
        return _FACTORIZE_JSON % (_vectors(text), method, r)
    return _vectors(text, " " if ns.fmt == "text" else ",")


def cmd_apery(ns) -> str:
    xs = sorted(set(ns.x))
    S, method = _resolve(ns, "apery_runs")
    n, listing = S.apery_runs(xs)
    _check_listed("apery", n)
    return _emit_listing(ns, listing(), '{"apery": [%%s], "method": "%s", '
                         '"x": %s}\n' % (method, xs))


def cmd_betti(ns) -> str:
    S, method = _resolve(ns, "betti")
    betti, balanced, unbalanced = map(list, S.betti())
    if ns.fmt == "json":
        return _BETTI_JSON % (balanced, betti, method, unbalanced)
    if ns.fmt == "text":
        return _BETTI_TEXT % (betti, balanced, unbalanced)
    return "".join(["%d,%s\n" % (b, "balanced" if b in balanced
                                  else "unbalanced") for b in betti])


def cmd_ulf(ns) -> str:
    S, method = _resolve(ns, "ulf_runs")
    n, listing = S.ulf_runs()
    _check_listed("ulf", n)
    return _emit_listing(ns, listing(), '{"count": %d, "method": "%s", '
                         '"ulf": [%%s]}\n' % (n, method))


def cmd_table(ns) -> str:
    ts, _ = _resolve(ns, "table_size", engine=False)
    return getattr(sgp.render, "table_to_" + ns.fmt)(ts.a)


def cmd_presentation(ns) -> str:
    S, method = _resolve(ns, "presentation", engine=False)
    relations = S.presentation().relations
    if ns.fmt == "json":
        return _PRESENTATION_JSON % (method, _vectors(str(relations)))
    if ns.fmt == "text":
        return "".join(["%s  =  %s   (value %d)\n"
                        % (" ".join(map(str, x)), " ".join(map(str, y)),
                           x.value(S.generators)) for x, y in relations])
    return "".join(["%s,%s\n" % (" ".join(map(str, x)), " ".join(map(str, y)))
                    for x, y in relations])


COMMANDS = {"info": cmd_info, "factorize": cmd_factorize, "apery": cmd_apery,
            "betti": cmd_betti, "ulf": cmd_ulf, "table": cmd_table,
            "presentation": cmd_presentation}


def main(argv=None) -> int:
    ns = parse(argv)
    try:
        if ns.command == "verify":
            from .verify import cmd_verify

            out, code = cmd_verify(ns)
        else:
            out, code = COMMANDS[ns.command](ns), 0
    except NotMemberError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    except ValueError as exc:  # usage errors and invalid generators
        print("error: %s" % exc, file=sys.stderr)
        return 2
    return _write(out, code)


def _write(text, code):
    """Write and flush text to stdout and return code; if stdout is closed
    or its reader has gone, say so in one line on stderr, point stdout's
    descriptor at os.devnull, so that the flush at interpreter exit
    writes nothing, and return 4.  When stderr has gone too, it is
    pointed at os.devnull as well, with no line.

    Unbuffered (python -u), the text layer sits on the raw file and takes
    a short write for the whole one, so there the encoded text is written
    in a loop until every byte is out or the write fails."""
    out = sys.stdout
    try:
        if isinstance(getattr(out, "buffer", None), FileIO):
            data = memoryview(text.encode(out.encoding, out.errors))
            while data:
                data = data[out.buffer.write(data):]
        else:
            out.write(text)
        out.flush()
    except (OSError, ValueError) as exc:
        try:
            print("error: cannot write to stdout: %s" % exc, file=sys.stderr)
        except (OSError, ValueError):
            _to_devnull(sys.stderr)
        _to_devnull(out)
        return 4
    return code


def _to_devnull(stream):
    """Point the descriptor of stream at os.devnull; a closed or in-memory
    stream has none and is left as it is."""
    try:
        fd = stream.fileno()
        devnull = os.open(os.devnull, os.O_WRONLY)
    except (OSError, ValueError):
        return
    os.dup2(devnull, fd)
    os.close(devnull)


if __name__ == "__main__":
    # grammar and verify import sgp.cli by name: under `python -m sgp.cli`
    # they get this module, not a second copy compiled from the same file
    sys.modules["sgp.cli"] = sys.modules[__name__]
    sys.exit(main())
