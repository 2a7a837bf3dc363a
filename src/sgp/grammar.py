"""The general reading of an sgp command line, with its usage, errors
and help.

`cli.parse` reads a plain command line, of exact option names, values
that do not start with "-" and one command, in one pass (`cli._plain`),
and imports this module only for an argv that pass declines: a prefix,
an "=" form, a negative number, "--", -h/--help or any error.  So a
process whose argv is plain never compiles it.  `read` gives the
namespace of such an argv from the table `cli.SPEC`, or prints the help
or a usage line and an error and exits.
"""

import re
import sys
from itertools import chain
from types import SimpleNamespace

from .cli import SPEC, _DEFAULTS, _write

HELP = ("-h", "--help")
# flags that exclude each other
RIVALS = {"--fast": "--oracle", "--oracle": "--fast"}
# argparse's test for a token that is a negative number, so a value
_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")
# the tokens a positional takes, in the pattern of _parse
_NARGS = {1: re.compile("-*A-*"), "+": re.compile("-*A[A-]*"),
          "...": re.compile("-*A[-AO]*")}


def read(args) -> SimpleNamespace:
    """The namespace of the command line args, read as `cli.parse` says;
    help exits 0, and a rejected argv exits 2."""
    ns, extras = SimpleNamespace(), []
    _parse(None, args, ns, extras)
    if extras:
        _fail(None, "unrecognized arguments: %s" % " ".join(extras))
    return ns


def _parse(command, args, ns, extras):
    """Read args with the parser of command into ns; tokens it does not
    know go to extras.

    As in argparse, every token is first read as an option (O), a value
    (A) or the "--" (-) after which all are values; then options and
    positionals are taken left to right, so help or an error comes at the
    first token that asks for it.  A plain value or an exact option name
    is read in the token loop itself, and only the other tokens that
    start with "-" go to _option.
    """
    _, positional, options = SPEC[command]
    vars(ns).update(_DEFAULTS[command])
    found, pattern = {}, ""
    for i, arg in enumerate(args):
        if arg[:1] != "-" or arg == "-":
            pattern += "A"
        elif arg in options or arg in HELP:
            found[i] = arg, None
            pattern += "O"
        elif arg == "--":
            pattern += "-" + "A" * (len(args) - i - 1)
            break
        else:
            option = _option(command, options, arg)
            if option is None:
                pattern += "A"
            else:
                found[i] = option
                pattern += "O"
    i = 0
    while i < len(args):
        if i in found:
            i = _take(command, options, ns, args, pattern, i, found[i],
                      extras)
            continue
        match = positional and _NARGS[positional[1]].match(pattern, i)
        if not match:
            j = pattern.find("O", i)
            j = len(args) if j < 0 else j
            extras += args[i:j]
            i = j
            continue
        dest, nargs = positional
        values, i, positional = args[i:match.end()], match.end(), None
        if nargs == "...":
            if values[0] not in SPEC:
                _fail(None, "argument command: invalid choice: %r (choose "
                      "from %s)" % (values[0], ", ".join(
                          repr(name) for name in SPEC if name)))
            ns.command = values[0]
            _parse(values[0], values[1:], ns, extras)
            continue
        if "--" in values:
            values.remove("--")
        values = [_value(command, dest, int, v) for v in values]
        setattr(ns, dest, values if nargs == "+" else values[0])
    if positional:
        _fail(command, "the following arguments are required: %s"
              % positional[0])


def _option(command, options, arg):
    """How the parser of command, whose options are options, reads arg, a
    token that starts with "-" and is neither "-", "--", -h/--help nor the
    exact name of an option: None for a value, else (the option, or None
    for one it does not have; the text after "=", or None)."""
    head, eq, tail = arg.partition("=")
    if eq and (head in options or head in HELP):
        return head, tail
    if arg[1] == "-":
        hits = [name for name in chain(HELP, options)
                if name.startswith(head)]
        tail = tail if eq else None
    else:  # -h with more of itself or a value run on
        hits = ["-h"] if arg[:2] == "-h" else []
        tail = arg[2:]
    if len(hits) > 1:
        _fail(command, "ambiguous option: %s could match %s"
              % (arg, ", ".join(hits)))
    if hits:
        return hits[0], tail
    if _NEGATIVE.match(arg) or " " in arg:
        return None
    return None, None


def _take(command, options, ns, args, pattern, i, option, extras):
    """Apply option, read from args[i] by _parse, of the parser of command
    whose options are options; return the index past the option and its
    value."""
    name, tail = option
    if name is None:
        extras.append(args[i])
        return i + 1
    if name in HELP:
        # -hh is -h twice
        if tail is None or name == "-h" and tail and not tail.strip("h"):
            _help(command)
        _fail(command, "argument -h/--help: ignored explicit argument %r"
              % tail)
    dest, kind, _, _, _ = options[name]
    if kind is bool:
        if tail is not None:
            _fail(command, "argument %s: ignored explicit argument %r"
                  % (name, tail))
        rival = RIVALS.get(name)
        if rival and getattr(ns, options[rival][0]):
            _fail(command, "argument %s: not allowed with argument %s"
                  % (name, rival))
        setattr(ns, dest, True)
        return i + 1
    if tail is None:
        if pattern[i + 1:i + 2] != "A":
            _fail(command, "argument %s: expected one argument" % name)
        i += 1
        tail = args[i]
    setattr(ns, dest, _value(command, name, kind, tail))
    return i + 1


def _value(command, name, kind, text):
    """text as the value of argument name: an int, or a str among the
    choices kind when kind is a tuple."""
    if kind is int:
        try:
            return int(text)
        except ValueError:
            _fail(command, "argument %s: invalid int value: %r"
                  % (name, text))
    if kind is not str and text not in kind:
        _fail(command, "argument %s: invalid choice: %r (choose from %s)"
              % (name, text, ", ".join(map(repr, kind))))
    return text


def _syntax(name, spec):
    """How the usage line and the help show option name."""
    dest, kind, _, metavar, _ = spec
    if kind is bool:
        return name
    if kind is str or kind is int:
        return "%s %s" % (name, metavar or dest.upper())
    return "%s {%s}" % (name, ",".join(kind))


def _usage(command):
    """The usage line of sgp (command None) or of one command."""
    _, positional, options = SPEC[command]
    words = ["usage: sgp", command or "", "[-h]"]
    words += ["[%s]" % _syntax(name, spec) for name, spec in options.items()]
    if positional:
        dest, nargs = positional
        words.append({1: dest, "+": "%s [%s ...]" % (dest, dest),
                      "...": "COMMAND ..."}[nargs])
    return " ".join(word for word in words if word)


def _fail(command, message):
    sys.stderr.write("%s\nsgp: error: %s\n" % (_usage(command), message))
    raise SystemExit(2)


def _help(command):
    """Print the help of sgp (command None) or of one command; exit 0, or
    4 as `cli.main` does when stdout takes no more."""
    from textwrap import wrap

    text, positional, options = SPEC[command]
    if command is None:
        title, args = "commands", [(name, SPEC[name][0])
                                   for name in SPEC if name]
    else:
        title, args = "positional arguments", [(positional[0], "")] \
            if positional else []
    opts = [("-h, --help", "show this help and exit")] + [
        (_syntax(name, spec), spec[4] or "") for name, spec in options.items()]
    width = max(len(left) for left, _ in args + opts) + 2
    lines = [_usage(command), ""] + wrap(text, 79)
    for heading, rows in ((title, args), ("options", opts)):
        if rows:
            lines += ["", heading + ":"]
        for left, right in rows:
            right = wrap(right, 77 - width) or [""]
            lines.append(("  %-*s%s" % (width, left, right[0])).rstrip())
            lines += [" " * (width + 2) + more for more in right[1:]]
    raise SystemExit(_write("\n".join(lines) + "\n", 0))
