"""The general reading of an sgp command line, with its usage, errors
and help: an argparse parser built from the table `cli.SPEC`.

`cli.parse` reads a plain command line, of exact option names, values
that do not start with "-" and one command, in one pass (`cli._plain`),
and imports this module only for an argv that pass declines: a prefix,
an "=" form, a negative number, "--", -h/--help or any error.  So a
process whose argv is plain loads neither this module nor argparse.
"""

import argparse
import sys
from types import SimpleNamespace

from .cli import SPEC, _write


class _Parser(argparse.ArgumentParser):
    """sgp's parser and, by inheritance, each command's: an error reads
    "sgp: error:" under the usage line of the parser that found it, and
    the help goes through `cli._write`."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(2, "sgp: error: %s\n" % message)

    def print_help(self, file=None):
        """Write the help and exit 0, or 4 as `cli.main` does when stdout
        takes no more."""
        raise SystemExit(_write(self.format_help(), 0))


def _formatter(prog):
    # a fixed width, so that the help does not depend on $COLUMNS
    return argparse.HelpFormatter(prog, width=79)


def _add_options(parser, options, flags):
    """Add options, from one parser of SPEC, to parser; the flags go to
    flags, a mutually exclusive group or parser itself."""
    for name, (dest, kind, default, metavar, text) in options.items():
        if kind is bool:
            flags.add_argument(name, dest=dest, action="store_true",
                               help=text)
        else:
            parser.add_argument(
                name, dest=dest, default=default, metavar=metavar, help=text,
                type=int if kind is int else None,
                choices=None if kind in (int, str) else kind)


def _build():
    text, _, options = SPEC[None]
    parser = _Parser(prog="sgp", description=text, formatter_class=_formatter)
    # sgp's flags, --fast and --oracle, are modes that exclude each other
    _add_options(parser, options, parser.add_mutually_exclusive_group())
    commands = parser.add_subparsers(dest="command", required=True,
                                     metavar="COMMAND")
    for command, (text, positional, options) in SPEC.items():
        if command is None:
            continue
        sub = commands.add_parser(command, help=text, description=text,
                                  formatter_class=_formatter)
        _add_options(sub, options, sub)
        if positional:
            dest, nargs = positional
            sub.add_argument(dest, type=int, nargs=None if nargs == 1
                             else nargs)
    return parser


_PARSER = _build()


def read(args) -> SimpleNamespace:
    """The namespace of the command line args, read as `cli.parse` says;
    help exits 0, and a rejected argv exits 2."""
    ns = _PARSER.parse_args(args, SimpleNamespace())
    # Python 3.11 reads "--a=--" as no value and stores []: "--" is the
    # value of a str option, and no int or choice
    for command in (None, ns.command):
        for name, (dest, kind, _, _, _) in SPEC[command][2].items():
            if getattr(ns, dest) == []:
                if kind is not str:
                    _PARSER.error("argument %s: invalid value: '--'" % name)
                setattr(ns, dest, "--")
    return ns
