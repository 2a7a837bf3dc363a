"""Byte-for-byte CLI behaviour pinned against recorded output.

Every command runs under each output format and each mode (default,
--fast, --oracle) on a fixed set of semigroups: consecutive triples given
by --a and by --gens, arithmetic sequences, generic sets, N itself and a
non-minimal generating set.  Each case pins the exit code and the whole
stdout and stderr: the `fallback=` notes, the usage lines and the wording
of every error message.

The expected data lives in cli_golden.json.  Regenerate it only when a
behaviour change is intended, a message reworded on purpose included:

    PYTHONPATH=src python tests/test_cli_golden.py --write
"""

import contextlib
import io
import json
import pathlib
import sys

import pytest

from sgp.cli import main

DATA = pathlib.Path(__file__).with_name("cli_golden.json")

# selector -> (member, member with two lengths or None, non-member or None,
#              one Apery x, two Apery xs)
SEMIGROUPS = {
    "--a 3": (7, 9, 2, "3", "9 10"),
    "--a 4": (9, 12, 7, "4", "10 12"),
    "--a 10": (43, 60, 19, "10", "60 22"),
    "--gens 12,10,11": (43, 60, 19, "11", "60 22"),
    "--gens 6,9,20": (49, 18, 43, "6", "18 40"),
    "--gens 5,8,11,14": (13, 25, 7, "5", "25 16"),
    "--gens 8,13": (21, 104, 9, "13", "104 8"),
    "--gens 1": (5, None, None, "1", "1 2"),
    "--gens 10,11,12,22": (43, 60, 19, "22", "60 22"),
}
FORMATS = ("text", "csv", "json")
MODES = ((), ("--fast",), ("--oracle",))


def _commands(member, two_lengths, non_member, x1, x2):
    yield ["info"]
    for r in (member, two_lengths, non_member):
        if r is not None:
            yield ["factorize", str(r)]
    yield ["apery"] + x1.split()
    yield ["apery"] + x2.split()
    yield ["betti"]
    yield ["ulf"]
    yield ["table"]
    yield ["presentation"]


def cases(selector):
    """Every argv pinned for one selector ("verify" for the sweep)."""
    if selector == "verify":
        return [["--format", fmt, *mode, "verify", *extra]
                for fmt in FORMATS for mode in MODES
                for extra in ([], ["--a-min", "4", "--a-max", "6", "--arith",
                                   "--random", "2", "--seed", "3"])]
    out = []
    for command in _commands(*SEMIGROUPS[selector]):
        for fmt in FORMATS:
            for mode in MODES:
                out.append(selector.split() + ["--format", fmt, *mode]
                           + command)
    return out


def observe(argv):
    """[exit code, stdout, stderr]."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return [code, out.getvalue(), err.getvalue()]


SELECTORS = list(SEMIGROUPS) + ["verify"]


@pytest.fixture(scope="module")
def golden_data():
    return json.loads(DATA.read_text())


@pytest.mark.parametrize("selector", SELECTORS)
def test_cli_output_matches_golden(selector, golden_data):
    expected = golden_data[selector]
    argvs = cases(selector)
    assert [" ".join(argv) for argv in argvs] == list(expected)
    mismatches = [" ".join(argv) for argv in argvs
                  if observe(argv) != expected[" ".join(argv)]]
    assert mismatches == []


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    DATA.write_text(json.dumps(
        {sel: {" ".join(argv): observe(argv) for argv in cases(sel)}
         for sel in SELECTORS}, indent=1) + "\n")
