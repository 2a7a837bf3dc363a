"""End-to-end CLI behaviour through main(argv)."""

import contextlib
import csv
import io
import json
import operator
import os
import random
import subprocess
import sys
import time
import tracemalloc
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import golden
from argparse_reference import build_parser
from sgp import arithmetic_sequence as arith
from sgp import cli, oracle
from sgp import consecutive_triple as ct
from sgp import core_semigroup as core
from sgp.cli import main
from sgp.consecutive_triple import TripleSemigroup
from sgp.records import Factorization, Presentation
from test_cli_golden import SEMIGROUPS, observe


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# the package's source directory, put on PYTHONPATH for subprocesses
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")


def modules_loaded_by(statement, site=False):
    """The modules a fresh interpreter (without site, unless site) loads
    for statement.

    The list is the last line of stdout, so statement may print first.
    """
    probe = ("import sys; before = set(sys.modules); %s; "
             "print(); print(*sorted(set(sys.modules) - before))" % statement)
    return subprocess.run(
        [sys.executable] + ([] if site else ["-S"]) + ["-c", probe],
        check=True, capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=SRC)
    ).stdout.split("\n")[-2].split()


def modules_loaded_by_main(*argv):
    return modules_loaded_by("from sgp.cli import main; main(%r)"
                             % list(argv))


def test_startup_loads_only_what_a_command_runs():
    # every sgp process imports sgp.cli; the other modules load on first use,
    # with site (as the installed sgp script runs) and without
    for site in (False, True):
        loaded = modules_loaded_by("import sgp.cli", site)
        assert {"sgp.cli", "sgp.records"} <= set(loaded)
        for name in ("dataclasses", "sgp.oracle", "sgp.render",
                     "sgp.arithmetic_sequence", "random", "argparse",
                     "gettext", "sgp.core_semigroup", "heapq", "json",
                     "sgp.verify", "sgp.grammar", "sgp.consecutive_triple"):
            assert name not in loaded, (name, site)
        # site loads re itself; without it only the general reading would
        assert site or "re" not in loaded
    assert [m for m in modules_loaded_by("import sgp")
            if m.startswith("sgp.")] == []


@pytest.mark.parametrize("argv", [
    ("--a", "10", "info"), ("--a", "10", "factorize", "43"),
    ("--a", "10", "betti"), ("--a", "10", "ulf"), ("--a", "10", "table"),
    ("--a", "10", "presentation"), ("--gens", "5,7,9", "presentation"),
    ("--gens", "5,8,11,14", "betti"),
    ("--gens", "1000003,1000005,1000007", "betti"),
    ("--a", "10", "--format", "json", "factorize", "43"),
    ("--gens", "8,13", "info"), ("--gens", "8,13", "factorize", "104"),
    ("--gens", "8,13", "--format", "json", "ulf")])
def test_closed_forms_load_no_engine(argv):
    loaded = modules_loaded_by_main(*argv)
    assert "sgp.core_semigroup" not in loaded
    # a plain argv is read in one pass, without the general reading
    assert "sgp.grammar" not in loaded
    assert "argparse" not in loaded
    # a triple is recognized by arithmetic alone
    if argv[0] == "--a":
        assert "sgp.arithmetic_sequence" not in loaded


@pytest.mark.parametrize("argv", [
    ("--a", "10", "info"), ("--a", "10", "--format", "csv", "info"),
    ("--a", "10", "--format", "csv", "table"),
    ("--gens", "6,9,20", "--format", "csv", "betti"),
    ("--a", "10", "--format", "json", "info"),
    ("--a", "10", "--format", "json", "factorize", "43"),
    ("--a", "10", "--format", "json", "table")])
def test_no_format_loads_json(argv):
    # each command fills its own JSON template, and the table writers
    # write JSON themselves
    assert "json" not in modules_loaded_by_main(*argv)


@pytest.mark.parametrize("argv, modules", [
    (("--gens", "6,9,20", "betti"), {"sgp.core_semigroup"}),
    (("--a", "10", "--oracle", "info"), {"sgp.core_semigroup"}),
    (("verify", "--a-max", "4"), {"sgp.core_semigroup", "sgp.verify"}),
    (("--a=10", "--fo", "json", "factorize", "43"),
     {"sgp.grammar", "argparse"}),
    (("--a", "10", "info"), {"sgp.consecutive_triple"}),
    (("--gens", "10,11,12", "betti"), {"sgp.consecutive_triple"})])
def test_commands_load_what_they_run(argv, modules):
    # the loads the tests above and below look for do happen
    assert modules <= set(modules_loaded_by_main(*argv))


@pytest.mark.parametrize("argv", [
    ("--gens", "6,9,20", "betti"),
    ("--gens", "6,9,20", "--format", "json", "ulf"),
    ("--gens", "5,8,11,14", "betti")])
def test_only_a_triple_loads_its_closed_forms(argv):
    # the engine and the arithmetic-sequence forms never need them
    assert "sgp.consecutive_triple" not in modules_loaded_by_main(*argv)


@pytest.mark.parametrize("argv, module", [
    (("--a=10", "--fo", "json", "factorize", "43"), "sgp.grammar"),
    (("verify", "--a-max", "4"), "sgp.verify")])
def test_module_run_compiles_cli_once(capsys, argv, module):
    # under python -m sgp.cli the running copy of cli.py is __main__, and
    # grammar and verify, which import sgp.cli by name, get that copy.
    # -X importtime lists the imports of import statements, and -v every
    # module the import system loads, "from . import cli" in verify too
    code, out, _ = run(capsys, *argv)
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-v", "-m", "sgp.cli", *argv],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=SRC))
    assert (proc.returncode, proc.stdout) == (code, out)
    timed, loaded = set(), set()
    for line in proc.stderr.splitlines():
        if line.startswith("import time:"):
            timed.add(line.split("|")[-1].strip())
        elif line.startswith("import '"):
            loaded.add(line.split("'")[1])
    assert module in timed and module in loaded
    assert "sgp.cli" not in timed | loaded


def test_main_keeps_no_module_state(capsys):
    # the modules a request loads are reached through the package, and the
    # verify module and the general reading are imported where they are
    # used, so the argvs that load them bind nothing in sgp.cli
    before = dict(vars(cli))
    for argv in (["--gens", "6,9,20", "--format", "json", "info"],
                 ["--a", "10", "--format", "json", "factorize", "60"],
                 ["--gens", "5,8,11,14", "--format", "json", "betti"],
                 ["--a", "10", "--format", "csv", "table"],
                 ["verify", "--a-max", "4"],
                 # declined by the one pass, so read by the lazy grammar
                 ["--a=10", "--fo", "json", "factorize", "60"]):
        assert run(capsys, *argv)[0] == 0, argv
    assert vars(cli) == before
    # each parse builds its own namespace, so changing one, or a list in
    # it, changes no other; dict(vars(cli)) would miss a memo changed in
    # place
    argv = ["--a", "10", "--format", "json", "apery", "4", "5"]
    first, second = cli.parse(argv), cli.parse(argv)
    first.x.append(6)
    first.fmt = "csv"
    assert vars(second) == vars(cli.parse(argv)) == \
        vars(REFERENCE.parse_args(argv))


def test_info_text(capsys):
    code, out, err = run(capsys, "--a", "10", "info")
    assert code == 0
    assert "frobenius: 49" in out
    assert "two-length threshold: 60" in out
    assert "unique-length members: 60" in out


def test_info_json_closed_form(capsys):
    code, out, _ = run(capsys, "--a", "15", "--format", "json", "info")
    doc = json.loads(out)
    assert code == 0
    assert doc["method"] == "closed-form"
    assert doc["betti"] == [32, 135, 136]
    assert doc["unbalanced"] == [135, 136]
    assert doc["ulf_size"] == 128


def test_info_closed_form_memory_is_constant(capsys):
    # the count is a formula: <601, 602, 603> has 181202 unique-length
    # members, and none of them is built
    tracemalloc.start()
    try:
        code = main(["--a", "601", "--format", "json", "info"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 1024 * 1024
    assert json.loads(capsys.readouterr().out)["ulf_size"] == 181202


def test_info_json_generic(capsys):
    code, out, _ = run(capsys, "--gens", "6,9,20", "--format", "json", "info")
    doc = json.loads(out)
    assert code == 0
    assert doc["method"] == "enumeration"
    assert doc["frobenius"] == 43


@pytest.mark.parametrize("selector", list(SEMIGROUPS))
def test_info_csv_rows_have_two_fields(capsys, selector):
    # list values hold commas, so they are quoted as csv.writer quotes them,
    # and the null ulf_size of N is an empty field
    for mode in ((), ("--oracle",)):
        code, out, _ = run(capsys, *selector.split(), *mode, "--format",
                           "csv", "info")
        rows = list(csv.reader(out.splitlines()))
        assert code == 0 and {len(row) for row in rows} == {2}
        doc = json.loads(run(capsys, *selector.split(), *mode, "--format",
                             "json", "info")[1])
        assert dict(rows) == {k: "" if v is None else str(v)
                              for k, v in doc.items()}
        # the text is csv.writer's, which writes None as empty, of the
        # fields in sorted order
        expected = io.StringIO()
        csv.writer(expected, lineterminator="\n").writerows(
            sorted(doc.items()))
        assert out == expected.getvalue(), mode


def test_triple_detected_from_gens(capsys):
    code, out, _ = run(capsys, "--gens", "12,10,11", "--format", "json",
                       "betti")
    assert code == 0
    assert json.loads(out)["method"] == "closed-form"


def test_factorize_closed_form(capsys):
    code, out, err = run(capsys, "--a", "10", "factorize", "43")
    assert code == 0
    assert out.splitlines() == ["1 3 0", "2 1 1"]
    assert err == ""


def test_factorize_fallback_notes_stderr(capsys):
    # 60 has lengths 5 and 6, and the closed form lists one orbit per
    # length, so no triple factorize falls back; apery still does
    code, out, err = run(capsys, "--a", "10", "factorize", "60")
    assert code == 0 and err == ""
    assert out.splitlines() == ["0 0 5", "6 0 0"]
    code, out, _ = run(capsys, "--a", "10", "--format", "json", "factorize",
                       "60")
    assert code == 0 and json.loads(out)["method"] == "closed-form"
    code, _, err = run(capsys, "--a", "10", "apery", "60")
    assert code == 0 and "fallback=enumeration" in err


def test_factorize_non_member_exit_3(capsys):
    code, _, err = run(capsys, "--gens", "3,4,5", "factorize", "2")
    assert code == 3
    assert "not in" in err


def test_fast_refuses_fallback(capsys):
    code, _, err = run(capsys, "--a", "10", "--fast", "apery", "60")
    assert code == 2
    assert "--fast" in err
    code, out, err = run(capsys, "--a", "10", "--fast", "factorize", "60")
    assert (code, out, err) == (0, "0 0 5\n6 0 0\n", "")


def test_fast_refuses_generic_semigroup(capsys):
    code, _, err = run(capsys, "--gens", "6,9,20", "--fast", "betti")
    assert code == 2


def test_oracle_forces_enumeration(capsys):
    code, out, _ = run(capsys, "--a", "10", "--oracle", "--format", "json",
                       "betti")
    doc = json.loads(out)
    assert code == 0
    assert doc["method"] == "enumeration"
    assert doc["betti"] == [22, 60]


def test_apery_matches_golden(capsys):
    code, out, _ = run(capsys, "--a", "10", "apery", "60")
    assert code == 0
    assert [int(tok) for tok in out.split()] == sorted(golden.APERY_60_A10)


def test_apery_multi(capsys):
    code, out, _ = run(capsys, "--gens", "15,16,17", "apery", "135", "136")
    assert code == 0
    assert [int(tok) for tok in out.split()] == golden.ULF_A15


def test_ulf_closed_form(capsys):
    code, out, _ = run(capsys, "--a", "15", "ulf")
    assert code == 0
    assert [int(tok) for tok in out.split()] == golden.ULF_A15


def test_ulf_refuses_n_and_takes_no_bound(capsys):
    # the unique-length set of N is all of N: ulf refuses it in every
    # mode, and takes no window bound on any semigroup
    for mode in ([], ["--oracle"]):
        code, out, err = run(capsys, "--gens", "1", *mode, "ulf")
        assert code == 2 and out == ""
        assert "all of N" in err
    with pytest.raises(SystemExit) as exc:
        main(["--gens", "3,5", "ulf", "--bound", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --bound 3" in capsys.readouterr().err


def test_table_csv(capsys):
    code, out, _ = run(capsys, "--a", "10", "--format", "csv", "table")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "ell,d,r,iota,c,class"
    assert "2,2,22,0,0,zero" in lines


def test_table_requires_triple(capsys):
    code, _, err = run(capsys, "--gens", "6,9,20", "table")
    assert code == 2


def test_size_guard_refuses_huge_triples(capsys):
    # the counts are O(1), so the refusal comes before any listing work
    for selector in (["--a", "1000000"],
                     ["--gens", "1000000,1000001,1000002"]):
        for mode in ([], ["--fast"], ["--oracle"]):
            for command, count in (("ulf", 500001000000),
                                   ("table", 250000000000)):
                start = time.perf_counter()
                code, out, err = run(capsys, *selector, *mode, command)
                assert time.perf_counter() - start < 1
                assert code == 2 and out == ""
                assert "%s would list %d members" % (command, count) in err


def test_size_guard_bound_is_inclusive(capsys, monkeypatch):
    # a = 1000 lists 501000 (ulf) and 250000 (table) members, under the cap
    assert TripleSemigroup(1000).ulf_size <= cli.MAX_LISTED
    assert (TripleSemigroup(1000).L + 1) ** 2 <= cli.MAX_LISTED
    # and verify accepts a = 1410 (999691 length-table entries), not 1411
    table = [TripleSemigroup(a).ulf_bound + 3 * a + 1 for a in (1410, 1411)]
    assert table[0] <= cli.MAX_LISTED < table[1]
    monkeypatch.setattr(cli, "MAX_LISTED", TripleSemigroup(10).ulf_size)
    code, out, _ = run(capsys, "--a", "10", "ulf")
    assert code == 0 and len(out.split()) == 60
    assert run(capsys, "--a", "11", "ulf")[0] == 2
    monkeypatch.setattr(cli, "MAX_LISTED", (TripleSemigroup(10).L + 1) ** 2)
    assert run(capsys, "--a", "10", "table")[0] == 0
    assert run(capsys, "--a", "12", "table")[0] == 2
    monkeypatch.setattr(cli, "MAX_LISTED", 8)
    assert run(capsys, "--gens", "3,5", "apery", "8") == (
        0, "0 3 5 6 9 10 12 15\n", "fallback=enumeration command=apery "
        "reason=an arithmetic sequence has none\n")
    assert run(capsys, "--gens", "3,5", "apery", "9")[0] == 2
    # ulf on any semigroup: <6, 9, 20> has 18 unique-length members
    monkeypatch.setattr(cli, "MAX_LISTED", 18)
    assert run(capsys, "--gens", "6,9,20", "ulf")[0] == 0
    monkeypatch.setattr(cli, "MAX_LISTED", 17)
    assert run(capsys, "--gens", "6,9,20", "ulf")[0] == 2
    # factorize: 99 in <10, 11, 12> has one length and 5 factorizations,
    # counted in O(1) in every mode; 120 in <6, 9, 20> has 12 and 60 in
    # <10, 11, 12> two lengths and 2, both counted by the engine
    for cap, code, lines in ((5, 0, 5), (4, 2, 0)):
        monkeypatch.setattr(cli, "MAX_LISTED", cap)
        for mode in ([], ["--fast"], ["--oracle"]):
            got, out, _ = run(capsys, "--a", "10", *mode, "factorize", "99")
            assert got == code and len(out.splitlines()) == lines
    for gens, r, count in (("6,9,20", "120", 12), ("10,11,12", "60", 2)):
        monkeypatch.setattr(cli, "MAX_LISTED", count)
        code, out, _ = run(capsys, "--gens", gens, "factorize", r)
        assert code == 0 and len(out.splitlines()) == count
        monkeypatch.setattr(cli, "MAX_LISTED", count - 1)
        assert run(capsys, "--gens", gens, "factorize", r)[0] == 2
    # verify: the length table of a has ulf_bound + 3a + 1 entries, 91 for
    # a = 10 and 111 for a = 11
    monkeypatch.setattr(cli, "MAX_LISTED", 91)
    assert run(capsys, "verify", "--a-max", "10")[0] == 0
    code, out, err = run(capsys, "verify", "--a-max", "11")
    assert code == 2 and out == ""
    assert "111 entries for a = 11" in err


def refused_at_once(capsys, argv):
    """stderr of main(argv), which must exit 2 with no output in under 1 s
    and with a tracemalloc peak under 1 MiB."""
    tracemalloc.start()
    start = time.perf_counter()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1
    assert peak < 1024 * 1024
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    return err


def test_apery_guard_refuses_before_listing(capsys):
    # |Ap(S, x)| = x is counted residue by residue, so nothing is listed;
    # <10, 11, 13> lists off the member int, but not past F + x = 32 * n1
    for gens, xs in (("3,5", ["1000000000"]),
                     ("10007,10009", ["100160063"]),
                     ("2,3", ["1000001", "1000003"]),
                     ("10,11,13", ["1000000000"])):
        err = refused_at_once(capsys, ["--gens", gens, "apery", *xs])
        assert "apery would list %d members" % int(min(xs)) in err
    # an intersection with a small Apery set still answers
    code, out, _ = run(capsys, "--gens", "3,5", "apery", "8", "1000000000")
    assert code == 0 and out == "0 3 5 6 9 10 12 15\n"


def test_factorize_and_verify_guards_refuse_at_once(capsys):
    # the engine counts <3, 4, 10007> = <3, 4> exactly in O(1) and stops
    # a longer count just past MAX_LISTED, a one-length member of
    # a triple has kappa_r + 1 factorizations, and verify's table size is
    # a formula, so nothing is listed or built; <3, 4, 5> is a triple, so
    # its count is the closed one, while --oracle leaves the refusal to the
    # engine, which refuses n1 = 4000000 before counting
    huge = "--a 4000000 %s factorize 15999999999998"
    for argv, message in (
            ("--gens 3,4,5 factorize 100000", "or more factorizations"),
            ("--gens 3,4,10007 factorize 1000000000",
             "83333334 factorizations,"),
            (huge % "", "2000000 factorizations,"),
            (huge % "--fast", "2000000 factorizations,"),
            (huge % "--oracle", "n1 = 4000000 entries"),
            ("verify --a-min 20000 --a-max 20000",
             "200080001 entries for a = 20000")):
        assert message in refused_at_once(capsys, argv.split())


def test_factorize_guard_counts_past_sys_maxsize(capsys):
    # the pair count of <3, 5> and the length interval L(r) of a triple are
    # ranges longer than sys.maxsize, so neither is counted with len(); the
    # pair's count is exact, and the triple's stops once its sum of orbits
    # passes MAX_LISTED
    for argv, count in (
            ("--gens 3,5 factorize 100000000000000000000000",
             "6666666666666666666667"),
            ("--gens 3,4,5 factorize 100000000000000000000000",
             "1001096 or more"),
            ("--a 3 factorize 99999999999999999999999", "1000519 or more")):
        err = refused_at_once(capsys, argv.split())
        assert ("factorize would list %s factorizations, more than %d"
                % (count, cli.MAX_LISTED)) in err


def test_factorize_refusal_names_a_lower_bound_on_every_path(capsys):
    # the one answer whose bytes depend on the path: a count stopped past
    # MAX_LISTED is a lower bound, and the closed orbits of a triple and
    # the engine stop at different ones (1001674 and 1001220 here), each
    # at most the exact count and named with "or more"
    exact, _ = TripleSemigroup(3).factorization_count(20000, 10 ** 9)
    for mode in ([], ["--oracle"]):
        code, out, err = run(capsys, "--a", "3", *mode, "factorize", "20000")
        assert code == 2 and out == ""
        words = err.split()
        assert words[:4] == ["error:", "factorize", "would", "list"], err
        assert words[5:] == ["or", "more", "factorizations,", "more",
                             "than", str(cli.MAX_LISTED)], err
        assert cli.MAX_LISTED < int(words[4]) <= exact, err


@pytest.mark.parametrize("cap, argv, count", [
    (1, "--oracle --a 10 factorize 60", 2),
    (1, "--a 10 factorize 60", 2),
    (11, "--gens 6,9,20 factorize 120", 12)])
def test_factorize_refusal_names_a_finished_count(capsys, monkeypatch, cap,
                                                  argv, count):
    # the engine's count says whether it stopped early, so a count it
    # finished past the cap is named without "or more", as the closed
    # count of a triple is
    monkeypatch.setattr(cli, "MAX_LISTED", cap)
    code, _, err = run(capsys, *argv.split())
    assert code == 2
    assert "factorize would list %d factorizations, more than %d" \
        % (count, cap) in err


def test_engine_refuses_huge_n1_at_once(capsys):
    # the engine's Apery table has n1 entries, so every command that would
    # build it is refused before it starts, also where a family's record
    # hands the question on (apery on a pair, info on a longer arithmetic
    # sequence); closed forms still answer
    pair, three = "1000000007,1000000008", "1000000007,1000000008,1000000010"
    for argv in ("--gens %s info" % three,
                 "--gens 1000003,1000004,1000005,1000006 info",
                 "--gens %s factorize 5" % three,
                 "--gens %s apery 5" % pair,
                 "--gens %s betti" % three,
                 "--gens %s ulf" % three,
                 "--gens %s --oracle info" % pair,
                 "--a 1000001 --oracle info",
                 "--a 1000001 apery 5"):
        err = refused_at_once(capsys, argv.split())
        assert "n1 = %s" % argv.split()[1].split(",")[0] in err, argv
        # the engine never runs, so no fallback to it is noted
        assert "fallback=" not in err, argv
    for mode in ([], ["--oracle"]):  # the closed form and the engine
        code, out, _ = run(capsys, "--gens", "10007,10009", *mode, "info")
        assert code == 0 and "frobenius: 100140047" in out
    code, out, _ = run(capsys, "--a", "1000000", "info")
    assert code == 0 and "frobenius: 499999999999" in out
    # <n1, n2> answers all but apery in closed form: F = pq - p - q, the
    # one Betti element pq, its pq unique-length members (too many to
    # list) and a member's one factorization
    code, out, _ = run(capsys, "--gens", pair, "betti")
    assert code == 0 and "betti: [1000000015000000056]" in out
    code, out, _ = run(capsys, "--gens", pair, "info")
    assert code == 0 and "frobenius: 1000000013000000041" in out
    assert "unique-length members: 1000000015000000056" in out
    err = refused_at_once(capsys, ["--gens", pair, "ulf"])
    assert "ulf would list 1000000015000000056 members" in err
    code, out, _ = run(capsys, "--gens", pair, "factorize", "3000000022")
    assert (code, out) == (0, "2 1\n")
    code, _, err = run(capsys, "--gens", pair, "factorize", "5")
    assert code == 3
    assert "5 is not in Semigroup(1000000007, 1000000008)" in err
    # the refusal comes before the engine is imported, and a pair's closed
    # forms never import it
    for argv in ("--gens %s info" % three, "--a 1000001 --oracle info",
                 "--gens %s info" % pair):
        assert "sgp.core_semigroup" not in \
            modules_loaded_by_main(*argv.split()), argv


@pytest.mark.parametrize("argv", [
    "--gens 6,9,20 info", "--gens 6,9,20 factorize 49",
    "--gens 6,9,20 apery 9 20", "--gens 6,9,20 betti", "--gens 6,9,20 ulf",
    "--a 10 --oracle info", "--a 10 apery 11"])
def test_engine_request_builds_one_semigroup(capsys, monkeypatch, argv):
    # _resolve builds the engine's Semigroup once and hands it to the answer
    expected = run(capsys, *argv.split())
    builds = []
    semigroup = core.Semigroup
    monkeypatch.setattr(core, "Semigroup",
                        lambda gens: builds.append(gens) or semigroup(gens))
    code, out, _ = run(capsys, *argv.split())
    assert code == 0 and (code, out) == expected[:2]
    assert len(builds) == 1


def test_a_record_answers_by_name(capsys, monkeypatch):
    # a family is its record: a command asks the record by name, and one
    # the record lacks goes to the engine with one fallback= note, which
    # --oracle, asking the engine alone, does not write
    class Betti:
        def betti(self):
            return core.BettiClassification((18, 60), (), (18, 60))

    monkeypatch.setattr(cli, "_family", lambda g: (Betti(), "betti only"))
    code, out, err = run(capsys, "--gens", "6,9,20", "--format", "json",
                         "betti")
    assert (code, err) == (0, "")
    assert json.loads(out)["method"] == "closed-form"
    code, out, err = run(capsys, "--gens", "6,9,20", "--format", "json",
                         "info")
    assert (code, err) == (
        0, "fallback=enumeration command=info reason=betti only\n")
    assert json.loads(out)["method"] == "enumeration"
    code, out, err = run(capsys, "--gens", "6,9,20", "--oracle", "--format",
                         "json", "betti")
    assert (code, err) == (0, "")
    assert json.loads(out)["method"] == "enumeration"
    code, _, err = run(capsys, "--gens", "6,9,20", "--fast", "info")
    assert code == 2 and "no closed form for info (betti only)" in err


def test_invalid_generators_above_max_n1_name_the_gcd(capsys):
    # generators with gcd d > 1 are no numerical semigroup whatever n1 is,
    # so the message names d, not the size of an Apery table
    for argv, d in (("--gens 2000000,4000000 info", 2000000),
                    ("--gens 2000000 info", 2000000),
                    ("--gens 1000002,1000004,1000006 betti", 2)):
        err = refused_at_once(capsys, argv.split())
        assert "gcd of generators is %d" % d in err, argv
        assert "Apery table" not in err, argv


def test_oracle_factorize_leaves_membership_to_the_engine(capsys,
                                                           monkeypatch):
    # with the closed length interval emptied, --oracle still answers from
    # the engine alone
    monkeypatch.setattr(ct, "_lengths", lambda a, r: range(0))
    assert run(capsys, "--oracle", "--a", "10", "factorize", "43") == \
        (0, "1 3 0\n2 1 1\n", "")


def test_oracle_factorize_is_sized_by_the_engine(capsys, monkeypatch):
    # --oracle runs no closed form, not even to size the answer: the
    # engine's count refuses 10**12 and lets 43 through
    def closed(*args):
        raise AssertionError("closed form called with %r" % (args,))

    # what the triple record's factorization_count and factorizations call
    for name in ("_lengths", "_phi", "factorizations_triple"):
        monkeypatch.setattr(ct, name, closed)
    err = refused_at_once(capsys, ["--oracle", "--a", "10", "factorize",
                                   str(10 ** 12)])
    assert "or more factorizations, more than %d" % cli.MAX_LISTED in err
    assert run(capsys, "--oracle", "--a", "10", "factorize", "43") == \
        (0, "1 3 0\n2 1 1\n", "")


def test_factorize_count_is_the_denumerant(capsys, monkeypatch):
    # the closed count of F(r) sums every orbit up to the cap, so with the
    # cap one below d(r) it names d(r) exactly
    for a in range(3, 41):
        S = core.Semigroup((a, a + 1, a + 2))
        counts = core._denumerants(S, TripleSemigroup(a).ulf_bound + 6 * a)
        for r, d in enumerate(counts):
            if d:
                monkeypatch.setattr(cli, "MAX_LISTED", d - 1)
                code, _, err = run(capsys, "--a", str(a), "factorize", str(r))
                assert code == 2, (a, r)
                assert "would list %d factorizations," % d in err, (a, r)


def test_triple_factorize_builds_no_semigroup(capsys, monkeypatch):
    # every member of a triple, one length or more, is answered by the
    # closed form; only --oracle builds the engine
    argvs = [[*selector.split(), "factorize", str(r)]
             for selector in ("--a 3", "--a 4", "--a 10", "--gens 12,10,11")
             for r in range(-1, 130)]
    expected = [run(capsys, "--oracle", *argv) for argv in argvs]

    def refuse(*args):
        raise AssertionError("Semigroup built for %r" % (args,))

    monkeypatch.setattr(core, "Semigroup", refuse)
    for argv, answer in zip(argvs, expected):
        for mode in ((), ("--fast",)):
            assert run(capsys, *mode, *argv) == answer, (mode, argv)
    for a, r, x in ((10 ** 6, 500001000000, 500000),
                    (10 ** 9, 500000001000000000, 500000000)):
        assert run(capsys, "--a", str(a), "factorize", str(r)) == \
            (0, "0 0 %d\n%d 0 0\n" % (x, x + 1), "")


def test_ulf_listing_peak_memory_at_the_edge(capsys):
    # <1410, 1411, 1412> has 995460 unique-length members, the most of any
    # triple under MAX_LISTED.  Written from the a + 1 intervals S^ell, the
    # answer peaks near 18 MiB in JSON and 15 MiB in text and CSV; a list
    # of ints and its json.dumps or str pieces took 55-107 MiB.  stdout is
    # a StringIO, so the peak leaves out capsys encoding the text to bytes
    main(["--a", "10", "--format", "json", "ulf"])
    capsys.readouterr()
    for fmt in ("json", "text", "csv"):
        with contextlib.redirect_stdout(io.StringIO()) as stdout:
            tracemalloc.start()
            try:
                code = main(["--a", "1410", "--format", fmt, "ulf"])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        out = stdout.getvalue()
        assert code == 0
        assert peak < 24 * 1024 * 1024, fmt
        count = (json.loads(out)["count"] if fmt == "json"
                 else len(out.split()))
        assert count == 995460, fmt


def test_factorize_listing_peak_memory(capsys):
    # <3, 4, 5> has 75301 factorizations of 3000.  Written from the one
    # str of the list, freed before the str is rewritten, the answer peaks
    # near 10.1 MiB in every format, most of it the list of vectors; a list
    # or a string per vector took 18.3 MiB (JSON) and 19.4 MiB (text, CSV)
    main(["--a", "10", "--format", "json", "factorize", "43"])
    capsys.readouterr()
    for fmt in ("json", "text", "csv"):
        with contextlib.redirect_stdout(io.StringIO()) as stdout:
            tracemalloc.start()
            try:
                code = main(["--a", "3", "--format", fmt, "factorize",
                             "3000"])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        out = stdout.getvalue()
        assert code == 0
        assert peak < 13 * 1024 * 1024, fmt
        count = (len(json.loads(out)["factorizations"]) if fmt == "json"
                 else len(out.splitlines()))
        assert count == 75301, fmt


# runs of an ascending listing: step-1 ranges, empty ones too, sorted
# lists, starting near 100, near the edges of the thousand-int blocks and
# near 10**12, and 0/1 byte masks (bytes or bytearray) with ones near
# those edges
_EDGES = [999, 1000, 1001, 1999, 2000, 10 ** 4 - 1, 10 ** 4]
_STARTS = st.one_of(st.integers(0, 1000), st.integers(0, 10 ** 13),
                    st.sampled_from([0, 9, 10, 99, 100, 101, 199, 200, 201,
                                     *_EDGES, 10 ** 12 - 1, 10 ** 12,
                                     10 ** 12 + 1]))
_ONES = st.one_of(st.integers(0, 700),
                  st.sampled_from([0, 1, 98, 99, 100, 101, 198, 199, 200,
                                   201, 299, 300, *_EDGES]))
_RUNS = st.lists(st.one_of(
    st.builds(lambda lo, n: range(lo, lo + n), _STARTS, st.integers(0, 350)),
    st.lists(_STARTS, max_size=30).map(sorted),
    st.builds(lambda ones, pad, kind: _mask(ones, pad, kind),
              st.sets(_ONES, max_size=60), st.integers(0, 150),
              st.sampled_from([bytes, bytearray]))), max_size=6)


def _mask(ones, pad=0, kind=bytes):
    """The 0/1 byte mask with its ones at the positions ones, and pad more
    zeros past the last one."""
    mask = bytearray(max(ones, default=-1) + 1 + pad)
    for r in ones:
        mask[r] = 1
    return kind(mask)


def _edge_mask(n):
    """The n-byte mask with its ones at those of 99, 100, 999, 1000, 1001
    and 1999 that lie in it."""
    ones = [r for r in (99, 100, 999, 1000, 1001, 1999) if r < n]
    return _mask(ones, n - 1 - ones[-1])


def _listed(run):
    """The members of a run: a mask lists the positions of its ones."""
    return run if isinstance(run, (list, range)) else [
        r for r, bit in enumerate(run) if bit]


@given(_RUNS)
@settings(max_examples=300, deadline=None)
@example([range(0, 0), range(0, 9), range(9, 10), range(10, 99),
          range(99, 101), range(101, 199), range(199, 301), range(301, 399)])
@example([range(0, 100), range(100, 200), range(200, 201), range(0, 1)])
@example([range(99, 100), range(100, 101), range(1099, 1201), range(5, 5)])
@example([range(10 ** 12 - 1, 10 ** 12 + 101), [], [10 ** 12 + 200]])
@example([[0, 9, 10, 99, 100, 101], range(101, 101), [199, 200, 201]])
# ones at the block edges, with [300, 400) all zeros inside the mask, and
# masks with no ones at all
@example([_mask([0, 99, 100, 199, 200, 450])])
@example([_mask([1, 98, 101, 198, 201, 299], 0, bytearray), range(3, 5)])
@example([_mask([], 250), [7], _mask([]), _mask([100])])
# ranges across the thousand-int blocks, one inside [100, 1000) with its
# empty head, masks ending at and just past the block edges, and a mask
# whose first block is all zeros
@example([range(950, 1050), range(1990, 2010), range(2999, 4001)])
@example([range(5, 120), range(150, 990), range(999, 1001)])
@example([_edge_mask(999), _edge_mask(1000), _edge_mask(1001),
          _edge_mask(2001)])
@example([_mask([1000, 1001, 1999, 2000, 10 ** 4 - 1], 3), range(10 ** 4)])
def test_decimals_is_the_join_of_the_members(runs):
    for sep in (", ", " ", "\n"):
        assert cli._decimals(runs, sep) == \
            sep.join(map(str, [x for run in runs for x in _listed(run)])), sep


_VECTOR = st.integers(1, 4).flatmap(lambda e: st.tuples(*[st.one_of(
    st.integers(0, 12), st.integers(0, 2 ** 70))] * e).map(Factorization))


@given(st.lists(_VECTOR, min_size=1, max_size=8),
       st.lists(st.tuples(_VECTOR, _VECTOR), max_size=4))
@settings(max_examples=200, deadline=None)
@example([Factorization((5,))], [(Factorization((9, 0)),
                                   Factorization((0, 7)))])
@example([Factorization((2 ** 70,)), Factorization((0,))], [])
def test_vectors_is_the_answer_written_per_vector(facs, relations):
    # the vector writer against json.dumps and a join per vector, on
    # vectors of one to four coordinates, one-coordinate ones and
    # one-relation tuples among them, whose repr ends in ",)"
    assert cli._vectors(str(facs)) == json.dumps([list(f) for f in facs])
    for sep in (" ", ","):
        assert cli._vectors(str(facs), sep) == "".join(
            sep.join(map(str, f)) + "\n" for f in facs), sep
    relations = tuple(relations)
    assert cli._vectors(str(relations)) == json.dumps(
        [[list(x), list(y)] for x, y in relations])


# a factorize answer of each shape on each path: N's one coordinate, past
# 2**63 too, one vector (a triple's one-length orbit, a pair, the engine),
# a two-length triple member, and an e = 4 engine listing; and each
# closed presentation, the pair's a single relation
@pytest.mark.parametrize("argv", [
    ["--gens", "1", "factorize", "5"],
    ["--gens", "1", "factorize", str(2 ** 70)],
    ["--a", "10", "factorize", "10"],
    ["--gens", "8,13", "factorize", "21"],
    ["--gens", "6,9,20", "factorize", "20"],
    ["--a", "10", "factorize", "60"],
    ["--gens", "7,11,13,17", "factorize", "90"],
    ["--gens", "7,9", "presentation"],
    ["--a", "10", "presentation"],
    ["--gens", "5,8,11,14", "presentation"]])
def test_vector_answers_match_a_per_vector_reference(capsys, argv):
    ns = cli.parse(argv)
    command = "factorize" if "factorize" in argv else "presentation"
    answerer, _ = cli._resolve(ns, QUESTIONS[command],
                               engine=command == "factorize")
    capsys.readouterr()
    if command == "presentation":
        code, out, _ = run(capsys, *argv[:-1], "--format", "json", command)
        assert code == 0 and out == dumped(out)
        assert json.loads(out)["relations"] == [
            [list(x), list(y)] for x, y in answerer.presentation().relations]
        return
    facs = answerer.factorizations(ns.r)
    for fmt in ("json", "text", "csv"):
        code, out, _ = run(capsys, *argv[:-2], "--format", fmt, *argv[-2:])
        assert code == 0, fmt
        if fmt == "json":
            assert out == dumped(out)
            assert json.loads(out)["factorizations"] == [list(f)
                                                          for f in facs]
        else:
            sep = " " if fmt == "text" else ","
            assert out == "".join(sep.join(map(str, f)) + "\n"
                                  for f in facs), fmt


# the form of each ulf listing: the engine's mask off the member int
# (<6, 9, 20>) and residue by residue (<20, 21>, F + min UBetti = 799 >
# 32 * n1), whose count is of members, not of the mask's positions; the
# engine's sorted list, read residue by residue (<8, 12, 77>: 24 members,
# span 260 > 8 * 24); and a triple's ranges S^0, ..., S^a
ULF_FORMS = {(6, 9, 20): bytes, (20, 21): bytearray, (8, 12, 77): list,
             (10, 11, 12): range}


@pytest.mark.parametrize("gens", list(ULF_FORMS))
def test_ulf_count_counts_the_members_of_a_mask(capsys, gens):
    S, g = core.Semigroup(gens), ",".join(map(str, gens))
    ns = cli.parse(["--gens", g, "ulf"])
    answerer, _ = cli._resolve(ns, "ulf_runs")
    n, listing = answerer.ulf_runs()
    runs = listing()
    assert {type(run) for run in runs} == {ULF_FORMS[gens]}
    if ULF_FORMS[gens] is list:
        assert runs == [oracle.ulf(S)] and runs[0][-1] + 1 == 260
    elif ULF_FORMS[gens] is not range:
        mask, = runs
        assert len(mask) > mask.count(1)
    code, out, _ = run(capsys, "--gens", g, "--format", "json", "ulf")
    doc = json.loads(out)
    assert code == 0
    assert doc["count"] == n == len(doc["ulf"]) == len(oracle.ulf(S))


def dumped(out):
    """out as json.dumps writes what it holds: keys sorted, one line."""
    return json.dumps(json.loads(out), sort_keys=True) + "\n"


def ints(value):
    """The ints of value, an int or a list, nested or not, of ints."""
    if isinstance(value, int):
        return [value]
    return [x for item in value for x in ints(item)]


# a = 2**65 puts each of these answers beyond a signed 64-bit int: a
# itself, and in a presentation the exponent a/2 of a power of a + 2; and
# N's one factorization of 2**70, a one-coordinate vector
BIG_A = ["--a", str(2 ** 65)]


@pytest.mark.parametrize("args", [BIG_A + ["info"], BIG_A + ["betti"],
                                  BIG_A + ["presentation"],
                                  BIG_A + ["factorize", str(3 * 2 ** 65)],
                                  ["--gens", "1", "factorize",
                                   str(2 ** 70)]])
def test_json_writes_ints_beyond_64_bits(capsys, args):
    code, out, _ = run(capsys, "--format", "json", *args)
    assert code == 0 and out == dumped(out)
    doc = json.loads(out)
    del doc["method"]
    assert max(ints(list(doc.values()))) >= 2 ** 63, doc


def test_ulf_guard_refuses_before_listing(capsys, monkeypatch):
    # the engine counts |Ap(S, UBetti)| residue by residue, so nothing is
    # listed; one Betti search serves both the count and the listing, and
    # is all it takes to refuse N
    searches = []
    betti_elements = core.betti_elements
    monkeypatch.setattr(core, "betti_elements",
                        lambda S: searches.append(S) or betti_elements(S))
    tracemalloc.start()
    start = time.perf_counter()
    try:
        code = main(["--gens", "2003,2005,2011", "ulf"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 2
    assert peak < 4 * 1024 * 1024
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert "ulf would list 1007009 members" in err
    assert len(searches) == 1
    searches.clear()
    # a pair's count is its ulf_size pq, so it is refused with no search
    err = refused_at_once(capsys, ["--gens", "10007,10009", "ulf"])
    assert "ulf would list 100160063 members" in err
    assert searches == []
    code, out, err = run(capsys, "--gens", "1", "ulf")
    assert code == 2 and out == "" and "all of N" in err
    assert len(searches) == 1
    for gens, count in (("6,9,20", 18), ("73,90,105", 630)):
        searches.clear()
        code, out, _ = run(capsys, "--gens", gens, "ulf")
        assert code == 0 and len(out.split()) == count
        assert len(searches) == 1


def test_apery_set_is_counted_once_per_request(capsys, monkeypatch):
    # apery and ulf count the set once and check the count before they
    # list it, and info counts |ULF| without listing; <5, 37> and <5, 37,
    # 101> count residue by residue and <73, 90, 105> on the member int.
    # A pair answers ulf and info in closed form, so only its apery reaches
    # the engine.  The engine's apery_runs(xs) gives (n, listing) and lists
    # nothing until listing() is called, which gives the set as one run
    calls = []
    apery_sized, apery_counts = core._apery_sized, core._apery_counts

    def sized(S, xs):
        n, listing = apery_sized(S, xs)
        calls.append("count")
        return n, lambda: calls.append("list") or listing()

    monkeypatch.setattr(core, "_apery_sized", sized)
    monkeypatch.setattr(core, "_apery_counts", lambda S, xs:
                        calls.append("residues") or apery_counts(S, xs))
    check_listed = cli._check_listed
    monkeypatch.setattr(cli, "_check_listed", lambda command, n:
                        calls.append("check") or check_listed(command, n))
    for gens, residues in (((5, 37), ["residues"]),
                           ((5, 37, 101), ["residues"]),
                           ((73, 90, 105), [])):
        S, g = core.Semigroup(gens), ",".join(map(str, gens))
        xs = S.minimal_generators[1:]
        cases = [(["--gens", g, "apery", *map(str, xs)],
                  oracle.apery_multi(S, xs)),
                 (["--gens", g, "ulf"], oracle.ulf(S)),
                 (["--gens", g, "info"], None)]
        for argv, out in cases[:1] if len(gens) == 2 else cases:
            calls.clear()
            code, got, _ = run(capsys, *argv)
            assert code == 0, argv
            assert calls == residues + ["count"] + ["check", "list"] * bool(
                out), argv
            assert out is None or got == " ".join(map(str, out)) + "\n"
        expected = oracle.apery_multi(S, xs)
        calls.clear()
        n, listing = S.apery_runs(xs)
        assert calls == residues + ["count"] and n == len(expected)
        one, = listing()
        assert calls == residues + ["count", "list"]
        assert core._members(one) == expected


def test_negative_counts_exit_2(capsys):
    code, out, err = run(capsys, "verify", "--a-max", "4", "--random", "-1")
    assert code == 2 and out == ""
    assert "--random" in err


def test_enumerated_info_counts_the_apery_set(capsys):
    rng = random.Random(7)
    for _ in range(40):
        gens = sorted(rng.sample(range(2, 40), rng.randint(2, 4)))
        try:
            S = core.Semigroup(gens)
        except ValueError:
            continue
        code, out, _ = run(capsys, "--gens", ",".join(map(str, gens)),
                           "--format", "json", "--oracle", "info")
        assert code == 0
        unbalanced = core.betti_elements(S).unbalanced
        assert json.loads(out)["ulf_size"] == (
            len(core.apery_multi(S, unbalanced)) if unbalanced else None)


def test_enumerated_info_does_not_list(capsys):
    start = time.perf_counter()
    code, out, _ = run(capsys, "--gens", "10007,10009", "--format", "json",
                       "info")
    assert time.perf_counter() - start < 5
    assert code == 0 and json.loads(out)["ulf_size"] == 100160063


def test_search_paths_do_not_enumerate(capsys, monkeypatch):
    def refuse(S, r):
        raise AssertionError("factorizations(%r, %d) called" % (S, r))

    monkeypatch.setattr(core, "factorizations", refuse)
    S = core.Semigroup((6, 9, 20))
    ulf_6_9_20 = [0, 6, 9, 12, 15, 20, 21, 26, 29, 32, 35, 40, 41, 46, 49,
                  52, 55, 61]
    assert core.betti_elements(S) == core.BettiClassification(
        (18, 60), (), (18, 60))
    assert core.ulf(S) == ulf_6_9_20
    expected = {
        "info": {"balanced": [], "betti": [18, 60], "frobenius": 43,
                 "generators": [6, 9, 20], "method": "enumeration",
                 "minimal_generators": [6, 9, 20], "ulf_bound": 18,
                 "ulf_size": 18, "unbalanced": [18, 60]},
        "betti": {"balanced": [], "betti": [18, 60],
                  "method": "enumeration", "unbalanced": [18, 60]},
        "ulf": {"count": 18, "method": "enumeration", "ulf": ulf_6_9_20},
    }
    for command, doc in expected.items():
        code, out, _ = run(capsys, "--gens", "6,9,20", "--format", "json",
                           command)
        assert code == 0
        assert out == json.dumps(doc, sort_keys=True) + "\n"


def test_presentation_arith_sequence(capsys):
    code, out, _ = run(capsys, "--gens", "5,8,11,14", "--format", "json",
                       "presentation")
    assert code == 0
    rels = json.loads(out)["relations"]
    assert [[5, 0, 0, 0], [0, 0, 1, 1]] in rels
    assert len(rels) == 5


def test_presentation_unsupported_generators(capsys):
    # the reason names why neither closed form applies
    for gens, reason in (
            ("6,9,20", "need a consecutive triple or an arithmetic sequence"),
            ("3,4,5,6", "n <= a - 1"),
            ("4,6", "coprime")):
        code, out, err = run(capsys, "--gens", gens, "presentation")
        assert (code, out) == (2, "")
        assert "presentation" in err and reason in err, gens


@pytest.mark.parametrize("a", ["-1", "0", "1", "2"])
def test_presentation_small_a_is_usage_error(capsys, a):
    code, out, err = run(capsys, "--a", a, "presentation")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    # <1, 2, 3> and <2, 3, 4> are arithmetic sequences that
    # presentation_arith does not cover
    reason = {"1": "a >= 2", "2": "n <= a - 1"}.get(a, "positive integer")
    assert reason in err


def test_bad_gens_exit_2(capsys):
    code, _, err = run(capsys, "--gens", "4,banana", "info")
    assert code == 2
    code, _, err = run(capsys, "--gens", "4,6", "info")
    assert code == 2


def test_selector_required(capsys):
    code, _, err = run(capsys, "info")
    assert code == 2
    code, _, err = run(capsys, "--gens", "3,4,5", "--a", "7", "info")
    assert code == 2


def test_fast_and_oracle_conflict():
    with pytest.raises(SystemExit):
        main(["--a", "10", "--fast", "--oracle", "info"])


REFERENCE = build_parser()
INT = st.integers(-20, 60).map(str)
# the options of sgp (None) and of its commands, each with the values it
# takes (None for a flag), and the most ints each command's positional takes
OPTIONS = {
    None: {"--gens": st.sampled_from(["3,4,5", "6,9,20", "1"]), "--a": INT,
           "--format": st.sampled_from(["json", "csv", "text"]),
           "--fast": None, "--oracle": None},
    "verify": {"--a-min": INT, "--a-max": INT, "--arith": None,
               "--random": INT, "--seed": INT},
}
POSITIONALS = {"factorize": 1, "apery": 3}
COMMAND_NAMES = ("info", "factorize", "apery", "betti", "ulf", "table",
                 "presentation", "verify")
# any other token: every option name and every prefix of a long name
# short of "--" (--f is ambiguous, --fo means --format), an option sgp
# does not have, "=" forms, commands, and good and bad values
NAMES = [name[:k] for names in OPTIONS.values() for name in (*names, "--help")
         for k in range(3, len(name) + 1)] + ["-h", "-x", "--nope"]
VALUE = st.one_of(INT, st.sampled_from([
    "3,4,5", "x", "1.5", "-1.5", "-5x", "", "-", "-1 2", "json", "xml",
    "-hh", "-hx", "-h="]))
TOKEN = st.one_of(st.sampled_from(NAMES), VALUE,
                  st.sampled_from(COMMAND_NAMES + ("nope",)),
                  st.builds("{}={}".format, st.sampled_from(NAMES), VALUE))


@st.composite
def command_lines(draw):
    """An argv of sgp's grammar, then up to two tokens inserted or
    deleted.  "--" is left out: argparse reads it differently from Python
    3.12 on, so test_double_dash_ends_the_options pins it instead."""
    def options(parser):
        argv = []
        names = OPTIONS.get(parser, {})
        for name in draw(st.lists(st.sampled_from(sorted(names)),
                                  max_size=3)) if names else ():
            value = [] if names[name] is None else [draw(names[name])]
            if draw(st.booleans()):  # a unique or an ambiguous prefix
                name = name[:draw(st.integers(3, len(name)))]
            if value and draw(st.booleans()):
                argv.append("%s=%s" % (name, value[0]))
            else:
                argv += [name] + value
        return argv

    command = draw(st.sampled_from(COMMAND_NAMES))
    tail = options(command) + draw(st.lists(
        INT, max_size=POSITIONALS.get(command, 0)))
    argv = options(None) + [command] + draw(st.permutations(tail))
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(argv)))
        if argv and draw(st.booleans()):
            del argv[min(i, len(argv) - 1)]
        else:
            argv.insert(i, draw(TOKEN))
    return argv


def parse_outcome(parse_args, argv):
    """(namespace as a dict, or the exit code; stdout; stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parse_args(list(argv)))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


@given(command_lines())
@settings(max_examples=400, deadline=None)
@example([])
@example(["-h"])
@example(["--a", "10", "factorize", "-h"])
@example(["--fo", "json", "--a=10", "factorize", "-5"])
@example(["--gens", "1", "ulf", "--bound", "-1"])
@example(["--a", "-1", "info"])
@example(["--f", "json", "info"])
@example(["verify", "--a", "4"])
@example(["verify", "--a-ma=9", "--ar", "--r", "3", "--s=-2"])
@example(["--a", "10", "--fast", "--oracle", "info"])
@example(["--a", "10", "--format", "xml", "info"])
@example(["--a", "10", "--format=csv", "apery", "4", "-5", "6"])
@example(["--a", "10", "apery"])
@example(["--a", "10", "info", "extra"])
@example(["-hh"])
@example(["-h=h"])
@example(["-hx", "info"])
def test_parse_accepts_what_argparse_accepts(argv):
    expected, _, _ = parse_outcome(REFERENCE.parse_args, argv)
    got, out, err = parse_outcome(cli.parse, argv)
    assert got == expected
    if got == 0:
        assert out.startswith("usage: sgp")
    if got == 2:
        assert err.startswith("usage: sgp") and "\nsgp: error: " in err


@given(command_lines())
@settings(max_examples=400, deadline=None)
@example(["--a", "10", "--fast", "--oracle", "info"])
@example(["--a", "10", "--format", "xml", "info"])
@example(["--a", "x", "info"])
@example(["--a", "10", "factorize", "5", "6"])
@example(["--a", "10", "apery"])
@example(["--a", "10", "info", "extra"])
@example(["--a", "10", "factorize", "-5"])
@example(["--gens", "-", "info"])
@example(["--a", "10", "info", "--format", "json"])
@example(["--a", "10", "factorize", "-h"])
def test_plain_reading_agrees_with_parse(argv):
    # the one-pass reading prints nothing, raises nothing, and either
    # declines or gives the namespace of the general reading, which is
    # parse with the one-pass reading declining everything
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        got = cli._plain(list(argv))
    assert out.getvalue() == err.getvalue() == ""
    if got is not None:
        with mock.patch.object(cli, "_plain", lambda args: None):
            assert vars(got) == parse_outcome(cli.parse, argv)[0]


@pytest.mark.parametrize("argv", [
    "--a 20970 --format text factorize 167760",
    "--a 20970 --format json factorize 167760",
    "--a 150 --format text table", "--a 150 --format csv table",
    "--a 150 --format json table",
    "--a 300 --format json ulf", "--a 300 --format json betti",
    "--a 300 --format json info", "--a 300 --format json presentation",
    "--gens 12,25,31 --format json apery 40 51 77",
    "--gens 12,25,31 --format json info",
    "--gens 12,25,31 --format json betti",
    "--gens 12,25,31 --format json ulf",
    "--gens 12,25,31 --format json factorize 37",
    "--gens 5,8,11,14 --format json presentation",
    "verify --a-min 4 --a-max 5",
    "verify --a-min 4 --a-max 5 --random 2 --seed 7",
    "verify --a-min 4 --a-max 5 --arith"])
def test_plain_reading_answers_the_workload_shapes(argv):
    # a reading that declines everything passes the property above, so
    # the benchmark's argv shapes are pinned to the one pass here: a
    # declined one would also compile the general reading in a timed
    # request
    got = cli._plain(argv.split())
    assert got is not None
    assert vars(got) == vars(REFERENCE.parse_args(argv.split()))


DEFAULTS = {"gens": None, "a": None, "fmt": "text", "fast": False,
            "oracle": False}


@pytest.mark.parametrize("argv, expected", [
    (["factorize", "--", "43"], {"command": "factorize", "r": 43}),
    (["factorize", "9", "--"], {"command": "factorize", "r": 9}),
    (["apery", "--", "4"], {"command": "apery", "x": [4]}),
    (["apery", "4", "--", "-5", "6"], {"command": "apery", "x": [4, -5, 6]}),
    (["--a", "10", "--format=json", "factorize", "--", "43"],
     {"a": 10, "fmt": "json", "command": "factorize", "r": 43}),
    (["--gens=--", "info"], {"gens": "--", "command": "info"}),
    (["factorize", "9", "--", "5"], 2),
    (["factorize", "--"], 2),
    (["apery", "4", "--", "-h"], 2),
    (["--", "info"], 2),
    (["--a", "10", "--", "info"], 2),
    (["verify", "--seed", "--", "3"], 2),
    # argparse drops "--" from "--a=--" and stores [], which no command
    # can use; parse reads "--" as the value, which is no int
    (["--a=--", "info"], 2),
    (["--format=--", "info"], 2),
])
def test_double_dash_ends_the_options(argv, expected):
    got, _, err = parse_outcome(cli.parse, argv)
    if expected == 2:
        assert got == 2 and "sgp: error: " in err
    else:
        assert got == dict(DEFAULTS, **expected)


def test_help_describes_every_command_and_option():
    # sgp -h lists each command with its help, and each option of sgp;
    # sgp COMMAND -h gives the command's help and each of its options.
    # Whitespace is dropped, since the help wraps its texts to 79 columns
    def squeezed(text):
        return "".join(text.split())

    for command, (text, _, options) in cli.SPEC.items():
        argv = ["-h"] if command is None else [command, "-h"]
        code, out, _ = parse_outcome(cli.parse, argv)
        assert code == 0, argv
        words = [text] + [word for name, spec in options.items()
                          for word in (name, spec[4]) if word]
        if command is None:
            words += [word for name, (help_, _, _) in cli.SPEC.items()
                      if name for word in (name, help_)]
        else:
            words.append(command)
        out = squeezed(out)
        for word in words:
            assert squeezed(word) in out, (argv, word)


def test_verify_passes(capsys):
    code, out, _ = run(capsys, "verify", "--a-max", "8")
    assert code == 0
    assert out.startswith("PASS")


def test_verify_with_options(capsys):
    code, out, _ = run(capsys, "verify", "--a-max", "7", "--arith",
                       "--random", "3", "--seed", "11")
    assert code == 0
    assert out.startswith("PASS")


@pytest.mark.parametrize("selector", [["--gens", "3,4,5"], ["--a", "10"]])
def test_verify_rejects_selector(capsys, selector):
    code, out, err = run(capsys, *selector, "verify", "--a-max", "4")
    assert code == 2
    assert out == ""
    assert "verify" in err


@pytest.mark.parametrize("argv", [("--a-min", "2"),
                                  ("--a-min", "6", "--a-max", "5")])
def test_verify_refuses_an_empty_or_small_a_range(capsys, argv):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2 and out == ""
    assert "need 3 <= a-min <= a-max" in err


def test_verify_reads_max_listed_when_called(capsys, monkeypatch):
    # the length table of a-max 4 has 25 entries
    monkeypatch.setattr(cli, "MAX_LISTED", 10)
    code, out, err = run(capsys, "verify", "--a-max", "4")
    assert code == 2 and out == ""
    assert "25 entries for a = 4, more than 10" in err
    monkeypatch.undo()
    code, out, _ = run(capsys, "verify", "--a-max", "4")
    assert code == 0
    assert out.startswith("PASS")


def test_verify_does_not_enumerate(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("enumeration called with %r" % (args,))

    for name in ("factorizations", "length_sets_up_to"):
        monkeypatch.setattr(core, name, refuse)
    # the closed forms reach the engine through neither name
    assert not hasattr(ct, "factorizations")
    assert not hasattr(ct, "Semigroup")
    code, out, _ = run(capsys, "verify", "--a-max", "12", "--arith",
                       "--random", "3")
    assert code == 0
    assert out.startswith("PASS")


def test_consecutive_calls_answer_as_alone(capsys):
    # no call may leak into the next
    info = ("--a", "10", "--format", "json", "info")
    for before, code, argv in (
            (("--a", "10", "--oracle", "--format", "json", "info"), 0, info),
            (("verify", "--a-max", "5", "--arith"), 0,
             ("verify", "--a-max", "5")),
            (("--a", "10", "--fast", "--oracle", "info"), 2, info),
            (("--gens", "6,9,20", "--fast", "betti"), 2, info)):
        alone = run(capsys, *argv)
        try:
            assert main(list(before)) == code
        except SystemExit as exc:
            assert exc.code == code
        capsys.readouterr()
        assert run(capsys, *argv) == alone, (before, argv)
    assert json.loads(run(capsys, *info)[1])["method"] == "closed-form"


# a wrong answer for each closed form that verify calls, and the reason
# it must fail with
WRONG_ANSWERS = {
    "member_triple": (operator.not_, "membership mismatch"),
    "ulf_membership_triple": (operator.not_,
                              "unique-length membership mismatch"),
    "factorizations_triple": (lambda facs: facs[1:],
                              "factorization set mismatch"),
    "denumerant_triple": (lambda d: d + 1, "denumerant mismatch"),
    "decompose_triple": (lambda dec: dec._replace(c=dec.c + 1),
                         "decomposition mismatch"),
}


# F(8) = [(0, 2, 0), (1, 0, 1)] of <3, 4, 5> with its second vector
# replaced; each replacement keeps all but one property that verify checks
# of the list: three coordinates, non-negative, value 8, distinct, two of
# them
BAD_SECOND_VECTORS = {
    "two-coordinates": (0, 2),
    "four-coordinates": (0, 2, 0, 0),
    "negative-coordinate": (2, -2, 2),
    "wrong-value": (0, 2, 1),
    "duplicate": (0, 2, 0),
}


@pytest.mark.parametrize("name, wrong, reason", [
    pytest.param(name, wrong, reason, id=name)
    for name, (wrong, reason) in WRONG_ANSWERS.items()] + [
    pytest.param("factorizations_triple",
                 lambda facs, vector=vector: [facs[0], vector],
                 "factorization set mismatch",
                 id="factorizations_triple-" + defect)
    for defect, vector in BAD_SECOND_VECTORS.items()])
def test_verify_reports_counterexample(capsys, monkeypatch, name, wrong,
                                       reason):
    # 8 = 2*4 = 3 + 5 is a one-length member of <3, 4, 5> below its
    # threshold 9, so verify calls every closed form on it
    right = getattr(ct, name)
    assert ct.factorizations_triple(3, 8) == [(0, 2, 0), (1, 0, 1)]
    monkeypatch.setattr(
        ct, name,
        lambda a, r: wrong(right(a, r)) if r == 8 else right(a, r))
    code, out, _ = run(capsys, "verify", "--a-max", "3")
    assert code == 1
    assert out == "FAIL %s\n" % ((3, 8, reason),)


# a wrong answer from each formula that verify --arith and --random check:
# name -> (its module, the wrong answer made from the right one, the verify
# options, and the end of the FAIL line).  <5, 6, 7> is the first
# arithmetic sequence --arith checks at a = 5.
FAMILY_WRONG_ANSWERS = {
    "betti_arith": (arith, lambda betti: betti[1:],
                    ("--a-min", "5", "--a-max", "5", "--arith"),
                    "(5, (1, 2), 'betti mismatch')"),
    # betti_arith does not call ubetti_arith, so a repeat is wrong here
    # alone
    "ubetti_arith": (arith, lambda ubetti: ubetti + ubetti[-1:],
                     ("--a-min", "5", "--a-max", "5", "--arith"),
                     "(5, (1, 2), 'unbalanced betti mismatch')"),
    "presentation_arith": (
        arith, lambda pres: Presentation(tuple(
            (x, Factorization((x[0] + 1,) + x[1:])) for x, _ in
            pres.relations)),
        ("--a-min", "5", "--a-max", "5", "--arith"),
        "(5, (1, 2), 'relator with unequal sides')"),
    "apery_multi": (core, lambda thm: thm + [max(thm) + 1],
                    ("--a-max", "3", "--random", "1"),
                    ", None, 'unique-length set differs from the Apery "
                    "form')"),
}


@pytest.mark.parametrize("name", FAMILY_WRONG_ANSWERS)
def test_verify_reports_family_counterexample(capsys, monkeypatch, name):
    module, wrong, options, end = FAMILY_WRONG_ANSWERS[name]
    right = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: wrong(right(*args)))
    code, out, _ = run(capsys, "verify", *options)
    assert code == 1
    assert out.startswith("FAIL (") and out.endswith(end + "\n")
    assert out.count("\n") == 1


# one entry of the length table of <3, 4, 5> made wrong, as one bit: L(8)
# = {2} as {3}, and L(9) = {2, 3}, the threshold's, as {3}, which the
# unique-length closed form is made to agree with, so that each is caught
# by its own check alone
@pytest.mark.parametrize("r, reason", [
    (8, "length set is not {floor(r/a)}"),
    (9, "threshold should have two lengths")])
def test_verify_reports_length_table_counterexample(capsys, monkeypatch, r,
                                                    reason):
    right_masks, right_one = core._length_masks, ct.ulf_membership_triple
    assert right_masks(core.Semigroup((3, 4, 5)), 9)[8:] == [1 << 2, 0b1100]
    monkeypatch.setattr(core, "_length_masks", lambda S, bound: [
        1 << 3 if s == r else mask
        for s, mask in enumerate(right_masks(S, bound))])
    monkeypatch.setattr(ct, "ulf_membership_triple",
                        lambda a, s: s == r or right_one(a, s))
    code, out, _ = run(capsys, "verify", "--a-max", "3")
    assert (code, out) == (1, "FAIL %s\n" % ((3, r, reason),))


# --random 1 checks <15, 26> (seed 0), whose one unbalanced Betti element
# is 390: a wrong least one at 0 is in the unique-length set, and one at
# 391 has the two-length member 390 below it outside the set
@pytest.mark.parametrize("least", [0, 391])
def test_verify_reports_betti_contract_counterexample(capsys, monkeypatch,
                                                      least):
    right_betti, right_apery = core.betti_elements, core.apery_multi
    assert right_betti(core.Semigroup((15, 26))).unbalanced == (390,)
    monkeypatch.setattr(core, "betti_elements", lambda S: right_betti(
        S)._replace(unbalanced=(least,) + right_betti(S).unbalanced[1:]))
    # the true unique-length set, so the check against the masks passes
    monkeypatch.setattr(core, "apery_multi", lambda S, xs: right_apery(
        S, right_betti(S).unbalanced))
    code, out, _ = run(capsys, "verify", "--a-max", "3", "--random", "1")
    assert code == 1
    assert out == "FAIL %s\n" % (
        ((15, 26), least, "least unbalanced Betti element contract"),)


def test_verify_check_count_from_oracle_membership(capsys):
    # bench/answers.py compares the PASS line with its own count, so the
    # count is pinned here from oracle membership alone: per r up to 3a
    # past the threshold L_a = (ceil(a/2) + 1)a, one membership check, one
    # unique-length check for members and four more below L_a, and one
    # threshold check per a
    expected = 0
    for a in range(3, 61):
        S = core.Semigroup((a, a + 1, a + 2))
        threshold = ((a + 1) // 2 + 1) * a
        if a <= 12:
            # L_a is the least member with two factorization lengths
            assert [r for r in range(threshold + 1) if oracle.member(S, r)
                    and len(oracle.length_set(S, r)) > 1] == [threshold]
        expected += 1
        for r in range(threshold + 3 * a + 1):
            member = oracle.member(S, r)
            expected += 1 + member + 4 * (member and r < threshold)
    code, out, _ = run(capsys, "verify", "--a-min", "3", "--a-max", "60")
    assert (code, out) == (0, "PASS (%d checks)\n" % expected)


# The generators of each closed family of cli._family, one strategy a
# family: a consecutive triple, and an arithmetic sequence it covers
FAMILIES = st.one_of(
    st.integers(3, 40).map(lambda a: (a, a + 1, a + 2)),
    st.builds(lambda a, d, n: tuple(a + i * d for i in range(n + 1)),
              st.integers(2, 30), st.integers(1, 9), st.integers(1, 5)
              ).filter(lambda g: cli._family(g)[0] is not None))

# the attribute of a record that each command asks for, in its cmd_*
QUESTIONS = {"info": "info", "factorize": "factorizations",
             "apery": "apery_runs", "betti": "betti", "ulf": "ulf_runs",
             "table": "table_size", "presentation": "presentation"}


def enumeration_argvs(gens):
    """The command lines of every command with an enumeration mode."""
    n1 = gens[0]
    return {"info": [[]], "betti": [[]], "ulf": [[]],
            "factorize": [[str(r)] for r in range(0, 12 * n1, 7)],
            "apery": [[str(n1)], [str(n1), str(gens[-1])]]}


def examples(*cases):
    """@example once for each case."""
    def add(test):
        for case in cases:
            test = example(case)(test)
        return test
    return add


@given(FAMILIES)
@settings(max_examples=60, deadline=None)
# the ulf cases of every a in [3, 40], two arithmetic sequences and
# three pairs: p = 2, and q = p + 1
@examples(*[(a, a + 1, a + 2) for a in range(3, 41)], (5, 8, 11, 14),
          (8, 13), (2, 3), (7, 8))
def test_default_and_oracle_answers_agree(gens):
    # every command the family's record answers, with an enumeration mode,
    # writes the same bytes by default and under --oracle: exit code,
    # stderr and stdout in every format, once the method in stdout reads
    # enumeration for closed-form.  A triple answers all commands but
    # apery, a pair all but apery and table, and a longer arithmetic
    # sequence betti and presentation
    selector = ["--gens", ",".join(map(str, gens))]
    record = cli._family(gens)[0]
    commands = [command for command, name in QUESTIONS.items()
                if hasattr(record, name)]
    if len(gens) == 2:
        assert commands == ["info", "factorize", "betti", "ulf",
                            "presentation"]
    elif gens[-1] - gens[0] == 2:  # a triple
        assert commands == [c for c in QUESTIONS if c != "apery"]
    else:
        assert commands == ["betti", "presentation"]
    argvs = enumeration_argvs(gens)
    for command in commands:
        if command not in argvs:
            code, _, err = observe(selector + ["--oracle", command])
            assert code == 2 and "no enumeration mode" in err, command
            continue
        for args in argvs[command]:
            for fmt in ("json", "text", "csv"):
                closed, engine = (observe(selector + ["--format", fmt] + mode
                                          + [command] + args)
                                  for mode in ([], ["--oracle"]))
                closed[1] = closed[1].replace("closed-form", "enumeration")
                assert closed == engine, (command, args, fmt)


# an answer larger than a pipe holds (693766 bytes) whose reader leaves
# after one byte, and a small answer and the help whose reader is gone
# before they start.  Each runs buffered and unbuffered (where the text
# layer takes a short write for the whole one), and with stderr on its
# own pipe or on the same pipe as stdout (the error line then goes
# nowhere)
@pytest.mark.parametrize("argv, read", [(["--a", "300", "table"], 1),
                                        (["--a", "10", "info"], 0),
                                        (["-h"], 0), (["verify", "-h"], 0)])
def test_closed_pipe_exits_4_without_traceback(argv, read):
    for unbuffered in (False, True):
        env = dict(os.environ, PYTHONPATH=SRC)
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        for shared in (False, True):
            r, w = os.pipe()
            if not read:
                os.close(r)
            proc = subprocess.Popen(
                [sys.executable, "-m", "sgp.cli"] + argv, stdout=w,
                stderr=w if shared else subprocess.PIPE, env=env)
            os.close(w)
            if read:
                assert len(os.read(r, read)) == read
                os.close(r)
            _, err = proc.communicate(timeout=60)
            assert proc.returncode == 4, (unbuffered, shared)
            assert err == (None if shared else b"error: cannot write to "
                           b"stdout: [Errno 32] Broken pipe\n"), unbuffered


def test_closed_stdout_exits_4(monkeypatch):
    out, err = io.StringIO(), io.StringIO()
    out.close()
    monkeypatch.setattr(sys, "stdout", out)
    monkeypatch.setattr(sys, "stderr", err)
    assert main(["--a", "10", "info"]) == 4
    assert err.getvalue() == ("error: cannot write to stdout: I/O operation "
                              "on closed file\n")


def test_json_output_is_deterministic(capsys):
    _, first, _ = run(capsys, "--a", "12", "--format", "json", "info")
    _, second, _ = run(capsys, "--a", "12", "--format", "json", "info")
    assert first == second
