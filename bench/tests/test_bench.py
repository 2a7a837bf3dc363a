"""Tests of the benchmark itself: run with `python3 -m pytest bench/tests`.

The end-to-end tests run bench/run.py on one-second lists, which still
hold 220 requests each, so the module takes a minute or two.
"""

import json
import os
import random
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "bench"), os.path.join(ROOT, "src")]

import answers  # noqa: E402
import reference as ref  # noqa: E402
import workloads  # noqa: E402
from sgp import consecutive_triple as ct  # noqa: E402
from sgp import core_semigroup as core  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def bench(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    *_, record, result = proc.stdout.splitlines()
    return json.loads(record)["record"], json.loads(result)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_list(workload):
    one = workloads.build(workload, 7, 10)
    assert one == workloads.build(workload, 7, 10)
    assert workloads.list_hash(one) != workloads.list_hash(
        workloads.build(workload, 8, 10))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_no_request_repeats(workload):
    reqs = workloads.build(workload, 3, 10)
    keys = [tuple(r["argv"]) if r["kind"] == "cli"
            else (tuple(r["gens"]), r["N"]) for r in reqs]
    assert len(set(keys)) == len(keys)


def test_workload_names_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_error_rate_zero_and_keys_stable(workload):
    names = [m["name"] for m in SPEC["end_to_end"]]
    record1, result1 = bench(workload, 1, 0)
    record2, result2 = bench(workload, 2, 0)
    assert result1["failed"] == 0 and result2["failed"] == 0, (
        record1["failures"], record2["failures"])
    assert result1["correct"] and record1["error_rate"] == 0
    assert list(result1["metrics"]) == list(result2["metrics"]) == names
    assert record1["samples_above_p95"] >= 10
    assert record1["sgp_threads_unset"]


def test_traced_run_reports_every_layer_metric():
    _, result = bench("closed_form_cli", 1, 1)
    names = [m["name"] for m in SPEC["per_layer"]]
    assert list(result["metrics"]) == names
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0.5


def test_generic_reference_matches_engine():
    rng = random.Random(0)
    for _ in range(60):
        gens = sorted(rng.sample(range(3, 30), rng.randint(2, 4)))
        try:
            S = core.Semigroup(gens)
        except ValueError:
            continue
        T = ref.RefSemigroup(gens)
        cls = core.betti_elements(S)
        assert T.frobenius == S.frobenius
        assert T.gens == list(S.minimal_generators)
        assert T.betti() == (list(cls.betti), list(cls.balanced),
                             list(cls.unbalanced))
        assert T.ulf() == core.ulf(S)
        r = rng.randint(0, 100)
        assert T.factorizations(r) == [list(f)
                                       for f in core.factorizations(S, r)]


def test_triple_reference_matches_closed_forms():
    for a in range(3, 45):
        cls = ct.ubetti_triple(a)
        assert ref.triple_betti(a) == (list(cls.betti), list(cls.balanced),
                                       list(cls.unbalanced))
        assert ref.triple_ulf(a) == [u.r for u in ct.ulf_triple(a)]
        assert ref.triple_threshold(a) == ct.TripleSemigroup(a).ulf_bound
    for a in (997, 10 ** 5):
        cls = ct.ubetti_triple(a)
        assert ref.triple_betti(a)[0] == list(cls.betti)


@pytest.mark.parametrize("argv", [["verify", "--a-min", "9", "--a-max", "10"],
                                  ["verify", "--a-min", "12", "--a-max", "12",
                                   "--arith"],
                                  ["verify", "--a-min", "5", "--a-max", "5",
                                   "--random", "2", "--seed", "4"]])
def test_verify_check_count(argv):
    req = {"kind": "cli", "cmd": "verify", "argv": argv}
    code, out, _ = answers.run_cli(argv)
    assert answers.check(req, code, out, answers.expected(req, {})) is None


def test_checks_reject_wrong_answers():
    req = {"kind": "cli", "cmd": "factorize", "id": 0,
           "argv": ["--gens", "6,9,20", "--format", "json", "factorize", "49"]}
    exp = answers.expected(req, {})
    code, out, _ = answers.run_cli(req["argv"])
    assert answers.check(req, code, out, exp) is None
    doc = json.loads(out)
    doc["factorizations"].pop()
    assert answers.check(req, code, json.dumps(doc), exp)
    assert answers.check(req, 3, "", exp)

    pres = {"kind": "cli", "cmd": "presentation", "id": 1,
            "argv": ["--a", "11", "--format", "json", "presentation"]}
    exp = answers.expected(pres, {})
    code, out, _ = answers.run_cli(pres["argv"])
    assert answers.check(pres, code, out, exp) is None
    doc = json.loads(out)
    assert answers.check(pres, code, json.dumps(
        {"relations": doc["relations"][:-1]}), exp)
    assert answers.check(pres, code, json.dumps(
        {"relations": doc["relations"] + doc["relations"][:1]}), exp)

    lib = {"kind": "lib", "cmd": "length_sets_up_to", "id": 2,
           "gens": [11, 13, 17], "N": 400}
    exp = answers.expected(lib, {})
    table = core.length_sets_up_to(core.Semigroup(lib["gens"]), 400)
    assert answers.check(lib, 0, table, exp) is None
    table[300] = table[300] | {1}
    assert answers.check(lib, 0, table, exp)
