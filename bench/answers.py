"""Expected answers, and the checks that compare `sgp` output with them.

Expected answers are computed before timing, in a child process, so that
neither their time nor their memory counts against the workload:

    python3 bench/answers.py --workload W --seed S --seconds T --out FILE

Closed-form requests with a <= ORACLE_MAX_A are compared with the answer
of the same command under `--oracle`; everything else with the
brute-force code in reference.py.  An answer is stored as a digest of its
canonical form, so the workload process holds only a few bytes per
request.  Presentations have no unique answer and are checked for being
minimal presentations instead; `verify` is checked for its PASS line and
check count; `length_sets_up_to` by size, least and largest length of
every entry and by the full set of a seeded sample of entries.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import random
import sys

import reference as ref
import workloads

# Above this a, `--oracle` on info/ulf/betti takes seconds per request.
ORACLE_MAX_A = 40
LENGTH_SAMPLE = 256


def digest(obj):
    return hashlib.sha1(json.dumps(obj, sort_keys=True,
                                   separators=(",", ":")).encode()).hexdigest()


def _table_rows(fmt, out):
    if fmt == "json":
        return sorted([c["ell"], c["d"], t["r"], t["iota"], t["c"], t["class"]]
                      for c in json.loads(out) for t in c["triples"])
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(out)))
        return sorted([int(x) for x in row[:5]] + [row[5]]
                      for row in rows[1:])
    # text grid: a header of "d=k" columns, then "ell=l" blocks of
    # "r iota c" lines; the class is not printed.
    lines = out.splitlines()
    ds = [int(h.strip()[2:]) for h in lines[0].split("|")[1:]]
    rows, ell = [], None
    for line in lines[1:]:
        parts = [part.strip() for part in line.split("|")]
        if parts[0]:
            ell = int(parts[0][4:])
        for d, cell in zip(ds, parts[1:]):
            if cell:
                r, iota, c = map(int, cell.split())
                rows.append([ell, d, r, iota, c, ref.cell_class(iota, c)])
    return sorted(rows)


def canon(req, out):
    """The part of a command's stdout that the check compares."""
    argv = req["argv"]
    fmt = argv[argv.index("--format") + 1]
    cmd = req["cmd"]
    if cmd == "table":
        return _table_rows(fmt, out)
    if fmt == "text":  # factorize
        return sorted([int(x) for x in line.split()]
                      for line in out.splitlines())
    obj = json.loads(out)
    if cmd == "info":
        return {k: obj[k] for k in ("generators", "minimal_generators",
                                    "frobenius", "betti", "balanced",
                                    "unbalanced", "ulf_size")}
    if cmd == "betti":
        return {k: obj[k] for k in ("betti", "balanced", "unbalanced")}
    if cmd == "ulf":
        if obj["count"] != len(obj["ulf"]):
            raise ValueError("count disagrees with the list")
        return obj["ulf"]
    if cmd == "apery":
        return obj["apery"]
    if cmd == "factorize":
        return sorted(obj["factorizations"])
    raise ValueError("no canonical form for %r" % cmd)


def length_fingerprint(table):
    return [(len(s), min(s), max(s)) if s is not None else None
            for s in table]  # lists, as the JSON round trip gives


def _sample_rows(req):
    rng = random.Random(req["id"])
    return sorted(rng.sample(range(req["N"] + 1), LENGTH_SAMPLE))


def check(req, code, out, exp):
    """None when the answer is right, else a one-line reason."""
    if code != exp["exit"]:
        return "exit %r, expected %r" % (code, exp["exit"])
    if req["kind"] == "lib":
        if digest(length_fingerprint(out)) != exp["digest"]:
            return "length-set sizes or ends differ"
        for r, mask in zip(_sample_rows(req), exp["sample"]):
            got = out[r]
            if (got is None and mask != 0) or (
                    got is not None and sum(1 << l for l in got) != mask):
                return "length set of %d differs" % r
        return None
    if exp["exit"] != 0:
        return "unexpected output" if out else None
    if "first_line" in exp:
        first = out.splitlines()[:1]
        return None if first == [exp["first_line"]] else "got %r" % first
    if "presentation" in exp:
        return check_presentation(json.loads(out)["relations"],
                                  exp["presentation"])
    return None if digest(canon(req, out)) == exp["digest"] \
        else "answer differs"


def check_presentation(relations, exp):
    """Whether the relations form a minimal presentation.

    Each relation equates two factorizations of a Betti element b lying in
    different classes of factorizations of b; the relations at b join all
    k_b classes with exactly k_b - 1 edges.
    """
    gens, classes = exp["gens"], {int(b): c for b, c in exp["classes"].items()}
    joined = {b: list(range(len(c))) for b, c in classes.items()}

    def cls(b, vec):
        support = {i for i, x in enumerate(vec) if x}
        owners = [k for k, comp in enumerate(classes[b])
                  if support & set(comp)]
        if len(owners) != 1 or not support <= set(classes[b][owners[0]]):
            raise ValueError
        return owners[0]

    def find(b, k):
        while joined[b][k] != k:
            k = joined[b][k]
        return k

    for x, y in relations:
        b = sum(c * g for c, g in zip(x, gens))
        if b != sum(c * g for c, g in zip(y, gens)) or b not in classes:
            return "relation %r = %r is not at a Betti element" % (x, y)
        try:
            kx, ky = find(b, cls(b, x)), find(b, cls(b, y))
        except ValueError:
            return "relation %r = %r has a mixed support" % (x, y)
        if kx == ky:
            return "relation %r = %r is redundant" % (x, y)
        joined[b][kx] = ky
    for b in classes:
        if len({find(b, k) for k in joined[b]}) != 1:
            return "Betti element %d left disconnected" % b
    return None


def run_cli(argv):
    """(exit code, stdout, stderr) of one in-process `sgp` command."""
    from sgp import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _a_of(req):
    argv = req["argv"]
    return int(argv[argv.index("--a") + 1]) if "--a" in argv else None


def expected(req, refs):
    """The expected answer of one request (see the module docstring)."""
    if req["kind"] == "lib":
        T = ref.RefSemigroup(req["gens"])
        masks = T.masks(req["N"])[:req["N"] + 1]
        fingerprint = [(m.bit_count(), (m & -m).bit_length() - 1,
                        m.bit_length() - 1) if m else None for m in masks]
        return {"exit": 0, "digest": digest(fingerprint),
                "sample": [masks[r] for r in _sample_rows(req)]}
    cmd, argv = req["cmd"], req["argv"]
    if cmd == "verify":
        lo, hi = int(argv[2]), int(argv[4])
        k = int(argv[argv.index("--random") + 1]) if "--random" in argv else 0
        n = sum(ref.verify_checks(a, "--arith" in argv)
                for a in range(lo, hi + 1)) + 2 * k
        return {"exit": 0, "first_line": "PASS (%d checks)" % n}
    a = _a_of(req)
    if a is None:
        gens = [int(g) for g in argv[1].split(",")]
        T = refs.get(argv[1])
        if T is None:  # sessions share their semigroup
            T = refs[argv[1]] = ref.RefSemigroup(gens)
        if cmd == "presentation":
            betti = T.betti()[0]
            return {"exit": 0, "presentation": {
                "gens": T.gens, "classes": {b: T.classes(b) for b in betti}}}
        return _generic_answer(T, sorted(set(gens)), cmd, argv)
    if a <= ORACLE_MAX_A and cmd in ("info", "betti", "ulf", "factorize"):
        code, out, _ = run_cli(["--oracle"] + argv)
        return {"exit": code,
                "digest": digest(canon(req, out)) if code == 0 else None}
    return _triple_answer(a, cmd, argv)


def _generic_answer(T, gens, cmd, argv):
    if cmd == "factorize":
        r = int(argv[-1])
        if r not in T:
            return {"exit": 3, "digest": None}
        ans = T.factorizations(r)
    elif cmd == "apery":
        ans = T.apery(sorted({int(x) for x in argv[argv.index("apery") + 1:]}))
    elif cmd == "ulf":
        ans = T.ulf()
    else:
        betti, balanced, unbalanced = T.betti()
        ans = {"betti": betti, "balanced": balanced, "unbalanced": unbalanced}
        if cmd == "info":
            ans.update(generators=gens, minimal_generators=T.gens,
                       frobenius=T.frobenius, ulf_size=len(T.ulf()))
    return {"exit": 0, "digest": digest(ans)}


def _triple_answer(a, cmd, argv):
    if cmd == "factorize":
        facs = ref.triple_factorizations(a, int(argv[-1]))
        if not facs:
            return {"exit": 3, "digest": None}
        return {"exit": 0, "digest": digest(facs)}
    if cmd == "presentation":
        return {"exit": 0, "presentation": {
            "gens": [a, a + 1, a + 2],
            "classes": {b: ref.triple_classes(a, b)
                        for b in ref.triple_betti(a)[0]}}}
    if cmd == "table":
        return {"exit": 0, "digest": digest(ref.triple_table(a))}
    if cmd == "ulf":
        return {"exit": 0, "digest": digest(ref.triple_ulf(a))}
    betti, balanced, unbalanced = ref.triple_betti(a)
    ans = {"betti": betti, "balanced": balanced, "unbalanced": unbalanced}
    if cmd == "info":
        ans.update(generators=[a, a + 1, a + 2],
                   minimal_generators=[a, a + 1, a + 2],
                   frobenius=ref.triple_frobenius(a),
                   ulf_size=len(ref.triple_ulf(a)))
    return {"exit": 0, "digest": digest(ans)}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    reqs = workloads.build(args.workload, args.seed, args.seconds)
    refs = {}
    answers = [expected(req, refs) for req in reqs]
    with open(args.out, "w") as f:
        json.dump(answers, f)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, "src")
    sys.exit(main())
