"""Seeded request lists for the three workloads, and their answer formats.

A request is a dict.  `kind` is "cli" (argv for `sgp.cli.main`) or "lib"
(a call of `length_sets_up_to`); `size` holds the size parameters the
scaling rows bucket on; `sg` names the semigroup, so that reuse of an
earlier semigroup can be counted.  Sizes are drawn by stratified
sampling (one draw per equal slice of the range, then shuffled), so two
seeds give different inputs with the same spread of sizes.

Sizes stay below the limits where single requests explode: the enumerating
Betti scan on two generators near 100, `--a` above a few hundred for the
O(a^2) commands (info, ulf, table, presentation), and verify chunks
above a = 50, which grow about as a^3.5.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from math import gcd

import reference as ref

WORKLOADS = ("engine_cli", "closed_form_cli", "verify_sweep")

# Requests per second of --seconds, from the mean request cost measured on a
# 2-core x86-64 VM; the list length is fixed by seed and seconds alone.
RATE = {"engine_cli": 120, "closed_form_cli": 550, "verify_sweep": 50}
# How much a request's slowdown under contention follows probe.parse
# rather than probe.compute: engine enumeration slows like compute, CLI
# requests answered in O(1) like argparse, verify sweeps in between.
PARSE_SHARE = {"engine_cli": 0.0, "closed_form_cli": 1.0, "verify_sweep": 0.5}
# With 220 requests the 95th percentile has at least ten samples above it.
MIN_REQUESTS = 220

# Scaling rows: (size parameter, [(lo, hi), ...]) per workload.
BUCKETS = {
    "engine_cli": [("n1", [(8, 20), (21, 50), (51, 100)]),
                   ("e", [(2, 3), (4, 5)])],
    "closed_form_cli": [("a", [(3, 99), (100, 9999), (10000, 1000000)])],
    "verify_sweep": [("a", [(4, 20), (21, 46)]), ("N", [(1000, 20000)])],
}


def request_count(workload, seconds):
    return max(MIN_REQUESTS, round(RATE[workload] * seconds))


def _strata(rng, n, lo, hi, log=False):
    """n integers in [lo, hi], one from each of n equal slices, shuffled."""
    f = math.log if log else float
    g = math.exp if log else float
    a, b = f(lo), f(hi + 1)
    out = [min(hi, int(g(a + (b - a) * (i + rng.random()) / n)))
           for i in range(n)]
    rng.shuffle(out)
    return out


# Microseconds per step of the Betti scan's recursive enumeration, by
# embedding dimension, fitted on the same VM as RATE.
_STEP_US = {2: 0.15, 3: 0.22, 4: 0.35, 5: 0.85}


def _betti_cost_ms(T):
    """Estimated time of the enumerating Betti scan on T.

    The scan enumerates the factorizations of every r up to
    frobenius + n1 + ne, about r^(e-1) / ((e-1)! n1 ... n_{e-1}) steps each.
    """
    g = T.gens
    top = T.frobenius + g[0] + g[-1]
    steps = top ** len(g) / (math.factorial(len(g)) * math.prod(g[:-1]))
    return steps * _STEP_US[len(g)] / 1000


def _generic_gens(rng, n1, e, max_ms):
    """Minimal generators with gcd 1, no consecutive triple or arithmetic
    sequence for e >= 3, and a Betti scan of at most max_ms; None if none
    is found."""
    for _ in range(60):
        gens = [n1] + sorted(rng.sample(range(n1 + 1, 2 * n1), e - 1))
        if math.gcd(*gens) != 1:
            continue
        if e >= 3 and len({b - a for a, b in zip(gens, gens[1:])}) == 1:
            continue
        T = ref.RefSemigroup(gens)
        if len(T.gens) == e and _betti_cost_ms(T) <= max_ms:
            return gens, T
    return None


def _engine(rng, n):
    out = []
    sessions = -(-n // 4)
    n1s = _strata(rng, sessions, 8, 100, log=True)
    used = set()
    for s, n1 in enumerate(n1s):
        found = None
        while found is None:
            # prefer e cycling 2..5; two generators near 100 scan too long
            for e in (2 + (s + k) % 4 for k in range(4)):
                found = _generic_gens(rng, n1, e, 30)
                if found is not None and tuple(found[0]) not in used:
                    break
                found = None
            else:
                n1 = max(8, n1 * 9 // 10)
        gens, T = found
        used.add(tuple(gens))
        e = len(gens)
        sg = ",".join(map(str, gens))
        members = [x for x in range(n1, 3 * n1) if x in T]
        gaps = [x for x in range(1, T.frobenius + 1) if x not in T]
        cands = [["info"], ["betti"], ["ulf"],
                 ["apery"] + [str(x) for x in sorted(
                     rng.sample(members, rng.randint(1, 3)))],
                 ["factorize", str(rng.choice(
                     [x for x in range(n1, 6 * n1) if x in T]))],
                 ["factorize", str(rng.choice(gaps))]]
        for cmd in rng.sample(cands, 4):
            out.append({"kind": "cli", "cmd": cmd[0], "sg": sg,
                        "argv": ["--gens", sg, "--format", "json"] + cmd,
                        "size": {"n1": n1, "e": e}})
    rng.shuffle(out)  # sessions interleave, but each keeps its semigroup
    return out[:n]


def _unique_length_member(rng, a):
    while True:
        ell = rng.randint(1, max(1, min(40, (a - 1) // 2)))
        r = ell * a + rng.randint(0, min(2 * ell, a - 1))
        if len(ref.triple_lengths(a, r)) == 1:
            return r


def _closed_form(rng, n):
    mix = [("factorize", 50), ("fallback", 4), ("nonmember", 10),
           ("betti", 15), ("presentation", 5), ("presentation_arith", 5),
           ("info", 4), ("ulf", 4), ("table", 3)]
    size = {"factorize": (3, 10 ** 6), "nonmember": (3, 10 ** 6),
            "betti": (3, 10 ** 5), "fallback": (3, 40),
            "presentation": (3, 300), "presentation_arith": (3, 100),
            "info": (3, 300), "ulf": (3, 300), "table": (3, 150)}
    counts = {k: n * w // 100 for k, w in mix}
    counts["factorize"] += n - sum(counts.values())
    out, seen = [], set()
    for kind, count in counts.items():
        lo, hi = size[kind]
        for a in _strata(rng, count, lo, hi, log=True):
            for tries in range(4 * (hi - lo + 1)):
                req = _closed_form_request(rng, kind, a)
                key = tuple(req["argv"])
                if key not in seen:
                    break
                a = a + 1 if a < hi else lo  # the nearest unused size
            else:  # every size of this kind is used: a long list
                while key in seen:
                    a = _strata(rng, 1, 3, 10 ** 6, log=True)[0]
                    req = _closed_form_request(rng, "factorize", a)
                    key = tuple(req["argv"])
            seen.add(key)
            out.append(req)
    rng.shuffle(out)
    return out


def _closed_form_request(rng, kind, a):
    fmt = "json"
    if kind == "factorize":
        cmd = ["factorize", str(_unique_length_member(rng, a))]
        fmt = rng.choice(["json", "text"])
    elif kind == "fallback":
        t = ref.triple_threshold(a)
        r = rng.choice([r for r in range(t, t + 3 * a + 1)
                        if len(ref.triple_lengths(a, r)) > 1])
        cmd = ["factorize", str(r)]
    elif kind == "nonmember":
        a = max(a, 5)
        ell = rng.randint(0, (a - 3) // 2)
        cmd = ["factorize", str(ell * a + rng.randint(2 * ell + 1, a - 1))]
    elif kind == "table":
        cmd = ["table"]
        fmt = rng.choice(["json", "csv", "text"])
    elif kind == "presentation_arith":
        while True:
            d, k = rng.randint(1, 4), rng.randint(2, 6)
            if gcd(a, d) == 1 and k <= a - 1 and (d, k) != (1, 2):
                break
            a = rng.randint(5, 100)
        gens = ",".join(str(a + i * d) for i in range(k + 1))
        return {"kind": "cli", "cmd": "presentation", "sg": gens,
                "argv": ["--gens", gens, "--format", "json", "presentation"],
                "size": {"a": a}}
    else:
        cmd = [kind]
    return {"kind": "cli", "cmd": cmd[0], "sg": "a=%d" % a,
            "argv": ["--a", str(a), "--format", fmt] + cmd, "size": {"a": a}}


def _verify(rng, n):
    n_lib = max(1, n * 3 // 100)  # all above the 95th percentile
    out, seen = [], set()
    # in size order, so that every size gets each width and flag alike
    for i, a in enumerate(sorted(_strata(rng, n - n_lib, 4, 45))):
        width = 1 + i // 3 % 2
        flags = ("plain", "arith", "random")[i % 3]
        if flags == "arith" and a + width - 1 > 30:
            flags = "plain"
        while True:
            argv = ["verify", "--a-min", str(a),
                    "--a-max", str(a + width - 1)]
            if flags == "arith":
                argv.append("--arith")
            elif flags == "random":
                argv += ["--random", str(rng.randint(1, 3)),
                         "--seed", str(rng.randrange(10 ** 6))]
            if tuple(argv) not in seen:
                break
            flags = "random"
        seen.add(tuple(argv))
        out.append({"kind": "cli", "cmd": "verify", "argv": argv,
                    "sg": "a=%d..%d" % (a, a + width - 1),
                    "size": {"a": a + width - 1}})
    sizes = _strata(rng, n_lib, 1000, 20000, log=True)
    top = sizes.index(max(sizes))
    for i, N in enumerate(sizes):
        # n1 and ne pinned: the length sets span about r/n1 - r/ne lengths,
        # and a set of more than about 150 doubles its table.  The largest
        # call, which sets the memory peak, is the same on every seed.
        n1, e = 42, rng.randint(3, 4)
        gens = [n1] + sorted(rng.sample(range(n1 + 1, 2 * n1 - 1), e - 2)) \
            + [2 * n1 - 1]
        if i == top:
            N, gens = 20000, [42, 55, 71, 83]
        sg = ",".join(map(str, gens))
        out.append({"kind": "lib", "cmd": "length_sets_up_to", "sg": sg,
                    "gens": gens, "N": N, "size": {"N": N}})
    rng.shuffle(out)
    return out


def build(workload, seed, seconds):
    """The request list; the same (workload, seed, seconds) gives the same list."""
    rng = random.Random("%s/%d" % (workload, seed))
    n = request_count(workload, seconds)
    gen = {"engine_cli": _engine, "closed_form_cli": _closed_form,
           "verify_sweep": _verify}[workload]
    reqs = gen(rng, n)
    for i, req in enumerate(reqs):
        req["id"] = i
    return reqs


def list_hash(reqs):
    return hashlib.sha256(json.dumps(reqs, sort_keys=True).encode()).hexdigest()


def reuse_share(reqs):
    """Share of requests whose semigroup an earlier request already used."""
    seen, reused = set(), 0
    for req in reqs:
        reused += req["sg"] in seen
        seen.add(req["sg"])
    return reused / len(reqs)


def bucket_of(workload, req):
    """Scaling-row names this request falls in."""
    names = []
    for param, ranges in BUCKETS[workload]:
        v = req["size"].get(param)
        for lo, hi in ranges:
            if v is not None and lo <= v <= hi:
                names.append("scale.%s.%s_%d-%d.p50_ms"
                             % (workload, param, lo, hi))
    return names


def scale_metric_names():
    return ["scale.%s.%s_%d-%d.p50_ms" % (w, param, lo, hi)
            for w in WORKLOADS for param, ranges in BUCKETS[w]
            for lo, hi in ranges]
