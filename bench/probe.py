"""Machine-speed probes: fixed pieces of pure-Python work, timed.

Other tenants on the same cores slow this VM by up to half for seconds at
a time, and not every kind of code slows alike.  At a 2x slowdown of
`compute` (calls, tuples, list slices, dict stores), engine enumeration
slowed 2x as well, while argparse-heavy CLI requests slowed 1.5x, like
`parse` (building and running an argparse parser).  The workload process
runs both probes next to each request, and the set-up children after
their import, so that measured times can be scaled back to the speed of
the quiet reference machine by the probe mix that matches the workload.
"""

import argparse
from time import perf_counter_ns

# Probe times on the quiet reference machine (2-core x86-64 VM,
# Python 3.11); reported times are scaled to that speed.
REF_NS = {"compute": 105_000, "parse": 420_000}


def _step(i, acc):
    return (i, acc + [i]) if i % 3 else (i, acc)


def _compute():
    seen, acc = {}, []
    for i in range(400):
        k, acc = _step(i, acc[-4:])
        seen[k % 17] = len(acc)
    return seen


def _parse():
    p = argparse.ArgumentParser(prog="probe")
    p.add_argument("--gens")
    p.add_argument("--a", type=int)
    sub = p.add_subparsers(dest="command")
    for name in ("info", "betti", "factorize", "verify"):
        sub.add_parser(name).add_argument("r", type=int, nargs="?")
    return p.parse_args(["--a", "5", "factorize", "7"])


def slowdown(repeat=1):
    """{probe: its best time of `repeat` now over its quiet time}.

    The first run in a process is slow (argparse compiles its regexes), so
    a fresh interpreter needs repeat > 1.
    """
    out = {}
    for name, work in (("compute", _compute), ("parse", _parse)):
        best = None
        for _ in range(repeat):
            t0 = perf_counter_ns()
            work()
            t = perf_counter_ns() - t0
            best = t if best is None or t < best else best
        out[name] = best / REF_NS[name]
    return out


def mixed(slow, parse_share):
    """The slowdown of code that is parse_share like `parse`, the rest
    like `compute` (a weighted geometric mean)."""
    return slow["compute"] ** (1 - parse_share) * slow["parse"] ** parse_share
