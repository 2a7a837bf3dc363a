"""End-to-end and per-layer benchmark of `sgp`.

    python3 bench/run.py --workload W --seed N --seconds T --trace 0|1

Run from the root of a checkout: `sgp` is imported from ./src.  One client
in one process sends a seeded, fixed list of requests in a closed loop:
each request is one `sgp` command run through `sgp.cli.main(argv)` with
stdout captured, or one `length_sets_up_to` call.  The clock runs only
while a request runs; each answer is checked after the clock stops.  The
list has about T seconds of requests at the commit that defined it; a
faster program finishes sooner, and a run stops after three times the
list's nominal time on the clock (3T, or more for the 220-request minimum)
whatever is left.

Times are scaled to the speed of a quiet reference machine: before each
request the speed probes (probe.py) run off the clock, and each request
time is divided by the median slowdown probed around it, in the probe mix
of the workload (workloads.PARSE_SHARE).  The record keeps the unscaled
figures as raw_*.

--trace 0 prints the end-to-end metrics; --trace 1 runs the same list
untraced in a child process, then traced here, and prints the per-layer
metrics.  The line before the result is a run record (machine, commit,
seed, list hash, reuse share, failures); traced runs also write their
spans to bench/out/.  See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter_ns

import answers
import probe
import tracing
import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
CACHE = os.path.join(BENCH, ".cache")
OUT = os.path.join(BENCH, "out")
SETUP_LAUNCHES = 9
PROBE_WINDOW = 4
# Import time is spent much like argparse work and like engine work.
SETUP_PARSE_SHARE = 0.5
IMPORT_PROBE = ("import time; t = time.perf_counter(); import sgp, sgp.cli; "
                "t = time.perf_counter() - t; import json, probe; "
                "print(t, json.dumps(probe.slowdown(repeat=3)))")


class BenchError(Exception):
    pass


def _git_commit():
    """HEAD of the checkout, read from .git without running git."""
    try:
        with open(os.path.join(".git", "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(".git", ref)):
            with open(os.path.join(".git", ref)) as f:
                return f.read().strip()
        with open(os.path.join(".git", "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _child_env():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(["src", BENCH]))
    env.pop("SGP_THREADS", None)
    return env


def setup_seconds():
    """Median time for a fresh interpreter to import sgp and sgp.cli.

    Each launch times its own import, then the speed probes, and the
    import time is scaled to the reference speed like the request times.
    """
    cmd = [sys.executable, "-c", IMPORT_PROBE]
    subprocess.run(cmd, env=_child_env(), check=True, capture_output=True,
                   timeout=60)  # leaves the bytecode cache warm
    raw, scaled = [], []
    for _ in range(SETUP_LAUNCHES):
        out = subprocess.run(cmd, env=_child_env(), check=True,
                             capture_output=True, text=True, timeout=60).stdout
        t, slow = out.split(" ", 1)
        raw.append(float(t))
        scaled.append(float(t) / probe.mixed(json.loads(slow),
                                             SETUP_PARSE_SHARE))
    return statistics.median(scaled), statistics.median(raw)


def load_expected(args, reqs):
    """Expected answers, computed in a child process and cached per seed."""
    src = b"".join(pathlib.Path(BENCH, name).read_bytes()
                   for name in ("answers.py", "reference.py", "workloads.py"))
    key = hashlib.sha256(workloads.list_hash(reqs).encode() + src
                         ).hexdigest()[:16]
    path = os.path.join(CACHE, "expected-%s-%d-%s.json"
                        % (args.workload, args.seed, key))
    if not os.path.exists(path):
        os.makedirs(CACHE, exist_ok=True)
        tmp = path + ".tmp"
        subprocess.run([sys.executable, os.path.join(BENCH, "answers.py"),
                        "--workload", args.workload, "--seed", str(args.seed),
                        "--seconds", str(args.seconds), "--out", tmp],
                       env=_child_env(), check=True, timeout=170)
        os.replace(tmp, path)
    with open(path) as f:
        exp = json.load(f)
    if len(exp) != len(reqs):
        raise BenchError("expected-answer cache does not match the list")
    return exp


def run_pass(workload, reqs, exp, tracer=None):
    """Send the requests in order; per-request latency, outcome and trace."""
    from sgp import cli, core_semigroup as core
    gc.collect()
    # three times the list's duration at the commit that sized it
    cap_ns = 3 * len(reqs) / workloads.RATE[workload] * 10 ** 9
    raw_clock = 0
    results = []
    for req in reqs:
        if raw_clock > cap_ns:
            break
        slow = probe.mixed(probe.slowdown(), workloads.PARSE_SHARE[workload])
        before = dict(tracer.calls) if tracer else None
        if tracer:
            tracer.request = req["id"]
            book = tracer.bookkeeping_ns
        out, err = io.StringIO(), io.StringIO()
        result = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = perf_counter_ns()
            try:
                if req["kind"] == "cli":
                    code = cli.main(req["argv"])
                else:
                    result = core.length_sets_up_to(
                        core.Semigroup(req["gens"]), req["N"])
                    code = 0
            except SystemExit as exc:  # argparse rejected the argv
                code = exc.code
            except Exception as exc:  # a crash is a failed request
                code = "exception %r" % (exc,)
            t1 = perf_counter_ns()
        if tracer:  # counters are kept off the clock
            t1 -= tracer.bookkeeping_ns - book
        raw_clock += t1 - t0
        stdout = out.getvalue()
        try:
            reason = answers.check(req, code, result if req["kind"] == "lib"
                                   else stdout, exp[req["id"]])
        except Exception as exc:  # unparsable output is a wrong answer
            reason = "unreadable output: %r" % (exc,)
        row = {"req": req, "raw_ns": t1 - t0, "slow": slow, "fail": reason,
               "out_bytes": len(stdout.encode()),
               "fallback": "fallback=" in err.getvalue()}
        if tracer:
            row["calls"] = {k: v - before.get(k, 0)
                            for k, v in tracer.calls.items()
                            if v != before.get(k, 0)}
        results.append(row)
    # Scale each time to the quiet machine by the median slowdown probed
    # around it; one probe alone jitters.
    slows = [r["slow"] for r in results]
    for i, r in enumerate(results):
        near = sorted(slows[max(0, i - PROBE_WINDOW):i + PROBE_WINDOW + 1])
        r["ns"] = r["raw_ns"] / near[len(near) // 2]
    return results


def _rank(sorted_values, q):
    """Nearest-rank quantile: at least (1 - q) of the values lie at or above."""
    k = max(0, -(-len(sorted_values) * q // 1) - 1)
    return sorted_values[int(k)]


def summarize(workload, results):
    on_clock = sum(r["ns"] for r in results)
    ms = sorted(r["ns"] / 1e6 for r in results)
    failed = sum(1 for r in results if r["fail"])
    scale = {name: [] for name in workloads.scale_metric_names()}
    for r in results:
        for name in workloads.bucket_of(workload, r["req"]):
            scale[name].append(r["ns"] / 1e6)
    raw = sorted(r["raw_ns"] / 1e6 for r in results)
    return {
        "raw_throughput_rps": len(raw) / sum(raw) * 1e3,
        "raw_latency_p50_ms": statistics.median(raw),
        "raw_latency_p95_ms": _rank(raw, 0.95),
        "slowdown_median": statistics.median(r["slow"] for r in results),
        "attempted": len(results), "failed": failed,
        "error_rate": failed / len(results),
        "on_clock_s": on_clock / 1e9,
        "request_ns": [r["ns"] for r in results],
        "throughput_rps": len(results) / (on_clock / 1e9),
        "latency_p50_ms": statistics.median(ms),
        "latency_p95_ms": _rank(ms, 0.95),
        "samples_above_p95": sum(1 for v in ms if v > _rank(ms, 0.95)),
        "scale": {k: statistics.median(v) if v else 0.0
                  for k, v in scale.items()},
        "failures": [(r["req"]["id"], r["req"].get("argv"), r["fail"])
                     for r in results if r["fail"]][:5],
    }


def per_layer(tracer, results, untraced, summary):
    """Every per-layer metric, from a traced pass and its untraced twin."""
    calls, self_ns, counts = tracer.calls, tracer.self_ns, tracer.counts
    m = {}

    def timed(name):
        m[name + ".calls"] = calls[name]
        m[name + ".self_ms"] = self_ns[name] / 1e6

    core = "core_semigroup."
    timed(core + "Semigroup")
    m[core + "Semigroup.peak_alloc_kb"] = tracer.peak_alloc / 1024
    timed(core + "betti_elements")
    scanned = counts[core + "betti_elements.scanned"]
    m[core + "betti_elements.scanned"] = scanned
    m[core + "betti_elements.hit_ratio"] = \
        counts[core + "betti_elements.hits"] / scanned if scanned else 0.0
    timed(core + "factorizations")
    m[core + "factorizations.vectors"] = counts[core + "factorizations.vectors"]
    timed(core + "length_sets_up_to")
    for c in ("cells", "entries"):
        m[core + "length_sets_up_to." + c] = \
            counts[core + "length_sets_up_to." + c]
    for fn in ("apery", "apery_multi", "ulf"):
        timed(core + fn)
    m[core + "Semigroup.contains.calls"] = tracer.contains_calls
    for fn in ("member_triple", "ulf_membership_triple", "ubetti_triple",
               "seed", "factorizations_triple", "ulf_triple",
               "presentation_triple"):
        timed("consecutive_triple." + fn)
    for fn in ("betti_arith", "ubetti_arith", "presentation_arith"):
        timed("arithmetic_sequence." + fn)
    for fn in ("partition_table", "table_to_text", "table_to_csv",
               "table_to_json"):
        timed("render." + fn)
    m["cli.main.self_ms"] = self_ns["cli.main"] / 1e6
    cli_rows = [r for r in results if r["req"]["kind"] == "cli"]
    closed = 0
    for r in cli_rows:
        mods = {name.split(".")[0] for name in r["calls"]}
        enum = any(name.split(".")[1] in tracing.ENUMERATING
                   for name in r["calls"] if name.startswith(core))
        closed += bool(mods & {"consecutive_triple", "arithmetic_sequence",
                               "render"}) and not enum
    n_cli = max(1, len(cli_rows))
    m["cli.closed_form_share"] = closed / n_cli
    m["cli.fallback_share"] = sum(r["fallback"] for r in cli_rows) / n_cli
    m["cli.output_kb"] = sum(r["out_bytes"] for r in cli_rows) / n_cli / 1024
    raw_total = sum(r["raw_ns"] for r in results)
    for mod in tracing.MODULES:
        m[mod + ".self_share"] = sum(
            v for k, v in self_ns.items() if k.startswith(mod + ".")
        ) / raw_total
    # Compare the same requests: either pass may stop early at its cap.
    k = min(len(results), len(untraced["request_ns"]))
    m["trace.overhead_ratio"] = (sum(r["ns"] for r in results[:k])
                                 / sum(untraced["request_ns"][:k]))
    m["error_rate"] = summary["error_rate"]
    m["workload.reuse_share"] = untraced["reuse_share"]
    m.update(untraced["scale"])
    return m


UNITS = {"calls": "count", "self_ms": "ms", "peak_alloc_kb": "KiB",
         "scanned": "count", "hit_ratio": "ratio", "vectors": "count",
         "cells": "count", "entries": "count", "self_share": "ratio",
         "closed_form_share": "ratio", "fallback_share": "ratio",
         "output_kb": "KiB", "overhead_ratio": "ratio", "p50_ms": "ms",
         "error_rate": "ratio", "reuse_share": "ratio"}


def unit_of(name):
    return UNITS[name.rsplit(".", 1)[-1]]


def machine_record(args, sgp_threads):
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(), "git_commit": _git_commit(),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "sgp_threads_unset": "SGP_THREADS" not in os.environ,
            "sgp_threads_given": sgp_threads}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "sgp", "__init__.py")):
        raise BenchError("run from the root of an sgp checkout: "
                         "src/sgp not found")
    # The verify sweep threads on SGP_THREADS; the workloads are one client.
    sgp_threads = os.environ.pop("SGP_THREADS", None)
    reqs = workloads.build(args.workload, args.seed, args.seconds)
    exp = load_expected(args, reqs)
    sys.path.insert(0, os.path.abspath("src"))
    import sgp
    import sgp.cli  # noqa: F401  (what every invocation imports)
    if not os.path.abspath(sgp.__file__).startswith(os.path.abspath("src")):
        raise BenchError("imported sgp from %s, not ./src" % sgp.__file__)
    record = machine_record(args, sgp_threads)
    record.update(list_hash=workloads.list_hash(reqs), requests=len(reqs),
                  reuse_share=workloads.reuse_share(reqs))
    answers.run_cli(["--gens", "3,5", "betti"])  # first-call warm-up

    if args.trace == 0:
        setup, raw_setup = setup_seconds()
        results = run_pass(args.workload, reqs, exp)
        summary = summarize(args.workload, results)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {"throughput_rps": summary["throughput_rps"],
                   "latency_p50_ms": summary["latency_p50_ms"],
                   "latency_p95_ms": summary["latency_p95_ms"],
                   "setup_s": setup, "peak_rss_mb": peak_rss_mb}
        units = {"throughput_rps": "1/s", "latency_p50_ms": "ms",
                 "latency_p95_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}
        record.update(summary, setup_s=setup, raw_setup_s=raw_setup,
                      peak_rss_mb=peak_rss_mb)
    else:
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            env=_child_env(), capture_output=True, text=True, timeout=120)
        if child.returncode != 0:
            sys.stderr.write(child.stderr)
            raise BenchError("the untraced pass failed")
        untraced = json.loads(child.stdout.splitlines()[-2])["record"]
        tracer = tracing.Tracer()
        tracer.install(sgp)
        try:
            results = run_pass(args.workload, reqs, exp, tracer)
        finally:
            tracer.uninstall()
        summary = summarize(args.workload, results)
        metrics = per_layer(tracer, results, untraced, summary)
        units = {k: unit_of(k) for k in metrics}
        os.makedirs(OUT, exist_ok=True)
        tracer.write(os.path.join(OUT, "spans-%s-%d.jsonl.gz"
                                  % (args.workload, args.seed)))
        record.update(summary, spans=len(tracer.span_id),
                      bookkeeping_s=tracer.bookkeeping_ns / 1e9)
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"], "failed": summary["failed"],
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print("bench: %s" % exc, file=sys.stderr)
        sys.exit(2)
