"""Spans and counters around the public functions of `sgp`, from outside.

`install` replaces every public function of the five modules (only `main`
of `sgp.cli`) in every `sgp` namespace that holds it with a wrapper that
records a span: name, start, end, parent span and request id.  Spans stay
in memory in flat arrays and are written out at the end.  A span's self
time is its duration minus its child spans; bookkeeping done after a call
(the counters below) is charged to no span.

Counters: a `Semigroup` construction whose n1 * ne (the order of its
member table) exceeds every one before it is repeated off the clock under
tracemalloc, for the peak allocation; tracing allocations inside the span
would inflate its time several-fold.  `Semigroup.__contains__` calls are
counted; `betti_elements` records the members in its scan range and the
Betti elements found; `factorizations` the vectors returned;
`length_sets_up_to` its DP cells and the length-set entries filled.  Only
the first MAX_SPANS spans are kept for the span file; the counters and
self times cover every call.
"""

from __future__ import annotations

import gzip
import inspect
import json
import tracemalloc
from array import array
from collections import Counter
from time import perf_counter_ns

MODULES = ("core_semigroup", "consecutive_triple", "arithmetic_sequence",
           "render", "cli")
MAX_SPANS = 200_000
# Engine calls that mean a request was answered by enumeration.
ENUMERATING = ("factorizations", "betti_elements", "apery", "apery_multi",
               "ulf", "length_sets_up_to")


def _semigroup_after(tr, result, S, generators):
    size = S.generators[0] * S.generators[-1]  # the member table's order
    if size <= tr.alloc_size:
        return
    tr.alloc_size = size
    calls = tr.contains_calls
    tracemalloc.start()
    try:
        tr.orig_init(object.__new__(type(S)), generators)
        tr.peak_alloc = max(tr.peak_alloc, tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
        tr.contains_calls = calls


def _betti_after(tr, result, S, scan_bound=None):
    gens = S.minimal_generators
    top = scan_bound if scan_bound is not None \
        else S.frobenius + gens[0] + gens[-1]
    key = (S.generators, top)
    if key not in tr.members_below:
        tr.members_below[key] = sum(
            1 for r in range(top + 1) if tr.orig_contains(S, r))
    tr.counts["core_semigroup.betti_elements.scanned"] += tr.members_below[key]
    tr.counts["core_semigroup.betti_elements.hits"] += len(result.betti)


def _factorizations_after(tr, result, S, r):
    tr.counts["core_semigroup.factorizations.vectors"] += len(result)


def _length_sets_after(tr, result, S, bound):
    tr.counts["core_semigroup.length_sets_up_to.cells"] += len(result)
    tr.counts["core_semigroup.length_sets_up_to.entries"] += sum(
        len(s) for s in result if s is not None)


AFTER = {"core_semigroup.Semigroup": _semigroup_after,
         "core_semigroup.betti_elements": _betti_after,
         "core_semigroup.factorizations": _factorizations_after,
         "core_semigroup.length_sets_up_to": _length_sets_after}


class Tracer:
    def __init__(self):
        self.names = []
        self.ids = {}
        self.span_id = array("q")
        self.span_name = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("q")
        self.span_request = array("q")
        self.stack = []  # [span id, child ns] per open span
        self.next_id = 0
        self.calls = Counter()
        self.self_ns = Counter()
        self.counts = Counter()
        self.contains_calls = 0
        self.peak_alloc = 0
        self.bookkeeping_ns = 0
        self.request = -1
        self.members_below = {}
        self.alloc_size = 0
        self.orig_init = self.orig_contains = None
        self._undo = []

    def wrap(self, name, fn):
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        nid = self.ids[name]
        after = AFTER.get(name)

        def traced(*args, **kwargs):
            stack = self.stack
            sid = self.next_id
            self.next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0]
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                dur = t1 - t0
                self.calls[name] += 1
                self.self_ns[name] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if len(self.span_id) < MAX_SPANS:
                    self.span_id.append(sid)
                    self.span_name.append(nid)
                    self.span_start.append(t0)
                    self.span_end.append(t1)
                    self.span_parent.append(parent)
                    self.span_request.append(self.request)
            if after is not None:
                b0 = perf_counter_ns()
                after(self, result, *args, **kwargs)
                book = perf_counter_ns() - b0
                self.bookkeeping_ns += book
                if stack:
                    stack[-1][1] += book
            return result

        return traced

    def _replace(self, namespaces, orig, new):
        for ns in namespaces:
            for key, value in list(ns.items()):
                if value is orig:
                    self._undo.append((ns, key, orig))
                    ns[key] = new

    def install(self, sgp):
        """Wrap the public functions and `Semigroup` of an imported sgp."""
        mods = {m: getattr(sgp, m) for m in MODULES}
        namespaces = [vars(sgp)] + [vars(mod) for mod in mods.values()]
        for m, mod in mods.items():
            for name, obj in list(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__
                        or (m == "cli" and name != "main")):
                    continue
                self._replace(namespaces, obj,
                              self.wrap("%s.%s" % (m, name), obj))
        S = mods["core_semigroup"].Semigroup
        self.orig_init, contains = S.__init__, S.__contains__
        self.orig_contains = contains

        def counted_contains(obj, n):
            self.contains_calls += 1
            return contains(obj, n)

        for key, new in (("__init__", self.wrap("core_semigroup.Semigroup",
                                                  self.orig_init)),
                         ("__contains__", counted_contains)):
            self._undo.append((S, key, getattr(S, key)))
            setattr(S, key, new)

    def uninstall(self):
        for target, key, orig in reversed(self._undo):
            if isinstance(target, dict):
                target[key] = orig
            else:  # a class: its __dict__ is read-only
                setattr(target, key, orig)
        self._undo.clear()

    def write(self, path):
        with gzip.open(path, "wt") as f:
            for row in zip(self.span_id, self.span_name, self.span_start,
                           self.span_end, self.span_parent,
                           self.span_request):
                row = list(row)
                row[1] = self.names[row[1]]
                f.write(json.dumps(row) + "\n")
