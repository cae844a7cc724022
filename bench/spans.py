"""Spans around the public functions of each icbounds module, from outside.

``Tracer.install`` replaces every public function named in ``LAYERS`` with a
wrapper, wherever an ``icbounds`` module holds a reference to it (modules
import each other's functions by name), and replaces the methods of
``BooleanFunction`` and the channel classes on the class.  ``uninstall``
puts the originals back, so untraced rounds run the program unchanged.

A span is (id, parent id, name, start, end, count): the count is the work
done at that boundary (bits returned, q entries evaluated, ...).  Spans are
kept in memory and written out by ``write``.  Spans opened in a thread the
program starts (its ``threads=`` pools) take the innermost span open in the
tracing thread as parent.
"""

from __future__ import annotations

import functools
import itertools
import statistics
import sys
import threading
from time import perf_counter

from icbounds import boolfn, classify, cli, icbound, infocalc, prbox


def _size(_args, _kwargs, result) -> int:
    return int(result.size)


def _table_bits(_args, _kwargs, result) -> int:
    return result.x_size * result.y_size


def _q_cells(args, _kwargs, _result) -> int:
    return int(args[1].size)


# (owner, attribute, span name, count function or None)
LAYERS = (
    (boolfn, "build_family", "boolfn.build", _table_bits),
    (boolfn.BooleanFunction, "bits_at", "boolfn.fetch", _size),
    (boolfn.BooleanFunction, "column", "boolfn.fetch", _size),
    (boolfn.BooleanFunction, "table_array", "boolfn.tableread", None),
    (boolfn.BooleanFunction, "row", "boolfn.tableread", None),
    (boolfn.BooleanFunction, "bit", "boolfn.tableread", None),
    (boolfn, "apply_x_substitution", "boolfn.tableread", None),
    (boolfn, "load_truth_table", "boolfn.load", None),
    (icbound, "compute_bound", "icbound.bound", None),
    (icbound.Deterministic, "phi", "icbound.phi", _q_cells),
    (icbound.Symmetric, "phi", "icbound.phi", _q_cells),
    (icbound.Asymmetric, "phi", "icbound.phi", _q_cells),
    (icbound, "make_ordering", "icbound.search", None),
    (icbound, "oracle_check", "icbound.oracle", None),
    (infocalc, "binary_entropy_vec", "infocalc.entropy", None),
    (infocalc, "conditional_mutual_information", "infocalc.cmi", None),
    (prbox, "max_bias", "prbox.maxbias", None),
    (prbox, "decompose", "prbox.decompose", None),
    (prbox, "success_probability", "prbox.success", None),
    (classify, "census", "classify.census", None),
    (classify, "classify_function", "classify.classify", None),
    (cli, "main", "cli.main", None),
)

_CENSUS_FUNCTIONS = 1 << 16


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._home = None
        self._patched = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn, count):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            elif stack is not tracer._home and tracer._home:
                parent = tracer._home[-1]
            else:
                parent = 0
            sid = next(tracer._ids)
            stack.append(sid)
            n = 0
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                n = count(args, kwargs, result) if count else 1
                return result
            finally:
                end = perf_counter()
                stack.pop()
                tracer.spans.append((sid, parent, name, start, end, n))

        return traced

    def install(self) -> None:
        self._home = self._stack()
        modules = [m for k, m in sys.modules.items() if k == "icbounds" or k.startswith("icbounds.")]
        for owner, attr, name, count in LAYERS:
            original = owner.__dict__[attr]
            wrapper = self._wrap(name, original, count)
            if isinstance(owner, type):
                self._patched.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def take(self) -> list:
        """Spans recorded since the last call."""
        spans, self.spans = self.spans, []
        return spans

    @staticmethod
    def write(path, spans) -> None:
        with open(path, "w", encoding="utf-8") as out:
            out.write("id,parent,name,start_s,end_s,count\n")
            for sid, parent, name, start, end, n in spans:
                out.write(f"{sid},{parent},{name},{start:.9f},{end:.9f},{n}\n")


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, -float("inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def layer_metrics(spans) -> dict:
    """Per-layer totals over one round's spans (times in seconds)."""
    by_id = {s[0]: s for s in spans}
    children: dict = {}
    for s in spans:
        children.setdefault(s[1], []).append((s[3], s[4]))

    def under(span, ancestor: str) -> bool:
        parent = by_id.get(span[1])
        while parent is not None:
            if parent[2] == ancestor:
                return True
            parent = by_id.get(parent[1])
        return False

    time: dict = {}
    calls: dict = {}
    work: dict = {}
    self_time: dict = {}
    search_phi = maxbias_probes = 0
    main_ms = []
    for s in spans:
        sid, _, name, start, end, n = s
        dur = end - start
        time[name] = time.get(name, 0.0) + dur
        calls[name] = calls.get(name, 0) + 1
        work[name] = work.get(name, 0) + n
        if name in ("icbound.bound", "icbound.search"):
            self_time[name] = self_time.get(name, 0.0) + dur - _covered(children.get(sid, ()))
        if name == "icbound.phi" and under(s, "icbound.search"):
            search_phi += 1
        if name == "icbound.bound" and under(s, "prbox.maxbias"):
            maxbias_probes += 1
        if name == "cli.main":
            main_ms.append(dur * 1e3)

    fetched = work.get("boolfn.fetch", 0)
    classified = calls.get("classify.census", 0) * _CENSUS_FUNCTIONS + calls.get("classify.classify", 0)
    classify_s = time.get("classify.census", 0.0) + time.get("classify.classify", 0.0)
    return {
        "boolfn.build_s": time.get("boolfn.build", 0.0),
        "boolfn.bits_built": work.get("boolfn.build", 0),
        "boolfn.fetch_s": time.get("boolfn.fetch", 0.0),
        "boolfn.bits_fetched": fetched,
        "boolfn.fetch_ns_per_bit": time.get("boolfn.fetch", 0.0) / fetched * 1e9 if fetched else 0.0,
        "boolfn.tableread_s": time.get("boolfn.tableread", 0.0),
        "boolfn.load_s": time.get("boolfn.load", 0.0),
        "icbound.bound_calls": calls.get("icbound.bound", 0),
        "icbound.bound_s": time.get("icbound.bound", 0.0),
        "icbound.stats_s": self_time.get("icbound.bound", 0.0),
        "icbound.phi_s": time.get("icbound.phi", 0.0),
        "icbound.phi_cells": work.get("icbound.phi", 0),
        "icbound.search_s": self_time.get("icbound.search", 0.0),
        "icbound.search_phi_calls": search_phi,
        "icbound.oracle_s": time.get("icbound.oracle", 0.0),
        "infocalc.entropy_s": time.get("infocalc.entropy", 0.0),
        "infocalc.cmi_calls": calls.get("infocalc.cmi", 0),
        "infocalc.cmi_s": time.get("infocalc.cmi", 0.0),
        "prbox.maxbias_s": time.get("prbox.maxbias", 0.0),
        "prbox.maxbias_probes": maxbias_probes,
        "prbox.decompose_s": time.get("prbox.decompose", 0.0),
        "prbox.success_s": time.get("prbox.success", 0.0),
        "classify.census_s": time.get("classify.census", 0.0),
        "classify.functions_classified": classified,
        "classify.us_per_function": classify_s / classified * 1e6 if classified else 0.0,
        "cli.main_p50_ms": statistics.median(main_ms) if main_ms else 0.0,
    }

