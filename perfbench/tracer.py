"""Span tracer for the isurf layers, installed from outside the package.

``Tracer.install`` wraps the public entry points of every layer listed in
``TARGETS``.  A module-level function is replaced at every place an isurf
module binds it (``rings`` imports ``solve_system``, ``hilbert_basis`` and
``classify_germ`` by name, ``wps`` imports ``classify_germ``, ``curves``
imports ``codiscrepancy``, ``cli`` imports ``run``); a method is replaced on
its class, together with any alias of it there (``__rmul__`` is
``__mul__``).  ``wps._family_germ`` imports ``solve_system`` each time it
runs, so it picks up the wrapper from ``series``.

Each wrapped call records one span (name, start, end, parent span, request
id) in flat arrays that stay in memory until ``dump``.  ``LatticeCone.contains``
is called hundreds of thousands of times per request and only its call
count is asked for, so it is counted without a span.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from contextlib import contextmanager

REQUEST = "request"
SCENARIO_PREFIX = "scenario."


def _mul_stats(tracer, args, result):
    a, b = args
    tracer.add("poly.mul.term_pairs", len(a.terms) * len(getattr(b, "terms", (0,))))
    tracer.add("poly.mul.terms_out", len(result.terms))
    if tracer.series_substitute_depth:
        tracer.add("series.substitute.mul_terms", len(result.terms))


def _series_substitute_stats(tracer, args, result):
    tracer.add("series.substitute.terms_out", len(result.poly.terms))


def _classify_stats(tracer, args, result):
    from isurf.tsing import Unrecognized

    if not isinstance(result, Unrecognized):
        tracer.add("tsing.classify_germ.recognized", 1)


def _verify_format_stats(tracer, args, result):
    tracer.add("rings.verify_format.certificates", len(result["checks"]))


# hook of a target that is called so often that only its calls are counted
COUNT_ONLY = "count only"

# (span name, module, attribute path, hook called with the arguments and result)
TARGETS = (
    ("poly.mul", "isurf.poly", "ExactPolynomial.__mul__", _mul_stats),
    ("poly.substitute", "isurf.poly", "ExactPolynomial.substitute", None),
    ("poly.exact_divide", "isurf.poly", "ExactPolynomial.exact_divide", None),
    ("series.substitute", "isurf.series", "TruncatedSeries.substitute",
     _series_substitute_stats),
    ("series.inverse", "isurf.series", "TruncatedSeries.inverse", None),
    ("series.solve_system", "isurf.series", "solve_system", None),
    ("skew.sub_pfaffians", "isurf.skew", "SkewMatrix.sub_pfaffians", None),
    ("skew.multiply_vector", "isurf.skew", "SkewMatrix.multiply_vector", None),
    ("lattice.hilbert_basis", "isurf.lattice", "hilbert_basis", None),
    ("lattice.extreme_rays", "isurf.lattice", "extreme_rays", None),
    ("lattice.contains", "isurf.lattice", "LatticeCone.contains", COUNT_ONLY),
    ("tsing.classify_germ", "isurf.tsing", "classify_germ", _classify_stats),
    ("tsing.codiscrepancy", "isurf.tsing", "codiscrepancy", None),
    ("toric.blowup_transform", "isurf.toric", "blowup_transform", None),
    ("toric.wps_collapse", "isurf.toric", "wps_collapse", None),
    ("toric.weierstrass_normalize", "isurf.toric", "weierstrass_normalize", None),
    ("rings.specialize_standard", "isurf.rings", "specialize_standard", None),
    ("rings.chart_singularity", "isurf.rings", "chart_singularity", None),
    ("rings.derive_relation", "isurf.rings", "derive_relation", None),
    ("rings.smoothing_eliminate", "isurf.rings", "smoothing_eliminate", None),
    ("rings.canonical_generators", "isurf.rings", "canonical_generators", None),
    ("rings.load_formats", "isurf.rings", "load_formats", None),
    ("rings.verify_format", "isurf.rings", "verify_format", _verify_format_stats),
    ("wps.s51_point_analysis", "isurf.wps", "s51_point_analysis", None),
    ("wps.germ_at_y", "isurf.wps", "TwoSingularityFamily.germ_at_y", None),
    ("wps.germ_at_u", "isurf.wps", "TwoSingularityFamily.germ_at_u", None),
    ("curves.replay_script", "isurf.curves", "replay_script", None),
    ("curves.enumerate_gamma_profiles", "isurf.curves", "enumerate_gamma_profiles", None),
    # the span of a scenario is named after its first argument
    (SCENARIO_PREFIX, "isurf.scenarios", "run", None),
)


class Tracer:
    """In-memory spans and counters for one traced process."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.request_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, float] = {}
        self.requests: list[int] = []
        self.series_substitute_depth = 0
        self._request = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def add(self, key: str, amount) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        stack = self._stack
        self.name_of.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.request_of.append(self._request)
        self.end.append(0.0)
        stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def request(self, request_id: int):
        """Span of one benchmark request; spans opened inside carry its id."""
        self._request = request_id
        self.requests.append(request_id)
        idx = self._open(self.name_id(REQUEST))
        try:
            yield
        finally:
            self._close(idx)
            self._request = -1

    def _span_wrapper(self, name: str, fn, hook):
        tracer = self
        fixed = None if name == SCENARIO_PREFIX else self.name_id(name)
        failed = name + ".failed"
        is_series_substitute = name == "series.substitute"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nid = fixed if fixed is not None else tracer.name_id(name + args[0])
            idx = tracer._open(nid)
            if is_series_substitute:
                tracer.series_substitute_depth += 1
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.add(failed, 1)
                raise
            finally:
                tracer._close(idx)
                if is_series_substitute:
                    tracer.series_substitute_depth -= 1
            if hook is not None:
                hook(tracer, args, result)
            return result

        return wrapper

    def _count_wrapper(self, name: str, fn):
        counts = self.counts
        key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every target at each of its bindings in the loaded isurf modules."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "isurf" or n.startswith("isurf."))]
        for name, module_name, path, hook in TARGETS:
            owner = importlib.import_module(module_name)
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
            if hook is COUNT_ONLY:
                wrapper = self._count_wrapper(name, original)
            else:
                wrapper = self._span_wrapper(name, original, hook)
            namespaces = [owner] if cls_path else modules
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, key, wrapper)
                        self._undo.append((ns, key, original))

    def uninstall(self) -> None:
        for ns, key, original in reversed(self._undo):
            setattr(ns, key, original)
        self._undo.clear()

    def to_dict(self) -> dict:
        return {
            "names": self.names,
            "counts": self.counts,
            "requests": self.requests,
            "spans": {
                "name": self.name_of.tolist(),
                "parent": self.parent.tolist(),
                "request": self.request_of.tolist(),
                "start": self.start.tolist(),
                "end": self.end.tolist(),
            },
        }

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, separators=(",", ":"))


def summarize(trace: dict) -> dict:
    """Per-name call counts, total and self times from a ``to_dict`` trace.

    Self time is a span's duration minus the durations of its direct child
    spans; spans are single-threaded, so children never overlap.  Also
    returns the longest span that lies below a scenario span.
    """
    names = trace["names"]
    spans = trace["spans"]
    parent = spans["parent"]
    durations = [e - s for s, e in zip(spans["start"], spans["end"])]
    child_time = [0.0] * len(durations)
    for i, p in enumerate(parent):
        if p >= 0:
            child_time[p] += durations[i]
    is_scenario = [n.startswith(SCENARIO_PREFIX) for n in names]
    below = [False] * len(durations)
    longest = (None, 0.0)
    stats: dict[str, dict[str, float]] = {}
    for i, nid in enumerate(spans["name"]):
        p = parent[i]
        if p >= 0:
            below[i] = is_scenario[spans["name"][p]] or below[p]
        entry = stats.setdefault(names[nid], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += durations[i]
        entry["self_s"] += durations[i] - child_time[i]
        if below[i] and not is_scenario[nid] and durations[i] > longest[1]:
            longest = (names[nid], durations[i])
    return {"spans": stats, "longest_below_scenario": longest}
