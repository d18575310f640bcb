"""isurf benchmark: one closed-loop client, one request at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py and BENCHMARK.json):

- ``verify-all``: each request is a fresh ``python -m isurf.cli --all``
  process, checked against the stored report digest;
- ``germ-sweep``: each request classifies one seed's ten wps51 and
  family-munu germ cases at truncation orders 10 and 12, in process;
- ``exact-algebra``: each request runs one seed's specialisations,
  excess-monomial derivations, toric transforms, format certificates,
  smoothing eliminations and Hilbert bases, in process.

Requests are issued back to back for ``--seconds``: at least one, and none
that would end later if it took as long as the one before.  In-process
workloads first serve one untimed warm-up request.  With ``--trace 0`` the
run reports the end-to-end metrics.  With ``--trace 1`` it first runs
untraced requests for half the time, then installs the tracer and runs the
same inputs traced for the other half; it reports the per-layer metrics (per
traced request) plus the tracing overhead.  The last line of standard output
is one JSON object; a fuller record with provenance goes to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time

from tracer import Tracer, summarize
from workloads import HERE, ROOT, WORKLOADS, CheckFailed, VerifyAll, child_env, run_child

OUT = HERE / "out"
SETUP_REPEATS = 9

SCENARIOS = ("binomials", "cor-pfaffian", "derive-r11", "examples-figures",
             "family-munu", "fixed-part", "gale-rays", "generators",
             "hilbert-series", "lemma-smoothing", "prop-no-5-2", "table1",
             "table2", "weierstrass", "wps51", "ytilde-blowup")

END_TO_END = (
    ("request_p50_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("pass_frac", "ratio", "higher"),
)

PER_LAYER = (
    ("series.substitute.calls", "count", "lower"),
    ("series.substitute.self_s", "s", "lower"),
    ("series.solve_system.calls", "count", "lower"),
    ("series.solve_system.total_s", "s", "lower"),
    ("series.solve_system.failed", "count", "lower"),
    ("series.inverse.calls", "count", "lower"),
    ("series.inverse.self_s", "s", "lower"),
    ("series.truncation_yield", "ratio", "higher"),
    ("poly.mul.calls", "count", "lower"),
    ("poly.mul.self_s", "s", "lower"),
    ("poly.mul.term_pairs", "count", "lower"),
    ("poly.mul.terms_out", "count", "lower"),
    ("poly.substitute.calls", "count", "lower"),
    ("poly.substitute.self_s", "s", "lower"),
    ("poly.exact_divide.calls", "count", "lower"),
    ("poly.exact_divide.self_s", "s", "lower"),
    ("lattice.hilbert_basis.calls", "count", "lower"),
    ("lattice.hilbert_basis.total_s", "s", "lower"),
    ("lattice.extreme_rays.total_s", "s", "lower"),
    ("lattice.contains.calls", "count", "lower"),
    ("tsing.classify_germ.calls", "count", "lower"),
    ("tsing.classify_germ.self_s", "s", "lower"),
    ("tsing.classify_germ.failed", "count", "lower"),
    ("tsing.classify_germ.recognized_frac", "ratio", "higher"),
    ("skew.sub_pfaffians.calls", "count", "lower"),
    ("skew.sub_pfaffians.total_s", "s", "lower"),
    ("skew.multiply_vector.total_s", "s", "lower"),
    ("rings.verify_format.calls", "count", "lower"),
    ("rings.verify_format.total_s", "s", "lower"),
    ("rings.verify_format.certificates", "count", "higher"),
    ("rings.specialize_standard.calls", "count", "lower"),
    ("rings.specialize_standard.total_s", "s", "lower"),
    ("rings.chart_singularity.calls", "count", "lower"),
    ("rings.chart_singularity.total_s", "s", "lower"),
    ("rings.derive_relation.total_s", "s", "lower"),
    ("rings.smoothing_eliminate.total_s", "s", "lower"),
    ("rings.canonical_generators.calls", "count", "lower"),
    ("rings.canonical_generators.total_s", "s", "lower"),
    ("rings.load_formats.calls", "count", "lower"),
    ("rings.load_formats.total_s", "s", "lower"),
    ("toric.blowup_transform.total_s", "s", "lower"),
    ("toric.wps_collapse.total_s", "s", "lower"),
    ("toric.weierstrass_normalize.total_s", "s", "lower"),
    ("wps.s51_point_analysis.total_s", "s", "lower"),
    ("wps.germ_at_y.total_s", "s", "lower"),
    ("wps.germ_at_u.total_s", "s", "lower"),
    ("curves.replay_script.total_s", "s", "lower"),
    ("curves.enumerate_gamma_profiles.total_s", "s", "lower"),
    ("tsing.codiscrepancy.total_s", "s", "lower"),
    *((f"scenario.{name}.total_s", "s", "lower") for name in SCENARIOS),
    ("trace.request_p50_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

SPAN_STATS = ("calls", "total_s", "self_s")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def provenance() -> dict:
    """Commit (read from .git when the checkout has one), a digest of the
    package sources, the Python version and the usable core count."""
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else None
        else:
            commit = ref
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "isurf").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(path.relative_to(ROOT).as_posix().encode())
            digest.update(path.read_bytes())
    return {"commit": commit, "source_sha256": digest.hexdigest(),
            "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0))}


def percentile_report(times: list[float]) -> str:
    """Median, plus the highest of p90/p99 that has >= 10 samples beyond it."""
    if not times:
        return "n=0"
    parts = [f"n={len(times)}", f"p50={statistics.median(times):.4f}s"]
    for p in (99, 90):
        if len(times) * (100 - p) / 100 >= 10:
            cut = statistics.quantiles(times, n=100)[p - 1]
            parts.append(f"p{p}={cut:.4f}s")
            break
    return " ".join(parts)


def measure_setup(workload) -> float:
    """Median time fresh interpreters take to import and set up what the
    workload needs, timed inside each interpreter so that the start-up of
    Python itself (site-packages scanning, not isurf) stays out."""
    probe = ("import time; start = time.perf_counter(); "
             f"{workload.setup_code}; print(time.perf_counter() - start)")
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", probe], cwd=ROOT, env=child_env(),
                              check=True, capture_output=True, text=True)
        times.append(float(done.stdout))
    return statistics.median(times)


class Loop:
    """Closed loop over a workload's seeded inputs: serve, time, check."""

    def __init__(self, workload, seed: int, log):
        self.workload = workload
        self.seed = seed
        self.log = log
        self.times: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.peak_rss: list[float] = []
        self.tracer = None
        self.traces: list[dict] = []
        self.warm_up = workload.in_process

    def _run_child(self, request_id: int, item):
        if self.tracer is None:
            argv = [sys.executable, "-m", "isurf.cli"]
        else:
            spans = OUT / f"spans-{os.getpid()}-{request_id}.json"
            argv = [sys.executable, str(HERE / "child.py"), str(spans), str(request_id)]
        code, stdout, stderr, wall, rss = run_child(
            argv + VerifyAll.argv(item), OUT, f"child-{os.getpid()}")
        self.times.append(wall)
        self.peak_rss.append(rss)
        if self.tracer is not None and spans.is_file():
            self.traces.append(json.loads(spans.read_text()))
            spans.unlink()
        return code, stdout, stderr

    def _timed(self, item):
        start = time.perf_counter()
        result = self.workload.run(item)
        self.times.append(time.perf_counter() - start)
        return result

    def _run_in_process(self, request_id: int, item):
        gc.collect()
        if self.tracer is None:
            return self._timed(item)
        self.tracer.install()
        try:
            with self.tracer.request(request_id):
                return self._timed(item)
        finally:
            self.tracer.uninstall()

    def serve(self, request_id: int, item) -> None:
        self.attempted += 1
        try:
            if self.workload.in_process:
                result = self._run_in_process(request_id, item)
            else:
                result = self._run_child(request_id, item)
            self.workload.check(item, result)
        except CheckFailed as exc:
            self.failed += 1
            self.log(f"request {request_id} (input {item}) FAILED: {exc}")
        except Exception as exc:  # a raising request counts as failed; the run goes on
            self.failed += 1
            self.log(f"request {request_id} (input {item}) RAISED {type(exc).__name__}: {exc}")

    def run_for(self, seconds: float, first_id: int = 0) -> None:
        """Serve requests while the next one, if it takes as long as the last,
        still ends within ``seconds``; always serve at least one."""
        key = f"{self.workload.name}:{self.seed}"
        deadline = time.perf_counter() + seconds
        if self.warm_up:
            # the first request in a process runs up to half again slower;
            # a long-lived caller pays that once, so it is checked, not timed
            self.serve(first_id, next(self.workload.inputs(random.Random(key))))
            self.times.clear()
            first_id += 1
        inputs = self.workload.inputs(random.Random(key))
        request_id, last = first_id, 0.0
        while request_id == first_id or time.perf_counter() + last <= deadline:
            start = time.perf_counter()
            self.serve(request_id, next(inputs))
            last = time.perf_counter() - start
            request_id += 1


def layer_metrics(spans: dict, counts: dict, requests: int) -> dict[str, float]:
    """Per-layer metrics per traced request from span statistics and counters."""
    out = {}
    for name, _, _ in PER_LAYER:
        if name.startswith("trace."):
            continue
        if name == "series.truncation_yield":
            attempted = counts.get("series.substitute.mul_terms", 0)
            out[name] = counts.get("series.substitute.terms_out", 0) / attempted \
                if attempted else 0.0
            continue
        if name == "tsing.classify_germ.recognized_frac":
            calls = spans.get("tsing.classify_germ", {}).get("calls", 0)
            out[name] = counts.get("tsing.classify_germ.recognized", 0) / calls \
                if calls else 0.0
            continue
        span, _, stat = name.rpartition(".")
        if name in counts or stat not in SPAN_STATS:
            total = counts.get(name, 0)
        else:
            total = spans.get(span, {}).get(stat, 0)
        out[name] = total / requests
    return out


def merge_traces(traces: list[dict]) -> dict:
    """One trace from several single-process traces (span ids re-based)."""
    merged = {"names": [], "counts": {}, "requests": [],
              "spans": {k: [] for k in ("name", "parent", "request", "start", "end")}}
    ids: dict[str, int] = {}
    for trace in traces:
        remap = []
        for name in trace["names"]:
            if name not in ids:
                ids[name] = len(merged["names"])
                merged["names"].append(name)
            remap.append(ids[name])
        base = len(merged["spans"]["start"])
        spans = trace["spans"]
        merged["spans"]["name"] += [remap[n] for n in spans["name"]]
        merged["spans"]["parent"] += [p + base if p >= 0 else -1 for p in spans["parent"]]
        for key in ("request", "start", "end"):
            merged["spans"][key] += spans[key]
        for key, value in trace["counts"].items():
            merged["counts"][key] = merged["counts"].get(key, 0) + value
        merged["requests"] += trace["requests"]
    return merged


def traced_run(workload, args, log):
    """Untraced then traced requests on the same inputs; per-layer metrics."""
    plain = Loop(workload, args.seed, log)
    plain.run_for(args.seconds / 2)
    traced = Loop(workload, args.seed, log)
    traced.tracer = Tracer()
    traced.warm_up = False
    traced.run_for(args.seconds / 2, first_id=plain.attempted)
    trace = merge_traces(traced.traces) if traced.traces else traced.tracer.to_dict()
    summary = summarize(trace)
    metrics = layer_metrics(summary["spans"], trace["counts"], len(trace["requests"]) or 1)
    traced_p50 = statistics.median(traced.times) if traced.times else 0.0
    plain_p50 = statistics.median(plain.times) if plain.times else 0.0
    metrics["trace.request_p50_s"] = traced_p50
    metrics["trace.overhead_s"] = traced_p50 - plain_p50
    longest = summary["longest_below_scenario"]
    log(f"untraced {percentile_report(plain.times)}; traced {percentile_report(traced.times)}")
    log(f"longest span below scenario level: {longest[0]} {longest[1]:.4f}s")
    with open(OUT / f"spans-{workload.name}.json", "w") as fh:
        json.dump(trace, fh, separators=(",", ":"))
    return (metrics, PER_LAYER, plain.attempted + traced.attempted,
            plain.failed + traced.failed, {"longest_below_scenario": longest})


def timed_run(workload, args, log):
    """Set-up probes, then untraced requests; end-to-end metrics."""
    setup_s = measure_setup(workload)
    loop = Loop(workload, args.seed, log)
    loop.run_for(args.seconds)
    if workload.in_process:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        peak_rss_mb = statistics.median(loop.peak_rss)
    metrics = {
        "request_p50_s": statistics.median(loop.times) if loop.times else 0.0,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "pass_frac": (loop.attempted - loop.failed) / loop.attempted,
    }
    log(f"requests {percentile_report(loop.times)}")
    return metrics, END_TO_END, loop.attempted, loop.failed, {"request_times_s": loop.times}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "isurf" / "__init__.py").is_file():
        print(f"error: no isurf sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r} (choices: {sorted(WORKLOADS)})",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)

    def log(msg):
        print(f"[{workload.name}] {msg}", flush=True)

    info = provenance()
    log(f"seed={args.seed} seconds={args.seconds} trace={args.trace} {json.dumps(info)}")
    if workload.in_process:
        import isurf.cli  # noqa: F401  (loads every layer before the first request)
    metrics, spec, attempted, failed, extra = (traced_run if args.trace else timed_run)(
        workload, args, log)
    units = {name: unit for name, unit, _ in spec}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, **info, **extra, **result}
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    for name, value in metrics.items():
        print(f"{name:48s} {value:.6g} {units[name]}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
