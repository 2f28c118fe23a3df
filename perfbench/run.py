"""Benchmark of the wreathcenter package, driven from outside.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads (see BENCHMARK.json and perfbench/predictions.json for why each
exists): group, universal-sweep, poly-rows, cli.

A run sets up several times (a fresh import of `src/wreathcenter`, the
seeded op list and, for cli, the pre-populated cache file) and reports the
median set-up time.  It then warms up and runs complete passes over the op
list, one op at a time (a closed loop with one client), until at least
--seconds have passed.  Every output is checked after the timed passes.

With --trace 0 it reports the end-to-end metrics; with --trace 1 it runs
one untraced and one traced pass of the same ops and reports the per-layer
metrics, including the tracing overhead.  The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.  A fuller
report, with run metadata, goes to perfbench/out/.
"""

import argparse
import bisect
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
CHILD = BENCH / "cli_child.py"
REFERENCE = BENCH / "reference.json"

sys.path.insert(0, str(BENCH))
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
TAIL_ABOVE = 10  # samples per pass that must lie above the tail percentile
# Times are reported at a reference machine speed: each measured time is
# scaled by REFERENCE_S / (duration of the calibration loop run next to it).
# On a shared host the same CPU-bound code drifts by up to 1.6x within a
# minute; the calibration loop drifts with it, so the ratio stays steady.
REFERENCE_S = 0.010
CALIBRATE_EVERY_S = 0.25
# A CLI op is mostly process start-up, whose cost drifts with the host's
# kernel and memory load more than with its speed at pure Python, so cli
# passes are scaled by the time to start and end a bare interpreter instead,
# at this reference time
SPAWN_REFERENCE_S = 0.015

# units of the gated and per-layer metrics, as BENCHMARK.json declares them
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
# units of the figures that only the printed report carries
DETAIL_UNITS = {
    "error_rate": "ratio",
    "op_tail_percentile": "%",
    "op_tail_samples_above": "count",
    "samples": "count",
    "passes": "count",
    "untraced_s": "s",
    "traced_s": "s",
    "speed_scale": "ratio",
    "raw_setup_s": "s",
    "raw_ops_per_s": "op/s",
    "raw_op_p50_ms": "ms",
    "raw_op_tail_ms": "ms",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=None, help="run only the first N ops of a pass")
    parser.add_argument(
        "--inject-fault", action="store_true",
        help="make every product wrong by one (for the self-tests: failures must show)",
    )
    return parser.parse_args(argv)


# -- machine-speed calibration ------------------------------------------------


class _Record:
    __slots__ = ("key", "start")

    def __init__(self, key, start):
        self.key = key
        self.start = start


_CALIBRATION_PERMS = tuple(
    tuple((j * m + s) % 12 for j in range(12)) for m in (1, 5, 7, 11) for s in range(12)
)


def calibration_loop():
    """Fixed pure-Python work of the library's kind, written independently of it.

    Cycle types of 48 fixed permutations of 12 points, sorted into tuples,
    counted in a dict and kept in slotted records, 30 times over.
    """
    counts, records = {}, []
    for _ in range(30):
        for perm in _CALIBRATION_PERMS:
            mapping = dict(enumerate(perm))
            seen, lengths = set(), []
            for start in mapping:
                if start in seen:
                    continue
                length, x = 0, start
                while x not in seen:
                    seen.add(x)
                    x = mapping[x]
                    length += 1
                lengths.append(length)
            key = tuple(sorted(lengths, reverse=True))
            counts[key] = counts.get(key, 0) + 1
            records.append(_Record(key, perm[0]))
    return counts, records


def spawn_calibration():
    """Start and end a bare interpreter: process cost outside the program."""
    subprocess.run([sys.executable, "-I", "-S", "-c", "pass"], check=True)


class Clock:
    """Calibration runs interleaved with the ops, and the scale they give."""

    def __init__(self, spawn=False):
        self.loop = spawn_calibration if spawn else calibration_loop
        self.reference = SPAWN_REFERENCE_S if spawn else REFERENCE_S
        self.times = []
        self.durations = []

    def calibrate(self):
        # with the cyclic collector off, the loop's time does not depend on
        # how many objects the library and the benchmark keep alive
        gc.disable()
        try:
            start = perf_counter()
            self.loop()
            end = perf_counter()
        finally:
            gc.enable()
        self.times.append((start + end) / 2)
        self.durations.append(end - start)

    def calibrate_if_due(self):
        if not self.times or perf_counter() - self.times[-1] >= CALIBRATE_EVERY_S:
            self.calibrate()

    def scale(self, start, end):
        """The reference time over the calibration time around [start, end]."""
        lo = max(bisect.bisect_right(self.times, start) - 1, 0)
        hi = min(bisect.bisect_left(self.times, end), len(self.times) - 1)
        near = self.durations[lo:hi + 1]
        return self.reference / statistics.mean(near)


# -- set-up -------------------------------------------------------------------


def set_up(args, workdir):
    """Set up SETUP_REPEATS times; the last library import and plan are used.

    Returns the set-up times, raw and at the reference speed.
    """
    clock = Clock()
    times = []
    for _ in range(SETUP_REPEATS):
        clock.calibrate()
        start = perf_counter()
        lib = workloads.Library(SRC)
        plan = workloads.make_plan(args.workload, lib, args.seed, workdir, SRC, CHILD)
        end = perf_counter()
        clock.calibrate()
        times.append((end - start, (end - start) * clock.scale(start, end)))
    if args.ops is not None:
        plan.ops = plan.ops[: args.ops]
    if args.inject_fault:
        if plan.cli:
            plan.fault = True
        else:
            workloads.inject_fault(lib)
    return lib, plan, times


# -- passes -------------------------------------------------------------------


def one_pass(plan, tracer=None):
    """Run every op once, in order, calibrating between ops.

    Returns ([(latency at reference speed, output, error, raw latency)], wall s).
    """
    plan.begin_pass()
    clock = Clock(spawn=plan.cli)
    records = []
    start = perf_counter()
    for index, op in enumerate(plan.ops):
        clock.calibrate_if_due()
        t0 = perf_counter()
        try:
            if tracer is None:
                out = plan.execute(op, index)
            else:
                tracer.op = index
                out = tracer.span("bench.op", plan.execute, op, index)
            error = None
        except Exception as exc:  # a failed op is counted, not fatal
            out, error = None, f"{type(exc).__name__}: {exc}"
        records.append((t0, perf_counter(), out, error))
    wall = perf_counter() - start
    clock.calibrate()
    return [(clock.scale(t0, t1) * (t1 - t0), out, error, t1 - t0) for t0, t1, out, error in records], wall


def timed_passes(plan, seconds):
    """Complete passes until `seconds` of wall time have elapsed (at least one)."""
    passes, elapsed = [], 0.0
    while not passes or elapsed < seconds:
        records, wall = one_pass(plan)
        passes.append(records)
        elapsed += wall
    return passes


def check_passes(plan, passes):
    """Check the first pass op by op; later passes must reproduce it exactly."""
    failures = []
    first = passes[0]
    outputs = [r[1] for r in first]
    canon = []
    for index, (op, (_, out, error, _)) in enumerate(zip(plan.ops, first)):
        if error is not None:
            failures.append((index, op.key, error))
            canon.append(None)
            continue
        try:
            problems = plan.check(op, out, outputs)
            canon.append(plan.canonical(op, out))
        except Exception as exc:
            problems = [f"check raised {type(exc).__name__}: {exc}"]
            canon.append(None)
        if problems:
            failures.append((index, op.key, "; ".join(problems)))
    for records in passes[1:]:
        for index, (op, (_, out, error, _)) in enumerate(zip(plan.ops, records)):
            if error is not None:
                failures.append((index, op.key, error))
            elif canon[index] is None or plan.canonical(op, out) != canon[index]:
                failures.append((index, op.key, "output differs from the first pass"))
    digest = hashlib.sha256(
        "\n".join(sorted(f"{op.key}\t{c}" for op, c in zip(plan.ops, canon))).encode()
    ).hexdigest()
    return failures, digest


# -- statistics ---------------------------------------------------------------


def tail(latencies, passes):
    """The latency with TAIL_ABOVE samples per pass above it.

    With one pass this is the highest percentile that still has ten samples
    above it; with more passes the percentile stays where one pass puts it.
    Returns (value, percentile, samples above).
    """
    ordered = sorted(latencies)
    above = TAIL_ABOVE * passes
    if len(ordered) <= above:
        above = 0
    index = len(ordered) - above - 1
    return ordered[index], 100.0 * (index + 1) / len(ordered), above


def peak_rss_mb(plan):
    who = resource.RUSAGE_CHILDREN if plan.cli else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def anchors(plan, passes, workload):
    """Each pinned anchor's latency, the median over passes."""
    out = {}
    for index, op in enumerate(plan.ops):
        if op.anchor:
            out[f"anchor.{op.anchor}_ms"] = 1e3 * statistics.median(p[index][0] for p in passes)
    if workload == "universal-sweep" and len(plan.ops) > 0:
        out["anchor.universal_sweep_s"] = statistics.median(sum(r[0] for r in p) for p in passes)
    return out


def cache_p50s(plan, passes):
    """cli: median latency of cached product calls answered from / missing the cache."""
    hits, misses = [], []
    for index, op in enumerate(plan.ops):
        if op.kind in ("hit", "rehit"):
            hits.extend(p[index][0] for p in passes)
        elif op.kind == "miss":
            misses.extend(p[index][0] for p in passes)
    return {
        "cli.cache_hit_p50_ms": 1e3 * statistics.median(hits) if hits else 0.0,
        "cli.cache_miss_p50_ms": 1e3 * statistics.median(misses) if misses else 0.0,
    }


def metadata(args):
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
        else:
            commit = ref
    loc = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "src_loc": loc,
    }


def reference_digest(args, digest):
    """'match'/'mismatch' against the kept reference, or why it was not compared."""
    if args.seed != workloads.DEFAULT_SEED or args.ops is not None:
        return "not compared (only the default seed's full pass has a reference)"
    kept = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    if args.workload not in kept:
        return "no reference kept"
    return "match" if kept[args.workload] == digest else "mismatch"


# -- the two kinds of run -----------------------------------------------------


def end_to_end_run(args, lib, plan, setup_times):
    plan.warm_up()
    passes = timed_passes(plan, args.seconds)
    failures, digest = check_passes(plan, passes)
    latencies = [r[0] for p in passes for r in p]
    raw = [r[3] for p in passes for r in p]
    tail_value, tail_pct, tail_above = tail(latencies, len(passes))
    metrics = {
        "setup_s": statistics.median(t[1] for t in setup_times),
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_tail_ms": 1e3 * tail_value,
        "peak_rss_mb": peak_rss_mb(plan),
    }
    extra = {
        "error_rate": len(failures) / len(latencies),
        "op_tail_percentile": tail_pct,
        "op_tail_samples_above": tail_above,
        "samples": len(latencies),
        "passes": len(passes),
        "speed_scale": sum(latencies) / sum(raw),
        "raw_setup_s": statistics.median(t[0] for t in setup_times),
        "raw_ops_per_s": len(raw) / sum(raw),
        "raw_op_p50_ms": 1e3 * statistics.median(raw),
        "raw_op_tail_ms": 1e3 * tail(raw, len(passes))[0],
        "setup_s_all": setup_times,
        "first_pass_ms": [[op.key, 1e3 * r[0], 1e3 * r[3]] for op, r in zip(plan.ops, passes[0])],
    }
    extra.update(anchors(plan, passes, args.workload))
    if plan.cli:
        extra.update(cache_p50s(plan, passes))
    return metrics, extra, failures, digest, len(latencies), None


def traced_pass(lib, plan, workdir):
    """One pass with spans on; returns (records, wall, merged export)."""
    if not plan.cli:
        tracer = spans.Tracer()
        tracer.install(lib, spans.layer_hooks(lib, tracer))
        try:
            records, wall = one_pass(plan, tracer)
        finally:
            tracer.uninstall()
        return records, wall, tracer.export()
    plan.tracer_dir = workdir / "trace"
    plan.tracer_dir.mkdir(parents=True, exist_ok=True)
    parent = spans.Tracer()
    try:
        records, wall = one_pass(plan, parent)
    finally:
        plan.tracer_dir, trace_dir = None, plan.tracer_dir
    exports = []
    op_spans = {span[5]: span for span in parent.spans}
    for index in range(len(plan.ops)):
        path = trace_dir / f"op{index}.json"
        if not path.is_file():
            continue
        child = json.loads(path.read_text())
        rename = {s[0]: f"{index}.{s[0]}" for s in child["spans"]}
        child["spans"] = [
            (rename[s[0]], s[1], s[2], s[3], rename.get(s[4], op_spans[index][0]), index)
            for s in child["spans"]
        ]
        exports.append(child)
    export = spans.merge(exports + [parent.export()])
    run_s = export["totals"].get("cli.run", [0, 0.0])[1]
    export["counters"]["cli.process_overhead_s"] = sum(r[3] for r in records) - run_s
    return records, wall, export


def at_reference_speed(metrics, scale):
    """Scale the per-layer times of a pass measured at `scale` to the reference speed."""
    out = {}
    for name, value in metrics.items():
        if name.endswith("per_s"):
            value /= scale
        elif name.endswith(("_s", "_ms")):
            value *= scale
        out[name] = value
    return out


def traced_run(args, lib, plan, setup_times, workdir):
    plan.warm_up()
    untraced, _ = one_pass(plan)
    traced, _, export = traced_pass(lib, plan, workdir)
    failures, digest = check_passes(plan, [untraced, traced])
    traced_s, untraced_s = sum(r[0] for r in traced), sum(r[0] for r in untraced)
    scale = traced_s / sum(r[3] for r in traced)
    metrics = at_reference_speed(spans.layer_metrics(export), scale)
    metrics["trace.overhead_ratio"] = traced_s / untraced_s
    metrics.update({"cli.cache_hit_p50_ms": 0.0, "cli.cache_miss_p50_ms": 0.0})
    if plan.cli:
        metrics.update(cache_p50s(plan, [untraced]))
    found = anchors(plan, [untraced], args.workload)
    for name in ("anchor.group_k1n8_3311sq_ms", "anchor.poly_k1_32x2_ms", "anchor.universal_sweep_s"):
        metrics[name] = found.get(name, 0.0)
    extra = {
        "setup_s_all": setup_times,
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "speed_scale": scale,
    }
    return metrics, extra, failures, digest, 2 * len(plan.ops), export["spans"]


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "wreathcenter" / "__init__.py").is_file():
        print(f"error: no wreathcenter package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        try:
            lib, plan, setup_times = set_up(args, workdir)
        except ImportError:
            traceback.print_exc()
            print("error: the wreathcenter package could not be imported", file=sys.stderr)
            return 2
        if args.trace:
            result = traced_run(args, lib, plan, setup_times, workdir)
        else:
            result = end_to_end_run(args, lib, plan, setup_times)
        metrics, extra, failures, digest, attempted, span_list = result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    reference = reference_digest(args, digest)
    correct = not failures and reference != "mismatch"
    report = {
        "metadata": metadata(args),
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()},
        "details": extra,
        "digest": digest,
        "reference": reference,
        "failures": [list(f) for f in failures],
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1))
    if span_list is not None:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(
            {"fields": ["id", "name", "start", "end", "parent", "op"], "spans": span_list}))

    print(f"# {args.workload} seed={args.seed} trace={args.trace} " + json.dumps(report["metadata"]))
    for name, entry in report["metrics"].items():
        print(f"{name:48s} {entry['value']:>16.6f} {entry['unit']}")
    for name, value in extra.items():
        if isinstance(value, (int, float)):
            print(f"{name:48s} {value:>16.6f} {DETAIL_UNITS.get(name) or UNITS[name]}")
    print(f"digest {digest} ({reference}); failures {len(failures)}")
    for failure in failures[:10]:
        print("FAILED", *failure)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
