#!/usr/bin/env python3
"""Repo benchmark: builds the measuring program from this checkout, runs one
workload for a fixed time, checks every result against the repo's oracles
and prints the metrics. See README.md in this directory.

  python3 e2ebench/run.py --workload table3-cold --seed 1 --seconds 30 --trace 0
  python3 e2ebench/run.py --workload simd-vl-sweep --seed 1 --seconds 30 --trace 1
  python3 e2ebench/run.py --self-check

Human-readable lines go to stdout first; the last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
BIN = os.path.join(BUILD, "sfrv-e2ebench")

WORKLOADS = ("table3-cold", "table3-warm", "simd-vl-sweep")
WARM = {"table3-warm"}

END_TO_END = {
    "setup_s": "s",
    "campaign_s": "s",
    "peak_rss_mb": "MiB",
    "sim_cycles": "cycles",
    "sim_energy_uj": "uJ",
}

PER_LAYER = {
    "kernels.fixture_ms": "ms",
    "kernels.builds": "count",
    "kernels.build_ms": "ms",
    "ir.lowerings": "count",
    "ir.lower_ms": "ms",
    "ir.text_insts": "count",
    "eval.digest_ms": "ms",
    "eval.plan_ms": "ms",
    "eval.store_lookups": "count",
    "eval.store_hits": "count",
    "eval.store_disk_hits": "count",
    "eval.store_lookup_ms": "ms",
    "sim.core_init_ms": "ms",
    "sim.core_free_ms": "ms",
    "sim.load_ms": "ms",
    "sim.run_ms": "ms",
    "sim.instructions": "count",
    "sim.mips": "Minst/s",
    "sim.readback_ms": "ms",
    "sim.jit.translations": "count",
    "sim.jit.hit_rate": "ratio",
    "sim.jit.vl_invalidations": "count",
    "sim.jit.interp_entries": "count",
    "sim.jit.translate_ms": "ms",
    "softfloat.packed_ops": "count",
    "softfloat.scalar_fp_ops": "count",
    "eval.exec_ms": "ms",
    "eval.exec_busy_ms": "ms",
    "eval.parallel_eff": "ratio",
    "eval.cell_p50_ms": "ms",
    "eval.cell_p95_ms": "ms",
    "eval.cell_max_ms": "ms",
    "tuner.study_ms": "ms",
    "tuner.points_simulated": "count",
    "tuner.points_served": "count",
    "tuner.points_skipped": "count",
    "energy.qor_ms": "ms",
    "eval.report_ms": "ms",
    "eval.report_bytes": "bytes",
    "trace.coverage": "ratio",
    "trace.overhead": "ms",
}

# At least this many timed repetitions, however short --seconds is.
MIN_REPS = 3
CHILD_TIMEOUT_S = 60


class BenchError(Exception):
    pass


def build():
    """Configure once, then bring the measuring program up to date."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise BenchError("no sfrv source tree at " + ROOT)
    jobs = str(min(4, os.cpu_count() or 1))

    def attempt():
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, check=True)
        subprocess.run(["cmake", "--build", BUILD, "--target",
                        "sfrv-e2ebench", "-j", jobs],
                       stdout=sys.stderr, check=True)

    try:
        attempt()
    except subprocess.CalledProcessError:
        # A build tree configured for another source path cannot be reused.
        shutil.rmtree(BUILD, ignore_errors=True)
        try:
            attempt()
        except subprocess.CalledProcessError as e:
            raise BenchError("build failed: %s" % e) from e


def child(mode, workload, *extra):
    """Run one mode of the measuring program in a new process."""
    argv = [BIN, mode]
    if workload is not None:
        argv += ["--workload", workload]
    argv += list(extra)
    p = subprocess.run(argv, capture_output=True, text=True,
                       timeout=CHILD_TIMEOUT_S)
    if p.returncode != 0:
        raise BenchError("%s %s failed (exit %d): %s" % (
            mode, workload, p.returncode, p.stderr.strip()))
    return json.loads(p.stdout.strip().splitlines()[-1])


def fmt(value):
    return "%d" % value if float(value).is_integer() else "%.6g" % value


def median(values):
    m = statistics.median(values)
    # Counts stay whole numbers when the two middle values agree.
    if all(isinstance(v, int) for v in values) and float(m).is_integer():
        return int(m)
    return m


def tail(values):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(values)
    if n < 20:
        return None
    pct = int(100 * (n - 10) / n)
    return pct, statistics.quantiles(values, n=100)[pct - 1]


class Checker:
    """Counts cells attempted and failed against the cold reference run."""

    def __init__(self, ref, lines, warm):
        self.ref = ref
        self.lines = lines
        # A warm run must serve every lookup the cold fill made from the
        # store, or it would time a cold campaign under the warm label.
        self.lookups = ref["store_hits"] + ref["store_misses"] if warm else None
        self.attempted = 0
        self.failed = 0

    def check(self, what, run):
        n = len(self.ref["cells"])
        cells = run["cells"]
        bad = sum(a != b for a, b in zip(cells, self.ref["cells"]))
        bad += abs(len(cells) - n)
        report_differs = (run["json_digest"] != self.ref["json_digest"]
                          or run["md_digest"] != self.ref["md_digest"])
        if report_differs and bad == 0:
            bad = 1  # the tuner study or the report layout differs
        if bad:
            self.lines.append("MISMATCH: %s differs from the reference in %d "
                              "cell(s)" % (what, bad))
        if self.lookups is not None and (run["store_misses"] != 0 or
                                         run["store_hits"] != self.lookups):
            bad = n
            self.lines.append("MISMATCH: %s: %d store hits and %d misses, "
                              "expected %d hits and 0 misses" % (
                                  what, run["store_hits"],
                                  run["store_misses"], self.lookups))
        self.attempted += n
        self.failed += min(bad, n)

    def crashed(self, what, err):
        self.attempted += len(self.ref["cells"])
        self.failed += len(self.ref["cells"])
        self.lines.append("FAILED: %s: %s" % (what, err))


def run_workload(workload, seed, seconds, trace, smoke=False):
    """Returns (human lines, result object)."""
    lines = []
    scale = ["--smoke"] if smoke else []
    os.makedirs(os.path.join(BUILD, "work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix=workload + "-", dir=os.path.join(BUILD, "work"))
    try:
        store = ["--store", os.path.join(work, "store")] if workload in WARM else []
        info = child("info", None)
        lines.append("env: nproc=%d compiler=%s build=%s flags=%s" % (
            info["nproc"], info["compiler"], info["build_type"],
            info["flags"].strip()))

        # Untimed: the cold reference (it fills the store of a warm
        # workload) and the oracle sample.
        ref = child("rep", workload, *scale, *store)
        checker = Checker(ref, lines, workload in WARM)
        oracle = child("oracle", workload, *scale, "--seed", str(seed))
        checker.attempted += len(oracle["sample"])
        for s in oracle["sample"]:
            if not s["ok"] or s["digest"] != ref["cells"][s["index"]]:
                checker.failed += 1
                lines.append("MISMATCH: cell %d differs from the Reference "
                             "engine + grs backend" % s["index"])

        reps, traced = [], []
        start = time.monotonic()
        attempts = 0
        while time.monotonic() - start < seconds or attempts < MIN_REPS:
            attempts += 1
            try:
                r = child("rep", workload, *scale, *store)
                checker.check("rep %d" % len(reps), r)
                reps.append(r)
            except (BenchError, subprocess.TimeoutExpired) as e:
                checker.crashed("rep %d" % len(reps), e)
            if trace:
                spans = os.path.join(BUILD, "spans-%s.jsonl" % workload)
                try:
                    t = child("trace", workload, *scale, *store,
                              "--seed", str(seed), "--spans", spans)
                    checker.check("traced run %d" % len(traced), t)
                    traced.append(t)
                except (BenchError, subprocess.TimeoutExpired) as e:
                    checker.crashed("traced run %d" % len(traced), e)
        elapsed = time.monotonic() - start
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if not reps or (trace and not traced):
        raise BenchError("no repetition of %s completed" % workload)

    lines.insert(0, "workload %s%s: seed %d, %d timed repetitions in %.1f s, "
                 "each a new process" % (workload, " (smoke)" if smoke else "",
                                         seed, len(reps), elapsed))
    metrics = {}
    if not trace:
        for name in ("setup_s", "campaign_s", "peak_rss_mb"):
            values = [r[name] for r in reps]
            metrics[name] = median(values)
            t = tail(values)
            lines.append("%s: %.6g %s (median of %d%s)" % (
                name, metrics[name], END_TO_END[name], len(values),
                "; p%d %.6g" % t if t else ""))
        metrics["sim_cycles"] = ref["sim_cycles"]
        metrics["sim_energy_uj"] = ref["sim_energy_uj"]
        lines.append("sim_cycles: %d cycles (sum over %d report cells)" % (
            ref["sim_cycles"], len(ref["cells"])))
        lines.append("sim_energy_uj: %.6f uJ" % ref["sim_energy_uj"])
        computed = [r["computed_instructions"] / r["campaign_s"] / 1e6
                    for r in reps if r["computed_instructions"] > 0]
        if computed:
            lines.append("sim_mips: %.6g Minst/s (simulated instructions of the "
                         "computed cells per campaign second, median of %d)" % (
                             median(computed), len(computed)))
        else:
            lines.append("sim_mips: n/a (every cell served from the store)")
        units = END_TO_END
    else:
        for name in PER_LAYER:
            if name == "trace.overhead":
                continue
            metrics[name] = median([t["layers"][name] for t in traced])
        metrics["trace.overhead"] = 1e3 * (
            median([t["campaign_s"] for t in traced])
            - median([r["campaign_s"] for r in reps]))
        for name, unit in PER_LAYER.items():
            lines.append("%s: %s %s" % (name, fmt(metrics[name]), unit))
        lines.append("(median of %d traced runs; trace.overhead against the "
                     "median of %d untraced runs)" % (len(traced), len(reps)))
        units = PER_LAYER
    lines.append("fail_frac: %.6g (%d failed / %d attempted cells)" % (
        checker.failed / checker.attempted, checker.failed, checker.attempted))

    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    return lines, result


def self_check():
    """Smoke-scale variant of every workload, traced and untraced: every
    metric BENCHMARK.json names must be printed with its unit, and fail_frac
    must be 0."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            lines, result = run_workload(w["name"], 1, 1, trace, smoke=True)
            print("\n".join(lines))
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                problems.append("%s trace %d: metrics %s, expected %s" % (
                    w["name"], trace, got, expected[trace]))
            for name in expected[trace]:
                if not any(line.startswith(name + ":") for line in lines):
                    problems.append("%s trace %d: %s not printed" % (
                        w["name"], trace, name))
            if not result["correct"] or result["failed"] != 0:
                problems.append("%s trace %d: fail_frac %d/%d" % (
                    w["name"], trace, result["failed"], result["attempted"]))
    for p in problems:
        print("self-check: " + p)
    print("self-check: %s" % ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()
    if not args.self_check and args.workload is None:
        ap.error("--workload is required")
    try:
        build()
        if args.self_check:
            return self_check()
        lines, result = run_workload(args.workload, args.seed, args.seconds,
                                     args.trace)
    except (BenchError, OSError, subprocess.SubprocessError) as e:
        print("e2ebench: %s" % e, file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
