#!/usr/bin/env python3
"""LLL's benchmark: build the tree, run one workload, check its outputs and
print its metrics.

    python3 perfbench/run.py --workload paper-sweep --seed 7 --seconds 36 \
        --trace 0

Run from the root of a source tree.  The tree is built (Release) into
.bench_build/, the harness (perfbench/harness) is linked against its
libraries, and the workload runs against a private copy of the stock
profiles under .bench_work/.  With --trace 0 the end-to-end metrics of
BENCHMARK.json are reported; with --trace 1 the per-layer metrics of a
traced rep.  The report goes to stdout, its last line one JSON object.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import benchmath as bm  # noqa: E402

WORKLOADS = ("paper-sweep", "design-search", "serve-mixed")
RUN_LIMIT_S = 165  # the harness, after the build


class BenchError(Exception):
    pass


# ---- build ----------------------------------------------------------------

def run_logged(cmd, log):
    log.write("$ " + " ".join(cmd) + "\n")
    log.flush()
    r = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT)
    if r.returncode != 0:
        raise BenchError("build step failed (%d): %s; see %s"
                         % (r.returncode, " ".join(cmd), log.name))


def build(root):
    """Build `lll` and the harness; returns their paths."""
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src"))):
        raise BenchError("no LLL source tree in %s" % root)
    out = os.path.join(root, ".bench_build")
    lll_build = os.path.join(out, "lll")
    harness_build = os.path.join(out, "harness")
    os.makedirs(out, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(os.path.join(out, "build.log"), "w") as log:
        if not os.path.isfile(os.path.join(lll_build, "CMakeCache.txt")):
            run_logged(["cmake", "-S", root, "-B", lll_build,
                        "-DCMAKE_BUILD_TYPE=Release"], log)
        run_logged(["cmake", "--build", lll_build, "--target", "lll",
                    "-j", jobs], log)
        if not os.path.isfile(os.path.join(harness_build, "CMakeCache.txt")):
            run_logged(["cmake", "-S", os.path.join(HERE, "harness"),
                        "-B", harness_build, "-DCMAKE_BUILD_TYPE=Release",
                        "-DLLL_SOURCE_DIR=" + root,
                        "-DLLL_BINARY_DIR=" + lll_build], log)
        run_logged(["cmake", "--build", harness_build, "-j", jobs], log)
    return (os.path.join(lll_build, "tools", "lll"),
            os.path.join(harness_build, "lllbench"))


# ---- harness --------------------------------------------------------------

def tree_digest(path):
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        h.update(name.encode())
        full = os.path.join(path, name)
        if os.path.isfile(full):
            with open(full, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def run_harness(root, lll, harness, args, deadline):
    work = os.path.join(root, ".bench_work", "%s-%d" % (args.workload,
                                                       os.getpid()))
    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    raw = os.path.join(out_dir, "raw-%s-%d.json" % (args.workload,
                                                    os.getpid()))
    cmd = [harness, args.workload, "--out", raw, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", work, "--stock", os.path.join(root, "data", "profiles"),
           "--lll", lll]
    log_path = os.path.join(out_dir, "%s.log" % args.workload)
    with open(log_path, "w") as log:
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                                start_new_session=True)
        try:
            rc = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise BenchError("harness timed out")
        finally:
            shutil.rmtree(work, ignore_errors=True)
    if rc != 0:
        raise BenchError("harness exited %d; see %s" % (rc, log_path))
    with open(raw) as f:
        data = json.load(f)
    os.remove(raw)
    return data


# ---- metrics --------------------------------------------------------------

class Report:
    """Metric values with unit and sample count, in print order."""

    def __init__(self):
        self.rows = []
        self.values = {}

    def add(self, name, value, unit, n=None, note=""):
        self.values[name] = value
        self.rows.append((name, value, unit, n, note))

    def print(self, title):
        print(title)
        for name, value, unit, n, note in self.rows:
            v = "-" if value is None else ("%.6g" % value)
            count = "" if n is None else "  n=%d" % n
            print("  %-38s %14s %-8s%s%s" % (name, v, unit, count,
                                             ("  " + note) if note else ""))


def latency(report, name, samples, q_wanted):
    """Add a percentile from raw samples, with its sample count; None
    when fewer than bm.MIN_BEYOND samples lie beyond it."""
    n = len(samples)
    if n and bm.supported(n, q_wanted):
        report.add(name, bm.percentile(samples, q_wanted), "ms", n)
    else:
        best = bm.highest_percentile(n)
        note = ("too few samples; highest supported p%g" % (best * 100)
                if best else "too few samples")
        report.add(name, None, "ms", n, note)


def untraced(reps):
    return [r for r in reps if not r["traced"]]


def end_to_end(d, extra):
    """The end-to-end metrics of one untraced run, and the workload's own
    report-only metrics in @p extra."""
    r = Report()
    reps = untraced(d["reps"])
    r.add("setup_s", bm.median(d["setup_s"]), "s", len(d["setup_s"]))
    walls = [x["wall_s"] for x in reps]
    if d["workload"] == "serve-mixed":
        # Dozens of ~1 s batches whose ping-pong latency a busy shared
        # host stretches up to 3x for tens of seconds at a time; the
        # fastest batch is the steadiest estimate of the loop's cost.
        # Tails stay visible in hit_p99_ms and open_p99_ms.
        r.add("wall_s", min(walls), "s", len(reps), "fastest batch")
    else:
        r.add("wall_s", bm.median(walls), "s", len(reps))
    r.add("cpu_s", bm.median([x["cpu_s"] for x in reps]), "s", len(reps))
    r.add("peak_rss_mb", d["peak_rss_mb"], "MB", 1)
    s, samples = d["scalars"], d["samples"]
    w = d["workload"]
    if w in ("paper-sweep", "design-search"):
        extra.add("sim_us_per_s",
                  bm.median([x["sim_us"] / x["wall_s"] for x in reps]),
                  "us/s", len(reps))
    if w == "paper-sweep":
        extra.add("paper_speedup_err", s.get("paper_speedup_err"), "ln",
                  int(s.get("paper_rows", 0)))
        extra.add("recipe_agree", s.get("recipe_agree"), "fraction",
                  int(s.get("recipe_tried", 0)),
                  "%d of %d rows tried" % (s.get("recipe_agreed", 0),
                                           s.get("recipe_tried", 0)))
    if w == "design-search":
        for k in ("enumerated", "simulated", "pruned_analytic",
                  "pruned_infeasible", "waves"):
            extra.add("search." + k, s.get("search." + k), "count")
    if w == "serve-mixed":
        good = [ok / x["wall_s"] for ok, x in zip(samples["batch_ok"], reps)]
        extra.add("goodput_rps", bm.median(good), "1/s", len(good))
        latency(extra, "hit_p50_ms", samples["hit_ms"], 0.5)
        latency(extra, "hit_p99_ms", samples["hit_ms"], 0.99)
        latency(extra, "miss_p50_ms", samples["miss_ms"], 0.5)
        latency(extra, "miss_p90_ms", samples["miss_ms"], 0.9)
        if samples.get("open_ms"):
            latency(extra, "open_p99_ms", samples["open_ms"], 0.99)
            latency(extra, "open_late_p99_ms", samples["open_late_ms"], 0.99)
            extra.add("open_late_max_ms", max(samples["open_late_ms"]), "ms",
                      len(samples["open_late_ms"]))
            extra.add("open_rps", s.get("open_rps"), "1/s")
    return r


def span_stats(d):
    """Inclusive time and count per span name, self time per layer, the
    largest share of the traced interval any one thread's self time
    covers (at most 1 when spans nest properly), and each span's self
    time."""
    spans = d["spans"]
    selfs = bm.self_times((s[3], s[4], s[1], s[2]) for s in spans)
    incl, count, self_by_layer, per_thread = {}, {}, {}, {}
    for name, start, end, sid, _parent, _rid, thread in spans:
        incl[name] = incl.get(name, 0) + (end - start)
        count[name] = count.get(name, 0) + 1
        layer = name.split(".")[0]
        self_by_layer[layer] = self_by_layer.get(layer, 0) + selfs[sid]
        per_thread[thread] = per_thread.get(thread, 0) + selfs[sid]
    t0, t1 = d["traced_interval_ns"]
    coverage = max(per_thread.values()) / (t1 - t0) if per_thread else 0.0
    return incl, count, self_by_layer, coverage, selfs


def server_summary(d):
    text = d["texts"].get("server_summary")
    return json.loads(text)["data"] if text else None


def per_layer(d, extra):
    """The per-layer metrics of one traced run (report-only extras, such as
    the service and net stage latencies, go to @p extra)."""
    r = Report()
    incl, count, self_layer, coverage, _ = span_stats(d)
    lay, sim, s = d["layers"], d["sim"], d["scalars"]
    sec = lambda name: incl.get(name, 0) / 1e9  # noqa: E731

    def ratio(a, b):
        return a / b if b else 0.0

    n_spans = lambda name: count.get(name, 0)  # noqa: E731
    r.add("xmem.measure_s", sec("xmem.measure"), "s", n_spans("xmem.measure"))
    r.add("xmem.profiles", lay["xmem_profiles"], "count")
    r.add("sim.build_s", sec("sim.build"), "s", n_spans("sim.build"))
    r.add("sim.builds", lay["sim_builds"], "count")
    r.add("sim.run_s", sec("sim.run"), "s", n_spans("sim.run"))
    r.add("sim.events", lay["sim_events"], "count")
    r.add("sim.ns_per_event", ratio(incl.get("sim.run", 0), lay["sim_events"]),
          "ns")
    r.add("sim.l1.hit_ratio",
          ratio(sim["l1_hits"], sim["l1_hits"] + sim["l1_misses"]), "ratio")
    r.add("sim.l2.hit_ratio",
          ratio(sim["l2_hits"], sim["l2_hits"] + sim["l2_misses"]), "ratio")
    r.add("sim.l1.mshr_occ", ratio(sim["l1_occ_sum"], sim["runs"]), "count",
          sim["runs"])
    r.add("sim.l2.mshr_occ", ratio(sim["l2_occ_sum"], sim["runs"]), "count",
          sim["runs"])
    r.add("sim.l1.full_stalls", sim["l1_full_stalls"], "count")
    r.add("sim.l2.full_stalls", sim["l2_full_stalls"], "count")
    r.add("sim.pf.issued", sim["pf_issued"], "count")
    r.add("sim.pf.useful_ratio", ratio(sim["pf_useful"], sim["pf_issued"]),
          "ratio")
    r.add("sim.pf.dropped", sim["pf_dropped"], "count")
    r.add("sim.mem.util", ratio(sim["mem_util_sum"], sim["runs"]), "ratio",
          sim["runs"])
    r.add("sim.mem.lat_ns", ratio(sim["mem_lat_weighted"],
                                  sim["mem_read_lines"]), "sim_ns")
    r.add("sim.mem.lines", sim["mem_read_lines"] + sim["mem_write_lines"],
          "count")
    r.add("counters.profile_s", sec("counters.profile"), "s",
          n_spans("counters.profile"))
    r.add("core.experiment.stage_s", sec("core.experiment.stage"), "s",
          n_spans("core.experiment.stage"))

    fans = lay["fanouts"]
    waits = [w for f in fans for w in f["queue_wait_ns"]]
    r.add("core.sweep.queue_wait_s", sum(waits) / 1e9, "s", len(waits))
    capacity = sum(f["workers"] * f["wall_ns"] for f in fans)
    r.add("core.sweep.busy_frac",
          ratio(sum(f["busy_ns"] for f in fans), capacity), "ratio", len(fans))
    r.add("core.sweep.straggler_s",
          sum(f["wall_ns"] - f["busy_ns"] / f["workers"] for f in fans) / 1e9,
          "s", len(fans))

    resid = [bm.littles_residual(n, t) for n, t in lay["littles"] if t > 0]
    r.add("core.analyzer.littles_residual_p50",
          bm.median(resid) if resid else 0.0, "ratio", len(resid))
    r.add("core.analyzer.littles_residual_max",
          max(resid) if resid else 0.0, "ratio", len(resid))
    hits, misses = lay["cache_hits"], lay["cache_misses"]
    r.add("core.cache.hits", hits, "count")
    r.add("core.cache.misses", misses, "count")
    r.add("core.cache.hit_ratio", ratio(hits, hits + misses), "ratio",
          hits + misses)
    r.add("core.cache.lookup_us",
          ratio(incl.get("core.cache.lookup", 0) / 1e3, hits + misses), "us",
          hits + misses)

    for k in ("enumerated", "pruned_analytic", "simulated"):
        r.add("search." + k, s.get("search." + k, 0), "count")
    r.add("search.prune_ratio", ratio(s.get("search.pruned_analytic", 0),
                                      s.get("search.enumerated", 0)), "ratio")
    r.add("search.waves", s.get("search.waves", 0), "count")

    summary = server_summary(d)
    r.add("net.admitted", summary["admitted"] if summary else 0, "count")
    r.add("net.shed", summary["shed"] if summary else 0, "count")
    r.add("net.conn_errors", s.get("net.conn_errors", 0), "count")

    for layer in ("xmem", "core", "search", "sim"):
        r.add("self.%s_s" % layer, self_layer.get(layer, 0) / 1e9, "s")
    r.add("obs.self_coverage_max", coverage, "ratio")
    reps = d["reps"]
    plain = untraced(reps)
    traced = [x for x in reps if x["traced"]]
    r.add("obs.trace_overhead",
          ratio(traced[0]["wall_s"], bm.median([x["wall_s"] for x in plain])),
          "ratio", 1)

    # Report-only: metrics of layers this workload alone exercises.
    w = d["workload"]
    if w == "paper-sweep":
        for k in ("paper_speedup_err", "recipe_agree"):
            extra.add("held_out." + k, s.get("held_out." + k),
                      "ln" if k.endswith("err") else "fraction", None,
                      "seed %d" % s.get("held_out.seed", 0))
    if w == "design-search":
        extra.add("search.profile_s", sec("xmem.measure"), "s")
        extra.add("search.simulate_s",
                  sum(f["wall_ns"] for f in fans) / 1e9, "s", len(fans))
    if w == "serve-mixed":
        samples = d["samples"]
        for name, unit in (("service.parse_us", "us"),
                           ("service.coalesce_us", "us"),
                           ("service.respond_us", "us"),
                           ("service.queue_wait_us", "us"),
                           ("service.simulate_ms", "ms")):
            xs = samples.get(name, [])
            for q in (0.5, 0.99):
                ok = xs and bm.supported(len(xs), q)
                extra.add("%s.p%g" % (name, q * 100),
                          bm.percentile(xs, q) if ok else None, unit, len(xs))
        if summary:
            lat = summary["latency_ms"]
            for part in ("queue_wait", "handler"):
                for q in ("p50", "p99"):
                    extra.add("net.%s_ms.%s" % (part, q), lat[part][q], "ms",
                              lat[part]["samples"], "log2 histogram")
            hit = d["samples"]["hit_ms"]
            if hit:
                extra.add("net.loop_ms",
                          bm.percentile(hit, 0.5) - lat["queue_wait"]["p50"]
                          - lat["handler"]["p50"], "ms", len(hit),
                          "client p50 - server queue wait p50 - handler p50")
    for layer, ns in sorted(self_layer.items()):
        if "self.%s_s" % layer not in r.values:
            extra.add("self.%s_s" % layer, ns / 1e9, "s")
    return r


def server_checks(d):
    """(ok, what) checks of the server's own --json summary."""
    if d["workload"] != "serve-mixed":
        return []
    summary = server_summary(d)
    if summary is None:
        return [(False, "server wrote no --json summary")]
    return [(summary["requests"] == summary["admitted"] + summary["shed"],
             "server: requests != admitted + shed")]


def layer_checks(d):
    """(ok, what) checks that the harness reached the layer functions it
    wraps.  A wrapper the program stops calling (an inlined or renamed
    call) reads 0, which would otherwise pass for a gain."""
    w = d["workload"]
    if not d["trace"]:
        if w == "serve-mixed":
            return []
        return [(all(x["sim_us"] > 0 for x in d["reps"]),
                 "a rep simulated nothing through System::run")]
    _, count, _, _, _ = span_stats(d)
    lay = d["layers"]
    reached = [("sim::System construction", lay["sim_builds"]),
               ("System::run", count.get("sim.run", 0)),
               ("RoutineProfiler::profile", count.get("counters.profile", 0)),
               ("Experiment::stage", count.get("core.experiment.stage", 0)),
               ("Analyzer::analyze", len(lay["littles"])),
               ("ResultCache::lookup",
                lay["cache_hits"] + lay["cache_misses"])]
    if w == "paper-sweep":
        reached.append(("Experiment::paperTable",
                        count.get("core.sweep.unit", 0)))
    else:
        reached.append(("SweepRunner::runStages",
                        count.get("core.sweep.run_stages", 0)))
    if w == "design-search":
        reached.append(("XMemHarness characterization", lay["xmem_profiles"]))
    return [(n > 0, "traced rep never reached %s" % what)
            for what, n in reached]


def write_trace(root, d):
    """The traced rep's spans, with self time, for offline inspection."""
    _, _, _, _, selfs = span_stats(d)
    path = os.path.join(root, ".bench_out", "trace-%s-seed%d.json"
                        % (d["workload"], d["seed"]))
    with open(path, "w") as f:
        json.dump([{"name": s[0], "start_ns": s[1], "end_ns": s[2],
                    "id": s[3], "parent": s[4], "rid": s[5], "thread": s[6],
                    "self_ns": selfs[s[3]]} for s in d["spans"]], f)
    return path


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    root = os.getcwd()
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            spec = json.load(f)
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        lll, harness = build(root)
        # A no-op build takes a few seconds; a first build is not part of
        # the run's time limit.
        deadline = time.monotonic() + RUN_LIMIT_S
        profiles = os.path.join(root, "data", "profiles")
        before = tree_digest(profiles)
        d = run_harness(root, lll, harness, args, deadline)
        checks = server_checks(d) + layer_checks(d) + [
            (tree_digest(profiles) == before, "data/profiles changed")]
        failures = list(d["failures"]) + [m for ok, m in checks if not ok]
        attempted = d["attempted"] + len(checks)
        failed = d["failed"] + sum(1 for ok, _ in checks if not ok)

        extra = Report()
        if args.trace:
            report = per_layer(d, extra)
            names = [m["name"] for m in spec["per_layer"]]
        else:
            report = end_to_end(d, extra)
            names = [m["name"] for m in spec["end_to_end"]]
        extra.add("error_rate", bm.error_rate(attempted, failed),
                  "fraction", attempted)
        units = {m["name"]: m["unit"]
                 for m in spec["end_to_end"] + spec["per_layer"]}
    except BenchError as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1

    print("perfbench %s seed %d (%s)" % (args.workload, args.seed,
                                         "traced" if args.trace else
                                         "untraced"))
    report.print("metrics:")
    extra.print("report-only:")
    print("  sim digest %s" % d["digest"])
    if d["texts"].get("frontier"):
        print("  frontier:\n    " +
              d["texts"]["frontier"].strip().replace("\n", "\n    "))
    for f in failures:
        print("  FAILED: %s" % f)
    if args.trace:
        print("  spans written to %s" % os.path.relpath(write_trace(root, d)))
    result_path = os.path.join(root, ".bench_out", "result-%s-seed%d-trace%d.json"
                               % (args.workload, args.seed, args.trace))
    with open(result_path, "w") as f:
        json.dump({"reps": d["reps"], "setup_s": d["setup_s"],
                   "scalars": d["scalars"], "metrics": report.values,
                   "report_only": extra.values, "failures": failures}, f,
                  indent=1)
    missing = [n for n in names if report.values.get(n) is None]
    if missing:
        print("perfbench: no value for %s" % ", ".join(missing),
              file=sys.stderr)
        return 1
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": report.values[n], "unit": units[n]}
                    for n in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
