/**
 * @file
 * lllbench: runs one benchmark workload against the LLL libraries and
 * writes its raw measurements (samples, checks, spans) as JSON.  The
 * statistics and the final report are computed by perfbench/run.py.
 *
 *   lllbench <paper-sweep|design-search|serve-mixed> --out FILE
 *            --seed N --seconds S --trace 0|1 --work DIR --stock DIR
 *            [--lll PATH]
 */

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "bench.hh"

namespace fs = std::filesystem;

namespace bench
{

void
Output::check(bool ok, const std::string &what)
{
    ++attempted;
    if (!ok) {
        ++failed;
        if (failures.size() < 20)
            failures.push_back(what);
    }
}

void
privateProfileDir(const Options &opt, const std::string &dir)
{
    fs::remove_all(dir);
    fs::create_directories(dir);
    for (const auto &e : fs::directory_iterator(opt.stock)) {
        if (e.path().extension() == ".profile")
            fs::copy_file(e.path(), fs::path(dir) / e.path().filename());
    }
    setenv("LLL_PROFILE_DIR", dir.c_str(), 1);
}

double
processCpuS()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           double(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double
selfPeakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

std::string
fmt(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
hex(uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
    return buf;
}

} // namespace bench

namespace
{

std::string
quote(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
numbers(const std::vector<double> &v)
{
    std::string out = "[";
    for (size_t i = 0; i < v.size(); ++i) {
        if (i)
            out += ',';
        out += bench::fmt(v[i]);
    }
    return out + "]";
}

void
writeOutput(const bench::Options &opt, const bench::Output &o,
            std::ostream &os)
{
    using bench::fmt;
    os << "{\"workload\":" << quote(opt.workload) << ",\"seed\":"
       << opt.seed << ",\"trace\":" << (opt.trace ? 1 : 0)
       << ",\n\"setup_s\":" << numbers(o.setupS) << ",\n\"reps\":[";
    for (size_t i = 0; i < o.reps.size(); ++i) {
        const bench::Output::Rep &r = o.reps[i];
        os << (i ? "," : "") << "{\"traced\":" << (r.traced ? 1 : 0)
           << ",\"wall_s\":" << fmt(r.wallS) << ",\"cpu_s\":"
           << fmt(r.cpuS) << ",\"sim_us\":" << fmt(r.simUs) << "}";
    }
    os << "],\n\"peak_rss_mb\":" << fmt(o.peakRssMb)
       << ",\n\"attempted\":" << o.attempted << ",\"failed\":" << o.failed
       << ",\"failures\":[";
    for (size_t i = 0; i < o.failures.size(); ++i)
        os << (i ? "," : "") << quote(o.failures[i]);
    os << "],\n\"digest\":" << quote(o.digest) << ",\n\"scalars\":{";
    bool first = true;
    for (const auto &[k, v] : o.scalars) {
        os << (first ? "" : ",") << quote(k) << ":" << fmt(v);
        first = false;
    }
    os << "},\n\"texts\":{";
    first = true;
    for (const auto &[k, v] : o.texts) {
        os << (first ? "" : ",") << quote(k) << ":" << quote(v);
        first = false;
    }
    os << "},\n\"samples\":{";
    first = true;
    for (const auto &[k, v] : o.samples) {
        os << (first ? "" : ",\n") << quote(k) << ":" << numbers(v);
        first = false;
    }

    const bench::SimModel &m = o.sim;
    os << "},\n\"sim\":{\"runs\":" << m.runs << ",\"l1_hits\":" << m.l1Hits
       << ",\"l1_misses\":" << m.l1Misses << ",\"l2_hits\":" << m.l2Hits
       << ",\"l2_misses\":" << m.l2Misses << ",\"l1_occ_sum\":"
       << fmt(m.l1OccSum) << ",\"l2_occ_sum\":" << fmt(m.l2OccSum)
       << ",\"l1_full_stalls\":" << m.l1FullStalls
       << ",\"l2_full_stalls\":" << m.l2FullStalls << ",\"pf_issued\":"
       << m.pfIssued << ",\"pf_useful\":" << m.pfUseful
       << ",\"pf_dropped\":" << m.pfDropped << ",\"mem_util_sum\":"
       << fmt(m.memUtilSum) << ",\"mem_lat_weighted\":"
       << fmt(m.memLatWeighted) << ",\"mem_read_lines\":"
       << m.memReadLines << ",\"mem_write_lines\":" << m.memWriteLines
       << ",\"simulated_us\":" << fmt(m.simulatedUs) << "}";

    const bench::LayerCounters &l = o.layers;
    os << ",\n\"layers\":{\"sim_builds\":" << l.simBuilds
       << ",\"sim_events\":" << l.simEvents << ",\"xmem_profiles\":"
       << l.xmemProfiles << ",\"cache_hits\":" << l.cacheHits
       << ",\"cache_misses\":" << l.cacheMisses
       << ",\"littles\":[";
    for (size_t i = 0; i < l.littles.size(); ++i) {
        os << (i ? "," : "") << "[" << fmt(l.littles[i].first) << ","
           << fmt(l.littles[i].second) << "]";
    }
    os << "]"
       << ",\"fanouts\":[";
    for (size_t i = 0; i < l.fanouts.size(); ++i) {
        const bench::LayerCounters::Fanout &f = l.fanouts[i];
        os << (i ? "," : "") << "{\"wall_ns\":" << fmt(f.wallNs)
           << ",\"busy_ns\":" << fmt(f.busyNs) << ",\"workers\":"
           << f.workers << ",\"queue_wait_ns\":" << numbers(f.queueWaitNs)
           << "}";
    }
    os << "]},\n\"traced_interval_ns\":[" << o.tracedStartNs << ","
       << o.tracedEndNs << "],\n\"spans\":[";
    for (size_t i = 0; i < o.spans.size(); ++i) {
        const bench::Span &s = o.spans[i];
        os << (i ? ",\n" : "") << "[" << quote(s.name) << "," << s.startNs
           << "," << s.endNs << "," << s.id << "," << s.parent << ","
           << s.rid << "," << s.thread << "]";
    }
    os << "]}\n";
}

/**
 * Keep every CPU busy for a second before anything is timed.  On a
 * shared virtual machine that was idle, the first second of work runs
 * at about half speed (measured: the serve-mixed set-up took 0.25 s
 * cold and 0.12 s warm), which would land in set-up time.
 */
void
warmHost()
{
    const int64_t until = bench::nowNs() + 1'000'000'000;
    std::vector<std::thread> spin;
    for (unsigned i = 0; i < std::max(1u, std::thread::hardware_concurrency());
         ++i) {
        spin.emplace_back([until] {
            volatile uint64_t x = 0;
            while (bench::nowNs() < until)
                x = x + 1;
        });
    }
    for (std::thread &t : spin)
        t.join();
}

int
usage(const char *msg)
{
    std::fprintf(stderr, "lllbench: %s\n", msg);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Options opt;
    std::string out_path;
    if (argc < 2)
        return usage("missing workload");
    opt.workload = argv[1];
    for (int i = 2; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const std::string val = argv[i + 1];
        if (flag == "--out")
            out_path = val;
        else if (flag == "--seed")
            opt.seed = std::strtoull(val.c_str(), nullptr, 10);
        else if (flag == "--seconds")
            opt.seconds = std::atof(val.c_str());
        else if (flag == "--trace")
            opt.trace = val == "1";
        else if (flag == "--work")
            opt.work = val;
        else if (flag == "--stock")
            opt.stock = val;
        else if (flag == "--lll")
            opt.lll = val;
        else
            return usage(("unknown flag " + flag).c_str());
    }
    if (out_path.empty() || opt.work.empty() || opt.stock.empty())
        return usage("--out, --work and --stock are required");

    warmHost();
    bench::Output out;
    if (opt.workload == "paper-sweep")
        bench::runPaperSweep(opt, out);
    else if (opt.workload == "design-search")
        bench::runDesignSearch(opt, out);
    else if (opt.workload == "serve-mixed")
        bench::runServeMixed(opt, out);
    else
        return usage(("unknown workload " + opt.workload).c_str());

    std::ofstream os(out_path);
    writeOutput(opt, out, os);
    os.close();
    std::error_code ec;
    fs::remove_all(opt.work, ec);
    return os ? 0 : 1;
}
