/**
 * @file
 * The serve-mixed runner: `lll serve --listen` with two workers, loaded
 * through net::BlockingClient by two connections.
 *
 *  - Set-up: spawn the server, wait for its "listening" line, and
 *    pre-warm the hot set (one request per hot config).
 *  - Closed loop: batches of a fixed request count, pipeline 1 per
 *    connection.  Most requests repeat a hot config (cache hits); every
 *    `kMissEvery`-th is a hot config with a never-used seed, which must
 *    simulate.
 *  - Open loop: hits only, sent on a fixed schedule at `kOpenRps`
 *    regardless of replies, each timed from its due time.
 *  - In-process reference: the hot lines served by RunService::serveLines
 *    in this process; every socket response to a hit must equal it
 *    byte for byte.  The traced run also replays the closed-loop stream
 *    through serveLines for the service layer's stage timings.
 */

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <fstream>
#include <random>
#include <sstream>
#include <thread>

#include "net/client.hh"
#include "obs/registry.hh"
#include "service/service.hh"

#include "bench.hh"

using namespace lll;

namespace bench
{

namespace
{

struct Template
{
    const char *platform;
    const char *workload;
    const char *opt; //!< "" = base
};

// Hot configs: every one passes the static lint at 8 cores, and a cold
// 2/5 µs stage of each costs ~4-45 ms on a 4-core x86 host.
const Template kTemplates[] = {
    {"skl", "isx", ""},      {"skl", "hpcg", ""},
    {"skl", "pennant", ""},  {"knl", "isx", ""},
    {"knl", "hpcg", ""},     {"a64fx", "isx", ""},
    {"a64fx", "hpcg", ""},   {"skl", "snap", ""},
    {"knl", "minighost", ""}, {"skl", "dgemm", ""},
    {"skl", "isx", "vect"},  {"knl", "hpcg", "vect"},
};
constexpr int kNumTemplates = sizeof kTemplates / sizeof kTemplates[0];

// Requests per closed-loop batch (one rep), split over the connections:
// about a second of work, so a run holds a few dozen batches.
constexpr int kBatch = 6000;
// Every kMissEvery-th closed-loop request must simulate.  Measured
// client-side, misses then hold the two workers about a third of the
// time; at most half is the design rule.
constexpr int kMissEvery = 150;
// Open-loop offered rate of hits: about a sixth of the closed-loop
// goodput (~6000/s), not half.  When host steal time spikes, capacity
// falls to ~1400/s, and an offered rate above it let the backlog grow
// until the server reset the connections.
constexpr double kOpenRps = 1000.0;
// Share of opt.seconds spent in the open-loop phase.
constexpr double kOpenShare = 0.15;
// Closed-loop requests replayed through RunService::serveLines in a
// traced run, for the service layer's stage timings.
constexpr int kReplay = 3000;
// Timed set-ups per run (server spawn, listening, pre-warm).
constexpr int kSetups = 5;

std::string
requestLine(const std::string &id, const Template &t, uint64_t seed)
{
    std::ostringstream s;
    s << "{\"schema_version\": 1, \"id\": \"" << id << "\", \"platform\": \""
      << t.platform << "\", \"workload\": \"" << t.workload
      << "\", \"opts\": [";
    if (*t.opt)
        s << "\"" << t.opt << "\"";
    s << "], \"cores\": 8, \"seed\": " << seed
      << ", \"warmup_us\": 2.0, \"measure_us\": 5.0}";
    return s.str();
}

bool
statusOk(const std::string &resp)
{
    return resp.find("\"status\": {\"code\": \"ok\"") != std::string::npos;
}

struct Req
{
    std::string line;
    int hot = -1; //!< hot-set index, -1 for a miss
};

/** A running `lll serve --listen` child. */
struct Server
{
    pid_t pid = -1;
    int port = 0;
    std::string jsonPath;
    std::thread drain;

    bool start(const Options &opt, const std::string &json_path,
               std::string *err)
    {
        jsonPath = json_path;
        int fds[2];
        if (pipe(fds) != 0) {
            *err = "pipe failed";
            return false;
        }
        const std::string work = opt.work;
        pid = fork();
        if (pid == 0) {
            dup2(fds[1], STDERR_FILENO);
            const int devnull = open("/dev/null", O_WRONLY);
            dup2(devnull, STDOUT_FILENO);
            close(fds[0]);
            close(fds[1]);
            if (chdir(work.c_str()) != 0)
                _exit(127);
            execl(opt.lll.c_str(), opt.lll.c_str(), "serve", "--listen",
                  "127.0.0.1:0", "--jobs", "2", "--json", json_path.c_str(),
                  static_cast<char *>(nullptr));
            _exit(127);
        }
        close(fds[1]);
        if (pid < 0) {
            close(fds[0]);
            *err = "fork failed";
            return false;
        }
        // Read stderr up to the "listening on HOST:PORT" line; a thread
        // then drains the rest so the server never blocks on the pipe.
        std::string buf;
        char c;
        while (read(fds[0], &c, 1) == 1) {
            if (c != '\n') {
                buf += c;
                continue;
            }
            const size_t at = buf.find("listening on ");
            if (at != std::string::npos) {
                port = std::atoi(buf.c_str() + buf.rfind(':') + 1);
                break;
            }
            buf.clear();
        }
        const int rfd = fds[0];
        drain = std::thread([rfd] {
            char b[4096];
            while (read(rfd, b, sizeof b) > 0) {
            }
            close(rfd);
        });
        if (port <= 0) {
            *err = "server exited before listening: " + buf;
            return false;
        }
        return true;
    }

    /** Fields 14 and 15 of /proc/PID/stat: user + system CPU seconds. */
    double cpuS() const
    {
        std::ifstream f("/proc/" + std::to_string(pid) + "/stat");
        std::string stat((std::istreambuf_iterator<char>(f)), {});
        const size_t close_paren = stat.rfind(')');
        if (close_paren == std::string::npos)
            return 0.0;
        std::istringstream in(stat.substr(close_paren + 2));
        std::string field;
        double ticks = 0.0;
        for (int i = 3; i <= 15 && in >> field; ++i) {
            if (i >= 14)
                ticks += std::atof(field.c_str());
        }
        return ticks / double(sysconf(_SC_CLK_TCK));
    }

    double peakRssMb() const
    {
        std::ifstream f("/proc/" + std::to_string(pid) + "/status");
        std::string line;
        while (std::getline(f, line)) {
            if (line.rfind("VmHWM:", 0) == 0)
                return std::atof(line.c_str() + 6) / 1024.0;
        }
        return 0.0;
    }

    /** SIGTERM (the server drains and writes its --json summary), then
     *  wait; SIGKILL after 20 s. */
    bool stop()
    {
        if (pid <= 0)
            return false;
        kill(pid, SIGTERM);
        int status = 0;
        bool clean = false;
        for (int i = 0; i < 2000; ++i) {
            const pid_t r = waitpid(pid, &status, WNOHANG);
            if (r == pid) {
                clean = WIFEXITED(status) && WEXITSTATUS(status) == 0;
                break;
            }
            if (i == 1999) {
                kill(pid, SIGKILL);
                waitpid(pid, &status, 0);
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
        pid = -1;
        if (drain.joinable())
            drain.join();
        return clean;
    }
};

/** Per-connection tallies, merged into Output on the main thread. */
struct ConnStats
{
    std::vector<double> hitMs, missMs, openMs, lateMs;
    uint64_t ok = 0, requests = 0, failed = 0, connErrors = 0;
    std::map<int, std::string> firstHit;
    std::vector<std::string> errors;

    void fail(const std::string &what)
    {
        ++failed;
        if (errors.size() < 5)
            errors.push_back(what);
    }

    /** A hit's bytes must match the first response to the same line. */
    void checkHit(int hot, const std::string &resp)
    {
        auto [it, fresh] = firstHit.emplace(hot, resp);
        if (!fresh && it->second != resp)
            fail("hit response differs between requests for hot " +
                 std::to_string(hot));
    }
};

void
mergeConn(ConnStats &c, Output &out, std::map<int, std::string> &hits)
{
    auto append = [&](const char *k, const std::vector<double> &v) {
        auto &dst = out.samples[k];
        dst.insert(dst.end(), v.begin(), v.end());
    };
    append("hit_ms", c.hitMs);
    append("miss_ms", c.missMs);
    append("open_ms", c.openMs);
    append("open_late_ms", c.lateMs);
    out.scalars["requests"] += double(c.requests);
    out.scalars["ok"] += double(c.ok);
    out.scalars["net.conn_errors"] += double(c.connErrors);
    out.attempted += c.requests;
    out.failed += c.failed;
    for (const std::string &e : c.errors) {
        if (out.failures.size() < 20)
            out.failures.push_back(e);
    }
    for (auto &[k, v] : c.firstHit) {
        auto [it, fresh] = hits.emplace(k, v);
        out.check(fresh || it->second == v,
                  "hit response differs across connections for hot " +
                      std::to_string(k));
    }
}

util::Result<net::BlockingClient>
connect(int port)
{
    return net::BlockingClient::connectTcp("127.0.0.1", port);
}

/** One closed-loop connection: send, wait for the reply, repeat. */
void
closedConn(int port, const std::vector<Req> &reqs, ConnStats &st)
{
    util::Result<net::BlockingClient> cl = connect(port);
    if (!cl.ok()) {
        ++st.connErrors;
        st.requests += reqs.size();
        st.fail("connect: " + cl.status().toString());
        return;
    }
    for (const Req &r : reqs) {
        ++st.requests;
        const int64_t t0 = nowNs();
        util::Status s = cl->sendAll(r.line + "\n");
        util::Result<std::string> resp =
            s.ok() ? cl->recvLine(60000) : util::Result<std::string>(s);
        const int64_t t1 = nowNs();
        if (!resp.ok()) {
            ++st.connErrors;
            st.fail("socket: " + resp.status().toString());
            // The rest of this connection's stream is never answered.
            const size_t left = reqs.size() - st.requests;
            st.requests += left;
            st.failed += left;
            return;
        }
        if (!statusOk(*resp)) {
            st.fail("non-ok response: " + resp->substr(0, 200));
            continue;
        }
        ++st.ok;
        recordSpan("net.request", t0, t1, true);
        const double ms = double(t1 - t0) / 1e6;
        if (r.hot >= 0) {
            st.hitMs.push_back(ms);
            st.checkHit(r.hot, *resp);
        } else {
            st.missMs.push_back(ms);
        }
    }
}

/** One open-loop connection: a sender on a fixed schedule and a reader,
 *  each request timed from its due time. */
void
openConn(int port, const std::vector<Req> &reqs, int64_t start_ns,
         double period_ns, ConnStats &st)
{
    util::Result<net::BlockingClient> cl = connect(port);
    if (!cl.ok()) {
        ++st.connErrors;
        st.requests += reqs.size();
        st.fail("connect: " + cl.status().toString());
        return;
    }
    auto due = [&](size_t i) {
        return start_ns + static_cast<int64_t>(double(i) * period_ns);
    };
    std::vector<int64_t> sent(reqs.size(), 0);
    std::thread sender([&] {
        for (size_t i = 0; i < reqs.size(); ++i) {
            const int64_t d = due(i);
            const int64_t now = nowNs();
            if (d > now)
                std::this_thread::sleep_for(std::chrono::nanoseconds(d - now));
            sent[i] = nowNs();
            if (!cl->sendAll(reqs[i].line + "\n").ok())
                return;
        }
    });
    size_t got = 0;
    for (; got < reqs.size(); ++got) {
        util::Result<std::string> resp = cl->recvLine(20000);
        const int64_t t1 = nowNs();
        ++st.requests;
        if (!resp.ok()) {
            ++st.connErrors;
            st.fail("socket: " + resp.status().toString());
            // The rest of this connection's stream is never answered.
            const size_t left = reqs.size() - got - 1;
            st.requests += left;
            st.failed += left;
            break;
        }
        if (!statusOk(*resp)) {
            st.fail("non-ok response: " + resp->substr(0, 200));
            continue;
        }
        ++st.ok;
        st.openMs.push_back(double(t1 - due(got)) / 1e6);
        st.checkHit(reqs[got].hot, *resp);
    }
    sender.join();
    for (size_t i = 0; i < got; ++i)
        st.lateMs.push_back(double(sent[i] - due(i)) / 1e6);
}

} // namespace

void
runServeMixed(const Options &opt, Output &out)
{
    const int conns = 2;

    std::vector<std::string> hot;
    for (int k = 0; k < kNumTemplates; ++k)
        hot.push_back(
            requestLine("h" + std::to_string(k), kTemplates[k], opt.seed));

    privateProfileDir(opt, opt.work + "/profiles");

    // ---- set-up: spawn + listening + pre-warm, timed kSetups times
    // after one untimed round (the first start pays page-cache misses on
    // the server binary).
    Server server;
    for (int i = -1; i < kSetups; ++i) {
        const int64_t t0 = nowNs();
        std::string err;
        const bool up = server.start(
            opt, opt.work + "/serve-" + std::to_string(i + 1) + ".json", &err);
        out.check(up, "server start: " + err);
        if (!up) {
            server.stop();
            return;
        }
        util::Result<net::BlockingClient> cl = connect(server.port);
        out.check(cl.ok(), "pre-warm connect");
        if (cl.ok()) {
            std::string all;
            for (const std::string &l : hot)
                all += l + "\n";
            out.check(cl->sendAll(all).ok(), "pre-warm send");
            for (size_t k = 0; k < hot.size(); ++k) {
                util::Result<std::string> r = cl->recvLine(60000);
                out.check(r.ok() && statusOk(*r),
                          "pre-warm response " + std::to_string(k));
            }
        }
        if (i >= 0)
            out.setupS.push_back(double(nowNs() - t0) / 1e9);
        if (i + 1 < kSetups)
            out.check(server.stop(), "server did not exit cleanly");
    }

    // ---- closed loop: fixed batches until the closed-loop budget ends.
    std::mt19937_64 rng(opt.seed * 0x9E3779B97F4A7C15ull + 1);
    uint64_t miss_seq = 0;
    std::vector<std::vector<Req>> replay_src(conns);
    std::map<int, std::string> hits;
    auto makeStream = [&](int n, bool with_misses) {
        std::vector<Req> v;
        const int offset = static_cast<int>(rng() % kMissEvery);
        for (int i = 0; i < n; ++i) {
            if (with_misses && i % kMissEvery == offset) {
                const int t = static_cast<int>(miss_seq % kNumTemplates);
                const uint64_t s = 1000003ull * (opt.seed + 1) + miss_seq;
                v.push_back({requestLine("m" + std::to_string(miss_seq),
                                         kTemplates[t], s),
                             -1});
                ++miss_seq;
            } else {
                const int k = static_cast<int>(rng() % kNumTemplates);
                v.push_back({hot[k], k});
            }
        }
        return v;
    };

    // One closed-loop batch: both connections' streams, run to the end.
    std::vector<double> server_cpu;
    auto closedBatch = [&](bool record) {
        std::vector<std::vector<Req>> streams;
        for (int c = 0; c < conns; ++c)
            streams.push_back(makeStream(kBatch / conns, true));
        if (record && replay_src[0].empty())
            replay_src = streams;
        std::vector<ConnStats> st(conns);
        const double cpu0 = server.cpuS();
        std::vector<std::thread> th;
        for (int c = 0; c < conns; ++c)
            th.emplace_back(closedConn, server.port, std::cref(streams[c]),
                            std::ref(st[c]));
        for (std::thread &t : th)
            t.join();
        uint64_t ok = 0;
        for (ConnStats &c : st) {
            ok += c.ok;
            if (!record) {
                c.hitMs.clear();
                c.missMs.clear();
            }
            mergeConn(c, out, hits);
        }
        if (record) {
            server_cpu.push_back(server.cpuS() - cpu0);
            out.samples["batch_ok"].push_back(double(ok));
        }
    };
    // An untimed first batch lets the server's threads, allocator and
    // the host settle before anything is timed.
    closedBatch(false);
    Options closed = opt;
    closed.seconds = opt.seconds * (1.0 - kOpenShare);
    measureReps(closed, out, 2, [&] { closedBatch(true); }, false);
    // A rep's CPU is the server's, not this client's.
    for (size_t i = 0; i < out.reps.size() && i < server_cpu.size(); ++i)
        out.reps[i].cpuS = server_cpu[i];

    // ---- open loop: hits on a fixed schedule.
    if (!opt.trace) {
        const double secs = opt.seconds * kOpenShare;
        const int per_conn = static_cast<int>(kOpenRps * secs / conns);
        const double period_ns = 1e9 * conns / kOpenRps;
        const int64_t start = nowNs() + 20'000'000;
        std::vector<ConnStats> st(conns);
        std::vector<std::vector<Req>> streams;
        for (int c = 0; c < conns; ++c)
            streams.push_back(makeStream(per_conn, false));
        std::vector<std::thread> th;
        for (int c = 0; c < conns; ++c)
            th.emplace_back(openConn, server.port, std::cref(streams[c]),
                            start + static_cast<int64_t>(period_ns * c / conns),
                            period_ns, std::ref(st[c]));
        for (std::thread &t : th)
            t.join();
        for (ConnStats &c : st)
            mergeConn(c, out, hits);
        out.scalars["open_rps"] = kOpenRps;
    }

    out.peakRssMb = server.peakRssMb();
    out.check(server.stop(), "server did not exit cleanly");
    std::ifstream summary(server.jsonPath);
    out.texts["server_summary"] =
        std::string((std::istreambuf_iterator<char>(summary)), {});

    // ---- in-process reference (and, traced, the service replay).
    core::ResultCache cache;
    auto serveOne = [&](const std::string &line) {
        obs::MetricRegistry reg;
        service::RunService::Params sp;
        sp.jobs = 1;
        sp.cache = &cache;
        sp.registry = &reg;
        return service::RunService(sp).serveLines({line}).front();
    };
    uint64_t replay_root = 0;
    if (opt.trace) {
        resetAggregates();
        {
            std::lock_guard<std::mutex> lock(mu());
            layerCounters().jobs = 1;
        }
        setTracing(true);
        replay_root = openSpan("bench.replay", true);
        setRootSpan(replay_root);
    }
    uint64_t digest = 1469598103934665603ull;
    for (int k = 0; k < kNumTemplates; ++k) {
        const std::string expect = service::renderRunResponse(serveOne(hot[k]));
        for (char ch : expect) {
            digest ^= static_cast<unsigned char>(ch);
            digest *= 1099511628211ull;
        }
        auto it = hits.find(k);
        if (it != hits.end())
            out.check(it->second == expect,
                      "socket hit response for hot " + std::to_string(k) +
                          " differs from serveLines");
    }
    out.digest = hex(digest);
    if (opt.trace) {
        int n = 0;
        for (size_t i = 0; n < kReplay && i < replay_src[0].size(); ++i) {
            for (int c = 0; c < conns && n < kReplay; ++c, ++n) {
                SpanScope span("service.serve_lines", true);
                const service::RunResponse r =
                    serveOne(replay_src[c][i].line);
                out.check(r.status.ok(), "replay: " + r.status.toString());
                out.samples["service.parse_us"].push_back(r.timing.parseNs /
                                                          1e3);
                out.samples["service.coalesce_us"].push_back(
                    r.timing.coalesceNs / 1e3);
                out.samples["service.respond_us"].push_back(
                    r.timing.respondNs / 1e3);
                out.samples["service.queue_wait_us"].push_back(
                    r.timing.queueWaitNs / 1e3);
                out.samples["service.simulate_ms"].push_back(
                    r.timing.simulateNs / 1e6);
            }
        }
        closeSpan(replay_root);
        out.tracedEndNs = nowNs();
        setRootSpan(0);
        setTracing(false);
        for (Span &sp : takeSpans())
            out.spans.push_back(std::move(sp));
        // The socket batch simulates nothing in this process; the
        // layer counters of a serve-mixed trace are the replay's.
        std::lock_guard<std::mutex> lock(mu());
        out.sim = simModel();
        out.layers = layerCounters();
    }
}

} // namespace bench
