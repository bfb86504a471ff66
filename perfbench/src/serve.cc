/**
 * @file
 * Serve workload serve_cold: every request has a distinct canonical
 * key, so every memo lookup misses; requests arrive as bursts of one
 * 16-request t_m column sharing a workload key.  Why: it exercises the
 * whole cold path -- parse, admission and queue, same-key batch
 * formation, evaluateBatch, memo insert, render -- with every memo
 * access a miss followed by an insert.
 *
 * The load generator is one process with one connection and one load
 * thread, and the server runs one worker, so that the run needs few of
 * a shared host's cores.  Every figure is taken on the server's CPU
 * clock, which leaves out the time the host lends the CPU to others.
 */

#include "serve.hh"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <arpa/inet.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "bench.hh"
#include "replica.hh"
#include "serve/memo.hh"
#include "serve/proto.hh"
#include "spans.hh"
#include "util/rng.hh"

namespace perfbench
{

using namespace vcache;

namespace
{

/** Requests per burst: one paper t_m column, 4, 8, ..., 64. */
constexpr unsigned kColumn = 16;

/**
 * Burst shapes: the paper's m in {5, 6} x B in 256, 512, ..., 4096.
 * The paper's B = 8192 is left out: such a burst holds the server
 * about four times as long as a B = 4096 one, so the few of them made
 * most of the queueing that every other burst waited in.
 */
constexpr unsigned kShapes = 10;

/**
 * One burst: a t_m column that shares a workload key, so the server
 * can batch it into one trace pass.  The trace seed is the burst's own.
 */
struct Burst
{
    unsigned bankBits;
    std::uint64_t blockingFactor;
    std::uint64_t seed;
};

/**
 * The n-th burst of the request stream; the stream never repeats a
 * key.  Each run of kShapes bursts takes every (m, B) once, in a
 * seeded order, so every stretch of the stream carries the same work
 * whatever the seed.
 */
Burst
streamBurst(std::uint64_t seed, std::uint64_t n)
{
    Rng rng(deriveSeed(seed ^ 0x53484150ull, n / kShapes));
    unsigned order[kShapes];
    std::iota(order, order + kShapes, 0u);
    for (unsigned i = kShapes - 1; i > 0; --i)
        std::swap(order[i], order[rng.uniformInt(0, i)]);
    const unsigned shape = order[n % kShapes];
    return Burst{5 + shape / 5, std::uint64_t{256} << (shape % 5),
                 deriveSeed(seed ^ 0x434f4c44ull, n)};
}

/** Request `col` (0..15) of a burst. */
EvalRequest
burstRequest(const Burst &b, unsigned col)
{
    EvalRequest req;
    req.bankBits = b.bankBits;
    req.memoryTime = 4 + 4 * std::uint64_t{col};
    req.blockingFactor = b.blockingFactor;
    req.seed = b.seed;
    return req;
}

/** The eval request line for one request, id included. */
std::string
requestLine(const EvalRequest &req, std::uint64_t id)
{
    return "{\"op\":\"eval\",\"id\":\"" + std::to_string(id) +
           "\",\"m\":" + std::to_string(req.bankBits) +
           ",\"tm\":" + std::to_string(req.memoryTime) +
           ",\"B\":" + std::to_string(req.blockingFactor) +
           ",\"seed\":" + std::to_string(req.seed) + "}\n";
}

/** Leading time left out of every figure. */
constexpr double kWarmupS = 0.5;
/** The server's --batch-max and --memo-entries, which the replay mirrors. */
constexpr std::size_t kBatchMax = 8;
constexpr std::size_t kMemoEntries = 8192;
/** Payloads kept for the oracle check, and how many are checked. */
constexpr std::size_t kSamplesKept = 64;
constexpr std::size_t kSamplesChecked = 24;
/**
 * Mean think time between a burst's last response and the next burst:
 * about 33 bursts (530 requests) a second, and over 1000 bursts in a
 * 40 s run, so that at least 10 lie past p99.
 */
constexpr double kThinkS = 0.025;

/** The request a stream id stands for (id = burst * 16 + column). */
EvalRequest
streamRequest(const ServeArgs &args, std::uint64_t id)
{
    return burstRequest(streamBurst(args.seed, id / kColumn),
                        unsigned(id % kColumn));
}

/** The request lines of stream burst `n`. */
std::string
burstText(const ServeArgs &args, std::uint64_t n)
{
    const Burst b = streamBurst(args.seed, n);
    std::string text;
    for (unsigned col = 0; col < kColumn; ++col)
        text += requestLine(burstRequest(b, col), n * kColumn + col);
    return text;
}

/** One loopback connection with a line-splitting receive buffer. */
class Conn
{
  public:
    explicit Conn(unsigned port)
    {
        fd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd < 0)
            throw std::runtime_error("socket failed");
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(static_cast<std::uint16_t>(port));
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                      sizeof addr) != 0) {
            ::close(fd);
            throw std::runtime_error("connect to port " +
                                     std::to_string(port) + " failed");
        }
    }

    ~Conn() { ::close(fd); }

    Conn(const Conn &) = delete;
    Conn &operator=(const Conn &) = delete;

    void
    send(const std::string &text)
    {
        std::size_t sent = 0;
        while (sent < text.size()) {
            const ssize_t n = ::send(fd, text.data() + sent,
                                     text.size() - sent, MSG_NOSIGNAL);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                throw std::runtime_error("send failed");
            sent += std::size_t(n);
        }
    }

    /** One recv; `onLine` sees each complete line.  False on EOF. */
    template <typename F>
    bool
    pump(F &&onLine)
    {
        char chunk[65536];
        const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
        // Acknowledge at once.  vcache_serve does not set TCP_NODELAY,
        // so each response it writes waits for the ACK of the last;
        // a delayed ACK here (up to 40 ms) would set the server's pace
        // instead of its own work.  The kernel clears the flag, so
        // re-arm it after every read.
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_QUICKACK, &one, sizeof one);
        if (n < 0 && errno == EINTR)
            return true;
        if (n <= 0)
            return false;
        buf.append(chunk, std::size_t(n));
        std::size_t start = 0;
        for (std::size_t nl; (nl = buf.find('\n', start)) !=
                             std::string::npos;
             start = nl + 1)
            onLine(buf.substr(start, nl - start));
        buf.erase(0, start);
        return true;
    }

    int fd = -1;

  private:
    std::string buf;
};

/** Response checks over every eval response the generator receives. */
struct Checker
{
    explicit Checker(std::uint64_t seed) : seed(seed) {}

    std::uint64_t seed;
    std::uint64_t failed = 0;
    std::map<std::uint64_t, std::string> samples;

    /** Check one eval response; returns its id (~0 if it has none). */
    std::uint64_t
    check(const std::string &line)
    {
        std::uint64_t id = ~std::uint64_t{0};
        const auto at = line.find("\"id\":\"");
        if (at != std::string::npos)
            id = std::strtoull(line.c_str() + at + 6, nullptr, 10);
        const bool good =
            line.rfind("{\"ok\":true", 0) == 0 &&
            line.find("\"cached\":false") != std::string::npos;
        if (!good) {
            if (failed < 3)
                std::fprintf(stderr, "bad response: %s\n", line.c_str());
            ++failed;
            return id;
        }
        const auto result = line.find("\"result\":");
        if (result != std::string::npos && samples.size() < kSamplesKept &&
            mix64(id ^ seed) % 64 == 0)
            samples[id] =
                line.substr(result + 9, line.size() - result - 10);
        return id;
    }
};

/**
 * The server process's CPU clock: the CPU time its threads have used.
 * It leaves out time the host gave the CPU to someone else, which on a
 * shared host swamps the server's own time.
 */
class ServerClock
{
  public:
    explicit ServerClock(int pid)
    {
        if (clock_getcpuclockid(pid, &id) != 0)
            throw std::runtime_error("no CPU clock for server pid " +
                                     std::to_string(pid));
    }

    std::int64_t
    ns() const
    {
        timespec ts{};
        clock_gettime(id, &ts);
        return std::int64_t(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
    }

  private:
    clockid_t id{};
};

struct BurstLoop
{
    /** Per measured burst, from its send to its last response: wall
     *  time, and server CPU time. */
    std::vector<double> burstMs;
    std::vector<double> burstCpuMs;
    /** How late each measured burst went out after its think time. */
    std::vector<double> lateMs;
    std::uint64_t sent = 0;
    std::uint64_t missing = 0;
    /** Server CPU time from the first measured burst to the end. */
    std::int64_t measuredCpuNs = 0;
};

/**
 * A closed loop with think time, for kWarmupS plus `seconds`: send a
 * burst, wait for its 16 responses, then wait an exponential think
 * time (mean kThinkS) before the next.  One burst is in flight at a
 * time, so the server CPU time a burst spans is its own work: a host
 * that runs the server slower does not make bursts overlap and charge
 * each other's work to one another.  Bursts sent within the warm-up
 * are not measured.
 */
BurstLoop
burstLoop(const ServeArgs &args, Conn &conn, const ServerClock &server,
          double seconds, Checker &checker)
{
    Rng rng(mix64(args.seed ^ 0x4f50454eull));
    BurstLoop out;
    const std::int64_t measureStart = nowNs() + std::int64_t(kWarmupS * 1e9);
    const std::int64_t end = measureStart + std::int64_t(seconds * 1e9);
    std::int64_t measureStartCpu = -1;
    pollfd fd{conn.fd, POLLIN, 0};
    for (std::uint64_t n = 0;; ++n) {
        const std::int64_t due =
            nowNs() +
            std::int64_t(-std::log(1.0 - rng.uniformReal()) * kThinkS * 1e9);
        std::this_thread::sleep_until(
            Clock::time_point(std::chrono::nanoseconds(due)));
        const std::int64_t sendNs = nowNs();
        if (sendNs >= end)
            break;
        const bool measured = sendNs >= measureStart;
        const std::int64_t sendCpuNs = server.ns();
        if (measured && measureStartCpu < 0)
            measureStartCpu = sendCpuNs;
        conn.send(burstText(args, n));
        out.sent += kColumn;

        unsigned answered = 0;
        const std::int64_t giveUp = sendNs + 15'000'000'000;
        while (answered < kColumn && nowNs() < giveUp) {
            if (::poll(&fd, 1, 100) <= 0)
                continue;
            if (!conn.pump([&](const std::string &line) {
                    checker.check(line);
                    ++answered;
                }))
                break;
        }
        if (answered < kColumn) {
            out.missing += kColumn - answered;
            break;
        }
        if (measured) {
            out.burstMs.push_back(double(nowNs() - sendNs) / 1e6);
            out.burstCpuMs.push_back(double(server.ns() - sendCpuNs) / 1e6);
            out.lateMs.push_back(double(sendNs - due) / 1e6);
        }
    }
    if (measureStartCpu >= 0)
        out.measuredCpuNs = server.ns() - measureStartCpu;
    return out;
}

/** Value of `"name":<n>` in a flat stats response (0 if absent). */
double
statCounter(const std::string &stats, const std::string &name)
{
    const auto at = stats.find("\"" + name + "\":");
    if (at == std::string::npos)
        return 0.0;
    return std::strtod(stats.c_str() + at + name.size() + 3, nullptr);
}

std::string
fetchStats(Conn &conn)
{
    conn.send("{\"op\":\"stats\"}\n");
    std::string stats;
    while (stats.empty() &&
           conn.pump([&](const std::string &line) { stats = line; })) {
    }
    return stats;
}

/** Byte-compare sampled payloads against the element-wise oracle. */
std::uint64_t
checkSamples(const ServeArgs &args, const Checker &checker,
             std::uint64_t &checked)
{
    std::uint64_t mismatches = 0;
    for (const auto &[id, payload] : checker.samples) {
        if (checked >= kSamplesChecked)
            break;
        const EvalRequest req = streamRequest(args, id);
        EvalRequest oracle = req;
        oracle.engine = SimEngine::Scalar;
        const auto r = evaluatePoint(oracle);
        ++checked;
        if (!r.ok() || serve::renderResultPayload(req, r.value()) !=
                           payload) {
            std::fprintf(stderr, "payload mismatch for id %llu\n",
                         static_cast<unsigned long long>(id));
            ++mismatches;
        }
    }
    return mismatches;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

} // namespace

int
runLoad(const ServeArgs &args)
{
    Conn conn(args.port);
    const ServerClock server(args.serverPid);
    Checker checker{args.seed};

    // The clock-speed reference loop runs beside the load, a few
    // milliseconds in every quarter second; the server's figures are
    // scaled by its median.
    std::vector<double> loopNs;
    std::atomic<bool> loaded{true};
    std::thread reference([&] {
        for (int tick = 0; loaded; ++tick) {
            if (tick % 25 == 0)
                loopNs.push_back(clockLoopNs());
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
    });
    BurstLoop loop;
    try {
        loop = burstLoop(args, conn, server,
                         std::max(1.0, args.seconds - kWarmupS), checker);
    } catch (...) {
        loaded = false;
        reference.join();
        throw;
    }
    loaded = false;
    reference.join();
    const std::string stats = fetchStats(conn);

    std::uint64_t checked = 0;
    const std::uint64_t mismatches = checkSamples(args, checker, checked);

    JsonLine out;
    // Server CPU time at the reference clock speed (bench.hh), over the
    // measured bursts and the think times between them.
    const double scale = kReferenceLoopNs / quantile(loopNs, 0.5);
    out.num("clock_scale", scale);
    // Responses per second of server CPU time: its cost per request.
    out.num("ops_per_cpu_s",
            ratio(double(loop.burstCpuMs.size() * kColumn),
                  double(loop.measuredCpuNs) * scale / 1e9));
    out.num("lat_samples", double(loop.burstMs.size()));
    out.num("gen.samples", double(loop.burstMs.size()));
    out.num("lat_p50_cpu_ms", quantile(loop.burstCpuMs, 0.5) * scale);
    out.num("lat_p99_cpu_ms", quantile(loop.burstCpuMs, 0.99) * scale);
    out.num("lat_p50_ms", quantile(loop.burstMs, 0.5));
    out.num("lat_p99_ms", quantile(loop.burstMs, 0.99));
    out.num("gen.late_p99_ms", quantile(loop.lateMs, 0.99));
    const double batches = statCounter(stats, "serve.batches");
    out.num("server.batch_size_mean",
            ratio(statCounter(stats, "serve.batched"), batches));
    out.num("server.queue_peak", statCounter(stats, "serve.queue_peak"));
    out.num("server.shed", statCounter(stats, "serve.shed"));
    out.num("server.coalesced", statCounter(stats, "serve.coalesced"));
    const double hits = statCounter(stats, "memo.hits");
    out.num("memo.hit_ratio",
            ratio(hits, hits + statCounter(stats, "memo.misses")));
    out.num("oracle_checked", double(checked));
    out.num("attempted", double(loop.sent));
    out.num("failed", double(checker.failed + loop.missing + mismatches +
                             (stats.empty() ? 1 : 0)));
    std::printf("%s\n", out.render().c_str());
    return 0;
}

namespace
{

/**
 * One replay of the server's request path: its own memo store, and
 * what replaying bursts through it measured.
 */
struct ReplayPath
{
    /** Null: the public calls, untraced (evaluateBatch). */
    Lane *lane = nullptr;
    std::unique_ptr<serve::MemoStore> memo;
    double openS = 0.0;
    std::int64_t ns = 0;
    /** Per burst: its whole path, as the server's one worker runs it. */
    std::vector<double> burstMs;
    /** FNV-1a of each response, in stream order. */
    std::vector<std::uint64_t> responses;
    std::uint64_t failed = 0;
    WorkCounts work;
};

/** An in-memory store, as the server runs it (no journal). */
bool
openReplayPath(ReplayPath &path)
{
    serve::MemoOptions opts;
    opts.maxEntries = kMemoEntries;
    const std::int64_t start = nowNs();
    auto opened = serve::MemoStore::open(opts);
    path.openS = double(nowNs() - start) / 1e9;
    if (!opened.ok())
        return false;
    path.memo = std::move(opened.value());
    return true;
}

/**
 * Burst `n` through the server's per-request path, in process: parse
 * and memo lookup of every request (the server's reader), then
 * same-key groups of at most kBatchMax misses through evaluation,
 * payload render, memo insert and response render (its one worker).
 * With a lane, the decomposed replica runs with a span around every
 * layer call.
 */
void
replayBurst(const ServeArgs &args, std::uint64_t n, ReplayPath &path)
{
    struct Pending
    {
        std::uint64_t id;
        serve::Request req;
        std::string canonical;
        std::uint64_t key;
    };

    Lane *lane = path.lane;
    const std::int64_t start = nowNs();
    const Burst b = streamBurst(args.seed, n);
    std::vector<Pending> misses;
    for (unsigned col = 0; col < kColumn; ++col) {
        const std::uint64_t id = n * kColumn + col;
        std::string line = requestLine(burstRequest(b, col), id);
        line.pop_back();
        Pending p{id, {}, {}, 0};
        {
            SpanScope span(lane, "proto.parse", id);
            auto parsed = serve::parseRequest(line);
            if (!parsed.ok()) {
                ++path.failed;
                continue;
            }
            p.req = std::move(parsed.value());
        }
        p.canonical = canonicalEvalRequest(p.req.eval);
        p.key = fnv1a64(p.canonical);
        bool hit;
        {
            SpanScope span(lane, "memo.lookup", id);
            hit = path.memo->lookup(p.key, p.canonical).has_value();
        }
        if (hit)
            ++path.failed; // the stream never repeats a key
        else
            misses.push_back(std::move(p));
    }

    for (std::size_t g = 0; g < misses.size(); g += kBatchMax) {
        const std::size_t size = std::min(kBatchMax, misses.size() - g);
        std::vector<EvalRequest> reqs;
        for (std::size_t k = 0; k < size; ++k)
            reqs.push_back(misses[g + k].req.eval);
        std::vector<EvalResult> results;
        {
            SpanScope span(lane, "evaluate", misses[g].id);
            if (lane) {
                results = evaluateGroupTraced(reqs, lane, path.work);
            } else {
                for (auto &r : evaluateBatch(reqs))
                    results.push_back(r.value());
            }
        }
        for (std::size_t k = 0; k < size; ++k) {
            const Pending &p = misses[g + k];
            std::string payload;
            {
                SpanScope span(lane, "proto.render", p.id);
                payload = serve::renderResultPayload(reqs[k], results[k]);
            }
            {
                SpanScope span(lane, "memo.insert", p.id);
                path.memo->insert(p.key, p.canonical, payload);
            }
            std::string response;
            {
                SpanScope span(lane, "proto.render", p.id);
                response = serve::renderEvalOk(p.req.id, p.key, payload,
                                               false, false);
            }
            path.responses.push_back(fnv1a64(response));
        }
    }
    const std::int64_t burstNs = nowNs() - start;
    path.ns += burstNs;
    path.burstMs.push_back(double(burstNs) / 1e6);
}

} // namespace

int
runReplay(const ServeArgs &args)
{
    // Cap the stream so the traced replay's spans stay in memory.
    constexpr std::uint64_t kMaxBursts = 20000;
    SpanRecorder recorder(1);
    recorder.lane(0)->spans.reserve(1 << 20);
    ReplayPath plain, traced;
    traced.lane = recorder.lane(0);
    std::uint64_t failed = 0;
    if (!openReplayPath(plain) || !openReplayPath(traced))
        ++failed;

    // Burst by burst, untraced then traced, so that host drift falls
    // on both alike and trace.overhead_ratio measures the spans and
    // the replica, not the host.
    const std::int64_t end = nowNs() + std::int64_t(args.seconds * 1e9);
    std::uint64_t bursts = 0;
    while (failed == 0 && bursts < kMaxBursts && nowNs() < end) {
        replayBurst(args, bursts, plain);
        replayBurst(args, bursts, traced);
        ++bursts;
    }
    failed += plain.failed + traced.failed;
    if (plain.responses != traced.responses)
        ++failed; // the replica must render what evaluateBatch does

    auto totals = recorder.totals();
    double spanNs = 0;
    for (const auto &[name, t] : totals)
        spanNs += double(t.selfNs);
    auto self = [&](const char *name) {
        return double(totals[name].selfNs);
    };
    auto perCall = [&](const char *name) {
        return ratio(self(name) / 1e3, double(totals[name].count));
    };
    const double requests = double(traced.responses.size());

    JsonLine out;
    out.num("proto.parse_us", perCall("proto.parse"));
    out.num("proto.render_us", ratio(self("proto.render") / 1e3, requests));
    out.num("memo.lookup_us", perCall("memo.lookup"));
    out.num("memo.insert_us", perCall("memo.insert"));
    out.num("memo.replay_s", (plain.openS + traced.openS) / 2);
    reportEvaluationLayers(out, totals, traced.work, spanNs);
    // Protocol and memo shares cover both of their span kinds.
    out.num("proto.share", ratio(self("proto.parse") + self("proto.render"),
                                 spanNs));
    out.num("memo.share", ratio(self("memo.lookup") + self("memo.insert"),
                                spanNs));
    out.num("replay_p50_ms", quantile(plain.burstMs, 0.5));
    out.num("trace.overhead_ratio",
            ratio(double(traced.ns), double(plain.ns)) - 1.0);
    out.num("replayed_bursts", double(bursts));
    if (!recorder.writeChromeTrace(args.workDir + "/trace.json",
                                   {"request path"}, 60000))
        ++failed;
    out.num("attempted", double(plain.responses.size() + requests));
    out.num("failed", double(failed));
    std::printf("%s\n", out.render().c_str());
    return 0;
}

} // namespace perfbench
