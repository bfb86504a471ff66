/**
 * @file
 * End-to-end server tests over real loopback sockets: protocol
 * round-trips, cache hits, per-connection error isolation, load
 * shedding, deadline enforcement (including the epoch race with a
 * completing point), coalescing and graceful drain on SIGTERM.
 */

#include "serve/server.hh"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/registry.hh"

using namespace vcache;
using namespace vcache::serve;

namespace
{

/** Blocking line-oriented loopback client with a receive timeout. */
class TestClient
{
  public:
    explicit TestClient(std::uint16_t port)
    {
        fd = ::socket(AF_INET, SOCK_STREAM, 0);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(port);
        ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
        connected = ::connect(fd,
                              reinterpret_cast<sockaddr *>(&addr),
                              sizeof addr) == 0;
    }

    ~TestClient()
    {
        if (fd >= 0)
            ::close(fd);
    }

    bool ok() const { return connected; }

    void
    send(const std::string &line)
    {
        const std::string framed = line + "\n";
        ASSERT_EQ(::send(fd, framed.data(), framed.size(),
                         MSG_NOSIGNAL),
                  static_cast<ssize_t>(framed.size()));
    }

    /** Next response line; "" on timeout or closed connection. */
    std::string
    readLine(int timeoutMs = 30000)
    {
        for (;;) {
            const auto nl = buffer.find('\n');
            if (nl != std::string::npos) {
                std::string line = buffer.substr(0, nl);
                buffer.erase(0, nl + 1);
                return line;
            }
            pollfd pfd{fd, POLLIN, 0};
            if (::poll(&pfd, 1, timeoutMs) <= 0)
                return "";
            char chunk[4096];
            const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
            if (n <= 0)
                return "";
            buffer.append(chunk, static_cast<std::size_t>(n));
        }
    }

    std::string
    roundTrip(const std::string &line)
    {
        send(line);
        return readLine();
    }

  private:
    int fd = -1;
    bool connected = false;
    std::string buffer;
};

std::unique_ptr<EvalServer>
mustStart(ServerOptions options)
{
    auto server = EvalServer::start(options);
    EXPECT_TRUE(server.ok())
        << (server.ok() ? "" : server.error().message);
    return server.ok() ? std::move(server.value()) : nullptr;
}

/** The "result" fragment of an eval response (for byte compares). */
std::string
resultOf(const std::string &response)
{
    const auto at = response.find("\"result\":");
    return at == std::string::npos ? "" : response.substr(at);
}

bool
contains(const std::string &haystack, const std::string &needle)
{
    return haystack.find(needle) != std::string::npos;
}

/** A quick model-only request (microseconds to evaluate). */
std::string
modelReq(const std::string &id, std::uint64_t tm)
{
    return "{\"op\":\"eval\",\"id\":\"" + id +
           "\",\"tm\":" + std::to_string(tm) + ",\"sim\":false}";
}

/**
 * A full-simulation request that keeps a worker busy for a second or
 * more.  It runs the element-wise oracle (engine scalar), so the
 * engines' fast paths, which take the default engine's B = 2^20 point
 * well under the tests' 300 ms head start, cannot shorten it.
 */
std::string
slowReq(const std::string &id, std::uint64_t seed,
        const std::string &extra = "")
{
    return "{\"op\":\"eval\",\"id\":\"" + id +
           "\",\"B\":1048576,\"tm\":64,\"engine\":\"scalar\"," +
           "\"seed\":" + std::to_string(seed) + extra + "}";
}

} // namespace

TEST(Server, HelloHandshake)
{
    auto server = mustStart(ServerOptions{});
    ASSERT_TRUE(server);
    TestClient client(server->port());
    ASSERT_TRUE(client.ok());
    const std::string hello =
        client.roundTrip("{\"op\":\"hello\"}");
    EXPECT_TRUE(contains(hello, "\"ok\":true"));
    EXPECT_TRUE(contains(hello, "\"proto\":1"));
    EXPECT_TRUE(contains(hello, "\"identity\":\""));
}

TEST(Server, EvalThenCacheHitIsByteIdentical)
{
    auto server = mustStart(ServerOptions{});
    ASSERT_TRUE(server);
    TestClient client(server->port());
    ASSERT_TRUE(client.ok());

    const std::string first = client.roundTrip(modelReq("a", 16));
    ASSERT_TRUE(contains(first, "\"ok\":true")) << first;
    EXPECT_TRUE(contains(first, "\"cached\":false"));

    const std::string second = client.roundTrip(modelReq("b", 16));
    EXPECT_TRUE(contains(second, "\"cached\":true"));
    ASSERT_NE(resultOf(first), "");
    EXPECT_EQ(resultOf(first), resultOf(second));

    const auto stats = server->statsSnapshot();
    EXPECT_EQ(stats.at("memo.hits"), 1u);
    EXPECT_EQ(stats.at("memo.inserts"), 1u);
}

TEST(Server, MalformedRequestsNeverKillTheConnection)
{
    auto server = mustStart(ServerOptions{});
    ASSERT_TRUE(server);
    TestClient client(server->port());
    ASSERT_TRUE(client.ok());

    EXPECT_TRUE(contains(client.roundTrip("this is not json"),
                         "\"error\":\"InvalidConfig\""));
    EXPECT_TRUE(contains(client.roundTrip("{\"op\":\"warp\"}"),
                         "malformed request"));
    EXPECT_TRUE(contains(
        client.roundTrip("{\"op\":\"eval\",\"m\":99}"),
        "\"ok\":false"));
    // The same connection still serves valid requests afterwards.
    EXPECT_TRUE(contains(client.roundTrip(modelReq("ok", 8)),
                         "\"ok\":true"));
    EXPECT_EQ(server->statsSnapshot().at("serve.malformed"), 3u);
}

TEST(Server, InvalidConfigIsAnErrorResponse)
{
    auto server = mustStart(ServerOptions{});
    ASSERT_TRUE(server);
    TestClient client(server->port());
    ASSERT_TRUE(client.ok());
    // Parses fine (m <= 64) but fails validateEvalRequest.
    const std::string resp =
        client.roundTrip("{\"op\":\"eval\",\"m\":40}");
    EXPECT_TRUE(contains(resp, "\"ok\":false"));
    EXPECT_TRUE(contains(resp, "\"error\":\"InvalidConfig\""));
    EXPECT_TRUE(contains(resp, "bank_bits"));
}

TEST(Server, ShedsPastQueueCapacity)
{
    ServerOptions options;
    options.threads = 1;
    options.queueDepth = 1;
    options.retryAfterMs = 75;
    auto server = mustStart(options);
    ASSERT_TRUE(server);
    TestClient client(server->port());
    ASSERT_TRUE(client.ok());

    // Occupy the single worker for seconds, fill the depth-1 queue,
    // then everything else must shed instead of queueing unboundedly.
    client.send(slowReq("slow", 100));
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    for (int i = 0; i < 4; ++i)
        client.send(modelReq("q" + std::to_string(i), 8));

    std::size_t shed = 0;
    std::size_t answered = 0;
    for (int i = 0; i < 5; ++i) {
        const std::string resp = client.readLine();
        ASSERT_NE(resp, "") << "timed out waiting for response " << i;
        if (contains(resp, "\"error\":\"Overloaded\"")) {
            ++shed;
            EXPECT_TRUE(contains(resp, "\"retry_after_ms\":75"));
        } else {
            EXPECT_TRUE(contains(resp, "\"ok\":true")) << resp;
            ++answered;
        }
    }
    EXPECT_GE(shed, 3u);
    EXPECT_GE(answered, 2u); // the slow point and >=1 queued one
    EXPECT_EQ(server->statsSnapshot().at("serve.shed"), shed);
}

TEST(Server, DeadlineCancelsMidEvaluation)
{
    auto server = mustStart(ServerOptions{});
    ASSERT_TRUE(server);
    TestClient client(server->port());
    ASSERT_TRUE(client.ok());

    // A multi-second point with a 50ms deadline: the watchdog must
    // cancel it through the epoch token, well before completion.
    const auto start = std::chrono::steady_clock::now();
    const std::string resp = client.roundTrip(
        slowReq("dl", 200, ",\"deadline_ms\":50"));
    const auto elapsed =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start);
    EXPECT_TRUE(contains(resp, "\"error\":\"Timeout\"")) << resp;
    EXPECT_LT(elapsed.count(), 1500);

    // Epoch isolation: the worker's next point must be untouched by
    // the stale deadline.
    EXPECT_TRUE(contains(client.roundTrip(modelReq("after", 8)),
                         "\"ok\":true"));
    EXPECT_GE(server->statsSnapshot().at("serve.deadline_exceeded"),
              1u);
}

TEST(Server, GenerousDeadlineRacingCompletionDoesNotMisfire)
{
    // Many quick points, each with a deadline they comfortably beat:
    // the watchdog repeatedly sees deadlines from points that just
    // completed, and the epoch check must make every one a no-op.
    ServerOptions options;
    options.threads = 1; // one worker: every point reuses one token
    auto server = mustStart(options);
    ASSERT_TRUE(server);
    TestClient client(server->port());
    ASSERT_TRUE(client.ok());

    for (int i = 0; i < 25; ++i) {
        const std::string resp = client.roundTrip(
            "{\"op\":\"eval\",\"id\":\"r" + std::to_string(i) +
            "\",\"tm\":" + std::to_string(4 + i) +
            ",\"sim\":false,\"deadline_ms\":10000}");
        EXPECT_TRUE(contains(resp, "\"ok\":true")) << resp;
    }
    EXPECT_EQ(server->statsSnapshot().at("serve.deadline_exceeded"),
              0u);
}

TEST(Server, IdenticalInflightRequestsCoalesce)
{
    ServerOptions options;
    options.threads = 2;
    auto server = mustStart(options);
    ASSERT_TRUE(server);
    TestClient first(server->port());
    TestClient second(server->port());
    ASSERT_TRUE(first.ok());
    ASSERT_TRUE(second.ok());

    // Identical slow points from two clients: the second must either
    // coalesce onto the in-flight computation or (if it arrives
    // after completion) hit the memo; either way exactly one
    // evaluation runs and the bytes match.
    first.send(slowReq("one", 300));
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    second.send(slowReq("two", 300));

    const std::string a = first.readLine();
    const std::string b = second.readLine();
    ASSERT_TRUE(contains(a, "\"ok\":true")) << a;
    ASSERT_TRUE(contains(b, "\"ok\":true")) << b;
    EXPECT_EQ(resultOf(a), resultOf(b));
    EXPECT_TRUE(contains(b, "\"coalesced\":true") ||
                contains(b, "\"cached\":true"));
    const auto stats = server->statsSnapshot();
    EXPECT_EQ(stats.at("memo.inserts"), 1u);
    EXPECT_EQ(stats.at("serve.coalesced") + stats.at("memo.hits"),
              1u);
}

TEST(Server, RemoteShutdownDrains)
{
    auto server = mustStart(ServerOptions{});
    ASSERT_TRUE(server);
    TestClient client(server->port());
    ASSERT_TRUE(client.ok());
    EXPECT_TRUE(contains(client.roundTrip("{\"op\":\"shutdown\"}"),
                         "\"draining\":true"));
    server->wait();
    EXPECT_TRUE(server->draining());
    // A fresh connection must be refused or immediately closed.
    TestClient late(server->port());
    if (late.ok()) {
        EXPECT_EQ(late.roundTrip("{\"op\":\"hello\"}"), "");
    }
}

TEST(Server, RemoteShutdownCanBeDisabled)
{
    ServerOptions options;
    options.allowRemoteShutdown = false;
    auto server = mustStart(options);
    ASSERT_TRUE(server);
    TestClient client(server->port());
    ASSERT_TRUE(client.ok());
    EXPECT_TRUE(contains(client.roundTrip("{\"op\":\"shutdown\"}"),
                         "\"ok\":false"));
    EXPECT_FALSE(server->draining());
}

TEST(Server, SigtermDrainsGracefully)
{
    ServerOptions options;
    options.handleSignals = true;
    auto server = mustStart(options);
    ASSERT_TRUE(server);
    TestClient client(server->port());
    ASSERT_TRUE(client.ok());
    // In-flight work completes before the drain finishes.
    EXPECT_TRUE(contains(client.roundTrip(modelReq("pre", 12)),
                         "\"ok\":true"));

    std::raise(SIGTERM);
    server->wait();
    EXPECT_TRUE(server->draining());
    EXPECT_EQ(server->statsSnapshot().at("serve.eval_ok"), 1u);
    std::signal(SIGTERM, SIG_DFL);
    std::signal(SIGINT, SIG_DFL);
}

TEST(Server, StatsPublishIntoARegistry)
{
    auto server = mustStart(ServerOptions{});
    ASSERT_TRUE(server);
    TestClient client(server->port());
    ASSERT_TRUE(client.ok());
    client.roundTrip(modelReq("a", 16));
    client.roundTrip(modelReq("b", 16));

    ObsRegistry registry;
    server->publishStats(registry);
    const auto *ok = registry.findCounter("serve.eval_ok");
    const auto *hits = registry.findCounter("memo.hits");
    ASSERT_NE(ok, nullptr);
    ASSERT_NE(hits, nullptr);
    EXPECT_EQ(ok->value, 2u);
    EXPECT_EQ(hits->value, 1u);

    // The stats verb reports the same counters over the wire.
    const std::string stats =
        client.roundTrip("{\"op\":\"stats\"}");
    EXPECT_TRUE(contains(stats, "\"serve.eval_ok\":2"));
    EXPECT_TRUE(contains(stats, "\"memo.hits\":1"));
}

TEST(Server, MetricsVerbCarriesPrometheusText)
{
    auto server = mustStart(ServerOptions{});
    ASSERT_TRUE(server);
    TestClient client(server->port());
    ASSERT_TRUE(client.ok());
    client.roundTrip(modelReq("a", 16));

    const std::string line =
        client.roundTrip("{\"op\":\"metrics\"}");
    EXPECT_TRUE(contains(line, "\"ok\":true")) << line;
    EXPECT_TRUE(contains(line, "\"format\":\"prometheus\""));
    EXPECT_TRUE(
        contains(line, "# TYPE vcache_serve_eval_ok counter"));
    EXPECT_TRUE(contains(line, "vcache_serve_eval_ok 1\\n"));
    EXPECT_TRUE(
        contains(line, "# TYPE vcache_memo_inserts counter"));
}

TEST(Server, CompatibleQueuedRequestsBatchWithIdenticalBytes)
{
    // Four distinct sim points sharing one workload key, admitted
    // while the single worker chews on a blocker: one wakeup must
    // drain them into a single batched evaluation, with responses
    // byte-identical to a batching-disabled server.
    const auto compatReq = [](std::size_t i) {
        return "{\"op\":\"eval\",\"id\":\"b" + std::to_string(i) +
               "\",\"B\":256,\"tm\":" + std::to_string(4 * (i + 1)) +
               ",\"seed\":7}";
    };

    std::vector<std::string> batched(4);
    {
        ServerOptions options;
        options.threads = 1;
        options.batchMax = 4;
        auto server = mustStart(options);
        ASSERT_TRUE(server);
        TestClient client(server->port());
        ASSERT_TRUE(client.ok());
        client.send(slowReq("blk", 77));
        std::this_thread::sleep_for(std::chrono::milliseconds(300));
        for (std::size_t i = 0; i < 4; ++i)
            client.send(compatReq(i));

        ASSERT_TRUE(contains(client.readLine(120000), "\"blk\""));
        for (std::size_t i = 0; i < 4; ++i) {
            batched[i] = client.readLine();
            ASSERT_TRUE(contains(batched[i], "\"ok\":true"))
                << batched[i];
            EXPECT_TRUE(contains(batched[i],
                                 "\"b" + std::to_string(i) + "\""));
        }
        const auto stats = server->statsSnapshot();
        EXPECT_EQ(stats.at("serve.batched"), 4u);
        EXPECT_EQ(stats.at("serve.batches"), 1u);
        EXPECT_EQ(stats.at("serve.batch_size_max"), 4u);
    }

    ServerOptions solo;
    solo.threads = 1;
    solo.batchMax = 1; // batching disabled
    auto server = mustStart(solo);
    ASSERT_TRUE(server);
    TestClient client(server->port());
    ASSERT_TRUE(client.ok());
    for (std::size_t i = 0; i < 4; ++i) {
        const std::string alone = client.roundTrip(compatReq(i));
        ASSERT_TRUE(contains(alone, "\"ok\":true")) << alone;
        EXPECT_EQ(resultOf(batched[i]), resultOf(alone)) << i;
    }
    EXPECT_EQ(server->statsSnapshot().at("serve.batches"), 0u);
}

TEST(Server, QueuePeakTracksConcurrentAdmits)
{
    // Regression for the queue_peak CAS loop: eight reader threads
    // admit concurrently while the lone worker is busy, so the peak
    // must reach the full backlog -- a torn read-modify-write would
    // under-report it.
    ServerOptions options;
    options.threads = 1;
    auto server = mustStart(options);
    ASSERT_TRUE(server);

    TestClient blocker(server->port());
    ASSERT_TRUE(blocker.ok());
    blocker.send(slowReq("blk", 78));
    std::this_thread::sleep_for(std::chrono::milliseconds(300));

    constexpr std::size_t kClients = 8;
    std::vector<std::unique_ptr<TestClient>> clients;
    for (std::size_t i = 0; i < kClients; ++i) {
        clients.push_back(
            std::make_unique<TestClient>(server->port()));
        ASSERT_TRUE(clients.back()->ok());
    }
    std::vector<std::thread> senders;
    for (std::size_t i = 0; i < kClients; ++i)
        senders.emplace_back([&, i] {
            clients[i]->send(modelReq("c" + std::to_string(i), 4 + i));
        });
    for (auto &t : senders)
        t.join();

    ASSERT_TRUE(contains(blocker.readLine(120000), "\"ok\":true"));
    for (auto &client : clients)
        EXPECT_TRUE(contains(client->readLine(120000), "\"ok\":true"));
    EXPECT_GE(server->statsSnapshot().at("serve.queue_peak"),
              kClients);
}

TEST(Server, MemoJournalSurvivesRestart)
{
    const std::string journal =
        std::string(::testing::TempDir()) + "server_restart.vcj";
    std::remove(journal.c_str());
    ServerOptions options;
    options.memo.journalPath = journal;
    options.memo.label = "memo:server-test";

    std::string first;
    {
        auto server = mustStart(options);
        ASSERT_TRUE(server);
        TestClient client(server->port());
        ASSERT_TRUE(client.ok());
        first = client.roundTrip(modelReq("a", 20));
        ASSERT_TRUE(contains(first, "\"ok\":true"));
        client.roundTrip("{\"op\":\"shutdown\"}");
        server->wait();
    }
    {
        auto server = mustStart(options);
        ASSERT_TRUE(server);
        TestClient client(server->port());
        ASSERT_TRUE(client.ok());
        const std::string again =
            client.roundTrip(modelReq("b", 20));
        EXPECT_TRUE(contains(again, "\"cached\":true")) << again;
        EXPECT_EQ(resultOf(first), resultOf(again));
    }
    std::remove(journal.c_str());
}
