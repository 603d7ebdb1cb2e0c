/**
 * @file
 * c8td daemon tests (DESIGN.md §13): golden byte-identity against the
 * shared job path, cross-request memoization, protocol robustness
 * (truncated frames, oversized prefixes, bad specs), mid-job client
 * disconnect, concurrent clients and the SIGTERM-style drain.
 *
 * The daemon runs in-process (serve() on a thread, stop() to end it);
 * the CI daemon stage covers the real c8td/c8tctl binaries and the
 * actual SIGTERM path.
 */

#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "app/job_runner.hh"
#include "core/job_spec.hh"
#include "net/client.hh"
#include "net/daemon.hh"
#include "net/frame.hh"
#include "net/socket.hh"
#include "obs/metrics.hh"

namespace
{

using namespace c8t;
using namespace std::chrono_literals;

/** A short, deterministic run spec (same stream every time). */
const char kRunSpec[] =
    "{\"kind\":\"run\",\"workload\":\"spec:gcc\",\"accesses\":50000}";

std::string
uniqueSocketPath()
{
    static std::atomic<int> counter{0};
    return "/tmp/c8t_daemon_test_" + std::to_string(::getpid()) + "_" +
           std::to_string(counter.fetch_add(1)) + ".sock";
}

/** serve() on a thread; joins (after stop()) on destruction. */
class DaemonFixture
{
  public:
    explicit DaemonFixture(net::DaemonConfig cfg = {})
    {
        if (cfg.socketPath.empty())
            cfg.socketPath = uniqueSocketPath();
        _daemon = std::make_unique<net::Daemon>(cfg);
        _thread = std::thread([this] { _daemon->serve(); });
        const auto deadline =
            std::chrono::steady_clock::now() + 10s;
        while (!_daemon->ready()) {
            if (std::chrono::steady_clock::now() >= deadline) {
                ADD_FAILURE() << "daemon did not come up";
                break;
            }
            std::this_thread::sleep_for(1ms);
        }
    }

    ~DaemonFixture()
    {
        _daemon->stop();
        _thread.join();
        std::remove(_daemon->config().socketPath.c_str());
    }

    net::Daemon &daemon() { return *_daemon; }
    const std::string &socket() const
    {
        return _daemon->config().socketPath;
    }

  private:
    std::unique_ptr<net::Daemon> _daemon;
    std::thread _thread;
};

/** Poll a metrics predicate until true or a 30 s deadline. */
template <typename Fn>
bool
eventually(Fn &&pred)
{
    const auto deadline = std::chrono::steady_clock::now() + 30s;
    while (std::chrono::steady_clock::now() < deadline) {
        if (pred())
            return true;
        std::this_thread::sleep_for(5ms);
    }
    return false;
}

TEST(DaemonTest, FinalFrameIsByteIdenticalToJobRunner)
{
    // The expected document comes from the same shared path c8tsim
    // uses; the CI daemon stage additionally diffs against the real
    // c8tsim binary's --stats-json file.
    const std::string expected =
        app::runJobSpec(core::JobSpec::fromJsonText(kRunSpec))
            .document;

    DaemonFixture fx;
    net::DaemonClient client(fx.socket());
    EXPECT_EQ(client.call(kRunSpec), expected);
}

TEST(DaemonTest, VddSweepAndExploreKindsMatchJobRunner)
{
    const std::string vdd_spec =
        "{\"kind\":\"vdd_sweep\",\"workload\":\"spec:gcc\","
        "\"accesses\":20000,\"vdd\":0.75}";
    const std::string explore_spec =
        "{\"kind\":\"explore\",\"accesses\":10000,\"explore\":{"
        "\"workloads\":[\"gcc\"],\"sizes_kb\":[16],\"ways\":[2],"
        "\"blocks\":[32]}}";
    const std::string expected_vdd =
        app::runJobSpec(core::JobSpec::fromJsonText(vdd_spec)).document;
    const std::string expected_explore =
        app::runJobSpec(core::JobSpec::fromJsonText(explore_spec))
            .document;

    DaemonFixture fx;
    net::DaemonClient client(fx.socket());
    EXPECT_EQ(client.call(vdd_spec), expected_vdd);
    EXPECT_EQ(client.call(explore_spec), expected_explore);
}

TEST(DaemonTest, SecondIdenticalRequestIsAMemoHit)
{
    DaemonFixture fx;
    const std::uint64_t memo_before =
        obs::globalMetrics().daemon().memoHits;

    net::DaemonClient first(fx.socket());
    const std::string a = first.call(kRunSpec);

    // A different client, same spec: byte-identical answer, served
    // from the whole-result memo without re-running the simulation.
    net::DaemonClient second(fx.socket());
    const std::string b = second.call(kRunSpec);
    EXPECT_EQ(a, b);
    EXPECT_TRUE(eventually([&] {
        return obs::globalMetrics().daemon().memoHits > memo_before;
    }));
}

TEST(DaemonTest, EquivalentSpecsShareTheMemoEntry)
{
    DaemonFixture fx;
    const std::uint64_t memo_before =
        obs::globalMetrics().daemon().memoHits;
    net::DaemonClient client(fx.socket());
    const std::string a = client.call(kRunSpec);
    // Key order and explicit defaults don't matter: the memo keys on
    // the canonical spec serialization, not the request bytes.
    const std::string b = client.call(
        "{\"accesses\":50000,\"workload\":\"spec:gcc\","
        "\"kind\":\"run\",\"warmup\":0}");
    EXPECT_EQ(a, b);
    EXPECT_TRUE(eventually([&] {
        return obs::globalMetrics().daemon().memoHits > memo_before;
    }));
}

TEST(DaemonTest, BadSpecGetsErrorFrameAndConnectionSurvives)
{
    DaemonFixture fx;
    net::DaemonClient client(fx.socket());

    client.submit("{\"kind\":\"run\",\"acceses\":5}");
    client.submit(kRunSpec);

    net::Frame f;
    bool saw_error = false;
    std::string final_doc;
    while (client.read(f)) {
        if (f.type == net::FrameType::Error) {
            EXPECT_NE(f.payload.find("acceses"), std::string::npos);
            EXPECT_NE(f.payload.find("\"job\":0"), std::string::npos);
            saw_error = true;
        } else if (f.type == net::FrameType::Final) {
            final_doc = f.payload;
            break;
        }
    }
    EXPECT_TRUE(saw_error);
    EXPECT_FALSE(final_doc.empty());
}

TEST(DaemonTest, ProgressAndPartialFramesCarryTheJobIndex)
{
    DaemonFixture fx;
    net::DaemonClient client(fx.socket());
    client.submit(kRunSpec);

    bool saw_partial = false;
    net::Frame f;
    while (client.read(f)) {
        if (f.type == net::FrameType::Partial) {
            EXPECT_NE(f.payload.find("\"job\":0"), std::string::npos);
            EXPECT_NE(f.payload.find("\"scheme\""), std::string::npos);
            saw_partial = true;
        }
        if (f.type == net::FrameType::Final)
            break;
    }
    EXPECT_TRUE(saw_partial);
}

TEST(DaemonTest, OversizedLengthPrefixGetsProtocolError)
{
    DaemonFixture fx;
    net::Fd fd = net::connectUnix(fx.socket());
    const char header[5] = {1, '\x7f', '\xff', '\xff', '\xff'};
    net::writeAll(fd.get(), header, sizeof(header));

    net::FrameReader reader;
    char buf[4096];
    std::string error_payload;
    for (;;) {
        const std::size_t n = net::readSome(fd.get(), buf, sizeof(buf));
        if (n == 0)
            break;
        reader.feed(buf, n);
        net::Frame f;
        while (reader.next(f)) {
            if (f.type == net::FrameType::Error)
                error_payload = f.payload;
        }
    }
    EXPECT_NE(error_payload.find("length prefix"), std::string::npos);
}

TEST(DaemonTest, NonRequestFrameFromClientGetsProtocolError)
{
    DaemonFixture fx;
    net::Fd fd = net::connectUnix(fx.socket());
    const std::string bytes =
        net::encodeFrame(net::FrameType::Progress, "{}");
    net::writeAll(fd.get(), bytes.data(), bytes.size());

    net::FrameReader reader;
    char buf[4096];
    std::string error_payload;
    for (;;) {
        const std::size_t n = net::readSome(fd.get(), buf, sizeof(buf));
        if (n == 0)
            break;
        reader.feed(buf, n);
        net::Frame f;
        while (reader.next(f)) {
            if (f.type == net::FrameType::Error)
                error_payload = f.payload;
        }
    }
    EXPECT_NE(error_payload.find("progress"), std::string::npos);
}

TEST(DaemonTest, TruncatedFrameAtEofDoesNotWedgeTheDaemon)
{
    DaemonFixture fx;
    {
        // Header promises 100 bytes; only 10 arrive, then the client
        // vanishes mid-frame.
        net::Fd fd = net::connectUnix(fx.socket());
        const std::string full = net::encodeFrame(
            net::FrameType::Request, std::string(100, 'x'));
        net::writeAll(fd.get(), full.data(), 15);
    }
    // The daemon must shrug that off and keep serving.
    net::DaemonClient client(fx.socket());
    EXPECT_FALSE(client.call(kRunSpec).empty());
}

TEST(DaemonTest, MidJobDisconnectCancelsTheJob)
{
    net::DaemonConfig cfg;
    cfg.workers = 1;     // serialize tasks so one is dropped pending
    cfg.heartbeatMs = 10; // fast write-side disconnect detection
    DaemonFixture fx(cfg);

    const std::uint64_t cancelled_before =
        obs::globalMetrics().daemon().jobsCancelled;
    {
        net::DaemonClient client(fx.socket());
        // Big enough to still be running when the client vanishes.
        client.submit(
            "{\"kind\":\"run\",\"workload\":\"spec:gcc\","
            "\"accesses\":2000000}");
        std::this_thread::sleep_for(50ms);
        client.close(); // vanish, no half-close courtesy
    }
    // The next heartbeat/progress write fails (EPIPE), which cancels
    // the client's pool slot; the executor records the cancellation.
    EXPECT_TRUE(eventually([&] {
        return obs::globalMetrics().daemon().jobsCancelled >
               cancelled_before;
    }));
}

TEST(DaemonTest, ConcurrentClientsAllGetCorrectBytes)
{
    const std::vector<std::string> specs = {
        "{\"kind\":\"run\",\"workload\":\"spec:gcc\","
        "\"accesses\":40000}",
        "{\"kind\":\"run\",\"workload\":\"spec:mcf\","
        "\"accesses\":40000}",
        "{\"kind\":\"run\",\"workload\":\"kernel:hash_update\","
        "\"accesses\":40000}",
    };
    std::vector<std::string> expected;
    for (const std::string &s : specs) {
        expected.push_back(
            app::runJobSpec(core::JobSpec::fromJsonText(s)).document);
    }

    DaemonFixture fx;
    std::vector<std::string> got(specs.size());
    std::vector<std::thread> clients;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        clients.emplace_back([&, i] {
            net::DaemonClient client(fx.socket());
            got[i] = client.call(specs[i]);
        });
    }
    for (auto &t : clients)
        t.join();
    for (std::size_t i = 0; i < specs.size(); ++i)
        EXPECT_EQ(got[i], expected[i]) << specs[i];
}

TEST(DaemonTest, StopDrainsAcceptedJobs)
{
    DaemonFixture fx;
    net::DaemonClient client(fx.socket());
    client.submit(kRunSpec);
    client.submit(
        "{\"kind\":\"run\",\"workload\":\"spec:gcc\","
        "\"accesses\":60000}");

    // Wait until the reader has actually accepted both requests, then
    // ask for shutdown: a drain, not an abort.
    ASSERT_TRUE(
        eventually([&] { return fx.daemon().jobsAccepted() >= 2; }));
    fx.daemon().stop();

    int finals = 0;
    net::Frame f;
    while (client.read(f)) {
        if (f.type == net::FrameType::Final) {
            EXPECT_FALSE(f.payload.empty());
            ++finals;
        }
        EXPECT_NE(f.type, net::FrameType::Error);
    }
    // Both accepted jobs were answered before the connection closed.
    EXPECT_EQ(finals, 2);
}

} // namespace
