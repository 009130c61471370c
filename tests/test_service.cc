/**
 * @file
 * Tier-1 tests for the simulation service (docs/SERVICE.md): the
 * MNRQ/MNRS framing protocol and job codec (harness/proto.*), the
 * shared-FIFO worker pool (harness/worker_pool.*), and the
 * daemon + client pair (harness/server.*, harness/client.*).
 *
 * The headline invariant: routing a sweep through a daemon must not
 * change what it produces. Every e2e test compares hexfloat-exact
 * encodeResult() payloads between an in-process runChecked() and the
 * same jobs through a live Server on a Unix socket — including under
 * an injected worker crash, a dropped connection, and a torn result
 * frame.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <mutex>
#include <thread>

#include <unistd.h>

#include "arch/manna_config.hh"
#include "common/config.hh"
#include "common/error.hh"
#include "common/fault.hh"
#include "common/net.hh"
#include "common/strutil.hh"
#include "harness/client.hh"
#include "harness/journal.hh"
#include "harness/proto.hh"
#include "harness/server.hh"
#include "harness/sweep.hh"
#include "harness/worker_pool.hh"
#include "workloads/benchmarks.hh"

namespace manna::harness
{
namespace
{

std::string
uniqueSocketPath()
{
    static std::atomic<int> counter{0};
    return strformat("/tmp/manna-svc-test-%d-%d.sock",
                     static_cast<int>(::getpid()),
                     counter.fetch_add(1));
}

/** The mini-sweep the e2e tests run both ways: one tiny benchmark at
 * two tile counts and three seeds. */
std::vector<SweepJob>
miniSweep()
{
    std::vector<SweepJob> jobs;
    const auto bench = workloads::tinyBenchmark();
    for (std::size_t tiles : {4u, 8u})
        for (std::uint64_t seed : {1u, 2u, 3u})
            jobs.push_back({bench, arch::MannaConfig::withTiles(tiles),
                            2, seed});
    return jobs;
}

/** Hexfloat-exact comparable form of a report's outcomes. */
std::vector<std::string>
outcomeFingerprints(const SweepReport &report)
{
    std::vector<std::string> out;
    for (const JobOutcome &o : report.outcomes) {
        if (o.ok)
            out.push_back(encodeResult(o.value));
        else
            out.push_back("FAILED " + o.error.message);
    }
    return out;
}

/** RAII daemon for the e2e tests. */
class ScopedServer
{
  public:
    explicit ScopedServer(server::ServerOptions opts)
        : server_(std::move(opts))
    {
        server_.start();
    }
    ~ScopedServer() { server_.stop(); }
    server::Server &operator*() { return server_; }
    server::Server *operator->() { return &server_; }

  private:
    server::Server server_;
};

// -- address parsing ---------------------------------------------------

TEST(NetAddress, ParsesUnixTcpAndBareForms)
{
    const net::NetAddress u = net::parseAddress("unix:/tmp/x.sock");
    EXPECT_EQ(u.kind, net::NetAddress::Kind::Unix);
    EXPECT_EQ(u.path, "/tmp/x.sock");

    const net::NetAddress bare = net::parseAddress("/tmp/y.sock");
    EXPECT_EQ(bare.kind, net::NetAddress::Kind::Unix);
    EXPECT_EQ(bare.path, "/tmp/y.sock");

    const net::NetAddress t = net::parseAddress("tcp:127.0.0.1:8421");
    EXPECT_EQ(t.kind, net::NetAddress::Kind::Tcp);
    EXPECT_EQ(t.host, "127.0.0.1");
    EXPECT_EQ(t.port, 8421);

    EXPECT_THROW(net::parseAddress(""), ConfigError);
    EXPECT_THROW(net::parseAddress("tcp:localhost"), ConfigError);
    EXPECT_THROW(net::parseAddress("tcp:localhost:notaport"),
                 ConfigError);
    EXPECT_THROW(net::parseAddress("carrier-pigeon:coop"),
                 ConfigError);
}

// -- framing -----------------------------------------------------------

TEST(Proto, FrameRoundTripsThroughEncodeDecode)
{
    proto::Frame in;
    in.request = true;
    in.type = proto::MsgType::Submit;
    in.payload = "id 7 priority -3 job 5:hello";
    const std::string bytes = proto::encodeFrame(in);
    ASSERT_GE(bytes.size(), proto::kHeaderBytes);

    proto::Frame out;
    EXPECT_EQ(proto::decodeFrame(bytes, true, &out),
              proto::ReadStatus::Ok);
    EXPECT_TRUE(out.request);
    EXPECT_EQ(out.type, proto::MsgType::Submit);
    EXPECT_EQ(out.payload, in.payload);

    // Empty payloads are legal (Ping/Pong).
    proto::Frame ping;
    ping.request = false;
    ping.type = proto::MsgType::Pong;
    proto::Frame ping2;
    EXPECT_EQ(proto::decodeFrame(proto::encodeFrame(ping), false,
                                 &ping2),
              proto::ReadStatus::Ok);
    EXPECT_EQ(ping2.payload, "");
}

TEST(Proto, TruncationIsTornAndCorruptionIsBad)
{
    proto::Frame in;
    in.type = proto::MsgType::Submit;
    in.payload = "some payload bytes";
    const std::string bytes = proto::encodeFrame(in);

    proto::Frame out;
    // Every strict prefix is Torn, never Ok, never Bad-with-garbage.
    for (std::size_t cut = 1; cut < bytes.size(); ++cut)
        EXPECT_EQ(proto::decodeFrame(bytes.substr(0, cut), true, &out),
                  proto::ReadStatus::Torn)
            << "cut=" << cut;

    // Any single bit flip is rejected. Everywhere it reads as Bad
    // (magic/version/type and payload are under the checksum); a flip
    // inside the length field (bytes 8..11) may instead read as Torn,
    // because a length claiming more bytes than arrived is
    // indistinguishable from a peer dying mid-frame.
    for (std::size_t i = 0; i < bytes.size(); ++i) {
        std::string bad = bytes;
        bad[i] = static_cast<char>(bad[i] ^ 0x10);
        std::string err;
        const proto::ReadStatus st =
            proto::decodeFrame(bad, true, &out, &err);
        EXPECT_NE(st, proto::ReadStatus::Ok) << "byte=" << i;
        if (i < 8 || i >= 12) {
            EXPECT_EQ(st, proto::ReadStatus::Bad) << "byte=" << i;
            EXPECT_FALSE(err.empty());
        }
    }

    // Response magic where a request is expected: a misdirected frame.
    proto::Frame resp;
    resp.request = false;
    resp.type = proto::MsgType::Pong;
    EXPECT_EQ(proto::decodeFrame(proto::encodeFrame(resp), true, &out),
              proto::ReadStatus::Bad);
}

TEST(Proto, FieldReaderParsesAndRejects)
{
    std::string payload = "id 42 name ";
    proto::appendSized(payload, "space separated bytes");
    {
        proto::FieldReader r(payload);
        r.expect("id");
        EXPECT_EQ(r.u64(), 42u);
        r.expect("name");
        EXPECT_EQ(r.sized(), "space separated bytes");
        EXPECT_TRUE(r.ok());
    }
    {
        proto::FieldReader r(payload);
        r.expect("bogus");
        EXPECT_FALSE(r.ok());
        EXPECT_FALSE(r.error().empty());
    }
    {
        proto::FieldReader r("id notanumber");
        r.expect("id");
        (void)r.u64();
        EXPECT_FALSE(r.ok());
    }
    {
        // Sized field whose length overruns the payload.
        proto::FieldReader r("name 999:short");
        r.expect("name");
        (void)r.sized();
        EXPECT_FALSE(r.ok());
    }
}

// -- job codec ---------------------------------------------------------

TEST(Proto, JobCodecRoundTripsExactly)
{
    for (const SweepJob &job : miniSweep()) {
        const std::string text = proto::encodeJob(job);
        std::string err;
        const auto decoded = proto::decodeJob(text, &err);
        ASSERT_TRUE(decoded.has_value()) << err;
        EXPECT_EQ(decoded->fingerprint(), job.fingerprint());
        EXPECT_EQ(decoded->steps, job.steps);
        EXPECT_EQ(decoded->seed, job.seed);
        EXPECT_EQ(decoded->label(), job.label());
        // Same wire form when re-encoded: the codec is canonical.
        EXPECT_EQ(proto::encodeJob(*decoded), text);
    }
}

TEST(Proto, TamperedJobPayloadFailsTheFingerprintCheck)
{
    SweepJob job = miniSweep()[0];
    const std::string text = proto::encodeJob(job);

    // Flip a numeric field (steps) without updating the fingerprint:
    // the daemon must refuse to simulate the wrong point.
    const auto pos = text.find("steps 2");
    ASSERT_NE(pos, std::string::npos) << text;
    std::string tampered = text;
    tampered[pos + 6] = '3';
    std::string err;
    EXPECT_FALSE(proto::decodeJob(tampered, &err).has_value());
    EXPECT_NE(err.find("fingerprint"), std::string::npos) << err;

    EXPECT_FALSE(proto::decodeJob("job v9 what", &err).has_value());
    EXPECT_FALSE(proto::decodeJob("", &err).has_value());
}

// -- worker pool -------------------------------------------------------

TEST(WorkerPool, ExecutesEverythingAcrossWorkers)
{
    WorkerPool pool(4);
    std::vector<int> done(100, 0);
    for (std::size_t i = 0; i < done.size(); ++i)
        pool.submit([&done, i] { done[i] = 1; });
    pool.drain();
    for (int d : done)
        EXPECT_EQ(d, 1);
    EXPECT_EQ(pool.busyWorkers(), 0u);
    std::uint64_t executed = 0;
    for (std::size_t w = 0; w < pool.workers(); ++w)
        executed += pool.executedBy(w);
    EXPECT_EQ(executed, 100u);
    pool.stop();
}

TEST(WorkerPool, StartsTasksInSubmissionOrder)
{
    // A baton keeps exactly one worker free to pick up the next task:
    // each task records its index, wakes the longest-parked worker,
    // and parks itself until the last index is recorded. The recorded
    // order is therefore the pickup order, with no race between the
    // pool's pop and the record.
    constexpr std::size_t kTasks = 64;
    std::mutex mu;
    std::condition_variable cv;
    std::deque<bool *> parked;
    std::vector<std::size_t> order;
    bool done = false;
    auto park = [&](std::unique_lock<std::mutex> &lock) {
        bool go = false;
        parked.push_back(&go);
        cv.notify_all();
        cv.wait(lock, [&] { return go || done; });
    };

    WorkerPool pool(3);
    for (int p = 0; p < 2; ++p)
        pool.submit([&] {
            std::unique_lock<std::mutex> lock(mu);
            park(lock);
        });
    {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return parked.size() == 2; });
    }
    for (std::size_t i = 0; i < kTasks; ++i)
        pool.submit([&, i] {
            std::unique_lock<std::mutex> lock(mu);
            order.push_back(i);
            done = order.size() == kTasks;
            *parked.front() = true;
            parked.pop_front();
            park(lock);
        });
    pool.drain();

    std::vector<std::size_t> expected(kTasks);
    for (std::size_t i = 0; i < kTasks; ++i)
        expected[i] = i;
    EXPECT_EQ(order, expected);
}

TEST(WorkerPool, StopRunsEveryQueuedTask)
{
    WorkerPool pool(2);
    std::atomic<int> ran{0};
    for (int i = 0; i < 8; ++i)
        pool.submit([&] {
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
            ran.fetch_add(1);
        });
    pool.stop();
    EXPECT_EQ(ran.load(), 8);
}

// -- options parsing ---------------------------------------------------

TEST(ServerOptions, ParsedFromConfigKnobs)
{
    Config cfg;
    cfg.set("server", "unix:/tmp/svc.sock");
    cfg.set("pool", "3");
    cfg.set("queue_depth", "17");
    cfg.set("clients", "5");
    cfg.set("metrics_interval", "0.25");
    const server::ServerOptions o = server::serverOptionsFromConfig(cfg);
    EXPECT_EQ(o.address, "unix:/tmp/svc.sock");
    EXPECT_EQ(o.pool, 3u);
    EXPECT_EQ(o.queueDepth, 17u);
    EXPECT_EQ(o.maxClients, 5u);
    EXPECT_DOUBLE_EQ(o.metricsIntervalSeconds, 0.25);
}

TEST(ServerOptions, MalformedEnvironmentWarnsAndFallsBack)
{
    ::setenv("MANNA_POOL", "abc", 1);
    testing::internal::CaptureStderr();
    const server::ServerOptions o =
        server::serverOptionsFromConfig(Config{});
    const std::string err = testing::internal::GetCapturedStderr();
    ::unsetenv("MANNA_POOL");
    EXPECT_EQ(o.pool, 0u); // 0 selects defaultJobs()
    EXPECT_NE(err.find("ignoring invalid MANNA_POOL='abc'"),
              std::string::npos)
        << err;
}

TEST(ServerOptions, ServiceKnobTableIsNonEmptyAndUnique)
{
    ASSERT_GT(server::kNumServiceKnobs, 0u);
    for (std::size_t i = 0; i < server::kNumServiceKnobs; ++i)
        for (std::size_t j = i + 1; j < server::kNumServiceKnobs; ++j)
            EXPECT_STRNE(server::kServiceKnobs[i],
                         server::kServiceKnobs[j]);
}

// -- end to end --------------------------------------------------------

TEST(Service, DaemonSweepMatchesInProcessByteForByte)
{
    const auto jobs = miniSweep();
    SweepRunner runner(2);
    const SweepReport plain = runner.runChecked(jobs, SweepOptions{});

    server::ServerOptions sopts;
    sopts.address = uniqueSocketPath();
    sopts.pool = 2;
    ScopedServer daemon(sopts);

    SweepOptions opts;
    opts.server = daemon->boundAddress();
    const SweepReport viaDaemon =
        client::runServerSweep(runner, jobs, opts);

    EXPECT_EQ(outcomeFingerprints(plain),
              outcomeFingerprints(viaDaemon));
    EXPECT_EQ(daemon->completedJobs(), jobs.size());
    EXPECT_EQ(daemon->failedJobs(), 0u);
    for (const JobOutcome &o : viaDaemon.outcomes)
        EXPECT_EQ(o.attempts, 1u);
}

TEST(Service, RunCheckedRoutesOnTheServerKnob)
{
    // The sweep-level entry point: runChecked() with opts.server set
    // must transparently go through the daemon.
    const auto jobs = miniSweep();
    SweepRunner runner(2);
    const SweepReport plain = runner.runChecked(jobs, SweepOptions{});

    server::ServerOptions sopts;
    sopts.address = uniqueSocketPath();
    sopts.pool = 2;
    ScopedServer daemon(sopts);

    SweepOptions opts;
    opts.server = daemon->boundAddress();
    const SweepReport viaDaemon = runner.runChecked(jobs, opts);
    EXPECT_EQ(outcomeFingerprints(plain),
              outcomeFingerprints(viaDaemon));
}

TEST(Service, ResubmittedFingerprintsAreAnsweredFromTheResultCache)
{
    const auto jobs = miniSweep();
    SweepRunner runner(2);

    server::ServerOptions sopts;
    sopts.address = uniqueSocketPath();
    sopts.pool = 2;
    ScopedServer daemon(sopts);

    SweepOptions opts;
    opts.server = daemon->boundAddress();
    const SweepReport first =
        client::runServerSweep(runner, jobs, opts);
    const SweepReport second =
        client::runServerSweep(runner, jobs, opts);
    EXPECT_EQ(outcomeFingerprints(first), outcomeFingerprints(second));
    EXPECT_EQ(daemon->completedJobs(), jobs.size());
    EXPECT_EQ(daemon->journalHits(), jobs.size());
}

TEST(Service, AdmissionControlSendsRetryAfterAndStillCompletes)
{
    const auto jobs = miniSweep();
    SweepRunner runner(4);
    const SweepReport plain = runner.runChecked(jobs, SweepOptions{});

    server::ServerOptions sopts;
    sopts.address = uniqueSocketPath();
    sopts.pool = 1;
    sopts.queueDepth = 1; // near-everything bounces at least once
    ScopedServer daemon(sopts);

    SweepOptions opts;
    opts.server = daemon->boundAddress();
    const SweepReport viaDaemon =
        client::runServerSweep(runner, jobs, opts);
    EXPECT_EQ(outcomeFingerprints(plain),
              outcomeFingerprints(viaDaemon));
    EXPECT_GT(daemon->retryAfterCount(), 0u);
    // RetryAfter is backpressure, not a failure: still one attempt.
    for (const JobOutcome &o : viaDaemon.outcomes)
        EXPECT_EQ(o.attempts, 1u);
}

TEST(Service, InjectedWorkerCrashKeepsResultsIdentical)
{
    const auto jobs = miniSweep();
    SweepRunner runner(2);
    const SweepReport plain = runner.runChecked(jobs, SweepOptions{});

    server::ServerOptions sopts;
    sopts.address = uniqueSocketPath();
    sopts.pool = 2;
    ScopedServer daemon(sopts);

    fault::configure(
        strformat("%s:once@1",
                  fault::siteName(fault::Site::PoolWorkerCrash)),
        0);
    SweepOptions opts;
    opts.server = daemon->boundAddress();
    const SweepReport viaDaemon =
        client::runServerSweep(runner, jobs, opts);
    fault::reset();

    EXPECT_EQ(outcomeFingerprints(plain),
              outcomeFingerprints(viaDaemon));
    EXPECT_EQ(daemon->restarts(), 1u);
    EXPECT_EQ(daemon->completedJobs(), jobs.size());
}

TEST(Service, TornResultFrameIsRetransparentToTheClient)
{
    const auto jobs = miniSweep();
    SweepRunner runner(2);
    const SweepReport plain = runner.runChecked(jobs, SweepOptions{});

    server::ServerOptions sopts;
    sopts.address = uniqueSocketPath();
    sopts.pool = 2;
    ScopedServer daemon(sopts);

    // The daemon's first streaming send tears mid-frame. The client
    // reconnects, resubmits, and the result cache answers — the sweep
    // still resolves every job identically.
    fault::configure(
        strformat("%s:once@1",
                  fault::siteName(fault::Site::ServerFrameTorn)),
        0);
    SweepOptions opts;
    opts.server = daemon->boundAddress();
    const SweepReport viaDaemon =
        client::runServerSweep(runner, jobs, opts);
    fault::reset();

    EXPECT_EQ(outcomeFingerprints(plain),
              outcomeFingerprints(viaDaemon));
}

TEST(Service, ConnectionDroppedAtAcceptIsReconnected)
{
    const auto jobs = miniSweep();
    SweepRunner runner(2);
    const SweepReport plain = runner.runChecked(jobs, SweepOptions{});

    server::ServerOptions sopts;
    sopts.address = uniqueSocketPath();
    sopts.pool = 2;
    ScopedServer daemon(sopts);

    // The daemon drops the client's first connection before the
    // handshake reply. The client reconnects within the same attempt,
    // so no retry budget is needed.
    fault::configure(
        strformat("%s:once@1",
                  fault::siteName(fault::Site::ServerAccept)),
        0);
    SweepOptions opts;
    opts.server = daemon->boundAddress();
    opts.retries = 0;
    const SweepReport viaDaemon =
        client::runServerSweep(runner, jobs, opts);
    EXPECT_EQ(fault::fireCount(fault::Site::ServerAccept), 1u);
    fault::reset();

    EXPECT_TRUE(viaDaemon.allOk());
    EXPECT_EQ(outcomeFingerprints(plain),
              outcomeFingerprints(viaDaemon));
}

TEST(Service, ControlPlanePingStatsShutdown)
{
    server::ServerOptions sopts;
    sopts.address = uniqueSocketPath();
    sopts.pool = 1;
    ScopedServer daemon(sopts);

    std::string err;
    EXPECT_TRUE(client::pingServer(daemon->boundAddress(), &err))
        << err;

    const std::string stats =
        client::fetchServerStats(daemon->boundAddress());
    EXPECT_NE(stats.find("manna-daemon-stats-v1"), std::string::npos);
    EXPECT_NE(stats.find("\"per_worker\""), std::string::npos);

    client::requestServerShutdown(daemon->boundAddress());
    for (int i = 0; i < 100 && !daemon->stopping(); ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    EXPECT_TRUE(daemon->stopping());

    // A dead endpoint pings false instead of throwing.
    EXPECT_FALSE(
        client::pingServer("unix:/tmp/manna-svc-nowhere.sock", &err));
    EXPECT_FALSE(err.empty());
}

} // namespace
} // namespace manna::harness
