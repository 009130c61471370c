#include "server.hh"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <mutex>
#include <thread>

#include <sys/socket.h>
#include <unistd.h>

#include "common/config.hh"
#include "common/error.hh"
#include "common/event_log.hh"
#include "common/fault.hh"
#include "common/fileio.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/shutdown.hh"
#include "common/strutil.hh"
#include "compiler/compile_cache.hh"
#include "harness/journal.hh"
#include "harness/proto.hh"
#include "harness/sweep.hh"

namespace manna::harness::server
{

namespace
{

using Clock = std::chrono::steady_clock;

/** DRR quantum in cost units per scheduling pass (job cost =
 * max(1, steps)); small enough that clients interleave at sweep
 * granularity, large enough that typical jobs dispatch in one pass. */
constexpr std::uint64_t kQuantum = 32;

/** Suggested client backoff when admission control pushes back. */
constexpr std::uint64_t kRetryAfterMs = 100;

} // namespace

const char *const kServiceKnobs[] = {
    "server",           "pool",    "queue_depth", "clients",
    "journal",          "resume",  "stats",       "metrics",
    "metrics_interval", "events",  "events_limit",
    "cache_entries",    "faults",  "fault_seed",
};
const std::size_t kNumServiceKnobs =
    sizeof(kServiceKnobs) / sizeof(kServiceKnobs[0]);

ServerOptions
serverOptionsFromConfig(const Config &cfg)
{
    ServerOptions opts;
    const char *envServer = std::getenv("MANNA_SERVER");
    opts.address =
        cfg.getString("server", envServer ? envServer : "");
    // A count knob defaults to its environment variable and is never
    // below min.
    const auto env = [](const char *name, std::size_t def,
                        std::size_t min) {
        return static_cast<std::int64_t>(envCount(name, def, min));
    };
    const auto count = [](std::int64_t value, std::size_t min) {
        return static_cast<std::size_t>(
            std::max(static_cast<std::int64_t>(min), value));
    };
    opts.pool = count(cfg.getInt("pool", env("MANNA_POOL", 0, 0)), 0);
    opts.queueDepth = count(
        cfg.getInt("queue_depth", env("MANNA_QUEUE_DEPTH", 64, 1)), 1);
    opts.maxClients =
        count(cfg.getInt("clients", env("MANNA_CLIENTS", 16, 1)), 1);
    opts.journalPath = cfg.getString("journal", "");
    opts.resumeFrom = cfg.getString("resume", "");
    if (opts.journalPath.empty() && !opts.resumeFrom.empty() &&
        opts.resumeFrom.find(',') == std::string::npos)
        opts.journalPath = opts.resumeFrom;
    opts.statsPath = cfg.getString("stats", "");
    opts.metricsPath = cfg.getString("metrics", "");
    opts.metricsIntervalSeconds =
        cfg.getDouble("metrics_interval", 1.0);
    if (opts.metricsIntervalSeconds <= 0.0) {
        warn("metrics_interval= must be positive; using 1s");
        opts.metricsIntervalSeconds = 1.0;
    }
    opts.eventsPath = cfg.getString("events", "");
    opts.cacheEntries = count(
        cfg.getInt("cache_entries", env("MANNA_CACHE_ENTRIES", 0, 0)), 0);
    // Same process-wide side effects as sweepOptionsFromConfig: the
    // daemon is a sweep executor, so it gets the fault-injection
    // and tracing knobs with identical semantics.
    fault::configureFromConfig(cfg);
    setLogRole("daemon");
    events::configureFromConfig(cfg, "daemon");
    return opts;
}

// ---------------------------------------------------------------------
// Internal state
// ---------------------------------------------------------------------

struct Server::Pending
{
    std::uint64_t id = 0;     ///< client-chosen job id
    std::int64_t priority = 0;
    std::uint64_t cost = 1;   ///< max(1, steps)
    SweepJob job;
};

struct Server::Conn
{
    std::uint64_t id = 0;
    int fd = -1;
    std::string name = "?";
    std::thread reader;
    std::mutex writeMu; ///< serializes frame writes + fd close
    // Everything below is guarded by Impl::mu.
    std::deque<Pending> queue;
    std::uint64_t deficit = 0;
    std::uint64_t dispatched = 0;
    std::map<std::uint64_t, std::shared_ptr<CancelToken>> running;
    bool open = true;
};

struct Server::Impl
{
    ServerOptions opts;
    net::NetAddress addr;
    net::ScopedFd listenFd;

    mutable std::mutex mu;
    std::condition_variable dispatchCv;
    std::condition_variable stopCv;
    std::vector<std::shared_ptr<Conn>> conns;
    std::thread acceptThread;
    std::thread dispatchThread;
    std::thread metricsThread;
    bool started = false;
    bool stopping = false;
    std::uint64_t nextConnId = 1;
    std::size_t drrCursor = 0;
    std::size_t inFlightTotal = 0;

    std::uint64_t accepted = 0;
    std::uint64_t rejected = 0;
    std::uint64_t submits = 0;
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;
    std::uint64_t cancelled = 0;
    std::uint64_t retryAfter = 0;
    std::uint64_t journalHits = 0;
    std::uint64_t restarts = 0; ///< injected pool.worker.crash requeues
    std::map<std::string, std::uint64_t> perClientDispatched;

    std::map<std::uint64_t, MannaResult> restored;
    std::unique_ptr<SweepJournal> journal;
    Clock::time_point startTime;
    std::uint64_t runSpanId = 0;

    /** Send one response frame to @p conn; on failure shut the
     * socket down so the reader observes it and runs the single
     * cleanup path. allowTear opts into the server.frame.torn
     * fault site (result-streaming only). */
    bool
    send(Conn &conn, proto::MsgType type, std::string payload,
         bool allowTear = false)
    {
        std::lock_guard<std::mutex> lock(conn.writeMu);
        if (conn.fd < 0)
            return false;
        proto::Frame frame{false, type, std::move(payload)};
        if (!proto::writeFrame(conn.fd, frame, allowTear)) {
            ::shutdown(conn.fd, SHUT_RDWR);
            return false;
        }
        return true;
    }
};

// ---------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------

Server::Server(ServerOptions opts) : impl_(std::make_unique<Impl>())
{
    impl_->opts = std::move(opts);
}

Server::~Server()
{
    stop();
}

std::size_t
Server::queuedTotalLocked() const
{
    std::size_t n = 0;
    for (const auto &c : impl_->conns)
        if (c->open)
            n += c->queue.size();
    return n;
}

void
Server::start()
{
    Impl &im = *impl_;
    {
        std::lock_guard<std::mutex> lock(im.mu);
        if (im.started)
            return;
    }
    if (im.opts.address.empty())
        throw ConfigError("mannad needs server=ADDR to listen on");
    im.addr = net::parseAddress(im.opts.address);
    im.listenFd = net::listenOn(im.addr);

    JournalLoadStats journalStats;
    if (!im.opts.resumeFrom.empty()) {
        im.restored = loadJournals(
            splitJournalList(im.opts.resumeFrom), &journalStats);
        if (journalStats.corruptRecords > 0)
            warn("daemon resume journals contained %zu corrupt "
                 "record(s); the affected jobs will re-run",
                 journalStats.corruptRecords);
    }
    if (!im.opts.journalPath.empty())
        im.journal = std::make_unique<SweepJournal>(
            im.opts.journalPath, 8);

    compiler::setCompileCacheCapacity(im.opts.cacheEntries);

    const std::size_t workers =
        im.opts.pool > 0 ? im.opts.pool : defaultJobs();
    pool_ = std::make_unique<WorkerPool>(workers);

    {
        std::lock_guard<std::mutex> lock(im.mu);
        im.started = true;
        im.stopping = false;
        im.startTime = Clock::now();
    }
    if (events::enabled())
        im.runSpanId = events::EventLog::instance().beginSpan(
            "server.run",
            strformat("addr=%s pool=%zu queue_depth=%zu",
                      im.addr.describe().c_str(), workers,
                      im.opts.queueDepth));
    im.acceptThread = std::thread([this] { acceptLoop(); });
    im.dispatchThread = std::thread([this] { dispatchLoop(); });
    if (!im.opts.metricsPath.empty())
        im.metricsThread = std::thread([this] { metricsLoop(); });
    debugLog("mannad listening on %s (pool=%zu queue_depth=%zu "
             "clients=%zu)",
             im.addr.describe().c_str(), workers, im.opts.queueDepth,
             im.opts.maxClients);
}

void
Server::stop()
{
    Impl &im = *impl_;
    {
        std::lock_guard<std::mutex> lock(im.mu);
        if (!im.started)
            return;
        im.stopping = true;
    }
    im.dispatchCv.notify_all();
    im.stopCv.notify_all();
    if (im.acceptThread.joinable())
        im.acceptThread.join();
    // Wake every reader: a blocked readFrame() returns once the
    // socket is shut down, and the reader runs closeConn() — the one
    // cleanup path — before exiting.
    {
        std::lock_guard<std::mutex> lock(im.mu);
        for (const auto &c : im.conns) {
            std::lock_guard<std::mutex> wl(c->writeMu);
            if (c->fd >= 0)
                ::shutdown(c->fd, SHUT_RDWR);
        }
    }
    for (const auto &c : im.conns)
        if (c->reader.joinable())
            c->reader.join();
    if (im.dispatchThread.joinable())
        im.dispatchThread.join();
    if (pool_)
        pool_->stop();
    if (im.metricsThread.joinable())
        im.metricsThread.join();
    if (im.journal) {
        try {
            im.journal->sync();
        } catch (const Error &e) {
            warn("%s", e.what());
        }
    }
    if (!im.opts.statsPath.empty() &&
        !writeFileAtomic(im.opts.statsPath, statsJson()))
        warn("cannot write daemon stats to '%s'",
             im.opts.statsPath.c_str());
    if (im.runSpanId != 0) {
        events::EventLog::instance().endSpan(
            "server.run", im.runSpanId,
            strformat("completed=%llu failed=%llu",
                      static_cast<unsigned long long>(im.completed),
                      static_cast<unsigned long long>(im.failed)));
        im.runSpanId = 0;
    }
    im.listenFd.reset();
    if (im.addr.kind == net::NetAddress::Kind::Unix)
        ::unlink(im.addr.path.c_str());
    std::lock_guard<std::mutex> lock(im.mu);
    im.started = false;
}

void
Server::wait()
{
    Impl &im = *impl_;
    std::unique_lock<std::mutex> lock(im.mu);
    while (!im.stopping) {
        im.stopCv.wait_for(lock, std::chrono::milliseconds(100));
        if (shutdownRequested())
            break;
    }
}

bool
Server::stopping() const
{
    std::lock_guard<std::mutex> lock(impl_->mu);
    return impl_->stopping;
}

std::string
Server::boundAddress() const
{
    return impl_->addr.describe();
}

// ---------------------------------------------------------------------
// Accept / reader
// ---------------------------------------------------------------------

void
Server::acceptLoop()
{
    Impl &im = *impl_;
    while (true) {
        {
            std::lock_guard<std::mutex> lock(im.mu);
            if (im.stopping)
                return;
        }
        const int fd = net::acceptOn(im.listenFd.get(), 200);
        if (fd < 0)
            continue;
        if (fault::anyArmed() &&
            fault::shouldFire(fault::Site::ServerAccept)) {
            warn("dropping freshly accepted connection (injected)");
            ::close(fd);
            continue;
        }
        std::shared_ptr<Conn> conn;
        std::size_t openConns = 0;
        {
            std::lock_guard<std::mutex> lock(im.mu);
            ++im.accepted;
            for (const auto &c : im.conns)
                if (c->open)
                    ++openConns;
            if (!im.stopping && openConns < im.opts.maxClients) {
                conn = std::make_shared<Conn>();
                conn->id = im.nextConnId++;
                conn->fd = fd;
                im.conns.push_back(conn);
            } else {
                ++im.rejected;
            }
        }
        if (events::enabled())
            events::instant("server.accept",
                            strformat("conn=%llu clients=%zu",
                                      conn ? static_cast<
                                                 unsigned long long>(
                                                 conn->id)
                                           : 0ull,
                                      openConns + (conn ? 1 : 0)));
        if (!conn) {
            std::string payload;
            proto::appendSized(payload, "server full");
            proto::Frame frame{false, proto::MsgType::Reject,
                               payload};
            proto::writeFrame(fd, frame);
            ::close(fd);
            continue;
        }
        conn->reader =
            std::thread([this, conn] { readerLoop(conn); });
    }
}

void
Server::readerLoop(std::shared_ptr<Conn> conn)
{
    Impl &im = *impl_;

    // Handshake: the first frame must be Hello.
    proto::Frame frame;
    std::string err;
    if (proto::readFrame(conn->fd, true, &frame, &err) !=
            proto::ReadStatus::Ok ||
        frame.type != proto::MsgType::Hello) {
        closeConn(conn);
        return;
    }
    {
        proto::FieldReader in(frame.payload);
        in.expect("hello");
        in.expect("v1");
        in.expect("name");
        const std::string name = in.sized();
        if (!in.ok()) {
            std::string payload;
            proto::appendSized(payload,
                               "malformed hello: " + in.error());
            im.send(*conn, proto::MsgType::Reject, payload);
            closeConn(conn);
            return;
        }
        std::lock_guard<std::mutex> lock(im.mu);
        conn->name = name;
    }
    std::string ok = strformat("ok v1 pool %zu queue_depth %zu "
                               "events ",
                               pool_->workers(),
                               im.opts.queueDepth);
    proto::appendSized(ok, im.opts.eventsPath);
    if (!im.send(*conn, proto::MsgType::HelloOk, ok)) {
        closeConn(conn);
        return;
    }

    events::Span connSpan(
        "server.conn",
        strformat("conn=%llu client=%s",
                  static_cast<unsigned long long>(conn->id),
                  conn->name.c_str()));
    while (true) {
        const proto::ReadStatus status =
            proto::readFrame(conn->fd, true, &frame, &err);
        if (status == proto::ReadStatus::Eof)
            break;
        if (status != proto::ReadStatus::Ok) {
            if (status == proto::ReadStatus::Bad)
                warn("closing connection from %s: %s",
                     conn->name.c_str(), err.c_str());
            break;
        }
        switch (frame.type) {
          case proto::MsgType::Submit:
            handleSubmit(conn, frame.payload);
            break;
          case proto::MsgType::Cancel:
            handleCancel(conn, frame.payload);
            break;
          case proto::MsgType::Ping:
            im.send(*conn, proto::MsgType::Pong, "");
            break;
          case proto::MsgType::Stats:
            im.send(*conn, proto::MsgType::StatsReport, statsJson());
            break;
          case proto::MsgType::Shutdown: {
            im.send(*conn, proto::MsgType::Pong, "");
            std::lock_guard<std::mutex> lock(im.mu);
            im.stopping = true;
            im.stopCv.notify_all();
            im.dispatchCv.notify_all();
            break;
          }
          default:
            break; // Hello twice etc.: ignore
        }
        {
            std::lock_guard<std::mutex> lock(im.mu);
            if (im.stopping)
                break;
        }
    }
    connSpan.end(strformat("dispatched=%llu",
                           static_cast<unsigned long long>(
                               conn->dispatched)));
    closeConn(conn);
}

void
Server::closeConn(const std::shared_ptr<Conn> &conn)
{
    Impl &im = *impl_;
    {
        std::lock_guard<std::mutex> lock(im.mu);
        if (!conn->open)
            return;
        conn->open = false;
        // The client is gone: abandon its backlog and cancel what is
        // already running (the pool task still finishes and tries to
        // respond, finds the fd closed, and moves on).
        im.cancelled += conn->queue.size();
        conn->queue.clear();
        for (auto &entry : conn->running) {
            entry.second->cancel();
            ++im.cancelled;
        }
    }
    {
        std::lock_guard<std::mutex> wl(conn->writeMu);
        if (conn->fd >= 0) {
            ::close(conn->fd);
            conn->fd = -1;
        }
    }
    im.dispatchCv.notify_all();
}

// ---------------------------------------------------------------------
// Submission / cancellation
// ---------------------------------------------------------------------

void
Server::handleSubmit(const std::shared_ptr<Conn> &conn,
                     const std::string &payload)
{
    Impl &im = *impl_;
    proto::FieldReader in(payload);
    in.expect("id");
    const std::uint64_t id = in.u64();
    in.expect("priority");
    const std::int64_t priority = in.i64();
    in.expect("job");
    const std::string jobText = in.sized();
    if (!in.ok()) {
        std::string reject;
        proto::appendSized(reject,
                           "malformed submit: " + in.error());
        im.send(*conn, proto::MsgType::Reject, reject);
        return;
    }

    // Admission control: a bounded backlog with an explicit signal
    // beats an unbounded queue that hides overload until OOM.
    {
        std::lock_guard<std::mutex> lock(im.mu);
        ++im.submits;
        if (im.stopping || queuedTotalLocked() >= im.opts.queueDepth) {
            ++im.retryAfter;
            if (events::enabled())
                events::instant(
                    "server.retry_after",
                    strformat("client=%s id=%llu queued=%zu",
                              conn->name.c_str(),
                              static_cast<unsigned long long>(id),
                              queuedTotalLocked()));
            im.send(*conn, proto::MsgType::RetryAfter,
                    strformat("id %llu retry_ms %llu",
                              static_cast<unsigned long long>(id),
                              static_cast<unsigned long long>(
                                  kRetryAfterMs)));
            return;
        }
    }

    std::string err;
    auto job = proto::decodeJob(jobText, &err);
    if (!job) {
        std::string reject;
        proto::appendSized(reject, "bad job payload: " + err);
        im.send(*conn, proto::MsgType::Reject, reject);
        {
            std::lock_guard<std::mutex> wl(conn->writeMu);
            if (conn->fd >= 0)
                ::shutdown(conn->fd, SHUT_RDWR);
        }
        return;
    }

    // Daemon journal: a fingerprint already computed (this run or a
    // resumed one) answers immediately, bit-exactly.
    const std::uint64_t fp = job->fingerprint();
    {
        std::lock_guard<std::mutex> lock(im.mu);
        const auto it = im.restored.find(fp);
        if (it != im.restored.end()) {
            ++im.journalHits;
            std::string result =
                strformat("id %llu result ",
                          static_cast<unsigned long long>(id));
            proto::appendSized(result, encodeResult(it->second));
            im.send(*conn, proto::MsgType::Result,
                    std::move(result), /*allowTear=*/true);
            return;
        }
    }

    Pending pending;
    pending.id = id;
    pending.priority = priority;
    pending.cost = std::max<std::uint64_t>(1, job->steps);
    pending.job = std::move(*job);
    {
        std::lock_guard<std::mutex> lock(im.mu);
        if (!conn->open)
            return;
        // Stable priority order within the client's queue: higher
        // priority dispatches sooner, ties keep submission order.
        auto pos = conn->queue.end();
        for (auto it = conn->queue.begin(); it != conn->queue.end();
             ++it) {
            if (it->priority < priority) {
                pos = it;
                break;
            }
        }
        conn->queue.insert(pos, std::move(pending));
    }
    im.send(*conn, proto::MsgType::Accepted,
            strformat("id %llu",
                      static_cast<unsigned long long>(id)));
    im.dispatchCv.notify_all();
}

void
Server::handleCancel(const std::shared_ptr<Conn> &conn,
                     const std::string &payload)
{
    Impl &im = *impl_;
    proto::FieldReader in(payload);
    in.expect("id");
    const std::uint64_t id = in.u64();
    if (!in.ok())
        return;
    bool droppedFromQueue = false;
    {
        std::lock_guard<std::mutex> lock(im.mu);
        for (auto it = conn->queue.begin(); it != conn->queue.end();
             ++it) {
            if (it->id == id) {
                conn->queue.erase(it);
                droppedFromQueue = true;
                ++im.cancelled;
                break;
            }
        }
        if (!droppedFromQueue) {
            const auto it = conn->running.find(id);
            if (it != conn->running.end()) {
                it->second->cancel();
                ++im.cancelled;
            }
            // Unknown id: already completed; the result frame is on
            // its way or delivered. Nothing to do.
        }
    }
    if (droppedFromQueue) {
        std::string reply =
            strformat("id %llu kind %s msg ",
                      static_cast<unsigned long long>(id),
                      toString(ErrorKind::Sim));
        proto::appendSized(reply, "cancelled before execution");
        im.send(*conn, proto::MsgType::JobFailed, std::move(reply),
                /*allowTear=*/true);
    }
}

// ---------------------------------------------------------------------
// Dispatch / execution
// ---------------------------------------------------------------------

void
Server::dispatchLoop()
{
    Impl &im = *impl_;
    std::unique_lock<std::mutex> lock(im.mu);
    while (!im.stopping) {
        // Keep roughly two tasks per worker in the pool: enough that
        // nobody idles between jobs, few enough that late-arriving
        // high-priority work and DRR fairness still matter.
        const std::size_t cap = pool_->workers() * 2;
        bool dispatched = false;
        const std::size_t n = im.conns.size();
        for (std::size_t scan = 0;
             scan < n && im.inFlightTotal < cap; ++scan) {
            auto conn = im.conns[(im.drrCursor + scan) % n];
            if (!conn->open || conn->queue.empty())
                continue;
            conn->deficit += kQuantum;
            while (!conn->queue.empty() &&
                   conn->queue.front().cost <= conn->deficit &&
                   im.inFlightTotal < cap) {
                Pending pending = std::move(conn->queue.front());
                conn->queue.pop_front();
                conn->deficit -= pending.cost;
                auto token = std::make_shared<CancelToken>();
                conn->running[pending.id] = token;
                ++conn->dispatched;
                ++im.inFlightTotal;
                ++im.perClientDispatched[conn->name];
                dispatched = true;
                lock.unlock();
                submitJob(conn,
                          std::make_shared<Pending>(std::move(pending)),
                          token);
                lock.lock();
            }
            if (conn->queue.empty())
                conn->deficit = 0; // no credit hoarding while idle
        }
        im.drrCursor = n > 0 ? (im.drrCursor + 1) % n : 0;
        if (!dispatched)
            im.dispatchCv.wait_for(lock,
                                   std::chrono::milliseconds(50));
    }
}

void
Server::submitJob(std::shared_ptr<Conn> conn,
                  std::shared_ptr<Pending> pending,
                  std::shared_ptr<CancelToken> token)
{
    if (events::enabled())
        events::instant(
            "job.enqueue",
            strformat("id=%llu",
                      static_cast<unsigned long long>(pending->id)));
    pool_->submit([this, conn, pending, token] {
        if (fault::anyArmed() &&
            fault::shouldFire(fault::Site::PoolWorkerCrash)) {
            // The worker "dies" at pickup holding the job: count the
            // restart and queue the job again. Jobs are pure, so the
            // re-execution is byte-identical.
            {
                std::lock_guard<std::mutex> lock(impl_->mu);
                ++impl_->restarts;
            }
            warn("pool worker crashed (injected); restarting");
            submitJob(conn, pending, token);
            return;
        }
        executeJob(conn, std::move(*pending), token);
    });
}

void
Server::executeJob(std::shared_ptr<Conn> conn, Pending pending,
                   std::shared_ptr<CancelToken> token)
{
    Impl &im = *impl_;
    MannaResult result;
    bool ok = false;
    ErrorKind errKind = ErrorKind::Sim;
    std::string errMsg;
    try {
        const auto model = compiler::compileCached(
            pending.job.benchmark.config, pending.job.config);
        result = runCompiled(pending.job.benchmark, *model,
                             pending.job.steps, pending.job.seed,
                             token.get(), nullptr,
                             pending.job.fidelity);
        ok = true;
    } catch (const Error &e) {
        errKind = e.kind();
        errMsg = e.what();
    } catch (const std::exception &e) {
        errMsg = e.what();
    } catch (...) {
        errMsg = "unknown exception";
    }

    {
        std::lock_guard<std::mutex> lock(im.mu);
        conn->running.erase(pending.id);
        --im.inFlightTotal;
        if (ok) {
            ++im.completed;
            im.restored.emplace(pending.job.fingerprint(), result);
        } else if (!token->cancelled()) {
            // A cancelled token means Cancel or a client disconnect
            // got here first; both already counted the job as
            // cancelled, and a cancellation is not a failure.
            ++im.failed;
        }
    }
    if (ok && im.journal) {
        try {
            im.journal->append(pending.job.fingerprint(), result);
        } catch (const Error &e) {
            warn("%s", e.what());
            im.journal.reset();
        }
    }
    if (ok) {
        std::string payload =
            strformat("id %llu result ",
                      static_cast<unsigned long long>(pending.id));
        proto::appendSized(payload, encodeResult(result));
        im.send(*conn, proto::MsgType::Result, std::move(payload),
                /*allowTear=*/true);
    } else {
        std::string payload =
            strformat("id %llu kind %s msg ",
                      static_cast<unsigned long long>(pending.id),
                      toString(errKind));
        proto::appendSized(payload, errMsg);
        im.send(*conn, proto::MsgType::JobFailed,
                std::move(payload), /*allowTear=*/true);
    }
    im.dispatchCv.notify_all();
}

// ---------------------------------------------------------------------
// Metrics / stats
// ---------------------------------------------------------------------

void
Server::metricsLoop()
{
    Impl &im = *impl_;
    std::FILE *file = std::fopen(im.opts.metricsPath.c_str(), "w");
    if (!file) {
        warn("cannot write daemon metrics to '%s'",
             im.opts.metricsPath.c_str());
        return;
    }
    std::fprintf(file,
                 "{\"schema\": \"manna-daemon-metrics-v1\", "
                 "\"role\": \"daemon\", \"pid\": %ld, "
                 "\"interval_seconds\": %s}\n",
                 static_cast<long>(::getpid()),
                 jsonNumber(im.opts.metricsIntervalSeconds).c_str());
    auto sample = [&] {
        std::size_t queued, clients = 0, inFlight;
        std::uint64_t completed, failed, cancelled, retryAfter,
            restarts;
        {
            std::lock_guard<std::mutex> lock(im.mu);
            queued = queuedTotalLocked();
            for (const auto &c : im.conns)
                if (c->open)
                    ++clients;
            inFlight = im.inFlightTotal;
            completed = im.completed;
            failed = im.failed;
            cancelled = im.cancelled;
            retryAfter = im.retryAfter;
            restarts = im.restarts;
        }
        const double elapsed =
            std::chrono::duration<double>(Clock::now() -
                                          im.startTime)
                .count();
        std::fprintf(
            file,
            "{\"elapsed_seconds\": %s, \"clients\": %zu, "
            "\"queue_depth\": %zu, \"in_flight\": %zu, "
            "\"busy_workers\": %zu, "
            "\"restarts\": %llu, \"completed\": %llu, "
            "\"failed\": %llu, \"cancelled\": %llu, "
            "\"retry_after\": %llu, \"rss_kb\": %zu}\n",
            jsonNumber(elapsed).c_str(), clients, queued, inFlight,
            pool_->busyWorkers(),
            static_cast<unsigned long long>(restarts),
            static_cast<unsigned long long>(completed),
            static_cast<unsigned long long>(failed),
            static_cast<unsigned long long>(cancelled),
            static_cast<unsigned long long>(retryAfter),
            processRssKb());
        std::fflush(file);
    };
    while (true) {
        {
            std::unique_lock<std::mutex> lock(im.mu);
            im.stopCv.wait_for(
                lock, std::chrono::duration<double>(
                          im.opts.metricsIntervalSeconds));
            if (im.stopping)
                break;
        }
        sample();
    }
    sample(); // final snapshot so short runs still record one
    std::fclose(file);
}

std::string
Server::statsJson() const
{
    Impl &im = *impl_;
    std::string out = "{\n";
    out += "  \"schema\": \"manna-daemon-stats-v1\",\n";
    {
        std::lock_guard<std::mutex> lock(im.mu);
        out += strformat(
            "  \"counters\": {\"accepted\": %llu, "
            "\"rejected\": %llu, \"submits\": %llu, "
            "\"completed\": %llu, \"failed\": %llu, "
            "\"cancelled\": %llu, \"retry_after\": %llu, "
            "\"journal_hits\": %llu, \"restarts\": %llu},\n",
            static_cast<unsigned long long>(im.accepted),
            static_cast<unsigned long long>(im.rejected),
            static_cast<unsigned long long>(im.submits),
            static_cast<unsigned long long>(im.completed),
            static_cast<unsigned long long>(im.failed),
            static_cast<unsigned long long>(im.cancelled),
            static_cast<unsigned long long>(im.retryAfter),
            static_cast<unsigned long long>(im.journalHits),
            static_cast<unsigned long long>(im.restarts));
        out += "  \"per_client\": {";
        bool first = true;
        for (const auto &entry : im.perClientDispatched) {
            out += strformat(
                "%s\"%s\": %llu", first ? "" : ", ",
                jsonEscape(entry.first).c_str(),
                static_cast<unsigned long long>(entry.second));
            first = false;
        }
        out += "},\n";
    }
    out += "  \"per_worker\": [";
    for (std::size_t i = 0; pool_ && i < pool_->workers(); ++i)
        out += strformat(
            "%s%llu", i == 0 ? "" : ", ",
            static_cast<unsigned long long>(pool_->executedBy(i)));
    out += "]\n}\n";
    return out;
}

std::uint64_t
Server::acceptedConnections() const
{
    std::lock_guard<std::mutex> lock(impl_->mu);
    return impl_->accepted;
}

std::uint64_t
Server::completedJobs() const
{
    std::lock_guard<std::mutex> lock(impl_->mu);
    return impl_->completed;
}

std::uint64_t
Server::failedJobs() const
{
    std::lock_guard<std::mutex> lock(impl_->mu);
    return impl_->failed;
}

std::uint64_t
Server::cancelledJobs() const
{
    std::lock_guard<std::mutex> lock(impl_->mu);
    return impl_->cancelled;
}

std::uint64_t
Server::retryAfterCount() const
{
    std::lock_guard<std::mutex> lock(impl_->mu);
    return impl_->retryAfter;
}

std::uint64_t
Server::journalHits() const
{
    std::lock_guard<std::mutex> lock(impl_->mu);
    return impl_->journalHits;
}

std::uint64_t
Server::restarts() const
{
    std::lock_guard<std::mutex> lock(impl_->mu);
    return impl_->restarts;
}

} // namespace manna::harness::server
