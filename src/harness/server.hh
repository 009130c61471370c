/**
 * @file
 * mannad — the simulation-as-a-service daemon (docs/SERVICE.md).
 *
 * A Server listens on a Unix or TCP socket (common/net.hh), speaks
 * the MNRQ/MNRS framing protocol (harness/proto.hh), and executes
 * submitted sweep jobs on the shared-FIFO WorkerPool
 * (harness/worker_pool.hh). Scheduling is two-level:
 *
 *  - per client, a priority-ordered pending queue with admission
 *    control: once the total backlog reaches `queue_depth=`, new
 *    submissions get an explicit RetryAfter instead of silently
 *    queueing without bound;
 *  - across clients, deficit round-robin: each scheduling pass grants
 *    every backlogged client a quantum of cost units (job cost =
 *    max(1, steps)), so one client bulk-submitting a sweep cannot
 *    starve another's interactive run.
 *
 * The daemon executes exactly ONE attempt per submission and streams
 * the hexfloat-exact result (journal.hh encodeResult) back as soon as
 * it completes — retries, backoff, watchdog timeouts, and journaling
 * stay client-side in runIsolated(), which is what keeps a `server=`
 * run byte-identical to the same sweep in-process. A client that
 * disconnects (crash, SIGTERM) has its queued jobs dropped and its
 * running jobs cancelled through their CancelTokens.
 *
 * The daemon's task wrapper (submitJob) emits the `job.enqueue`
 * instant and hosts the `pool.worker.crash` fault site: a crashed
 * pickup counts a restart and resubmits the job. Keeping both out of
 * the pool means in-process sweeps, which run on the same pool,
 * neither emit the event nor consume the fault.
 *
 * An optional daemon-side journal (journal=/resume=) short-circuits
 * resubmitted fingerprints across daemon restarts; metrics= appends a
 * manna-daemon-metrics-v1 JSONL series and stats= writes the final
 * manna-daemon-stats-v1 snapshot (both in docs/FORMATS.md).
 */

#ifndef MANNA_HARNESS_SERVER_HH
#define MANNA_HARNESS_SERVER_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/cancel.hh"
#include "common/net.hh"
#include "harness/worker_pool.hh"

namespace manna
{
class Config;
}

namespace manna::harness::server
{

/** Knob names the daemon accepts, linted two-way against the knob
 * table in docs/SERVICE.md by scripts/check_docs.sh. */
extern const char *const kServiceKnobs[];
extern const std::size_t kNumServiceKnobs;

struct ServerOptions
{
    /** Listen endpoint (net::parseAddress form). */
    std::string address;

    /** Pool workers; 0 selects defaultJobs(). */
    std::size_t pool = 0;

    /** Admission bound: total queued (not yet dispatched) jobs
     * across all clients before submissions get RetryAfter. */
    std::size_t queueDepth = 64;

    /** Max concurrently connected clients; further connections are
     * rejected at the protocol level. */
    std::size_t maxClients = 16;

    /** Daemon-side result journal ("" disables) and resume list —
     * same semantics as the sweep knobs, keyed by job fingerprint. */
    std::string journalPath;
    std::string resumeFrom;

    /** Final manna-daemon-stats-v1 snapshot path ("" disables). */
    std::string statsPath;

    /** manna-daemon-metrics-v1 JSONL path ("" disables) + interval. */
    std::string metricsPath;
    double metricsIntervalSeconds = 1.0;

    /** Event-log file this daemon writes (advertised to clients in
     * HelloOk so they can merge it into their harness trace). */
    std::string eventsPath;

    /** Compile-cache entry bound (0 = unbounded). */
    std::size_t cacheEntries = 0;
};

/** Parse the daemon knobs: server=, pool=, queue_depth=, clients=,
 * journal=, resume=, stats=, metrics=, metrics_interval=,
 * cache_entries= — with MANNA_* environment twins where the in-
 * process sweep has them — and arm the process-wide fault and event
 * machinery exactly like sweepOptionsFromConfig. */
ServerOptions serverOptionsFromConfig(const Config &cfg);

class Server
{
  public:
    explicit Server(ServerOptions opts);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Bind, listen, and spawn the accept/dispatch/metrics threads.
     * Throws IoError when the endpoint cannot be bound. */
    void start();

    /** Graceful stop: close the listener, cancel running jobs, drop
     * queued ones, join every thread, write stats=. Idempotent. */
    void stop();

    /** Block until a client asked for Shutdown (or stop() ran). */
    void wait();

    /** True once shutdown was requested or performed. */
    bool stopping() const;

    /** Canonical text form of the bound endpoint. */
    std::string boundAddress() const;

    /** The manna-daemon-stats-v1 snapshot (docs/FORMATS.md). */
    std::string statsJson() const;

    // Counter peeks for tests.
    std::uint64_t acceptedConnections() const;
    std::uint64_t completedJobs() const;
    std::uint64_t failedJobs() const;
    std::uint64_t cancelledJobs() const;
    std::uint64_t retryAfterCount() const;
    std::uint64_t journalHits() const;
    /** Injected pool.worker.crash pickups (each one resubmitted). */
    std::uint64_t restarts() const;

  private:
    struct Conn;
    struct Pending;

    void acceptLoop();
    void readerLoop(std::shared_ptr<Conn> conn);
    void dispatchLoop();
    void metricsLoop();
    void submitJob(std::shared_ptr<Conn> conn,
                   std::shared_ptr<Pending> pending,
                   std::shared_ptr<CancelToken> token);
    void executeJob(std::shared_ptr<Conn> conn, Pending pending,
                    std::shared_ptr<CancelToken> token);
    void handleSubmit(const std::shared_ptr<Conn> &conn,
                      const std::string &payload);
    void handleCancel(const std::shared_ptr<Conn> &conn,
                      const std::string &payload);
    void closeConn(const std::shared_ptr<Conn> &conn);
    std::size_t queuedTotalLocked() const;

    struct Impl;
    std::unique_ptr<Impl> impl_;
    std::unique_ptr<WorkerPool> pool_;
};

} // namespace manna::harness::server

#endif // MANNA_HARNESS_SERVER_HH
