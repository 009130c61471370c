/**
 * @file
 * mannad: the Manna simulation-as-a-service daemon (docs/SERVICE.md).
 *
 * Listens on a Unix or TCP socket, accepts MNRQ job submissions from
 * manna-submit / `server=` bench runs, and executes them on a
 * persistent shared-FIFO worker pool with per-client fairness and
 * queue-depth admission control. Runs until SIGINT/SIGTERM or a
 * client sends a Shutdown request.
 *
 * Knobs (all also documented in docs/SERVICE.md):
 *   server=ADDR       listen endpoint: unix:/path or tcp:host:port
 *                     (required; MANNA_SERVER)
 *   pool=N            worker threads, 0 = MANNA_JOBS, else hardware
 *   queue_depth=N     backlog bound before RetryAfter (default 64)
 *   clients=N         max concurrent client connections (default 16)
 *   journal=PATH      daemon-side result journal
 *   resume=P1,P2      journals to preload (fingerprint cache)
 *   stats=PATH        final manna-daemon-stats-v1 snapshot
 *   metrics=PATH      manna-daemon-metrics-v1 JSONL series
 *   metrics_interval= sampling period in seconds (default 1)
 *   events=PATH       daemon event-log (merged into client traces)
 *   cache_entries=N   compile-cache bound, 0 = unbounded
 *   faults=SPEC       fault injection (docs/ROBUSTNESS.md)
 */

#include <cstdio>

#include "common/config.hh"
#include "common/logging.hh"
#include "common/shutdown.hh"
#include "harness/server.hh"

using namespace manna;
using namespace manna::harness;

int
main(int argc, char **argv)
{
    const Config cfg = Config::fromCommandLine(argc, argv);
    server::ServerOptions opts = server::serverOptionsFromConfig(cfg);
    if (opts.address.empty())
        fatal("usage: mannad server=unix:/path|tcp:host:port "
              "[pool=N] [queue_depth=N] [clients=N] "
              "[journal=PATH] [resume=P1,P2] [stats=PATH] "
              "[metrics=PATH] [events=PATH]");

    installShutdownHandlers();
    server::Server daemon(std::move(opts));
    daemon.start();
    std::printf("mannad: listening on %s\n",
                daemon.boundAddress().c_str());
    std::fflush(stdout);
    daemon.wait();
    daemon.stop();
    std::printf("mannad: stopped (%llu jobs completed, %llu failed, "
                "%llu cancelled)\n",
                static_cast<unsigned long long>(daemon.completedJobs()),
                static_cast<unsigned long long>(daemon.failedJobs()),
                static_cast<unsigned long long>(
                    daemon.cancelledJobs()));
    return 0;
}
