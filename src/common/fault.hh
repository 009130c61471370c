/**
 * @file
 * Deterministic fault injection for the robustness machinery.
 *
 * A *site* is a named point in the I/O or service code where a
 * failure can be provoked on purpose: journal writes, fsync, reads,
 * daemon connections and frames, pool workers. Sites are compiled
 * in unconditionally but cost one relaxed atomic load when nothing is
 * armed (anyArmed() is the fast gate every site checks first).
 *
 * Arming is driven entirely by configuration — `faults=site:spec,...`
 * on any sweep bench's command line, or the MANNA_FAULTS environment
 * variable — so every failure scenario is replayable from the command
 * line that produced it. Specs:
 *
 *   once@N   fire exactly on the Nth hit of the site (1-based)
 *   every@N  fire on every Nth hit
 *   prob@P   fire with probability P per hit, derived from a
 *            deterministic hash of (seed, site, hit index), so the
 *            same seed replays the same failures (`fault_seed=` /
 *            MANNA_FAULT_SEED, default 1)
 *
 * Hit counters are per process. See docs/ROBUSTNESS.md for the site
 * catalog (linted two-way against this registry by check_docs.sh).
 */

#ifndef MANNA_COMMON_FAULT_HH
#define MANNA_COMMON_FAULT_HH

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace manna
{
class Config;
}

namespace manna::fault
{

/** Every injection site, in registry order (kSiteNames in fault.cc
 * mirrors this enum and is the source of truth for the docs lint). */
enum class Site : unsigned
{
    JournalAppendShort, ///< partial fwrite, then surfaced as IoError
    JournalAppendTorn,  ///< silently write a truncated record
    JournalAppendEio,   ///< append fails outright with EIO
    JournalAppendEnospc,///< append fails with ENOSPC (disk full)
    JournalFsync,       ///< fsync of the journal fails
    JournalClose,       ///< final flush at destruction fails
    JournalReadCorrupt, ///< flip one byte of a record being loaded
    ServerAccept,       ///< daemon drops a freshly accepted connection
    ServerFrameTorn,    ///< daemon tears a response frame mid-write
    PoolWorkerCrash,    ///< pool worker dies mid-job (job is requeued)
};

inline constexpr std::size_t kNumSites = 10;

namespace detail
{
extern std::atomic<bool> gAnyArmed;
}

/** Fast gate: true iff any site has an armed spec. Sites check this
 * before paying for shouldFire()'s counter bump. */
inline bool
anyArmed()
{
    return detail::gAnyArmed.load(std::memory_order_relaxed);
}

/** Canonical dotted name of @p site (e.g. "journal.append.torn"). */
const char *siteName(Site site);

/** Reverse lookup; nullopt for unknown names. */
std::optional<Site> siteByName(std::string_view name);

/** Count a hit at @p site and report whether its armed spec fires.
 * Thread-safe; the per-process hit counter increments every call. */
bool shouldFire(Site site);

/**
 * Arm sites from a "site:spec,site:spec,..." string. Returns false
 * (and fills @p error if non-null) on a malformed spec, leaving the
 * previous arming untouched. An empty @p spec disarms everything.
 */
bool tryConfigure(const std::string &spec, std::uint64_t seed,
                  std::string *error = nullptr);

/** tryConfigure() that fatal()s on a malformed spec — the CLI path. */
void configure(const std::string &spec, std::uint64_t seed);

/** Arm from the faults= / fault_seed= knobs (environment fallbacks
 * MANNA_FAULTS / MANNA_FAULT_SEED). Called by sweepOptionsFromConfig
 * so every sweep bench exposes the knobs without code changes. */
void configureFromConfig(const Config &cfg);

/** Disarm every site and zero the hit/fire counters. */
void reset();

/** Hits observed at @p site this process (armed or not counts only
 * while armed — disabled sites skip the counter entirely). */
std::uint64_t hitCount(Site site);

/** Times @p site actually fired this process. */
std::uint64_t fireCount(Site site);

/** One-line summary of the armed schedule, for diagnostics. */
std::string describeArmed();

} // namespace manna::fault

#endif // MANNA_COMMON_FAULT_HH
