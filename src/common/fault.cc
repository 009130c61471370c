#include "fault.hh"

#include <cstdlib>

#include "common/config.hh"
#include "common/event_log.hh"
#include "common/hash.hh"
#include "common/logging.hh"
#include "common/strutil.hh"

namespace manna::fault
{

namespace
{

/** Registry of site names, indexed by Site. The docs lint
 * (scripts/check_docs.sh) extracts this array and diffs it two-way
 * against the fault-site catalog in docs/ROBUSTNESS.md. */
const char *const kSiteNames[] = {
    "journal.append.short",
    "journal.append.torn",
    "journal.append.eio",
    "journal.append.enospc",
    "journal.fsync",
    "journal.close",
    "journal.read.corrupt",
    "server.accept",
    "server.frame.torn",
    "pool.worker.crash",
};
static_assert(sizeof(kSiteNames) / sizeof(kSiteNames[0]) == kNumSites,
              "site registry out of sync with the Site enum");

enum class Mode
{
    Off,
    Once,  ///< fire exactly on hit N
    Every, ///< fire on every Nth hit
    Prob,  ///< fire with probability p per hit (seeded hash)
};

struct SiteState
{
    Mode mode = Mode::Off;
    std::uint64_t n = 0;
    double p = 0.0;
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> fires{0};
};

SiteState gSites[kNumSites];
std::uint64_t gSeed = 1;

/** Deterministic per-hit uniform draw in [0,1): FNV over the seed,
 * site index, and hit index, finalized splitmix-style so low bits
 * are well mixed. */
double
hitUniform(Site site, std::uint64_t hit)
{
    Fnv1a h;
    h.u64(gSeed);
    h.u64(static_cast<std::uint64_t>(site));
    h.u64(hit);
    std::uint64_t x = h.value();
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdull;
    x ^= x >> 33;
    return static_cast<double>(x >> 11) * 0x1p-53;
}

bool
evaluate(SiteState &s, Site site, std::uint64_t hit)
{
    switch (s.mode) {
      case Mode::Off:
        return false;
      case Mode::Once:
        return hit == s.n;
      case Mode::Every:
        return s.n > 0 && hit % s.n == 0;
      case Mode::Prob:
        return hitUniform(site, hit) < s.p;
    }
    return false;
}

bool
parseOneSpec(const std::string &entry, SiteState parsed[kNumSites],
             std::string *error)
{
    const auto colon = entry.find(':');
    if (colon == std::string::npos) {
        if (error)
            *error = strformat("fault spec '%s' lacks ':' "
                               "(want site:once@N|every@N|prob@P)",
                               entry.c_str());
        return false;
    }
    const std::string name = trim(entry.substr(0, colon));
    const std::string spec = trim(entry.substr(colon + 1));
    const auto site = siteByName(name);
    if (!site) {
        if (error)
            *error = strformat("unknown fault site '%s'",
                               name.c_str());
        return false;
    }
    const auto at = spec.find('@');
    const std::string verb =
        at == std::string::npos ? spec : spec.substr(0, at);
    const std::string arg =
        at == std::string::npos ? "" : spec.substr(at + 1);
    SiteState &s = parsed[static_cast<unsigned>(*site)];
    if (verb == "once" || verb == "every") {
        const auto n = parseInt(arg);
        if (!n || *n <= 0) {
            if (error)
                *error = strformat("fault spec '%s' needs a positive "
                                   "count after '@'",
                                   entry.c_str());
            return false;
        }
        s.mode = verb == "once" ? Mode::Once : Mode::Every;
        s.n = static_cast<std::uint64_t>(*n);
        return true;
    }
    if (verb == "prob") {
        char *end = nullptr;
        const double p =
            arg.empty() ? -1.0 : std::strtod(arg.c_str(), &end);
        if (arg.empty() || *end != '\0' || p < 0.0 || p > 1.0) {
            if (error)
                *error = strformat("fault spec '%s' needs a "
                                   "probability in [0,1] after '@'",
                                   entry.c_str());
            return false;
        }
        s.mode = Mode::Prob;
        s.p = p;
        return true;
    }
    if (error)
        *error = strformat("unknown fault verb '%s' in '%s' "
                           "(want once@N, every@N, or prob@P)",
                           verb.c_str(), entry.c_str());
    return false;
}

} // namespace

namespace detail
{
std::atomic<bool> gAnyArmed{false};
}

const char *
siteName(Site site)
{
    const auto i = static_cast<unsigned>(site);
    MANNA_ASSERT(i < kNumSites, "bad fault site");
    return kSiteNames[i];
}

std::optional<Site>
siteByName(std::string_view name)
{
    for (std::size_t i = 0; i < kNumSites; ++i)
        if (name == kSiteNames[i])
            return static_cast<Site>(i);
    return std::nullopt;
}

bool
shouldFire(Site site)
{
    SiteState &s = gSites[static_cast<unsigned>(site)];
    if (s.mode == Mode::Off)
        return false;
    const std::uint64_t hit =
        s.hits.fetch_add(1, std::memory_order_relaxed) + 1;
    if (!evaluate(s, site, hit))
        return false;
    s.fires.fetch_add(1, std::memory_order_relaxed);
    // Chaos runs become self-explaining: every injected fault is an
    // instant on the harness timeline (docs/OBSERVABILITY.md).
    if (events::enabled())
        events::instant("fault.injected",
                        strformat("site=%s hit=%llu", siteName(site),
                                  static_cast<unsigned long long>(
                                      hit)));
    return true;
}

bool
tryConfigure(const std::string &spec, std::uint64_t seed,
             std::string *error)
{
    SiteState parsed[kNumSites];
    for (const std::string &part : split(spec, ',')) {
        const std::string entry = trim(part);
        if (entry.empty())
            continue;
        if (!parseOneSpec(entry, parsed, error))
            return false;
    }
    bool any = false;
    for (std::size_t i = 0; i < kNumSites; ++i) {
        gSites[i].mode = parsed[i].mode;
        gSites[i].n = parsed[i].n;
        gSites[i].p = parsed[i].p;
        gSites[i].hits.store(0, std::memory_order_relaxed);
        gSites[i].fires.store(0, std::memory_order_relaxed);
        any = any || parsed[i].mode != Mode::Off;
    }
    gSeed = seed;
    detail::gAnyArmed.store(any, std::memory_order_relaxed);
    return true;
}

void
configure(const std::string &spec, std::uint64_t seed)
{
    std::string error;
    if (!tryConfigure(spec, seed, &error))
        fatal("faults=: %s", error.c_str());
}

void
configureFromConfig(const Config &cfg)
{
    const char *envSpec = std::getenv("MANNA_FAULTS");
    const std::string spec =
        cfg.getString("faults", envSpec ? envSpec : "");
    std::int64_t seedDefault = 1;
    if (const char *envSeed = std::getenv("MANNA_FAULT_SEED")) {
        if (const auto v = parseInt(envSeed))
            seedDefault = *v;
        else
            warn("ignoring invalid MANNA_FAULT_SEED='%s'", envSeed);
    }
    const std::uint64_t seed = static_cast<std::uint64_t>(
        cfg.getInt("fault_seed", seedDefault));
    if (spec.empty()) {
        // Nothing requested: leave any programmatic arming (tests)
        // alone rather than disarming it.
        gSeed = seed;
        return;
    }
    configure(spec, seed);
    debugLog("fault injection armed: %s", describeArmed().c_str());
}

void
reset()
{
    tryConfigure("", 1, nullptr);
}

std::uint64_t
hitCount(Site site)
{
    return gSites[static_cast<unsigned>(site)].hits.load(
        std::memory_order_relaxed);
}

std::uint64_t
fireCount(Site site)
{
    return gSites[static_cast<unsigned>(site)].fires.load(
        std::memory_order_relaxed);
}

std::string
describeArmed()
{
    std::string out;
    for (std::size_t i = 0; i < kNumSites; ++i) {
        const SiteState &s = gSites[i];
        if (s.mode == Mode::Off)
            continue;
        if (!out.empty())
            out += ",";
        switch (s.mode) {
          case Mode::Once:
            out += strformat("%s:once@%llu", kSiteNames[i],
                             static_cast<unsigned long long>(s.n));
            break;
          case Mode::Every:
            out += strformat("%s:every@%llu", kSiteNames[i],
                             static_cast<unsigned long long>(s.n));
            break;
          case Mode::Prob:
            out += strformat("%s:prob@%g", kSiteNames[i], s.p);
            break;
          case Mode::Off:
            break;
        }
    }
    return out.empty() ? "(none)" : out;
}

} // namespace manna::fault
