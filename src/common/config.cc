#include "config.hh"

#include <algorithm>
#include <iterator>

#include "logging.hh"
#include "strutil.hh"

namespace manna
{

namespace
{

/** Every key a binary reads (scripts/check_docs.sh matches this list
 * against the keys the sources pass to the getters). */
const char *const kKnobs[] = {
    "bench", "bench_json", "benchmark", "cache_entries", "clients",
    "dump_stats", "emit", "events", "events_limit", "fault_seed",
    "faults", "fidelity", "file", "harness_trace", "hex", "hist",
    "jobs", "journal", "list", "metrics", "metrics_interval",
    "min_time", "out", "pool", "profile", "profile_top", "progress",
    "queue_depth", "resume", "retries", "server", "stats", "steps",
    "tile", "tiles", "timeout", "trace", "trace_limit",
};

} // namespace

Config
Config::fromCommandLine(int argc, const char *const *argv)
{
    Config cfg = fromArgs(argc, argv);
    for (const auto &[key, value] : cfg.values_)
        if (std::find_if(std::begin(kKnobs), std::end(kKnobs),
                         [&key](const char *k) { return key == k; }) ==
            std::end(kKnobs))
            fatal("unknown option '%s=%s'", key.c_str(), value.c_str());
    return cfg;
}

Config
Config::fromArgs(int argc, const char *const *argv, int firstArg)
{
    Config cfg;
    for (int i = firstArg; i < argc; ++i) {
        std::string tok = argv[i];
        // Accept GNU-style "--key=value" as a synonym for "key=value",
        // and a bare "--flag" as the boolean "flag=1" (dashes in the
        // flag name map to underscores, so "--dump-stats" sets
        // "dump_stats").
        const bool dashed = tok.rfind("--", 0) == 0;
        if (dashed)
            tok.erase(0, 2);
        const auto eq = tok.find('=');
        if (eq == std::string::npos || eq == 0) {
            if (dashed && eq == std::string::npos && !tok.empty()) {
                for (char &c : tok)
                    if (c == '-')
                        c = '_';
                cfg.set(tok, "1");
                continue;
            }
            fatal("malformed option '%s' (expected key=value)",
                  tok.c_str());
        }
        cfg.set(tok.substr(0, eq), tok.substr(eq + 1));
    }
    return cfg;
}

void
Config::set(const std::string &key, const std::string &value)
{
    values_[key] = value;
}

bool
Config::has(const std::string &key) const
{
    return values_.count(key) != 0;
}

std::string
Config::getString(const std::string &key, const std::string &def) const
{
    auto it = values_.find(key);
    return it == values_.end() ? def : it->second;
}

std::int64_t
Config::getInt(const std::string &key, std::int64_t def) const
{
    auto it = values_.find(key);
    if (it == values_.end())
        return def;
    auto v = parseInt(it->second);
    if (!v)
        fatal("option '%s=%s' is not an integer", key.c_str(),
              it->second.c_str());
    return *v;
}

double
Config::getDouble(const std::string &key, double def) const
{
    auto it = values_.find(key);
    if (it == values_.end())
        return def;
    auto v = parseDouble(it->second);
    if (!v)
        fatal("option '%s=%s' is not a number", key.c_str(),
              it->second.c_str());
    return *v;
}

bool
Config::getBool(const std::string &key, bool def) const
{
    auto it = values_.find(key);
    if (it == values_.end())
        return def;
    const std::string v = toLower(it->second);
    if (v == "1" || v == "true" || v == "yes" || v == "on")
        return true;
    if (v == "0" || v == "false" || v == "no" || v == "off")
        return false;
    fatal("option '%s=%s' is not a boolean", key.c_str(),
          it->second.c_str());
}

std::vector<std::string>
Config::keys() const
{
    std::vector<std::string> out;
    out.reserve(values_.size());
    for (const auto &[k, v] : values_)
        out.push_back(k);
    return out;
}

} // namespace manna
