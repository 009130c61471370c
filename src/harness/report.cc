#include "report.hh"

#include <cstdio>
#include <cstdlib>

#include "common/config.hh"
#include "common/error.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "common/strutil.hh"

namespace manna::harness
{

void
printTable(const Table &table)
{
    std::printf("%s", table.render().c_str());
    if (std::getenv("MANNA_CSV") != nullptr)
        std::printf("\n[csv]\n%s", table.renderCsv().c_str());
}

void
printBanner(const std::string &experimentId, const std::string &title)
{
    std::printf("\n==============================================="
                "=========================\n");
    std::printf("%s: %s\n", experimentId.c_str(), title.c_str());
    std::printf("================================================"
                "========================\n");
}

std::string
summarizeFactors(const std::string &label,
                 const std::vector<double> &factors)
{
    return strformat("%s: min %.1fx / mean %.1fx / geomean %.1fx / "
                     "max %.1fx",
                     label.c_str(), minOf(factors), mean(factors),
                     geomean(factors), maxOf(factors));
}

void
printPaperReference(const std::string &text)
{
    std::printf("[paper] %s\n", text.c_str());
}

std::vector<workloads::Benchmark>
benchmarksFromConfig(const Config &cfg)
{
    try {
        return workloads::selectBenchmarks(cfg.getString("bench", ""));
    } catch (const ConfigError &e) {
        fatal("%s", e.what());
    }
}

std::size_t
stepsFromConfig(const Config &cfg, std::size_t def)
{
    const std::int64_t steps =
        cfg.getInt("steps", static_cast<std::int64_t>(def));
    if (steps < 1)
        fatal("steps=%lld: need a positive number of time steps",
              static_cast<long long>(steps));
    return static_cast<std::size_t>(steps);
}

} // namespace manna::harness
