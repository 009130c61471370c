/**
 * @file
 * Report helpers shared by the bench/ binaries: uniform headers,
 * speedup/summary rows, and the standard paper-vs-measured footers.
 */

#ifndef MANNA_HARNESS_REPORT_HH
#define MANNA_HARNESS_REPORT_HH

#include <string>
#include <vector>

#include "common/table.hh"
#include "workloads/benchmarks.hh"

namespace manna
{
class Config;
}

namespace manna::harness
{

/**
 * Print a reproduced table: aligned ASCII always, plus CSV when the
 * MANNA_CSV environment variable is set (for plotting).
 */
void printTable(const Table &table);

/** Print the standard banner for a reproduced table/figure. */
void printBanner(const std::string &experimentId,
                 const std::string &title);

/** Summary statistics line for a series of speedups. */
std::string summarizeFactors(const std::string &label,
                             const std::vector<double> &factors);

/** Note comparing against the paper's reported headline numbers. */
void printPaperReference(const std::string &text);

/** The benchmarks the `bench=` knob selects
 * (workloads::selectBenchmarks); an unknown name is fatal. */
std::vector<workloads::Benchmark> benchmarksFromConfig(const Config &cfg);

/** The `steps=` knob (default @p def); anything but a positive step
 * count is fatal. */
std::size_t stepsFromConfig(const Config &cfg, std::size_t def);

} // namespace manna::harness

#endif // MANNA_HARNESS_REPORT_HH
