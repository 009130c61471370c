/**
 * @file
 * The paper's benchmark suite (Table 2): ten NTM/DNC-style tasks with
 * the published differentiable-memory shapes, controller dimensions,
 * and head counts. The suite is "scaled up from the original works to
 * reflect the size of the external memory needed for real-world
 * applications" — we use the published scaled shapes exactly.
 */

#ifndef MANNA_WORKLOADS_BENCHMARKS_HH
#define MANNA_WORKLOADS_BENCHMARKS_HH

#include <string>
#include <vector>

#include "mann/mann_config.hh"

namespace manna::workloads
{

/** Task family (drives the input generator). */
enum class TaskKind
{
    Copy,
    RepeatCopy,
    AssociativeRecall,
    DynamicNgrams,
    PrioritySort,
    BAbI,
    ShortestPath,
    GraphTraversal,
    GraphInference,
    MiniShrdlu,
};

const char *toString(TaskKind kind);

/** One benchmark: a MANN shape plus its task generator binding. */
struct Benchmark
{
    std::string name;      ///< short name used in the paper's figures
    std::string description;
    TaskKind task;
    mann::MannConfig config;

    /** Default sequence length used by the experiment harness. */
    std::size_t defaultSteps = 32;
};

/** The full Table 2 suite, ordered by external memory size as in
 * Figure 9 (copy, rptcopy, recall, ngrams, sort, bAbI, short,
 * travers, inf, shrdlu -- the paper orders plots by size). */
const std::vector<Benchmark> &table2Suite();

/** Look up a benchmark by name; fatal() if unknown. */
const Benchmark &benchmarkByName(const std::string &name);

/** The `bench=` selection: the whole Table 2 suite when @p name is
 * empty, else the one benchmark of that name. Any other name throws
 * ConfigError listing the valid names. */
std::vector<Benchmark> selectBenchmarks(const std::string &name);

/**
 * Weak-scaling variant (Section 7.3 / Figure 13): scale both memory
 * dimensions by sqrt(tiles / baselineTiles) so the problem grows
 * proportionally to the tile count.
 */
Benchmark weakScaled(const Benchmark &base, std::size_t tiles,
                     std::size_t baselineTiles = 4);

/** A small configuration for fast tests and the quickstart example. */
Benchmark tinyBenchmark();

} // namespace manna::workloads

#endif // MANNA_WORKLOADS_BENCHMARKS_HH
