#include "benchmarks.hh"

#include <cmath>

#include "common/error.hh"
#include "common/logging.hh"
#include "common/strutil.hh"
#include "common/types.hh"

namespace manna::workloads
{

const char *
toString(TaskKind kind)
{
    switch (kind) {
      case TaskKind::Copy:
        return "copy";
      case TaskKind::RepeatCopy:
        return "repeat-copy";
      case TaskKind::AssociativeRecall:
        return "associative-recall";
      case TaskKind::DynamicNgrams:
        return "dynamic-ngrams";
      case TaskKind::PrioritySort:
        return "priority-sort";
      case TaskKind::BAbI:
        return "bAbI";
      case TaskKind::ShortestPath:
        return "shortest-path";
      case TaskKind::GraphTraversal:
        return "graph-traversal";
      case TaskKind::GraphInference:
        return "graph-inference";
      case TaskKind::MiniShrdlu:
        return "mini-shrdlu";
    }
    return "?";
}

namespace
{

Benchmark
make(const char *name, const char *description, TaskKind task,
     std::size_t memN, std::size_t memM, std::size_t ctrlLayers,
     std::size_t ctrlWidth, std::size_t readHeads,
     std::size_t writeHeads, std::size_t inputDim,
     std::size_t outputDim)
{
    Benchmark b;
    b.name = name;
    b.description = description;
    b.task = task;
    b.config.memN = memN;
    b.config.memM = memM;
    b.config.controllerLayers = ctrlLayers;
    b.config.controllerWidth = ctrlWidth;
    b.config.numReadHeads = readHeads;
    b.config.numWriteHeads = writeHeads;
    b.config.inputDim = inputDim;
    b.config.outputDim = outputDim;
    b.config.validate();
    return b;
}

} // namespace

const std::vector<Benchmark> &
table2Suite()
{
    // Shapes from Table 2 of the paper. Input/output widths are not
    // published; we pick task-appropriate values (they only size the
    // controller's first/last layers, <2% of runtime on every
    // benchmark).
    static const std::vector<Benchmark> suite = {
        make("copy", "copy a sequence of vectors through memory",
             TaskKind::Copy, 1024, 256, 1, 100, 1, 1, 18, 16),
        make("rptcopy", "copy a sequence a given number of times",
             TaskKind::RepeatCopy, 512, 512, 1, 100, 1, 1, 18, 17),
        make("recall",
             "recall the item following a queried key item",
             TaskKind::AssociativeRecall, 1024, 64, 1, 100, 1, 1, 18,
             16),
        make("ngrams",
             "model a dynamic n-gram distribution over bits",
             TaskKind::DynamicNgrams, 1024, 128, 1, 100, 1, 1, 2, 1),
        make("sort", "emit input vectors ordered by priority",
             TaskKind::PrioritySort, 512, 128, 2, 100, 1, 4, 24, 16),
        make("bAbI", "question answering with logical reasoning",
             TaskKind::BAbI, 4096, 1024, 1, 256, 4, 1, 64, 64),
        make("short", "find shortest paths in a labelled graph",
             TaskKind::ShortestPath, 3648, 1400, 2, 256, 5, 1, 96, 96),
        make("travers", "follow a path through a labelled graph",
             TaskKind::GraphTraversal, 5056, 1000, 3, 256, 5, 1, 96,
             96),
        make("inf", "infer implicit relations in a labelled graph",
             TaskKind::GraphInference, 3584, 1400, 3, 256, 5, 1, 96,
             96),
        make("shrdlu", "answer dialogue about a synthetic block world",
             TaskKind::MiniShrdlu, 1280, 4000, 2, 256, 3, 1, 64, 64),
    };
    return suite;
}

const Benchmark &
benchmarkByName(const std::string &name)
{
    for (const auto &b : table2Suite())
        if (b.name == name)
            return b;
    fatal("unknown benchmark '%s'", name.c_str());
}

std::vector<Benchmark>
selectBenchmarks(const std::string &name)
{
    if (name.empty())
        return table2Suite();
    std::string valid;
    for (const auto &b : table2Suite()) {
        if (b.name == name)
            return {b};
        valid += (valid.empty() ? "" : ", ") + b.name;
    }
    throw ConfigError(strformat("unknown benchmark '%s' (valid: %s)",
                                name.c_str(), valid.c_str()));
}

Benchmark
weakScaled(const Benchmark &base, std::size_t tiles,
           std::size_t baselineTiles)
{
    MANNA_ASSERT(tiles >= baselineTiles && baselineTiles > 0,
                 "weakScaled(%zu, %zu) invalid", tiles, baselineTiles);
    const double factor = std::sqrt(static_cast<double>(tiles) /
                                    static_cast<double>(baselineTiles));
    Benchmark scaled = base;
    // Keep dimensions multiples of the tile count / buffer width so
    // partitioning stays even, as in the paper's doubling scheme.
    scaled.config.memN = roundUp(
        static_cast<std::size_t>(
            std::llround(static_cast<double>(base.config.memN) *
                         factor)),
        tiles);
    scaled.config.memM = roundUp(
        static_cast<std::size_t>(
            std::llround(static_cast<double>(base.config.memM) *
                         factor)),
        8);
    scaled.name = base.name;
    scaled.config.validate();
    return scaled;
}

Benchmark
tinyBenchmark()
{
    return make("tiny", "small configuration for tests and examples",
                TaskKind::Copy, 64, 32, 1, 40, 1, 1, 10, 8);
}

} // namespace manna::workloads
