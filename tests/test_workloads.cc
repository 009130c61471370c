/**
 * @file
 * Tests for the benchmark suite (Table 2 shapes), the task input
 * generators, and the random-graph substrate.
 */

#include <gtest/gtest.h>

#include "common/error.hh"
#include "workloads/benchmarks.hh"
#include "workloads/graph_gen.hh"
#include "workloads/tasks.hh"

namespace manna::workloads
{
namespace
{

TEST(Benchmarks, SuiteHasTenEntries)
{
    EXPECT_EQ(table2Suite().size(), 10u);
}

TEST(Benchmarks, Table2ShapesMatchPaper)
{
    struct Expected
    {
        const char *name;
        std::size_t memN, memM, layers, width, readHeads, writeHeads;
    };
    const Expected rows[] = {
        {"copy", 1024, 256, 1, 100, 1, 1},
        {"rptcopy", 512, 512, 1, 100, 1, 1},
        {"recall", 1024, 64, 1, 100, 1, 1},
        {"ngrams", 1024, 128, 1, 100, 1, 1},
        {"sort", 512, 128, 2, 100, 1, 4},
        {"bAbI", 4096, 1024, 1, 256, 4, 1},
        {"short", 3648, 1400, 2, 256, 5, 1},
        {"travers", 5056, 1000, 3, 256, 5, 1},
        {"inf", 3584, 1400, 3, 256, 5, 1},
        {"shrdlu", 1280, 4000, 2, 256, 3, 1},
    };
    for (const auto &row : rows) {
        const Benchmark &b = benchmarkByName(row.name);
        EXPECT_EQ(b.config.memN, row.memN) << row.name;
        EXPECT_EQ(b.config.memM, row.memM) << row.name;
        EXPECT_EQ(b.config.controllerLayers, row.layers) << row.name;
        EXPECT_EQ(b.config.controllerWidth, row.width) << row.name;
        EXPECT_EQ(b.config.numReadHeads, row.readHeads) << row.name;
        EXPECT_EQ(b.config.numWriteHeads, row.writeHeads) << row.name;
    }
}

TEST(BenchmarksDeathTest, UnknownNameFatal)
{
    EXPECT_EXIT(benchmarkByName("nonesuch"),
                ::testing::ExitedWithCode(1), "unknown benchmark");
}

TEST(Benchmarks, SelectionIsTheSuiteOrOneNamedEntry)
{
    const auto all = selectBenchmarks("");
    ASSERT_EQ(all.size(), table2Suite().size());
    for (std::size_t i = 0; i < all.size(); ++i)
        EXPECT_EQ(all[i].name, table2Suite()[i].name);

    const auto one = selectBenchmarks("recall");
    ASSERT_EQ(one.size(), 1u);
    EXPECT_EQ(one[0].name, "recall");
    EXPECT_EQ(one[0].config.memN, benchmarkByName("recall").config.memN);
}

TEST(Benchmarks, UnknownSelectionThrowsConfigErrorListingNames)
{
    try {
        selectBenchmarks("nosuch");
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("'nosuch'"), std::string::npos) << msg;
        for (const auto &b : table2Suite())
            EXPECT_NE(msg.find(b.name), std::string::npos) << msg;
    }
    // Names match exactly: no case folding, no prefixes.
    EXPECT_THROW(selectBenchmarks("Copy"), ConfigError);
    EXPECT_THROW(selectBenchmarks("rpt"), ConfigError);
}

TEST(Benchmarks, WeakScalingGrowsBothDimensions)
{
    const Benchmark &base = benchmarkByName("copy");
    const Benchmark scaled = weakScaled(base, 16, 4);
    // 4x the tiles => ~2x each dimension => ~4x the elements.
    const double ratio =
        static_cast<double>(scaled.config.memN * scaled.config.memM) /
        static_cast<double>(base.config.memN * base.config.memM);
    EXPECT_GT(ratio, 3.3);
    EXPECT_LT(ratio, 4.8);
    // Rows stay divisible by the tile count.
    EXPECT_EQ(scaled.config.memN % 16, 0u);
}

TEST(Benchmarks, WeakScalingIdentityAtBaseline)
{
    const Benchmark &base = benchmarkByName("recall");
    const Benchmark same = weakScaled(base, 4, 4);
    EXPECT_EQ(same.config.memN, base.config.memN);
}

TEST(Benchmarks, TinyBenchmarkValidates)
{
    EXPECT_NO_FATAL_FAILURE(tinyBenchmark().config.validate());
}

// ---------------------------------------------------------------------
// Task generators
// ---------------------------------------------------------------------

TEST(Tasks, CopyRecallPhaseMatchesPresentation)
{
    Rng rng(1);
    const Episode ep = copyEpisode(10, 5, rng);
    ASSERT_EQ(ep.inputs.size(), 11u); // 5 + delimiter + 5
    for (std::size_t i = 0; i < 5; ++i) {
        const auto &target = ep.targets[6 + i];
        ASSERT_EQ(target.size(), 8u);
        for (std::size_t c = 0; c < 8; ++c)
            EXPECT_FLOAT_EQ(target[c], ep.inputs[i][c]);
    }
    // Delimiter channel fires exactly once.
    std::size_t delims = 0;
    for (const auto &in : ep.inputs)
        delims += in[8] > 0.5f;
    EXPECT_EQ(delims, 1u);
}

TEST(Tasks, RepeatCopyRepeats)
{
    Rng rng(2);
    const Episode ep = repeatCopyEpisode(10, 3, 4, rng);
    EXPECT_EQ(ep.inputs.size(), 3u + 1 + 3 * 4);
    // All four recall phases carry the same targets.
    for (std::size_t r = 1; r < 4; ++r)
        for (std::size_t i = 0; i < 3; ++i)
            EXPECT_EQ(ep.targets[4 + r * 3 + i], ep.targets[4 + i]);
}

TEST(Tasks, AssociativeRecallTargetIsSuccessor)
{
    Rng rng(3);
    const Episode ep = associativeRecallEpisode(12, 6, rng);
    ASSERT_EQ(ep.inputs.size(), 8u);
    const auto &answer = ep.targets.back();
    ASSERT_EQ(answer.size(), 10u);
    // The answer must equal the payload of one of the presented
    // items (the successor of the queried one).
    bool matched = false;
    for (std::size_t i = 1; i < 6; ++i) {
        bool same = true;
        for (std::size_t c = 0; c < 10; ++c)
            same = same && ep.inputs[i][c] == answer[c];
        matched = matched || same;
    }
    EXPECT_TRUE(matched);
}

TEST(Tasks, NgramsBinary)
{
    Rng rng(4);
    const Episode ep = ngramsEpisode(64, rng);
    EXPECT_EQ(ep.inputs.size(), 64u);
    for (std::size_t i = 0; i < 64; ++i) {
        EXPECT_TRUE(ep.inputs[i][0] == 0.0f || ep.inputs[i][0] == 1.0f);
        EXPECT_EQ(ep.targets[i][0], ep.inputs[i][0]);
    }
}

TEST(Tasks, PrioritySortTargetsDescendByPriority)
{
    Rng rng(5);
    const std::size_t items = 8;
    const Episode ep = prioritySortEpisode(16, items, rng);
    // Map each target payload back to its presented priority.
    std::vector<float> orderedPriorities;
    for (std::size_t i = 0; i < items; ++i) {
        const auto &target = ep.targets[items + 1 + i];
        for (std::size_t j = 0; j < items; ++j) {
            bool same = true;
            for (std::size_t c = 0; c < target.size(); ++c)
                same = same && ep.inputs[j][c] == target[c];
            if (same) {
                orderedPriorities.push_back(ep.inputs[j][15]);
                break;
            }
        }
    }
    ASSERT_EQ(orderedPriorities.size(), items);
    for (std::size_t i = 1; i < items; ++i)
        EXPECT_GE(orderedPriorities[i - 1], orderedPriorities[i]);
}

TEST(Tasks, BabiQueriesAnswerableFromFacts)
{
    Rng rng(6);
    const Episode ep = babiEpisode(24, 20, 5, rng);
    EXPECT_EQ(ep.inputs.size(), 25u);
    for (std::size_t q = 20; q < 25; ++q) {
        // Queries are negative-marked; answers are one-hot in the
        // object third.
        float minv = 0.0f;
        for (float v : ep.inputs[q])
            minv = std::min(minv, v);
        EXPECT_LT(minv, 0.0f);
        float tsum = 0.0f;
        for (float v : ep.targets[q])
            tsum += v;
        EXPECT_FLOAT_EQ(tsum, 1.0f);
    }
}

TEST(Tasks, GeneratorsMatchBenchmarkWidths)
{
    Rng rng(7);
    for (const auto &bench : table2Suite()) {
        const Episode ep = generateEpisode(bench, 16, rng);
        EXPECT_FALSE(ep.inputs.empty()) << bench.name;
        EXPECT_EQ(ep.inputs.size(), ep.targets.size()) << bench.name;
        for (const auto &in : ep.inputs)
            EXPECT_EQ(in.size(), bench.config.inputDim) << bench.name;
    }
}

TEST(Tasks, GeneratorsDeterministic)
{
    Rng a(99), b(99);
    const auto &bench = benchmarkByName("travers");
    const Episode ea = generateEpisode(bench, 20, a);
    const Episode eb = generateEpisode(bench, 20, b);
    ASSERT_EQ(ea.inputs.size(), eb.inputs.size());
    for (std::size_t i = 0; i < ea.inputs.size(); ++i)
        EXPECT_EQ(ea.inputs[i], eb.inputs[i]);
}

// ---------------------------------------------------------------------
// Graph substrate
// ---------------------------------------------------------------------

TEST(Graph, GeneratedGraphsConnected)
{
    Rng rng(8);
    for (int i = 0; i < 10; ++i) {
        LabelledGraph g(20, 10, 4, rng);
        EXPECT_TRUE(g.isConnected());
        EXPECT_EQ(g.numNodes(), 20u);
        // Spanning tree (19 edges) + 10 extra, each bidirectional.
        EXPECT_EQ(g.edges().size(), 2u * 29u);
    }
}

TEST(Graph, EdgeLabelsInRange)
{
    Rng rng(9);
    LabelledGraph g(12, 6, 5, rng);
    for (const Edge &e : g.edges()) {
        EXPECT_LT(e.from, 12u);
        EXPECT_LT(e.to, 12u);
        EXPECT_LT(e.label, 5u);
    }
}

TEST(Graph, ShortestPathIsValidAndShort)
{
    Rng rng(10);
    LabelledGraph g(30, 15, 4, rng);
    const auto path = g.shortestPath(0, 29);
    ASSERT_GE(path.size(), 1u);
    EXPECT_EQ(path.front(), 0u);
    EXPECT_EQ(path.back(), 29u);
    // Consecutive nodes connected by an edge.
    for (std::size_t i = 1; i < path.size(); ++i) {
        bool connected = false;
        for (const Edge &e : g.outEdges(path[i - 1]))
            connected = connected || e.to == path[i];
        EXPECT_TRUE(connected) << "hop " << i;
    }
    // BFS optimality: no shorter path through any single neighbour.
    EXPECT_EQ(g.shortestPath(5, 5).size(), 1u);
}

TEST(Graph, FollowPathTracksLabels)
{
    Rng rng(11);
    LabelledGraph g(10, 5, 3, rng);
    const auto walk = g.randomWalk(0, 4, rng);
    ASSERT_EQ(walk.nodes.size(), walk.labels.size() + 1);
    const auto followed = g.followPath(0, walk.labels);
    // followPath picks the *first* matching edge, which may diverge
    // from the random walk, but it must produce a valid node chain.
    for (std::size_t i = 1; i < followed.size(); ++i) {
        bool connected = false;
        for (const Edge &e : g.outEdges(followed[i - 1]))
            connected = connected ||
                        (e.to == followed[i] &&
                         e.label == walk.labels[i - 1]);
        EXPECT_TRUE(connected);
    }
}

class GraphSizeSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(GraphSizeSweep, ConnectivityAcrossSizes)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()));
    LabelledGraph g(static_cast<std::size_t>(GetParam()), 3, 4, rng);
    EXPECT_TRUE(g.isConnected());
}

INSTANTIATE_TEST_SUITE_P(Sizes, GraphSizeSweep,
                         ::testing::Values(2, 3, 5, 16, 64, 200));

} // namespace
} // namespace manna::workloads
