/**
 * @file
 * Unit tests for the common utilities: strings, RNG, stats, tables,
 * and configuration parsing.
 */

#include <gtest/gtest.h>

#include <set>

#include "common/config.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/strutil.hh"
#include "common/table.hh"
#include "common/types.hh"

namespace manna
{
namespace
{

// ---------------------------------------------------------------------
// types.hh
// ---------------------------------------------------------------------

TEST(Types, CeilDiv)
{
    EXPECT_EQ(ceilDiv(0, 4), 0u);
    EXPECT_EQ(ceilDiv(1, 4), 1u);
    EXPECT_EQ(ceilDiv(4, 4), 1u);
    EXPECT_EQ(ceilDiv(5, 4), 2u);
    EXPECT_EQ(ceilDiv(8, 4), 2u);
}

TEST(Types, RoundUp)
{
    EXPECT_EQ(roundUp(0, 8), 0u);
    EXPECT_EQ(roundUp(1, 8), 8u);
    EXPECT_EQ(roundUp(8, 8), 8u);
    EXPECT_EQ(roundUp(9, 8), 16u);
}

TEST(Types, PowerOfTwo)
{
    EXPECT_TRUE(isPowerOfTwo(1));
    EXPECT_TRUE(isPowerOfTwo(2));
    EXPECT_TRUE(isPowerOfTwo(1024));
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_FALSE(isPowerOfTwo(3));
    EXPECT_FALSE(isPowerOfTwo(48));
}

TEST(Types, Log2)
{
    EXPECT_EQ(log2Floor(1), 0u);
    EXPECT_EQ(log2Floor(2), 1u);
    EXPECT_EQ(log2Floor(3), 1u);
    EXPECT_EQ(log2Floor(16), 4u);
    EXPECT_EQ(log2Ceil(1), 0u);
    EXPECT_EQ(log2Ceil(2), 1u);
    EXPECT_EQ(log2Ceil(3), 2u);
    EXPECT_EQ(log2Ceil(16), 4u);
    EXPECT_EQ(log2Ceil(17), 5u);
}

TEST(Types, ByteLiterals)
{
    EXPECT_EQ(2_KiB, 2048u);
    EXPECT_EQ(2_MiB, 2u * 1024 * 1024);
}

// ---------------------------------------------------------------------
// strutil
// ---------------------------------------------------------------------

TEST(StrUtil, Trim)
{
    EXPECT_EQ(trim("  hello  "), "hello");
    EXPECT_EQ(trim("\t\nx"), "x");
    EXPECT_EQ(trim(""), "");
    EXPECT_EQ(trim("   "), "");
    EXPECT_EQ(trim("no-op"), "no-op");
}

TEST(StrUtil, Split)
{
    const auto parts = split("a,b,,c", ',');
    ASSERT_EQ(parts.size(), 4u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[2], "");
    EXPECT_EQ(parts[3], "c");
}

TEST(StrUtil, SplitWhitespace)
{
    const auto parts = splitWhitespace("  a\tb   c \n");
    ASSERT_EQ(parts.size(), 3u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[1], "b");
    EXPECT_EQ(parts[2], "c");
    EXPECT_TRUE(splitWhitespace("   ").empty());
}

TEST(StrUtil, ParseInt)
{
    EXPECT_EQ(parseInt("42").value(), 42);
    EXPECT_EQ(parseInt("-7").value(), -7);
    EXPECT_EQ(parseInt("0x10").value(), 16);
    EXPECT_EQ(parseInt(" 8 ").value(), 8);
    EXPECT_FALSE(parseInt("12abc").has_value());
    EXPECT_FALSE(parseInt("").has_value());
    EXPECT_FALSE(parseInt("3.5").has_value());
}

TEST(StrUtil, ParseDouble)
{
    EXPECT_DOUBLE_EQ(parseDouble("2.5").value(), 2.5);
    EXPECT_DOUBLE_EQ(parseDouble("-1e3").value(), -1000.0);
    EXPECT_FALSE(parseDouble("x").has_value());
}

TEST(StrUtil, FormatBytes)
{
    EXPECT_EQ(formatBytes(512), "512 B");
    EXPECT_EQ(formatBytes(2048), "2 KiB");
    EXPECT_EQ(formatBytes(2_MiB), "2 MiB");
    EXPECT_EQ(formatBytes(3 * 1024ull * 1024 * 1024), "3 GiB");
}

TEST(StrUtil, StartsWithAndLower)
{
    EXPECT_TRUE(startsWith("manna", "man"));
    EXPECT_FALSE(startsWith("man", "manna"));
    EXPECT_EQ(toLower("MiXeD"), "mixed");
}

TEST(StrUtil, Join)
{
    EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
    EXPECT_EQ(join({}, ","), "");
}

// ---------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------

TEST(Rng, Deterministic)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformBounds)
{
    Rng rng(9);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, BelowIsInRangeAndCoversValues)
{
    Rng rng(5);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 2000; ++i) {
        const auto v = rng.below(7);
        EXPECT_LT(v, 7u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, RangeInclusive)
{
    Rng rng(11);
    for (int i = 0; i < 1000; ++i) {
        const auto v = rng.range(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
    }
}

TEST(Rng, GaussianMoments)
{
    Rng rng(17);
    double sum = 0.0, sq = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double g = rng.gaussian();
        sum += g;
        sq += g * g;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.05);
    EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Rng, ShufflePreservesElements)
{
    Rng rng(3);
    std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
    auto sorted = v;
    rng.shuffle(v);
    auto resorted = v;
    std::sort(resorted.begin(), resorted.end());
    EXPECT_EQ(resorted, sorted);
}

TEST(Rng, ForkDecorrelates)
{
    Rng a(42);
    Rng child = a.fork();
    EXPECT_NE(a.next(), child.next());
}

// ---------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------

TEST(Stats, Geomean)
{
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
    EXPECT_NEAR(geomean({2.0, 8.0}), 4.0, 1e-12);
    EXPECT_NEAR(geomean({1.0, 10.0, 100.0}), 10.0, 1e-9);
}

TEST(Stats, MeanMinMax)
{
    const std::vector<double> v{3.0, 1.0, 2.0};
    EXPECT_DOUBLE_EQ(mean(v), 2.0);
    EXPECT_DOUBLE_EQ(minOf(v), 1.0);
    EXPECT_DOUBLE_EQ(maxOf(v), 3.0);
}

// ---------------------------------------------------------------------
// Table
// ---------------------------------------------------------------------

TEST(Table, RendersAlignedColumns)
{
    Table t({"Name", "Value"});
    t.addRow({"a", "1"});
    t.addRow({"longer", "22"});
    const std::string out = t.render();
    EXPECT_NE(out.find("Name"), std::string::npos);
    EXPECT_NE(out.find("longer"), std::string::npos);
    EXPECT_EQ(t.rowCount(), 2u);
    // Header + rule + 2 rows = 4 lines.
    EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
}

TEST(Table, SeparatorNotCountedAsRow)
{
    Table t({"A"});
    t.addRow({"x"});
    t.addSeparator();
    t.addRow({"y"});
    EXPECT_EQ(t.rowCount(), 2u);
}

TEST(Table, CsvRendering)
{
    Table t({"Name", "Value"});
    t.addRow({"plain", "1"});
    t.addSeparator();
    t.addRow({"with,comma", "quo\"te"});
    const std::string csv = t.renderCsv();
    EXPECT_EQ(csv, "Name,Value\nplain,1\n\"with,comma\",\"quo\"\"te\"\n");
}

TEST(Table, FormatHelpers)
{
    EXPECT_EQ(formatFactor(123.4), "123x");
    EXPECT_EQ(formatFactor(39.42), "39.4x");
    EXPECT_EQ(formatFactor(3.25), "3.25x");
    EXPECT_EQ(formatPercent(0.498), "49.8%");
}

// ---------------------------------------------------------------------
// Config
// ---------------------------------------------------------------------

TEST(Config, ParsesArgs)
{
    const char *argv[] = {"prog", "steps=12", "name=copy",
                          "ratio=2.5", "flag=true"};
    const Config cfg = Config::fromArgs(5, argv);
    EXPECT_EQ(cfg.getInt("steps", 0), 12);
    EXPECT_EQ(cfg.getString("name"), "copy");
    EXPECT_DOUBLE_EQ(cfg.getDouble("ratio", 0.0), 2.5);
    EXPECT_TRUE(cfg.getBool("flag", false));
}

TEST(Config, CommandLineAcceptsEveryKnobAnyBinaryReads)
{
    // fig12 ignores file= and min_time=; scripts pass such knobs on.
    const char *argv[] = {"prog", "steps=2", "--dump-stats",
                          "fidelity=fast", "file=x.masm", "min_time=1"};
    const Config cfg = Config::fromCommandLine(6, argv);
    EXPECT_EQ(cfg.getInt("steps", 0), 2);
    EXPECT_TRUE(cfg.getBool("dump_stats", false));
    EXPECT_EQ(cfg.getString("fidelity"), "fast");
}

TEST(ConfigDeathTest, CommandLineRejectsAMistypedKnob)
{
    const char *argv[] = {"prog", "steps=2", "fidelty=fast"};
    EXPECT_EXIT(Config::fromCommandLine(3, argv),
                ::testing::ExitedWithCode(1), "unknown option 'fidelty=fast'");
}

TEST(Config, DefaultsWhenAbsent)
{
    Config cfg;
    EXPECT_EQ(cfg.getInt("missing", 7), 7);
    EXPECT_EQ(cfg.getString("missing", "d"), "d");
    EXPECT_FALSE(cfg.getBool("missing", false));
    EXPECT_FALSE(cfg.has("missing"));
}

TEST(Config, BooleanSpellings)
{
    Config cfg;
    cfg.set("a", "ON");
    cfg.set("b", "0");
    cfg.set("c", "Yes");
    EXPECT_TRUE(cfg.getBool("a", false));
    EXPECT_FALSE(cfg.getBool("b", true));
    EXPECT_TRUE(cfg.getBool("c", false));
}

TEST(Config, KeysSorted)
{
    Config cfg;
    cfg.set("z", "1");
    cfg.set("a", "2");
    const auto keys = cfg.keys();
    ASSERT_EQ(keys.size(), 2u);
    EXPECT_EQ(keys[0], "a");
    EXPECT_EQ(keys[1], "z");
}

} // namespace
} // namespace manna
