/**
 * @file
 * Tier-1 tests for the observability layer: the StatRegistry and its
 * exact JSON round-trip, the per-component counters the simulator
 * publishes through RunReport, the jobs=1 == jobs=N determinism of
 * the aggregated sweep counters, and the Chrome trace-event export
 * (syntactic validity, timestamp ordering, per-tile/per-lane track
 * mapping, and drop accounting at the entry limit).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include <chrono>
#include <set>
#include <thread>

#include <unistd.h>

#include "arch/manna_config.hh"
#include "common/config.hh"
#include "common/event_log.hh"
#include "common/json.hh"
#include "common/stat_registry.hh"
#include "common/strutil.hh"
#include "compiler/compile_cache.hh"
#include "harness/client.hh"
#include "harness/journal.hh"
#include "harness/observe.hh"
#include "harness/server.hh"
#include "harness/sweep.hh"
#include "isa/isa.hh"
#include "sim/trace.hh"
#include "workloads/benchmarks.hh"

namespace manna::harness
{
namespace
{

TEST(StatRegistry, BasicOperations)
{
    StatRegistry reg;
    EXPECT_TRUE(reg.empty());
    EXPECT_EQ(reg.get("missing"), 0.0);
    EXPECT_FALSE(reg.has("missing"));

    reg.set("tile.0.emac.busy_cycles", 10.0);
    reg.inc("tile.0.emac.busy_cycles", 5.0);
    reg.inc("tile.1.emac.busy_cycles", 7.0);
    reg.inc("tile.10.emac.busy_cycles", 1.0);
    reg.set("tilex.emac.busy_cycles", 100.0); // prefix must not match
    EXPECT_EQ(reg.get("tile.0.emac.busy_cycles"), 15.0);
    EXPECT_TRUE(reg.has("tile.1.emac.busy_cycles"));
    EXPECT_EQ(reg.size(), 4u);
    EXPECT_EQ(reg.sumOver("tile", "emac.busy_cycles"), 23.0);
    EXPECT_EQ(reg.sumOver("tile", "sfu.busy_cycles"), 0.0);
}

TEST(StatRegistry, SetAndMerge)
{
    StatRegistry reg;
    reg.set("tile.3.busy_cycles", 42.0);
    reg.set("tile.3.mac_ops", 7.0);
    EXPECT_EQ(reg.get("tile.3.busy_cycles"), 42.0);
    EXPECT_EQ(reg.get("tile.3.mac_ops"), 7.0);

    StatRegistry other;
    other.set("tile.3.busy_cycles", 8.0);
    other.set("noc.reduce.ops", 3.0);
    reg.merge(other);
    EXPECT_EQ(reg.get("tile.3.busy_cycles"), 50.0); // additive
    EXPECT_EQ(reg.get("noc.reduce.ops"), 3.0);
}

TEST(StatRegistry, JsonRoundTripIsExact)
{
    StatRegistry reg;
    reg.set("a.third", 1.0 / 3.0);
    reg.set("a.tiny", 1e-300);
    reg.set("a.huge", 1.2345678901234567e300);
    reg.set("b.negative", -0.1);
    reg.set("b.zero", 0.0);
    reg.set("c.big_count", 9007199254740993.0);

    for (int indent : {0, 4}) {
        SCOPED_TRACE(indent);
        const std::string json = reg.toJson(indent);
        EXPECT_TRUE(jsonValidate(json)) << json;
        const auto back = StatRegistry::fromJson(json);
        ASSERT_TRUE(back.has_value());
        EXPECT_EQ(*back, reg);
    }

    EXPECT_FALSE(StatRegistry::fromJson("{\"a\": }").has_value());
    EXPECT_FALSE(StatRegistry::fromJson("not json").has_value());
}

TEST(RunStats, RegistryPopulatedAndSelfConsistent)
{
    const auto &bench = workloads::benchmarkByName("recall");
    const auto result = simulateManna(
        bench, arch::MannaConfig::withTiles(4), /*steps=*/2);
    const StatRegistry &stats = result.report.stats;

    ASSERT_FALSE(stats.empty());
    EXPECT_EQ(stats.get("chip.cycles"),
              static_cast<double>(result.report.totalCycles));
    EXPECT_EQ(stats.get("chip.tiles"), 4.0);

    // Per engine: busy + idle == total chip cycles, on every tile.
    const double total = stats.get("chip.cycles");
    for (const char *engine : {"emac", "sfu", "mat_dma", "vec_dma"}) {
        SCOPED_TRACE(engine);
        for (std::size_t t = 0; t < 4; ++t) {
            const std::string prefix =
                "tile." + std::to_string(t) + "." + engine + ".";
            EXPECT_EQ(stats.get(prefix + "busy_cycles") +
                          stats.get(prefix + "idle_cycles"),
                      total);
        }
        // chip.util.<engine> mirrors the legacy utilization map.
        const double util =
            stats.get(std::string("chip.util.") + engine);
        EXPECT_GE(util, 0.0);
        EXPECT_LE(util, 1.0);
        EXPECT_EQ(util, result.report.resourceUtilization.at(engine));
    }

    // The recall task exercises sfu + dmat + noc paths.
    EXPECT_GT(stats.sumOver("tile", "sfu.busy_cycles"), 0.0);
    EXPECT_GT(stats.sumOver("tile", "dmat.loads"), 0.0);
    EXPECT_GT(stats.get("noc.reduce.ops"), 0.0);
    EXPECT_GT(stats.get("ctrl.forward_passes"), 0.0);
}

/** The "counters" section of stats.json, i.e. everything that is
 * promised to be deterministic across worker counts. */
std::string
countersSection(const std::string &statsJson)
{
    const auto begin = statsJson.find("\"counters\"");
    const auto end = statsJson.find("\"throughput\"");
    EXPECT_NE(begin, std::string::npos);
    EXPECT_NE(end, std::string::npos);
    return statsJson.substr(begin, end - begin);
}

TEST(SweepStats, CountersIdenticalAcrossWorkerCounts)
{
    std::vector<SweepJob> jobs;
    for (const auto &name : {"copy", "recall", "ngrams"})
        for (std::size_t tiles : {4u, 8u})
            jobs.push_back({workloads::benchmarkByName(name),
                            arch::MannaConfig::withTiles(tiles),
                            /*steps=*/2, /*seed=*/1});

    SweepRunner serial(1);
    SweepRunner parallel(4);
    const auto a = serial.runChecked(jobs);
    const auto b = parallel.runChecked(jobs);
    ASSERT_TRUE(a.allOk());
    ASSERT_TRUE(b.allOk());

    for (std::size_t i = 0; i < jobs.size(); ++i) {
        SCOPED_TRACE(i);
        EXPECT_EQ(a.outcomes[i].value.report.stats,
                  b.outcomes[i].value.report.stats);
    }
    EXPECT_EQ(a.aggregateStats(), b.aggregateStats());
    EXPECT_FALSE(a.aggregateStats().empty());

    const std::string statsA = renderSweepStats(a);
    const std::string statsB = renderSweepStats(b);
    EXPECT_TRUE(jsonValidate(statsA)) << statsA;
    EXPECT_NE(statsA.find("manna-sweep-stats-v1"), std::string::npos);
    // Whole documents differ (wall-clock throughput section), but the
    // deterministic counters section must match byte for byte.
    EXPECT_EQ(countersSection(statsA), countersSection(statsB));
}

TEST(Journal, RegistrySurvivesJournalRoundTrip)
{
    const auto &bench = workloads::benchmarkByName("copy");
    const auto result = simulateManna(
        bench, arch::MannaConfig::withTiles(4), /*steps=*/1);
    ASSERT_FALSE(result.report.stats.empty());

    const std::string line = encodeResult(result);
    const auto back = decodeResult(line);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->report.stats, result.report.stats);
}

/** Parse every "X" duration event out of a Chrome trace (one event
 * per line, as renderChromeTrace() emits them). */
struct XEvent
{
    std::size_t pid;
    int tid;
    unsigned long long ts;
    unsigned long long dur;
};

std::vector<XEvent>
parseXEvents(const std::string &json)
{
    std::vector<XEvent> events;
    std::istringstream lines(json);
    std::string line;
    while (std::getline(lines, line)) {
        XEvent e{};
        if (std::sscanf(line.c_str(),
                        "{\"ph\":\"X\",\"pid\":%zu,\"tid\":%d,"
                        "\"ts\":%llu,\"dur\":%llu",
                        &e.pid, &e.tid, &e.ts, &e.dur) == 4)
            events.push_back(e);
    }
    return events;
}

TEST(ChromeTrace, ValidSortedAndTrackMapped)
{
    const auto &bench = workloads::benchmarkByName("recall");
    const arch::MannaConfig hw = arch::MannaConfig::withTiles(4);
    const auto model = compiler::compileCached(bench.config, hw);

    sim::TraceLogger logger(1 << 20);
    runCompiled(bench, *model, /*steps=*/1, /*seed=*/1, nullptr,
                &logger);
    ASSERT_FALSE(logger.entries().empty());
    EXPECT_EQ(logger.dropped(), 0u);

    const std::string json = logger.renderChromeTrace();
    EXPECT_TRUE(jsonValidate(json));

    const auto events = parseXEvents(json);
    ASSERT_EQ(events.size(), logger.entries().size());
    for (std::size_t i = 1; i < events.size(); ++i)
        EXPECT_LE(events[i - 1].ts, events[i].ts) << "event " << i;
    for (const XEvent &e : events) {
        EXPECT_LT(e.pid, 4u);
        EXPECT_GE(e.tid, 0);
        EXPECT_LE(e.tid, 3);
        EXPECT_GE(e.dur, 1u);
    }

    // Every tile gets one process_name and one thread_name per lane.
    for (std::size_t t = 0; t < 4; ++t) {
        const std::string proc = "{\"ph\":\"M\",\"pid\":" +
                                 std::to_string(t) +
                                 ",\"tid\":0,\"name\":\"process_name\"";
        EXPECT_NE(json.find(proc), std::string::npos) << t;
    }
    for (const char *lane : {"compute", "sfu", "mat_dma", "vec_dma"}) {
        const std::string name =
            "\"thread_name\",\"args\":{\"name\":\"" +
            std::string(lane) + "\"}";
        EXPECT_NE(json.find(name), std::string::npos) << lane;
    }
}

TEST(ChromeTrace, LaneMappingFollowsEngines)
{
    using isa::Opcode;
    using sim::TraceLane;
    EXPECT_EQ(sim::laneOf(Opcode::DmatLoadM), TraceLane::MatDma);
    EXPECT_EQ(sim::laneOf(Opcode::DmaStoreM), TraceLane::MatDma);
    EXPECT_EQ(sim::laneOf(Opcode::DmaLoadV), TraceLane::VecDma);
    EXPECT_EQ(sim::laneOf(Opcode::SfuExp), TraceLane::Sfu);
    EXPECT_EQ(sim::laneOf(Opcode::SfuAccMax), TraceLane::Sfu);
    EXPECT_EQ(sim::laneOf(Opcode::Vmm), TraceLane::Compute);
    EXPECT_STREQ(sim::toString(TraceLane::MatDma), "mat_dma");
}

TEST(ChromeTrace, DropAccountingAtEntryLimit)
{
    sim::TraceLogger logger(/*maxEntries=*/4);
    isa::Instruction inst;
    inst.op = isa::Opcode::Vmm;
    for (std::size_t i = 0; i < 10; ++i)
        logger.record(/*tile=*/0, /*issue=*/i, /*horizon=*/i + 2,
                      /*start=*/i, /*end=*/i + 2, inst);

    EXPECT_EQ(logger.entries().size(), 4u);
    EXPECT_EQ(logger.dropped(), 6u);

    const std::string json = logger.renderChromeTrace();
    EXPECT_TRUE(jsonValidate(json));
    EXPECT_NE(json.find("\"droppedEntries\":6"), std::string::npos);
    EXPECT_EQ(parseXEvents(json).size(), 4u);
}

TEST(TraceOptions, ParsedFromConfigAndEnvironment)
{
    const char *argv[] = {"prog", "trace=/tmp/t.json",
                          "trace_limit=9"};
    const Config cfg = Config::fromArgs(3, argv);
    const TraceOptions opts = traceOptionsFromConfig(cfg);
    EXPECT_TRUE(opts.enabled());
    EXPECT_EQ(opts.path, "/tmp/t.json");
    EXPECT_EQ(opts.maxEntries, 9u);

    ::setenv("MANNA_TRACE", "/tmp/env.json", 1);
    ::setenv("MANNA_TRACE_LIMIT", "17", 1);
    const TraceOptions fromEnv = traceOptionsFromConfig(Config{});
    EXPECT_EQ(fromEnv.path, "/tmp/env.json");
    EXPECT_EQ(fromEnv.maxEntries, 17u);
    ::unsetenv("MANNA_TRACE");
    ::unsetenv("MANNA_TRACE_LIMIT");

    const TraceOptions off = traceOptionsFromConfig(Config{});
    EXPECT_FALSE(off.enabled());
}

// --- cycle-accounting profiler ------------------------------------

/** Engine stat prefixes in sim::TraceLane order. */
const char *const kEngines[] = {"emac", "sfu", "mat_dma", "vec_dma"};
const char *const kStallReasons[] = {
    "issue",   "ctrl",       "fence",      "drain",
    "dma",     "compute",    "sfu_serial", "bank_conflict"};

TEST(StallAccounting, ClosedOnEveryEngineOfEveryWorkload)
{
    for (const auto &bench : workloads::table2Suite()) {
        SCOPED_TRACE(bench.name);
        const auto result = simulateManna(
            bench, arch::MannaConfig::withTiles(4), /*steps=*/2);
        const StatRegistry &stats = result.report.stats;
        const double total = stats.get("chip.cycles");
        ASSERT_GT(total, 0.0);
        for (std::size_t t = 0; t < 4; ++t) {
            for (const char *engine : kEngines) {
                const std::string prefix = "tile." +
                                           std::to_string(t) + "." +
                                           engine + ".";
                // Every reason key exists even when it never fired,
                // and the attribution partitions the timeline: there
                // is no unaccounted (or double-counted) cycle.
                double stalls = 0.0;
                for (const char *reason : kStallReasons) {
                    const std::string key =
                        prefix + "stall." + reason;
                    ASSERT_TRUE(stats.has(key)) << key;
                    stalls += stats.get(key);
                }
                EXPECT_EQ(stats.get(prefix + "busy_cycles") + stalls,
                          total)
                    << prefix;
                EXPECT_EQ(stats.get(prefix + "idle_cycles"), stalls)
                    << prefix;
            }
        }
        // NoC and controller close against chip cycles too.
        EXPECT_EQ(stats.get("noc.busy_cycles") +
                      stats.get("noc.stall.idle"),
                  total);
        EXPECT_EQ(stats.get("ctrl.busy_cycles") +
                      stats.get("ctrl.stall.diffmem_wait"),
                  total);
    }
}

TEST(OpcodeProfile, CyclesPartitionEachEngineBusy)
{
    const auto &bench = workloads::benchmarkByName("recall");
    const auto result = simulateManna(
        bench, arch::MannaConfig::withTiles(4), /*steps=*/2);
    const StatRegistry &stats = result.report.stats;
    constexpr auto numOps =
        static_cast<std::size_t>(isa::Opcode::NumOpcodes);

    bool sawProfile = false;
    for (std::size_t t = 0; t < 4; ++t) {
        double laneCycles[4] = {};
        for (std::size_t i = 0; i < numOps; ++i) {
            const auto op = static_cast<isa::Opcode>(i);
            const std::string key = "profile." + std::to_string(t) +
                                    "." + isa::profileKey(op) +
                                    ".cycles";
            const auto lane =
                static_cast<std::size_t>(sim::laneOf(op));
            laneCycles[lane] += stats.get(key);
            sawProfile = sawProfile || stats.has(key);
        }
        for (std::size_t lane = 0; lane < 4; ++lane) {
            const std::string busy = "tile." + std::to_string(t) +
                                     "." + kEngines[lane] +
                                     ".busy_cycles";
            EXPECT_EQ(laneCycles[lane], stats.get(busy)) << busy;
        }
    }
    EXPECT_TRUE(sawProfile);
}

TEST(RunStats, CountersCarryDescriptions)
{
    const auto &bench = workloads::benchmarkByName("copy");
    const auto result = simulateManna(
        bench, arch::MannaConfig::withTiles(4), /*steps=*/1);
    const StatRegistry &stats = result.report.stats;
    EXPECT_FALSE(
        stats.description("tile.0.emac.busy_cycles").empty());
    EXPECT_FALSE(
        stats.description("tile.0.sfu.stall.sfu_serial").empty());
    EXPECT_FALSE(stats.description("noc.stall.idle").empty());
    EXPECT_FALSE(stats.description("chip.cycles").empty());
    EXPECT_FALSE(
        stats.description("profile.0.vmm.cycles").empty());
}

TEST(StatRegistry, DescriptionsSuffixMatchAndRender)
{
    StatRegistry reg;
    reg.set("tile.0.emac.busy_cycles", 10.0);
    reg.set("ctrl.cycles", 5.0);
    reg.describe("busy_cycles", "engine-busy cycles");
    reg.describe("ctrl.cycles", "controller cycles");

    // Dotted-suffix pattern vs exact key.
    EXPECT_EQ(reg.description("tile.0.emac.busy_cycles"),
              "engine-busy cycles");
    EXPECT_EQ(reg.description("ctrl.cycles"), "controller cycles");
    EXPECT_EQ(reg.description("nope"), "");
    // A suffix must start at a dot: "cycles" is not a match for the
    // pattern "ctrl.cycles".
    reg.set("xctrl.cycles", 1.0);
    EXPECT_EQ(reg.description("xctrl.cycles"), "");

    // Descriptions are display metadata: values alone decide ==.
    StatRegistry bare;
    bare.set("tile.0.emac.busy_cycles", 10.0);
    bare.set("ctrl.cycles", 5.0);
    bare.set("xctrl.cycles", 1.0);
    EXPECT_TRUE(reg == bare);

    const std::string text = reg.renderDescribed();
    EXPECT_NE(text.find("tile.0.emac.busy_cycles"),
              std::string::npos);
    EXPECT_NE(text.find("# engine-busy cycles"), std::string::npos);
    EXPECT_NE(text.find("# controller cycles"), std::string::npos);
}

TEST(ProfileJson, DeterministicAndNamesTheSfuAtTheFig12Point)
{
    const auto &bench = workloads::benchmarkByName("copy");
    const arch::MannaConfig hw = arch::MannaConfig::withTiles(16);
    const std::string a =
        renderProfileJson(bench, hw, /*steps=*/1, /*seed=*/1,
                          /*topN=*/5);
    const std::string b =
        renderProfileJson(bench, hw, 1, 1, 5);
    EXPECT_EQ(a, b); // no wall-clock inside: byte-identical
    EXPECT_TRUE(jsonValidate(a));
    EXPECT_NE(a.find("manna-profile-v1"), std::string::npos);
    EXPECT_NE(a.find("\"dominant_stall\""), std::string::npos);
    EXPECT_NE(a.find("\"roofline\""), std::string::npos);
    EXPECT_NE(a.find("\"counters\""), std::string::npos);
    // The Fig 12 acceptance point: at 16 tiles the profiler must
    // name the serial SFU chain as the dominant stall source.
    EXPECT_NE(a.find("\"reason\": \"sfu_serial\""),
              std::string::npos);
}

TEST(BenchJson, SchemaValidAndDeterministicAcrossWorkerCounts)
{
    std::vector<SweepJob> jobs;
    for (const auto &name : {"copy", "recall"})
        jobs.push_back({workloads::benchmarkByName(name),
                        arch::MannaConfig::withTiles(4),
                        /*steps=*/2, /*seed=*/1});
    SweepRunner serial(1);
    SweepRunner parallel(4);
    const auto a = serial.runChecked(jobs);
    const auto b = parallel.runChecked(jobs);
    ASSERT_TRUE(a.allOk());
    ASSERT_TRUE(b.allOk());

    const std::string ja = renderBenchJson("unit", a);
    const std::string jb = renderBenchJson("unit", b);
    EXPECT_TRUE(jsonValidate(ja)) << ja;
    EXPECT_NE(ja.find("manna-bench-v1"), std::string::npos);
    EXPECT_NE(ja.find("\"name\": \"unit\""), std::string::npos);
    // Everything before the wall-clock section is the deterministic
    // snapshot bench_compare.py diffs: byte-identical across worker
    // counts.
    const auto wallA = ja.find("\"wall\"");
    const auto wallB = jb.find("\"wall\"");
    ASSERT_NE(wallA, std::string::npos);
    ASSERT_NE(wallB, std::string::npos);
    EXPECT_EQ(ja.substr(0, wallA), jb.substr(0, wallB));
}

TEST(ProfileOptions, ParsedFromConfigAndEnvironment)
{
    const char *argv[] = {"prog", "profile=/tmp/p.json",
                          "profile_top=3"};
    const Config cfg = Config::fromArgs(3, argv);
    const ProfileOptions opts = profileOptionsFromConfig(cfg);
    EXPECT_TRUE(opts.enabled());
    EXPECT_EQ(opts.path, "/tmp/p.json");
    EXPECT_EQ(opts.topN, 3u);

    ::setenv("MANNA_PROFILE", "/tmp/envp.json", 1);
    ::setenv("MANNA_PROFILE_TOP", "7", 1);
    const ProfileOptions fromEnv =
        profileOptionsFromConfig(Config{});
    EXPECT_EQ(fromEnv.path, "/tmp/envp.json");
    EXPECT_EQ(fromEnv.topN, 7u);
    ::unsetenv("MANNA_PROFILE");
    ::unsetenv("MANNA_PROFILE_TOP");

    EXPECT_FALSE(profileOptionsFromConfig(Config{}).enabled());
}

TEST(BenchJsonOptions, ParsedFromConfigAndEnvironment)
{
    const char *argv[] = {"prog", "bench_json=/tmp/b.json"};
    const Config cfg = Config::fromArgs(2, argv);
    const BenchJsonOptions opts = benchJsonOptionsFromConfig(cfg);
    EXPECT_TRUE(opts.enabled());
    EXPECT_EQ(opts.path, "/tmp/b.json");

    ::setenv("MANNA_BENCH_JSON", "/tmp/envb.json", 1);
    const BenchJsonOptions fromEnv =
        benchJsonOptionsFromConfig(Config{});
    EXPECT_EQ(fromEnv.path, "/tmp/envb.json");
    ::unsetenv("MANNA_BENCH_JSON");

    EXPECT_FALSE(benchJsonOptionsFromConfig(Config{}).enabled());
}

TEST(DumpStats, BareDashFlagParsesAsBoolean)
{
    const char *argv[] = {"prog", "--dump-stats", "steps=3"};
    const Config cfg = Config::fromArgs(3, argv);
    EXPECT_TRUE(cfg.getBool("dump_stats", false));
    EXPECT_EQ(cfg.getInt("steps", 0), 3);
    EXPECT_FALSE(Config{}.getBool("dump_stats", false));
}

TEST(ChromeTrace, WriteChromeTraceProducesLoadableFile)
{
    TraceOptions opts;
    opts.path = "test_observability_trace.json";
    opts.maxEntries = 256;

    const auto &bench = workloads::benchmarkByName("copy");
    ASSERT_TRUE(writeChromeTrace(
        opts, bench, arch::MannaConfig::withTiles(4), /*steps=*/1));

    std::ifstream f(opts.path);
    ASSERT_TRUE(f.good());
    std::stringstream buf;
    buf << f.rdbuf();
    const std::string json = buf.str();
    EXPECT_TRUE(jsonValidate(json));
    EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
    EXPECT_FALSE(parseXEvents(json).empty());
    std::remove(opts.path.c_str());

    EXPECT_FALSE(writeChromeTrace(
        TraceOptions{}, bench, arch::MannaConfig::withTiles(4), 1));
}

// --- harness event log and merged trace ---------------------------

std::string
readWholeFile(const std::string &path)
{
    std::ifstream f(path);
    std::stringstream buf;
    buf << f.rdbuf();
    return buf.str();
}

void
writeWholeFile(const std::string &path, const std::string &text)
{
    std::ofstream f(path);
    f << text;
}

TEST(EventLog, RegistryIsClosedAndQueryable)
{
    EXPECT_GE(events::eventNameCount(), 20u);
    for (const char *name :
         {"sweep.run", "job.run", "job.attempt", "journal.load",
          "journal.append", "compile.model", "server.run",
          "server.conn",
          "server.accept", "compile.cache.hit", "fault.injected",
          "log.warn", "log.info"})
        EXPECT_TRUE(events::isRegisteredEventName(name)) << name;
    EXPECT_FALSE(events::isRegisteredEventName("not.a.span"));
    EXPECT_FALSE(events::isRegisteredEventName(""));
}

TEST(EventLog, SpanNestingOrderingAndJsonRoundTrip)
{
    const std::string path = "test_observability_events.jsonl";
    events::EventLog &log = events::EventLog::instance();
    EXPECT_FALSE(events::enabled());
    ASSERT_TRUE(log.open(path, "main"));
    EXPECT_TRUE(events::enabled());
    EXPECT_EQ(log.path(), path);

    {
        events::Span outer("sweep.run", "jobs=2");
        {
            events::Span inner("job.run", "index=0");
            events::instant("job.restored", "index=1");
            inner.end("ok=1");
        }
        std::thread other(
            [] { events::instant("job.retry", "attempt=1"); });
        other.join();
        outer.end("failed=0");
    }
    log.close();
    EXPECT_FALSE(events::enabled());

    // Every line of the file is valid JSON on its own.
    std::istringstream lines(readWholeFile(path));
    std::string line;
    std::size_t n = 0;
    while (std::getline(lines, line)) {
        EXPECT_TRUE(jsonValidate(line)) << line;
        ++n;
    }
    EXPECT_GE(n, 2u); // header + trailer at minimum

    const auto f = events::parseEventFile(path);
    ASSERT_TRUE(f.ok);
    EXPECT_EQ(f.role, "main");
    EXPECT_GT(f.pid, 0);
    EXPECT_GT(f.wallUs, 0u);
    EXPECT_EQ(f.dropped, 0u);
    EXPECT_EQ(f.skippedLines, 0u);
    ASSERT_EQ(f.events.size(), 6u); // 2 B + 2 E + 2 i

    // B precedes its E for every span id; timestamps are monotone in
    // file order; the nested span closes before the outer one.
    std::map<std::uint64_t, std::size_t> begins;
    std::map<std::uint64_t, std::size_t> ends;
    for (std::size_t i = 0; i < f.events.size(); ++i) {
        const auto &e = f.events[i];
        EXPECT_TRUE(events::isRegisteredEventName(e.name)) << e.name;
        if (i > 0) {
            EXPECT_GE(e.t, f.events[i - 1].t) << i;
        }
        if (e.phase == 'B')
            begins[e.id] = i;
        else if (e.phase == 'E')
            ends[e.id] = i;
    }
    ASSERT_EQ(begins.size(), 2u);
    ASSERT_EQ(ends.size(), 2u);
    for (const auto &[id, bi] : begins) {
        ASSERT_TRUE(ends.count(id)) << id;
        EXPECT_LT(bi, ends[id]);
    }

    // The second thread got its own tid.
    std::set<std::uint32_t> tids;
    for (const auto &e : f.events)
        tids.insert(e.tid);
    EXPECT_EQ(tids.size(), 2u);

    std::remove(path.c_str());
}

TEST(EventLog, BufferBoundCountsDropsIntoTheTrailer)
{
    const std::string path = "test_observability_drops.jsonl";
    events::EventLog &log = events::EventLog::instance();
    ASSERT_TRUE(log.open(path, "main", /*maxEvents=*/4));
    for (int i = 0; i < 10; ++i)
        events::instant("job.restored");
    EXPECT_EQ(log.dropped(), 6u);
    log.close();

    const auto f = events::parseEventFile(path);
    ASSERT_TRUE(f.ok);
    EXPECT_EQ(f.events.size(), 4u);
    EXPECT_EQ(f.dropped, 6u); // from the trailer
    std::remove(path.c_str());
}

TEST(EventLog, TornAndForeignLinesAreSkippedNotFatal)
{
    const std::string path = "test_observability_torn.jsonl";
    writeWholeFile(
        path,
        "{\"schema\": \"manna-events-v1\", \"role\": \"daemon\", "
        "\"pid\": 42, \"wall_us\": 1000000, \"mono_ns\": 5, "
        "\"sync_us\": 0}\n"
        "{\"name\": \"job.run\", \"ph\": \"B\", \"t\": 1000, "
        "\"tid\": 0, \"id\": 1, \"detail\": \"index=0\"}\n"
        "not json at all\n"
        "{\"name\": \"job.run\", \"ph\": \"E\", \"t\": 2000, "
        "\"tid\": 0, \"id\": 1}\n"
        "{\"name\": \"job.att"); // torn mid-write by a kill
    const auto f = events::parseEventFile(path);
    ASSERT_TRUE(f.ok);
    EXPECT_EQ(f.role, "daemon");
    EXPECT_EQ(f.pid, 42);
    EXPECT_EQ(f.wallUs, 1000000u);
    ASSERT_EQ(f.events.size(), 2u);
    EXPECT_EQ(f.skippedLines, 2u);

    const auto missing = events::parseEventFile("no/such/file.jsonl");
    EXPECT_FALSE(missing.ok);
    std::remove(path.c_str());
}

TEST(HarnessTrace, MergedMultiProcessTraceSortedAndClockAligned)
{
    const std::string bench = "test_observability_main.events";
    const std::string d0 = "test_observability_d0.events";
    const std::string d1 = "test_observability_d1.events";
    // The bench process: earliest wall clock (the merge zero).
    writeWholeFile(
        bench,
        "{\"schema\": \"manna-events-v1\", \"role\": \"main\", "
        "\"pid\": 100, \"wall_us\": 1000000, \"mono_ns\": 1, "
        "\"sync_us\": 0}\n"
        "{\"name\": \"sweep.run\", \"ph\": \"B\", \"t\": 0, "
        "\"tid\": 0, \"id\": 1, \"detail\": \"jobs=3\"}\n"
        "{\"name\": \"job.retry\", \"ph\": \"i\", "
        "\"t\": 4000000, \"tid\": 0, \"id\": 0}\n"
        "{\"name\": \"sweep.run\", \"ph\": \"E\", "
        "\"t\": 5000000, \"tid\": 0, \"id\": 1}\n"
        "{\"schema\": \"manna-events-v1-end\", \"written\": 3, "
        "\"dropped\": 0}\n");
    // A daemon whose clock reads 2ms later; an unmatched B (killed
    // before the span closed) must come out truncated.
    writeWholeFile(
        d0,
        "{\"schema\": \"manna-events-v1\", \"role\": \"daemon\", "
        "\"pid\": 101, \"wall_us\": 1002000, \"mono_ns\": 1, "
        "\"sync_us\": 0}\n"
        "{\"name\": \"job.run\", \"ph\": \"B\", \"t\": 1000000, "
        "\"tid\": 0, \"id\": 1, \"detail\": \"index=3\"}\n"
        "{\"name\": \"job.run\", \"ph\": \"E\", \"t\": 2000000, "
        "\"tid\": 0, \"id\": 1, \"detail\": \"ok=1\"}\n"
        "{\"name\": \"job.attempt\", \"ph\": \"B\", \"t\": 2500000, "
        "\"tid\": 0, \"id\": 2}\n");
    // A restarted daemon, 3ms after the bench process started.
    writeWholeFile(
        d1,
        "{\"schema\": \"manna-events-v1\", \"role\": \"daemon\", "
        "\"pid\": 102, \"wall_us\": 1003000, \"mono_ns\": 1, "
        "\"sync_us\": 0}\n"
        "{\"name\": \"job.run\", \"ph\": \"B\", \"t\": 0, "
        "\"tid\": 0, \"id\": 1}\n"
        "{\"name\": \"job.run\", \"ph\": \"E\", \"t\": 1000000, "
        "\"tid\": 0, \"id\": 1}\n"
        "{\"schema\": \"manna-events-v1-end\", \"written\": 2, "
        "\"dropped\": 0}\n");

    const std::string json = renderHarnessTrace({bench, d0, d1});
    EXPECT_TRUE(jsonValidate(json)) << json;
    EXPECT_NE(json.find("manna-harness-trace-v1"), std::string::npos);
    EXPECT_NE(json.find("\"files\":3"), std::string::npos);

    // One trace pid per file, in registration order, named by role.
    EXPECT_NE(json.find("{\"ph\":\"M\",\"pid\":1,\"tid\":0,"
                        "\"name\":\"process_name\",\"args\":"
                        "{\"name\":\"main (pid 100)\"}}"),
              std::string::npos);
    EXPECT_NE(json.find("\"name\":\"daemon (pid 101)\""),
              std::string::npos);
    EXPECT_NE(json.find("\"name\":\"daemon (pid 102)\""),
              std::string::npos);

    // Clock alignment: each file is offset by its wall delta, so the
    // first daemon's job.run B at t=1ms lands at ts=3000µs (+2000µs)
    // with dur 1000µs, as does the second's at t=0 (+3000µs).
    EXPECT_NE(json.find("\"ts\":3000.000,\"dur\":1000.000,"
                        "\"name\":\"job.run\""),
              std::string::npos)
        << json;
    std::size_t jobRuns = 0;
    for (std::size_t at = json.find("\"name\":\"job.run\"");
         at != std::string::npos;
         at = json.find("\"name\":\"job.run\"", at + 1))
        ++jobRuns;
    EXPECT_EQ(jobRuns, 2u);
    // The unmatched B closed at the file's last timestamp, tagged.
    EXPECT_NE(json.find("\"truncated\":\"1\""), std::string::npos);
    // Detail strings ride into args.
    EXPECT_NE(json.find("\"detail\":\"jobs=3\""), std::string::npos);
    EXPECT_NE(json.find("\"end\":\"ok=1\""), std::string::npos);

    // Merged events are sorted by ts across processes.
    std::istringstream lines(json);
    std::string line;
    double lastTs = -1.0;
    std::size_t timed = 0;
    while (std::getline(lines, line)) {
        const auto at = line.find("\"ts\":");
        if (at == std::string::npos)
            continue;
        const double ts = std::atof(line.c_str() + at + 5);
        EXPECT_GE(ts, lastTs) << line;
        lastTs = ts;
        ++timed;
    }
    EXPECT_EQ(timed, 5u); // 2 main + 2 first daemon + 1 second

    std::remove(bench.c_str());
    std::remove(d0.c_str());
    std::remove(d1.c_str());
}

TEST(HarnessTrace, WriteHarnessTraceEndToEnd)
{
    EXPECT_FALSE(writeHarnessTrace(HarnessTraceOptions{}));

    const std::string eventsPath = "test_observability_e2e.events";
    events::EventLog &log = events::EventLog::instance();
    ASSERT_TRUE(log.open(eventsPath, "main"));
    {
        events::Span span("sweep.run", "jobs=1");
    }
    HarnessTraceOptions opts;
    opts.path = "test_observability_e2e.trace.json";
    ASSERT_TRUE(writeHarnessTrace(opts));
    EXPECT_FALSE(events::enabled()); // the render closed the log

    const std::string json = readWholeFile(opts.path);
    EXPECT_TRUE(jsonValidate(json)) << json;
    EXPECT_NE(json.find("manna-harness-trace-v1"), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"sweep.run\""), std::string::npos);
    std::remove(eventsPath.c_str());
    std::remove(opts.path.c_str());
}

TEST(EventKnobs, ConfigArmsTheLogAndEnvIsTheFallback)
{
    const char *argv[] = {"prog",
                          "events=test_observability_knob.events",
                          "events_limit=8"};
    const Config cfg = Config::fromArgs(3, argv);
    events::configureFromConfig(cfg, "main");
    EXPECT_TRUE(events::enabled());
    EXPECT_EQ(events::EventLog::instance().path(),
              "test_observability_knob.events");
    events::EventLog::instance().close();
    EXPECT_FALSE(events::enabled());
    std::remove("test_observability_knob.events");

    // No knob, no env: stays disarmed.
    events::configureFromConfig(Config{}, "main");
    EXPECT_FALSE(events::enabled());

    ::setenv("MANNA_EVENTS", "test_observability_env.events", 1);
    events::configureFromConfig(Config{}, "daemon");
    EXPECT_TRUE(events::enabled());
    events::EventLog::instance().close();
    ::unsetenv("MANNA_EVENTS");
    const auto f =
        events::parseEventFile("test_observability_env.events");
    ASSERT_TRUE(f.ok);
    EXPECT_EQ(f.role, "daemon");
    std::remove("test_observability_env.events");
}

TEST(HarnessTraceOptions, ParsedFromConfigAndEnvironment)
{
    const char *argv[] = {"prog", "harness_trace=/tmp/h.json"};
    const Config cfg = Config::fromArgs(2, argv);
    const HarnessTraceOptions opts = harnessTraceOptionsFromConfig(cfg);
    EXPECT_TRUE(opts.enabled());
    EXPECT_EQ(opts.path, "/tmp/h.json");

    ::setenv("MANNA_HARNESS_TRACE", "/tmp/envh.json", 1);
    EXPECT_EQ(harnessTraceOptionsFromConfig(Config{}).path,
              "/tmp/envh.json");
    ::unsetenv("MANNA_HARNESS_TRACE");
    EXPECT_FALSE(harnessTraceOptionsFromConfig(Config{}).enabled());
}

// --- metrics sampling ----------------------------------------------

TEST(Metrics, SampleRenderIsDeterministicAndValid)
{
    MetricsSample s;
    s.elapsedSeconds = 1.5;
    s.jobsTotal = 12;
    s.done = 7;
    s.failed = 1;
    s.restored = 2;
    s.queueDepth = 5;
    s.jobsPerSecond = 4.0 + 2.0 / 3.0;
    s.compileCacheHits = 3;
    s.compileCacheMisses = 4;
    s.journalBytes = 2048;
    s.rssKb = 4096;
    const std::string a = renderMetricsSample(s);
    EXPECT_EQ(a, renderMetricsSample(s)); // byte-identical
    EXPECT_TRUE(jsonValidate(a)) << a;
    EXPECT_NE(a.find("\"done\": 7"), std::string::npos);
    EXPECT_NE(a.find("\"queue_depth\": 5"), std::string::npos);
    EXPECT_NE(a.find("\"journal_bytes\": 2048"), std::string::npos);

    const std::string header = renderMetricsHeader("daemon", 0.25);
    EXPECT_TRUE(jsonValidate(header)) << header;
    EXPECT_NE(header.find("manna-metrics-v1"), std::string::npos);
    EXPECT_NE(header.find("\"role\": \"daemon\""),
              std::string::npos);
    EXPECT_NE(header.find("\"interval_seconds\": 0.25"),
              std::string::npos);

    EXPECT_GT(processRssKb(), 0u); // /proc/self/status on Linux
}

TEST(Metrics, SamplerWritesHeaderAndAFinalSample)
{
    MetricsOptions opts;
    opts.path = "test_observability_metrics.jsonl";
    opts.intervalSeconds = 60.0; // only the final flush fires
    MetricsSample fixed;
    fixed.jobsTotal = 9;
    fixed.done = 9;
    {
        MetricsSampler sampler(opts, "main", [&] { return fixed; });
    }
    std::istringstream lines(readWholeFile(opts.path));
    std::string line;
    std::vector<std::string> got;
    while (std::getline(lines, line)) {
        EXPECT_TRUE(jsonValidate(line)) << line;
        got.push_back(line);
    }
    ASSERT_GE(got.size(), 2u); // header + the destructor's sample
    EXPECT_NE(got[0].find("manna-metrics-v1"), std::string::npos);
    EXPECT_NE(got[0].find("\"role\": \"main\""), std::string::npos);
    EXPECT_NE(got.back().find("\"done\": 9"), std::string::npos);
    std::remove(opts.path.c_str());

    // Disabled options spawn nothing and write nothing.
    MetricsSampler off(MetricsOptions{}, "main",
                       [&] { return fixed; });
}

TEST(MetricsKnobs, ParsedWithValidationThroughSweepOptions)
{
    const char *argv[] = {"prog", "metrics=/tmp/m.jsonl",
                          "metrics_interval=0.5"};
    const Config cfg = Config::fromArgs(3, argv);
    const SweepOptions opts = sweepOptionsFromConfig(cfg);
    EXPECT_TRUE(opts.metrics.enabled());
    EXPECT_EQ(opts.metrics.path, "/tmp/m.jsonl");
    EXPECT_EQ(opts.metrics.intervalSeconds, 0.5);

    ::setenv("MANNA_METRICS", "/tmp/envm.jsonl", 1);
    ::setenv("MANNA_METRICS_INTERVAL", "2.5", 1);
    const SweepOptions fromEnv = sweepOptionsFromConfig(Config{});
    EXPECT_EQ(fromEnv.metrics.path, "/tmp/envm.jsonl");
    EXPECT_EQ(fromEnv.metrics.intervalSeconds, 2.5);
    ::unsetenv("MANNA_METRICS");
    ::unsetenv("MANNA_METRICS_INTERVAL");

    // A non-positive interval is rejected back to the default.
    const char *bad[] = {"prog", "metrics=/tmp/m.jsonl",
                         "metrics_interval=0"};
    const SweepOptions sane =
        sweepOptionsFromConfig(Config::fromArgs(3, bad));
    EXPECT_EQ(sane.metrics.intervalSeconds, 1.0);

    EXPECT_FALSE(
        sweepOptionsFromConfig(Config{}).metrics.enabled());
}

// -- events= + server= interaction (docs/SERVICE.md) -------------------

TEST(ServiceTrace, DaemonSpansLandInTheMergedHarnessTrace)
{
    const std::string path = "test_observability_service.events";
    events::EventLog &log = events::EventLog::instance();
    ASSERT_TRUE(log.open(path, "client"));

    std::vector<SweepJob> jobs;
    const auto bench = workloads::tinyBenchmark();
    for (std::uint64_t seed : {1u, 2u, 3u, 4u})
        jobs.push_back(
            {bench, arch::MannaConfig::withTiles(4), 2, seed});

    {
        server::ServerOptions sopts;
        sopts.address = strformat("/tmp/manna-obs-test-%d.sock",
                                  static_cast<int>(::getpid()));
        sopts.pool = 2;
        sopts.eventsPath = path; // advertised to clients in HelloOk
        server::Server daemon(std::move(sopts));
        daemon.start();

        SweepRunner runner(2);
        SweepOptions opts;
        opts.server = daemon.boundAddress();
        const SweepReport report =
            client::runServerSweep(runner, jobs, opts);
        EXPECT_EQ(report.failures(), 0u);
        daemon.stop();
    }

    // The daemon's advertised event file is registered for the
    // merge (deduplicated here: in-process it IS the client's file).
    const auto merge = log.mergeFiles();
    ASSERT_EQ(merge.size(), 1u);
    EXPECT_EQ(merge[0], path);
    log.close();

    const auto f = events::parseEventFile(path);
    ASSERT_TRUE(f.ok);
    std::size_t accepts = 0, enqueues = 0, connSpans = 0, runSpans = 0;
    std::set<std::uint32_t> tids;
    for (const auto &e : f.events) {
        EXPECT_TRUE(events::isRegisteredEventName(e.name)) << e.name;
        tids.insert(e.tid);
        if (e.name == "server.accept")
            ++accepts;
        else if (e.name == "job.enqueue")
            ++enqueues;
        else if (e.name == "server.conn" && e.phase == 'B')
            ++connSpans;
        else if (e.name == "server.run" && e.phase == 'B')
            ++runSpans;
    }
    EXPECT_EQ(runSpans, 1u);
    EXPECT_GE(accepts, 1u);
    EXPECT_GE(connSpans, 1u);
    EXPECT_EQ(enqueues, jobs.size());
    // Distinct threads are distinct trace lanes: at least the client
    // sweep thread, the daemon accept thread, and the dispatch
    // thread emitted something.
    EXPECT_GE(tids.size(), 3u);

    // And the merged render is a loadable harness trace carrying the
    // daemon-side spans.
    const std::string json = renderHarnessTrace({path});
    EXPECT_TRUE(jsonValidate(json)) << json;
    EXPECT_NE(json.find("\"name\":\"server.run\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"job.enqueue\""),
              std::string::npos);
    std::remove(path.c_str());
}

} // namespace
} // namespace manna::harness
