/**
 * @file
 * Tier-1 tests for the fault-isolation layer of the sweep runner:
 * structured per-job outcomes, retry with backoff, the wall-clock
 * watchdog + cooperative cancellation, and the crash-safe
 * checkpoint/resume journal.
 *
 * The invariant under test throughout: none of the robustness
 * machinery may change what a successful sweep produces. A resumed or
 * retried sweep's results must be bit-identical to an uninterrupted
 * single-attempt run.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <thread>

#include <unistd.h>

#include "common/config.hh"
#include "common/error.hh"
#include "common/fault.hh"
#include "common/fileio.hh"
#include "common/shutdown.hh"
#include "common/strutil.hh"
#include "compiler/compile_cache.hh"
#include "harness/journal.hh"
#include "harness/sweep.hh"
#include "workloads/benchmarks.hh"

namespace manna::harness
{
namespace
{

/** Deterministic synthetic result with "awkward" doubles (values
 * that a %f/%g round-trip would corrupt, unlike the journal's
 * hexfloats). */
MannaResult
fakeResult(std::size_t tag)
{
    MannaResult r;
    r.report.steps = tag + 1;
    r.report.totalCycles = 1000 + tag;
    r.report.totalSeconds = 1.0 / 3.0 + 0.125 * static_cast<double>(tag);
    r.report.dynamicEnergyPj = 1e3 / static_cast<double>(tag + 3);
    r.report.leakageEnergyPj = 0.1 * static_cast<double>(tag) + 1e-7;
    r.report.infrastructureEnergyPj = 2.0 / 7.0;
    r.report.groups[mann::KernelGroup::Heads] = {10 + tag, 1.0 / 9.0};
    r.report.groups[mann::KernelGroup::SoftRead] = {20 + tag, 3.25};
    r.report.resourceUtilization["emac"] =
        0.5 + 0.01 * static_cast<double>(tag);
    r.secondsPerStep = r.report.totalSeconds /
                       static_cast<double>(r.report.steps);
    r.joulesPerStep = 1e-12 * r.report.dynamicEnergyPj;
    r.groupSeconds[mann::KernelGroup::Heads] = 1.0 / 7.0;
    return r;
}

/** No-retry options, independent of the MANNA_RETRIES environment
 * (the test_sweep_retries ctest entry runs suites with it set). */
SweepOptions
noRetry()
{
    SweepOptions opts;
    opts.retries = 0;
    return opts;
}

std::string
tempPath(const std::string &name)
{
    const std::string path = ::testing::TempDir() + name;
    std::remove(path.c_str());
    return path;
}

TEST(FaultIsolation, ThrowingJobDoesNotKillSweep)
{
    SweepRunner runner(4);
    const std::vector<std::string> labels{"j0", "j1", "j2", "j3", "j4"};
    const auto report = runner.runIsolated(
        5,
        [](std::size_t i, const CancelToken &) -> MannaResult {
            if (i == 2)
                throw std::runtime_error("boom");
            return fakeResult(i);
        },
        labels, {}, noRetry());

    ASSERT_EQ(report.outcomes.size(), 5u);
    EXPECT_EQ(report.failures(), 1u);
    EXPECT_FALSE(report.allOk());
    for (std::size_t i = 0; i < 5; ++i) {
        SCOPED_TRACE(i);
        EXPECT_EQ(report.outcomes[i].ok, i != 2);
        EXPECT_EQ(report.outcomes[i].attempts, 1u);
    }
    const auto &failed = report.outcomes[2];
    EXPECT_EQ(failed.error.kind, ErrorKind::Sim);
    EXPECT_EQ(failed.error.message, "boom");
    EXPECT_EQ(failed.error.job, "j2");

    // Successful neighbors carry the values the job bodies returned.
    EXPECT_EQ(encodeResult(report.outcomes[3].value),
              encodeResult(fakeResult(3)));
}

TEST(FaultIsolation, SummaryIsDeterministicAndSubmissionOrdered)
{
    auto fn = [](std::size_t i, const CancelToken &) -> MannaResult {
        if (i == 1)
            throw ConfigError("bad shape",
                              ErrorContext{0xabcdull, ""});
        if (i == 3)
            throw std::runtime_error("flaky");
        return fakeResult(i);
    };
    SweepOptions opts = noRetry();
    opts.retries = 2;
    opts.backoffBaseMs = 1;
    opts.backoffCapMs = 2;
    const std::vector<std::string> labels{"a", "b", "c", "d"};

    SweepRunner runner(4);
    const auto first = runner.runIsolated(4, fn, labels, {}, opts);
    const auto second = runner.runIsolated(4, fn, labels, {}, opts);

    EXPECT_EQ(first.failures(), 2u);
    const std::string summary = first.failureSummary();
    // Byte-identical across runs (wall-clock never leaks in).
    EXPECT_EQ(summary, second.failureSummary());
    EXPECT_NE(summary.find("2 of 4 sweep jobs failed"),
              std::string::npos);
    // Submission order, regardless of completion order.
    const auto pos1 = summary.find("#1");
    const auto pos3 = summary.find("#3");
    ASSERT_NE(pos1, std::string::npos);
    ASSERT_NE(pos3, std::string::npos);
    EXPECT_LT(pos1, pos3);
    // Structured context makes it into the report.
    EXPECT_NE(summary.find("ConfigError: bad shape"),
              std::string::npos);
    EXPECT_NE(summary.find("fp=0x000000000000abcd"),
              std::string::npos);
    // The deterministic failure kept attempts=1; the flaky one burned
    // the full budget.
    EXPECT_EQ(first.outcomes[1].attempts, 1u);
    EXPECT_EQ(first.outcomes[3].attempts, 3u);
}

TEST(FaultIsolation, RetrySucceedsOnNthAttempt)
{
    std::atomic<int> calls{0};
    SweepOptions opts = noRetry();
    opts.retries = 3;
    opts.backoffBaseMs = 1;
    opts.backoffCapMs = 2;

    SweepRunner runner(1);
    const auto report = runner.runIsolated(
        1,
        [&calls](std::size_t, const CancelToken &) -> MannaResult {
            if (calls.fetch_add(1) < 2)
                throw SimError("transient");
            return fakeResult(7);
        },
        {}, {}, opts);

    ASSERT_EQ(report.outcomes.size(), 1u);
    const auto &out = report.outcomes[0];
    EXPECT_TRUE(out.ok);
    EXPECT_EQ(out.attempts, 3u); // failed twice, succeeded third
    EXPECT_EQ(calls.load(), 3);
    // A success after retries reports no residual error...
    EXPECT_TRUE(out.error.message.empty());
    // ...and the value is exactly what the successful attempt made.
    EXPECT_EQ(encodeResult(out.value), encodeResult(fakeResult(7)));
}

TEST(FaultIsolation, DeterministicInputErrorsAreNotRetried)
{
    std::atomic<int> calls{0};
    SweepOptions opts = noRetry();
    opts.retries = 5;
    opts.backoffBaseMs = 1;

    SweepRunner runner(1);
    const auto report = runner.runIsolated(
        1,
        [&calls](std::size_t, const CancelToken &) -> MannaResult {
            calls.fetch_add(1);
            throw AssemblyError("capacity violation");
        },
        {}, {}, opts);

    const auto &out = report.outcomes[0];
    EXPECT_FALSE(out.ok);
    EXPECT_EQ(out.error.kind, ErrorKind::Assembly);
    EXPECT_EQ(out.attempts, 1u);
    EXPECT_EQ(calls.load(), 1); // retry budget untouched
}

TEST(FaultIsolation, WatchdogCancelsHungJob)
{
    SweepOptions opts = noRetry();
    opts.timeoutSeconds = 0.05;

    SweepRunner runner(2);
    const auto report = runner.runIsolated(
        2,
        [](std::size_t i, const CancelToken &cancel) -> MannaResult {
            if (i == 0)
                return fakeResult(0); // healthy sibling
            // Simulated hang with a ~10 s failsafe so a broken
            // watchdog fails the test instead of wedging the suite.
            for (int iter = 0; iter < 2000; ++iter) {
                if (cancel.cancelled())
                    throw SimError("cancelled by watchdog");
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(5));
            }
            return fakeResult(99); // watchdog never fired
        },
        {"healthy", "hung"}, {}, opts);

    EXPECT_TRUE(report.outcomes[0].ok);
    const auto &hung = report.outcomes[1];
    EXPECT_FALSE(hung.ok);
    EXPECT_EQ(hung.error.kind, ErrorKind::Sim);
    EXPECT_NE(hung.error.message.find("cancelled"), std::string::npos);
    EXPECT_LT(hung.wallMs, 9000.0);
}

TEST(CancelToken, ChipHonorsCancellation)
{
    const auto &bench = workloads::benchmarkByName("recall");
    const auto model = compiler::compileCached(
        bench.config, arch::MannaConfig::withTiles(4));

    // A pre-fired token stops the simulation at the first step...
    CancelToken fired;
    fired.cancel();
    EXPECT_THROW(runCompiled(bench, *model, 2, 1, &fired), SimError);

    // ...and a token that never fires must not perturb results.
    CancelToken idle;
    const auto with = runCompiled(bench, *model, 2, 1, &idle);
    const auto without = runCompiled(bench, *model, 2, 1);
    EXPECT_EQ(encodeResult(with), encodeResult(without));
}

TEST(Journal, EncodeDecodeRoundTripIsExact)
{
    // A real simulated result exercises every field family.
    const auto &bench = workloads::benchmarkByName("recall");
    const auto model = compiler::compileCached(
        bench.config, arch::MannaConfig::withTiles(4));
    const auto result = runCompiled(bench, *model, 2, 1);

    const std::string line = encodeResult(result);
    const auto decoded = decodeResult(line);
    ASSERT_TRUE(decoded.has_value());
    // Bit-exact round trip: re-encoding reproduces the line.
    EXPECT_EQ(encodeResult(*decoded), line);
    EXPECT_EQ(decoded->report.totalCycles, result.report.totalCycles);
    EXPECT_EQ(decoded->report.totalSeconds, result.report.totalSeconds);
    EXPECT_EQ(decoded->joulesPerStep, result.joulesPerStep);
    EXPECT_EQ(decoded->groupSeconds, result.groupSeconds);

    // Synthetic awkward doubles round-trip too.
    const std::string fake = encodeResult(fakeResult(5));
    ASSERT_TRUE(decodeResult(fake).has_value());
    EXPECT_EQ(encodeResult(*decodeResult(fake)), fake);

    // Malformed / torn lines are rejected, not mis-parsed.
    EXPECT_FALSE(decodeResult("").has_value());
    EXPECT_FALSE(decodeResult("v0 s 1").has_value());
    EXPECT_FALSE(
        decodeResult(line.substr(0, line.size() / 2)).has_value());
    EXPECT_FALSE(decodeResult(line + " trailing").has_value());
}

TEST(Journal, LoadToleratesTornAndForeignLines)
{
    const std::string path = tempPath("manna_torn.journal");
    const std::string good = encodeJournalLine(0xdeadbeefULL, fakeResult(1));
    {
        std::ofstream out(path);
        out << "# comment\n\n";
        out << good << "\n";
        out << good.substr(0, good.size() / 2); // torn final write
    }
    const auto loaded = loadJournal(path);
    ASSERT_EQ(loaded.size(), 1u);
    EXPECT_EQ(encodeResult(loaded.at(0xdeadbeefULL)),
              encodeResult(fakeResult(1)));
    std::remove(path.c_str());

    // A missing journal is an empty map, not an error.
    EXPECT_TRUE(loadJournal(tempPath("manna_absent.journal")).empty());
}

TEST(Journal, ResumeReproducesInterruptedSweepExactly)
{
    const auto &recall = workloads::benchmarkByName("recall");
    const auto &copy = workloads::benchmarkByName("copy");
    std::vector<SweepJob> jobs{
        {recall, arch::MannaConfig::withTiles(4), 2, 1},
        {recall, arch::MannaConfig::withTiles(8), 2, 1},
        {copy, arch::MannaConfig::withTiles(4), 2, 1},
    };

    SweepRunner runner(2);
    const auto baseline = runner.runChecked(jobs, noRetry());
    ASSERT_TRUE(baseline.allOk());

    // "Crash" after the first two jobs: journal only those.
    const std::string path = tempPath("manna_resume.journal");
    SweepOptions journaling = noRetry();
    journaling.journalPath = path;
    const std::vector<SweepJob> firstTwo{jobs[0], jobs[1]};
    ASSERT_TRUE(runner.runChecked(firstTwo, journaling).allOk());

    // Resume the full sweep from the journal.
    SweepOptions resuming = noRetry();
    resuming.resumeFrom = path;
    resuming.journalPath = path;
    const auto resumed = runner.runChecked(jobs, resuming);
    ASSERT_TRUE(resumed.allOk());

    EXPECT_TRUE(resumed.outcomes[0].fromJournal);
    EXPECT_TRUE(resumed.outcomes[1].fromJournal);
    EXPECT_FALSE(resumed.outcomes[2].fromJournal);
    EXPECT_EQ(resumed.outcomes[0].attempts, 0u);

    // The final report is byte-identical to the uninterrupted run.
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        SCOPED_TRACE(i);
        EXPECT_EQ(encodeResult(resumed.outcomes[i].value),
                  encodeResult(baseline.outcomes[i].value));
    }

    // A second resume finds every point completed.
    const auto again = runner.runChecked(jobs, resuming);
    ASSERT_TRUE(again.allOk());
    for (const auto &outcome : again.outcomes)
        EXPECT_TRUE(outcome.fromJournal);
    std::remove(path.c_str());
}

TEST(Journal, ResumesFromSeveralPartialJournals)
{
    // resume= takes a comma-separated list: two partial journals
    // (say, two interrupted runs) together seed one sweep, and only
    // the job missing from both re-runs.
    const std::string pathA = tempPath("manna_partial_a.journal");
    const std::string pathB = tempPath("manna_partial_b.journal");
    const std::vector<std::uint64_t> fps{11, 22, 33};
    SweepRunner runner(1);
    auto journalOne = [&](const std::string &path, std::size_t index) {
        SweepOptions journaling = noRetry();
        journaling.journalPath = path;
        return runner.runIsolated(
            1,
            [index](std::size_t, const CancelToken &) {
                return fakeResult(index);
            },
            {}, {fps[index]}, journaling);
    };
    ASSERT_TRUE(journalOne(pathA, 0).allOk());
    ASSERT_TRUE(journalOne(pathB, 2).allOk());

    SweepOptions resuming = noRetry();
    resuming.resumeFrom = pathA + "," + pathB;
    const auto resumed = runner.runIsolated(
        3,
        [](std::size_t i, const CancelToken &) { return fakeResult(i); },
        {}, fps, resuming);
    ASSERT_TRUE(resumed.allOk());
    EXPECT_TRUE(resumed.outcomes[0].fromJournal);
    EXPECT_FALSE(resumed.outcomes[1].fromJournal);
    EXPECT_TRUE(resumed.outcomes[2].fromJournal);
    for (std::size_t i = 0; i < 3; ++i)
        EXPECT_EQ(encodeResult(resumed.outcomes[i].value),
                  encodeResult(fakeResult(i)));
    std::remove(pathA.c_str());
    std::remove(pathB.c_str());
}

TEST(SweepOptions, ParsedFromConfigKnobs)
{
    Config cfg;
    cfg.set("retries", "3");
    cfg.set("timeout", "1.5");
    cfg.set("resume", "ckpt.journal");
    const SweepOptions opts = sweepOptionsFromConfig(cfg);
    EXPECT_EQ(opts.retries, 3u);
    EXPECT_DOUBLE_EQ(opts.timeoutSeconds, 1.5);
    EXPECT_EQ(opts.resumeFrom, "ckpt.journal");
    // resume= implies continuing to checkpoint into the same file.
    EXPECT_EQ(opts.journalPath, "ckpt.journal");

    Config explicitJournal;
    explicitJournal.set("journal", "out.journal");
    EXPECT_EQ(sweepOptionsFromConfig(explicitJournal).journalPath,
              "out.journal");
    EXPECT_EQ(sweepOptionsFromConfig(explicitJournal).resumeFrom, "");
}

TEST(Acceptance, MixedSweepRunsToCompletionDeterministically)
{
    // One invalid configuration amid healthy jobs: the sweep must
    // complete, attribute the failure precisely, and stay
    // reproducible.
    const auto &recall = workloads::benchmarkByName("recall");
    arch::MannaConfig bad = arch::MannaConfig::withTiles(4);
    bad.sfusPerTile = 0;
    std::vector<SweepJob> jobs{
        {recall, arch::MannaConfig::withTiles(4), 2, 1},
        {recall, bad, 2, 1},
        {recall, arch::MannaConfig::withTiles(8), 2, 1},
    };

    SweepOptions opts = noRetry();
    opts.retries = 2; // must not re-run the deterministic failure
    opts.backoffBaseMs = 1;

    SweepRunner runner(3);
    const auto first = runner.runChecked(jobs, opts);
    const auto second = runner.runChecked(jobs, opts);

    EXPECT_EQ(first.failures(), 1u);
    EXPECT_TRUE(first.outcomes[0].ok);
    EXPECT_TRUE(first.outcomes[2].ok);
    const auto &failed = first.outcomes[1];
    EXPECT_FALSE(failed.ok);
    EXPECT_EQ(failed.error.kind, ErrorKind::Config);
    EXPECT_EQ(failed.attempts, 1u);
    // The error carries the offending config's own fingerprint, so
    // the bad point is identifiable without re-running.
    EXPECT_EQ(failed.error.fingerprint, bad.fingerprint());
    EXPECT_NE(failed.error.job.find("recall"), std::string::npos);

    EXPECT_EQ(first.failureSummary(), second.failureSummary());
    for (std::size_t i : {0u, 2u})
        EXPECT_EQ(encodeResult(first.outcomes[i].value),
                  encodeResult(second.outcomes[i].value));

    // finishSweep converts the report into the process exit status.
    EXPECT_EQ(finishSweep(first), 1);
    SweepReport clean;
    clean.outcomes.push_back(JobOutcome{});
    clean.outcomes.back().ok = true;
    EXPECT_EQ(finishSweep(clean), 0);
}

/** Disarms every fault site on scope exit so an armed test can never
 * leak its schedule into later tests (or a leaked shutdown latch). */
struct FaultGuard
{
    FaultGuard() { fault::reset(); }
    ~FaultGuard()
    {
        fault::reset();
        resetShutdownForTest();
    }
};

TEST(FaultSpec, NamesRoundTripThroughTheRegistry)
{
    for (unsigned i = 0; i < fault::kNumSites; ++i) {
        const auto site = static_cast<fault::Site>(i);
        const auto back = fault::siteByName(fault::siteName(site));
        ASSERT_TRUE(back.has_value()) << fault::siteName(site);
        EXPECT_EQ(*back, site);
    }
    EXPECT_FALSE(fault::siteByName("journal.append.bogus"));
}

TEST(FaultSpec, OnceEveryAndProbSemantics)
{
    FaultGuard guard;
    ASSERT_TRUE(fault::tryConfigure("journal.fsync:once@2", 1));
    EXPECT_TRUE(fault::anyArmed());
    EXPECT_FALSE(fault::shouldFire(fault::Site::JournalFsync));
    EXPECT_TRUE(fault::shouldFire(fault::Site::JournalFsync));
    EXPECT_FALSE(fault::shouldFire(fault::Site::JournalFsync));
    EXPECT_EQ(fault::hitCount(fault::Site::JournalFsync), 3u);
    EXPECT_EQ(fault::fireCount(fault::Site::JournalFsync), 1u);

    ASSERT_TRUE(fault::tryConfigure("journal.close:every@2", 1));
    std::vector<bool> fires;
    for (int i = 0; i < 4; ++i)
        fires.push_back(fault::shouldFire(fault::Site::JournalClose));
    EXPECT_EQ(fires, (std::vector<bool>{false, true, false, true}));

    // prob@ endpoints are exact; mid probabilities are deterministic
    // functions of (seed, site, hit): re-arming replays the draws.
    ASSERT_TRUE(fault::tryConfigure("server.accept:prob@0", 42));
    for (int i = 0; i < 16; ++i)
        EXPECT_FALSE(fault::shouldFire(fault::Site::ServerAccept));
    ASSERT_TRUE(fault::tryConfigure("server.accept:prob@1", 42));
    for (int i = 0; i < 16; ++i)
        EXPECT_TRUE(fault::shouldFire(fault::Site::ServerAccept));
    std::vector<bool> first, second;
    ASSERT_TRUE(fault::tryConfigure("server.accept:prob@0.5", 42));
    for (int i = 0; i < 64; ++i)
        first.push_back(fault::shouldFire(fault::Site::ServerAccept));
    ASSERT_TRUE(fault::tryConfigure("server.accept:prob@0.5", 42));
    for (int i = 0; i < 64; ++i)
        second.push_back(fault::shouldFire(fault::Site::ServerAccept));
    EXPECT_EQ(first, second);
    // A fair coin over 64 draws lands strictly between the extremes.
    const auto fired = std::count(first.begin(), first.end(), true);
    EXPECT_GT(fired, 0);
    EXPECT_LT(fired, 64);
}

TEST(FaultSpec, MalformedSpecsAreRejectedWithoutDisarming)
{
    FaultGuard guard;
    ASSERT_TRUE(fault::tryConfigure("journal.fsync:once@3", 1));
    std::string error;
    EXPECT_FALSE(fault::tryConfigure("no-colon", 1, &error));
    EXPECT_NE(error.find("lacks ':'"), std::string::npos);
    EXPECT_FALSE(fault::tryConfigure("bogus.site:once@1", 1, &error));
    EXPECT_NE(error.find("unknown fault site"), std::string::npos);
    EXPECT_FALSE(fault::tryConfigure("journal.fsync:when@1", 1,
                                     &error));
    EXPECT_NE(error.find("unknown fault verb"), std::string::npos);
    EXPECT_FALSE(fault::tryConfigure("journal.fsync:once@0", 1,
                                     &error));
    EXPECT_FALSE(fault::tryConfigure("journal.fsync:prob@1.5", 1,
                                     &error));
    // Every rejection left the previous schedule armed.
    EXPECT_TRUE(fault::anyArmed());
    EXPECT_NE(fault::describeArmed().find("journal.fsync:once@3"),
              std::string::npos);
    // The documented disarm path: an empty spec.
    ASSERT_TRUE(fault::tryConfigure("", 1));
    EXPECT_FALSE(fault::anyArmed());
}

TEST(JournalChecksum, ChecksummedLineRoundTripsAndDetectsBitFlips)
{
    const std::string path = tempPath("manna_cksum.journal");
    const std::string line =
        encodeJournalLine(0x1234abcdULL, fakeResult(3));
    {
        std::ofstream out(path);
        out << line << "\n";
    }
    JournalLoadStats stats;
    auto loaded = loadJournal(path, &stats);
    ASSERT_EQ(loaded.size(), 1u);
    EXPECT_EQ(stats.records, 1u);
    EXPECT_EQ(stats.corruptRecords, 0u);
    EXPECT_EQ(encodeResult(loaded.at(0x1234abcdULL)),
              encodeResult(fakeResult(3)));

    // Flip one hex digit of the *fingerprint*: the line still parses
    // as well-formed v2, but the checksum catches it — without v3 the
    // record would silently resume under the wrong key.
    std::string flipped = line;
    flipped[4] = flipped[4] == '0' ? '1' : '0';
    {
        std::ofstream out(path);
        out << flipped << "\n";
    }
    JournalLoadStats corrupt;
    EXPECT_TRUE(loadJournal(path, &corrupt).empty());
    EXPECT_EQ(corrupt.records, 0u);
    EXPECT_EQ(corrupt.corruptRecords, 1u);
    std::remove(path.c_str());
}

TEST(JournalChecksum, UnchecksummedAndV1LinesAreCountedCorrupt)
{
    // Only checksummed v2 lines load. A well-formed v2 line without
    // the " k <checksum>" suffix, or a v1 line (the payload format
    // before the stat registry), counts as corrupt and its job
    // re-runs.
    std::string v1Payload = encodeResult(fakeResult(2));
    v1Payload = "v1" + v1Payload.substr(2, v1Payload.find(" r ") - 2);
    EXPECT_FALSE(decodeResult(v1Payload).has_value());

    const std::string path = tempPath("manna_legacy.journal");
    const std::string fp = strformat("%016llx ", 0xabcULL);
    {
        std::ofstream out(path);
        out << fp << encodeResult(fakeResult(1)) << "\n";
        out << fp << v1Payload << "\n";
        out << encodeJournalLine(0xdefULL, fakeResult(3)) << "\n";
    }
    JournalLoadStats stats;
    const auto loaded = loadJournal(path, &stats);
    ASSERT_EQ(loaded.size(), 1u);
    EXPECT_EQ(loaded.count(0xdefULL), 1u);
    EXPECT_EQ(stats.records, 1u);
    EXPECT_EQ(stats.corruptRecords, 2u);
    std::remove(path.c_str());
}

TEST(JournalChecksum, CorruptRecordNeverShadowsAnEarlierValidOne)
{
    // Satellite case: resume=a.journal,b.journal where the later
    // journal's copy of a fingerprint is damaged. Later files win on
    // duplicates, but a corrupt line is skipped, not merged — the
    // earlier valid record must survive.
    const std::string pathA = tempPath("manna_shadow_a.journal");
    const std::string pathB = tempPath("manna_shadow_b.journal");
    const std::uint64_t fp = 0xfeedULL;
    {
        std::ofstream a(pathA);
        a << encodeJournalLine(fp, fakeResult(1)) << "\n";
    }
    std::string later = encodeJournalLine(fp, fakeResult(2));
    later[later.size() / 2] ^= 0x1; // bit flip mid-payload
    {
        std::ofstream b(pathB);
        b << later << "\n";
    }
    JournalLoadStats stats;
    auto merged = loadJournals({pathA, pathB}, &stats);
    ASSERT_EQ(merged.size(), 1u);
    EXPECT_EQ(stats.records, 1u);
    EXPECT_EQ(stats.corruptRecords, 1u);
    EXPECT_EQ(encodeResult(merged.at(fp)),
              encodeResult(fakeResult(1)));

    // Control: with an intact later journal, the later record wins.
    {
        std::ofstream b(pathB);
        b << encodeJournalLine(fp, fakeResult(2)) << "\n";
    }
    auto control = loadJournals({pathA, pathB});
    EXPECT_EQ(encodeResult(control.at(fp)),
              encodeResult(fakeResult(2)));
    std::remove(pathA.c_str());
    std::remove(pathB.c_str());
}

TEST(FaultInjection, FailedAppendSurfacesIoErrorThenDegrades)
{
    FaultGuard guard;
    const std::string path = tempPath("manna_eio.journal");
    ASSERT_TRUE(fault::tryConfigure("journal.append.eio:once@1", 1));
    SweepJournal journal(path);
    ASSERT_TRUE(journal.ok());
    try {
        journal.append(1, fakeResult(1));
        FAIL() << "append did not throw";
    } catch (const IoError &e) {
        EXPECT_NE(std::string(e.what()).find("checkpointing disabled"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find(path),
                  std::string::npos);
    }
    // The journal closed itself: later appends are quiet no-ops, so
    // one bad disk does not spam an error per sweep job.
    EXPECT_FALSE(journal.ok());
    EXPECT_NO_THROW(journal.append(2, fakeResult(2)));
    EXPECT_NO_THROW(journal.sync());
    std::remove(path.c_str());
}

TEST(FaultInjection, SweepSurvivesJournalFailureMidRun)
{
    FaultGuard guard;
    const std::string path = tempPath("manna_degraded.journal");
    SweepOptions opts = noRetry();
    opts.journalPath = path;
    ASSERT_TRUE(fault::tryConfigure("journal.append.enospc:once@1", 1));

    SweepRunner runner(1);
    const auto report = runner.runIsolated(
        3,
        [](std::size_t i, const CancelToken &) {
            return fakeResult(i);
        },
        {}, {11, 22, 33}, opts);

    // The disk filling up costs the checkpoint, never the sweep.
    EXPECT_TRUE(report.allOk());
    for (std::size_t i = 0; i < 3; ++i)
        EXPECT_EQ(encodeResult(report.outcomes[i].value),
                  encodeResult(fakeResult(i)));
    std::remove(path.c_str());
}

TEST(FaultInjection, CorruptRecordOnResumeIsCountedAndRerun)
{
    FaultGuard guard;
    const std::string path = tempPath("manna_readcorrupt.journal");
    SweepOptions journaling = noRetry();
    journaling.journalPath = path;
    auto fn = [](std::size_t i, const CancelToken &) {
        return fakeResult(i);
    };
    SweepRunner runner(1);
    ASSERT_TRUE(
        runner.runIsolated(3, fn, {}, {11, 22, 33}, journaling)
            .allOk());

    // Resume with one record bit-flipped while being read: the
    // damaged job re-runs, the tally shows up in the report, and the
    // results are exactly what an undamaged resume produces.
    ASSERT_TRUE(fault::tryConfigure("journal.read.corrupt:once@1", 1));
    SweepOptions resuming = noRetry();
    resuming.resumeFrom = path;
    const auto resumed =
        runner.runIsolated(3, fn, {}, {11, 22, 33}, resuming);
    fault::reset();
    EXPECT_TRUE(resumed.allOk());
    EXPECT_EQ(resumed.journalCorruptRecords, 1u);
    std::size_t restored = 0;
    for (std::size_t i = 0; i < 3; ++i) {
        restored += resumed.outcomes[i].fromJournal ? 1u : 0u;
        EXPECT_EQ(encodeResult(resumed.outcomes[i].value),
                  encodeResult(fakeResult(i)));
    }
    EXPECT_EQ(restored, 2u); // exactly the two undamaged records
    EXPECT_NE(renderSweepStats(resumed)
                  .find("\"journal.corrupt_records\": 1"),
              std::string::npos);
    std::remove(path.c_str());
}

TEST(Shutdown, LatchAndTestResetWork)
{
    FaultGuard guard;
    EXPECT_FALSE(shutdownRequested());
    requestShutdown(SIGTERM);
    EXPECT_TRUE(shutdownRequested());
    EXPECT_EQ(shutdownSignal(), SIGTERM);
    resetShutdownForTest();
    EXPECT_FALSE(shutdownRequested());
    EXPECT_EQ(shutdownSignal(), 0);
}

TEST(Shutdown, InterruptedSweepFlushesJournalAndResumesExactly)
{
    FaultGuard guard;
    const std::string path = tempPath("manna_shutdown.journal");
    SweepOptions opts = noRetry();
    opts.journalPath = path;

    // Job 0 receives the "signal" while running; it completes and is
    // journaled, the jobs behind it never start.
    SweepRunner runner(1);
    const auto interrupted = runner.runIsolated(
        3,
        [](std::size_t i, const CancelToken &) {
            if (i == 0)
                requestShutdown(SIGTERM);
            return fakeResult(i);
        },
        {}, {11, 22, 33}, opts);
    resetShutdownForTest();

    ASSERT_EQ(interrupted.failures(), 2u);
    EXPECT_TRUE(interrupted.outcomes[0].ok);
    EXPECT_NE(interrupted.outcomes[1].error.message.find(
                  "interrupted by signal"),
              std::string::npos);

    // The flushed journal resumes to a byte-identical completion.
    SweepOptions resuming = noRetry();
    resuming.resumeFrom = path;
    const auto resumed = runner.runIsolated(
        3,
        [](std::size_t i, const CancelToken &) {
            return fakeResult(i);
        },
        {}, {11, 22, 33}, resuming);
    ASSERT_TRUE(resumed.allOk());
    EXPECT_TRUE(resumed.outcomes[0].fromJournal);
    for (std::size_t i = 0; i < 3; ++i)
        EXPECT_EQ(encodeResult(resumed.outcomes[i].value),
                  encodeResult(fakeResult(i)));
    std::remove(path.c_str());
}

TEST(FileIo, AtomicWriteLeavesNoTempFile)
{
    const std::string path = tempPath("manna_atomic.txt");
    ASSERT_TRUE(writeFileAtomic(path, "first\n"));
    ASSERT_TRUE(writeFileAtomic(path, "second\n")); // atomic replace
    std::ifstream in(path);
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    EXPECT_EQ(content, "second\n");
    // No temp file left behind next to the target.
    const std::string tmp =
        path + strformat(".tmp.%d", static_cast<int>(::getpid()));
    EXPECT_FALSE(std::filesystem::exists(tmp));
    std::remove(path.c_str());
}

} // namespace
} // namespace manna::harness
