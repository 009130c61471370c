/**
 * @file
 * Microbenchmarks of the reproduction's hot paths: tensor primitives
 * (the golden model's inner loops), the compiler, and the simulator's
 * instruction interpreter. These measure *host* performance of the
 * simulator itself, not the modeled accelerator.
 *
 * Self-timed (no external benchmark framework): each micro-bench
 * doubles its iteration count until one timed batch takes a fifth of
 * min_time= seconds (default 0.2), then reports the median ns/op of
 * five batches of that size. Execution goes
 * through the fault-isolated sweep harness, so bench=<name> filters,
 * jobs= (default 1 — concurrent timing perturbs results), and the
 * retries=/timeout=/stats=/bench_json= knobs all apply; a crashed or
 * failed micro-bench renders as a FAILED cell and makes the binary
 * exit nonzero. Timings are wall-clock measurements and are NOT
 * byte-identical across runs — only the table *structure* (the row
 * names and columns) is stable.
 *
 * The Kernel/<op>/{scalar,dispatch} rows time every entry of the SIMD
 * kernel table (tensor/dispatch.hh) through the scalar reference and
 * the runtime-dispatched path side by side, reporting effective GB/s
 * and GFLOP/s; the dispatch rows honor MANNA_SIMD. Row names say
 * "dispatch" rather than the selected level so the table structure is
 * identical on every host; the selected level is printed above the
 * table.
 *
 * The TimedStep/<bench>/<tiles>/{literal,fastforward} rows time one
 * cycle-mode chip step (timing, tape check and replay) of a Table-2
 * benchmark. The literal rows attach a zero-capacity TraceLogger, which
 * makes the tile interpreter time every instruction instead of
 * fast-forwarding steady-state loops (docs/PERF.md). The
 * RecordStep/<bench>/<tiles> rows time reset() plus the first step of
 * a fast chip: timing, tape recording, the tape passes and the replay.
 * The ReplayStep/<shape>/16 rows time one step of a fast chip past
 * its calibration steps, which only replays the sealed tape: shrdlu,
 * short (six keys per similarity sweep), bAbI and copy from Table 2,
 * and dnc1024, perfbench's 1024-row DNC.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <vector>

#include "common/config.hh"
#include "common/hash.hh"
#include "common/strutil.hh"
#include "common/table.hh"
#include "compiler/compiler.hh"
#include "compiler/dnc_codegen.hh"
#include "harness/observe.hh"
#include "harness/report.hh"
#include "harness/sweep.hh"
#include "mann/ntm.hh"
#include "sim/chip.hh"
#include "sim/dnc_chip.hh"
#include "tensor/dispatch.hh"
#include "tensor/matrix.hh"
#include "tensor/vector_ops.hh"
#include "workloads/benchmarks.hh"

using namespace manna;

namespace
{

/** Keep a computed value alive without spending time on it. */
template <typename T>
void
doNotOptimize(const T &value)
{
    asm volatile("" : : "g"(&value) : "memory");
}

tensor::FVec
randomVec(std::size_t n, Rng &rng)
{
    tensor::FVec v(n);
    for (auto &x : v)
        x = static_cast<float>(rng.gaussian(0.0, 1.0));
    return v;
}

/** One named micro-bench: body() runs the operation once. */
struct Micro
{
    std::string name;
    std::size_t itemsPerOp = 0; ///< 0 = no items/s column
    std::size_t bytesPerOp = 0; ///< floats streamed * 4; 0 = no GB/s
    std::size_t flopsPerOp = 0; ///< 0 = no GFLOP/s column
    std::function<void()> body;
};

/**
 * Time @p body: double the batch size until one timed batch takes a
 * fifth of @p minSeconds, then time five batches of that size and
 * report the median seconds per operation, so one slow window of a
 * shared host does not set the number.
 */
double
secondsPerOp(const std::function<void()> &body, double minSeconds)
{
    using Clock = std::chrono::steady_clock;
    constexpr std::size_t kBatches = 5;
    auto timeBatch = [&body](std::size_t batch) {
        const auto start = Clock::now();
        for (std::size_t i = 0; i < batch; ++i)
            body();
        return std::chrono::duration<double>(Clock::now() - start)
                   .count() /
               static_cast<double>(batch);
    };
    body(); // warm-up (page-in, caches, lazy init)
    std::size_t batch = 1;
    while (timeBatch(batch) * static_cast<double>(batch) <
               minSeconds / kBatches &&
           batch < (1u << 30))
        batch *= 2;
    std::vector<double> perOp;
    for (std::size_t b = 0; b < kBatches; ++b)
        perOp.push_back(timeBatch(batch));
    std::nth_element(perOp.begin(), perOp.begin() + kBatches / 2,
                     perOp.end());
    return perOp[kBatches / 2];
}

/** shrdlu's per-tile similarity sweep: 80 rows of 4,000 words, four
 * keys plus the row norms, served as the replay's RowDotSweep serves
 * them (pairs row by row, kDotPairs per dotPairs() call). */
constexpr std::size_t kSweepRows = 80;
constexpr std::size_t kSweepCols = 4000;
constexpr std::size_t kSweepKeys = 4;
constexpr std::size_t kSweepWords =
    kSweepRows * kSweepCols * (kSweepKeys + 1);

struct SimilaritySweep
{
    tensor::FVec mem;
    tensor::FVec keys;
    tensor::FVec dots = tensor::FVec(kSweepRows * (kSweepKeys + 1));

    explicit SimilaritySweep(Rng &rng)
        : mem(randomVec(kSweepRows * kSweepCols, rng)),
          keys(randomVec(kSweepKeys * kSweepCols, rng))
    {}

    void run(const tensor::simd::KernelTable &k)
    {
        constexpr std::size_t kLanes = tensor::simd::kDotPairs;
        const float *a[kLanes];
        const float *b[kLanes];
        float *d[kLanes];
        std::size_t lanes = 0;
        for (std::size_t r = 0; r < kSweepRows; ++r) {
            const float *row = mem.data() + r * kSweepCols;
            for (std::size_t v = 0; v <= kSweepKeys; ++v) {
                a[lanes] = row;
                b[lanes] = v < kSweepKeys ? keys.data() + v * kSweepCols
                                          : row;
                d[lanes] = dots.data() + v * kSweepRows + r;
                if (++lanes == kLanes) {
                    k.dotPairs(a, b, d, kSweepCols, 32);
                    lanes = 0;
                }
            }
        }
        doNotOptimize(dots[0]);
    }
};

/**
 * Kernel/<op>/{scalar,dispatch} micros: every entry of the SIMD
 * kernel table timed through the scalar reference and the dispatched
 * path on identical inputs. bytesPerOp counts streamed floats * 4
 * (reads + writes, read-modify-write destinations twice); flopsPerOp
 * counts arithmetic ops, with compares counted for the max pass.
 * dotPairs times a whole similarity sweep (SimilaritySweep); axpyRows
 * adds kAxpyRows rows into one destination.
 */
void
addKernelMicros(std::vector<Micro> &micros)
{
    constexpr std::size_t n = 4096;
    constexpr std::size_t taps = 3; // shiftRadius 1, the common case

    Rng rng(7);
    auto a = std::make_shared<tensor::FVec>(randomVec(n, rng));
    auto b = std::make_shared<tensor::FVec>(randomVec(n, rng));
    auto shift = std::make_shared<tensor::FVec>(randomVec(taps, rng));
    auto out = std::make_shared<tensor::FVec>(n, 0.0f);
    auto rows = std::make_shared<tensor::FVec>(
        randomVec(tensor::simd::kAxpyRows * n, rng));
    auto sweep = std::make_shared<SimilaritySweep>(rng);

    const struct
    {
        const char *name;
        const tensor::simd::KernelTable *table;
    } paths[] = {
        {"scalar", &tensor::simd::scalarKernels()},
        {"dispatch", &tensor::simd::kernels()},
    };

    for (const auto &path : paths) {
        const tensor::simd::KernelTable *k = path.table;
        const auto name = [&path](const char *op) {
            return strformat("Kernel/%s/%s", op, path.name);
        };
        micros.push_back({name("add"), n, 3 * n * sizeof(float), n,
                          [k, a, b, out] {
                              k->add(a->data(), b->data(),
                                     out->data(), n);
                              doNotOptimize((*out)[0]);
                          }});
        micros.push_back({name("mul"), n, 3 * n * sizeof(float), n,
                          [k, a, b, out] {
                              k->mul(a->data(), b->data(),
                                     out->data(), n);
                              doNotOptimize((*out)[0]);
                          }});
        micros.push_back({name("mac"), n, 4 * n * sizeof(float),
                          2 * n, [k, a, b, out] {
                              k->mac(a->data(), b->data(),
                                     out->data(), n);
                              doNotOptimize((*out)[0]);
                          }});
        micros.push_back({name("scale"), n, 2 * n * sizeof(float), n,
                          [k, a, out] {
                              k->scale(a->data(), 1.0000001f,
                                       out->data(), n);
                              doNotOptimize((*out)[0]);
                          }});
        micros.push_back({name("axpy"), n, 3 * n * sizeof(float),
                          2 * n, [k, a, out] {
                              k->axpy(0.5f, a->data(), out->data(),
                                      n);
                              doNotOptimize((*out)[0]);
                          }});
        micros.push_back({name("sum"), n, n * sizeof(float), n,
                          [k, a] {
                              doNotOptimize(k->sum(a->data(), n));
                          }});
        micros.push_back({name("dot"), n, 2 * n * sizeof(float),
                          2 * n, [k, a, b] {
                              doNotOptimize(
                                  k->dot(a->data(), b->data(), n));
                          }});
        micros.push_back({name("dotPairs"), kSweepWords,
                          (kSweepRows + kSweepKeys) * kSweepCols *
                              sizeof(float),
                          2 * kSweepWords, [k, sweep] { sweep->run(*k); }});
        micros.push_back({name("axpyRows"), tensor::simd::kAxpyRows * n,
                          (tensor::simd::kAxpyRows + 2) * n *
                              sizeof(float),
                          2 * tensor::simd::kAxpyRows * n, [k, rows, out] {
                              k->axpyRows(rows->data(), rows->data(), n,
                                          tensor::simd::kAxpyRows,
                                          out->data(), n);
                              doNotOptimize((*out)[0]);
                          }});
        micros.push_back({name("dotNorm"), n, 2 * n * sizeof(float),
                          4 * n, [k, a, b] {
                              float d = 0.0f, nrm = 0.0f;
                              k->dotNorm(a->data(), b->data(), n, &d,
                                         &nrm);
                              doNotOptimize(d);
                              doNotOptimize(nrm);
                          }});
        micros.push_back({name("scaleMax"), n, 2 * n * sizeof(float),
                          2 * n, [k, a, out] {
                              doNotOptimize(k->scaleMax(
                                  a->data(), 2.0f, out->data(), n));
                          }});
        micros.push_back({name("circularConvolve"), n,
                          2 * n * sizeof(float), 2 * taps * n,
                          [k, a, shift, out] {
                              k->circularConvolve(a->data(), n,
                                                  shift->data(), taps,
                                                  out->data());
                              doNotOptimize((*out)[0]);
                          }});
    }
}

/** A chip and its input, built on the first call of its micro's
 * body. */
struct TimedChip
{
    compiler::CompiledModel model;
    sim::TraceLogger literal{0};
    std::unique_ptr<sim::Chip> chip;
    tensor::FVec x;
};

void
addTimedStepMicros(std::vector<Micro> &micros)
{
    const struct
    {
        const char *bench;
        std::size_t tiles;
    } points[] = {{"copy", 1}, {"sort", 16}};
    enum class Mode
    {
        Literal,     // cycle mode, every instruction timed
        FastForward, // cycle mode, steady loops fast-forwarded
        Record,      // reset() and the recording step of a fast chip
    };
    for (const auto &point : points) {
        for (const Mode mode :
             {Mode::Literal, Mode::FastForward, Mode::Record}) {
            auto tc = std::make_shared<TimedChip>();
            const std::string bench = point.bench;
            const std::size_t tiles = point.tiles;
            micros.push_back(
                {mode == Mode::Record
                     ? strformat("RecordStep/%s/%zu", point.bench, tiles)
                     : strformat("TimedStep/%s/%zu/%s", point.bench,
                                 tiles,
                                 mode == Mode::Literal ? "literal"
                                                       : "fastforward"),
                 0, 0, 0, [tc, bench, tiles, mode] {
                     if (!tc->chip) {
                         const auto &cfg =
                             workloads::benchmarkByName(bench).config;
                         tc->model = compiler::compile(
                             cfg, arch::MannaConfig::withTiles(tiles));
                         tc->chip = std::make_unique<sim::Chip>(
                             tc->model, 1,
                             mode == Mode::Record ? sim::Fidelity::Fast
                                                  : sim::Fidelity::Cycle);
                         if (mode == Mode::Literal)
                             tc->chip->attachTrace(&tc->literal);
                         tc->x = tensor::FVec(cfg.inputDim, 0.1f);
                     }
                     if (mode == Mode::Record)
                         tc->chip->reset();
                     doNotOptimize(tc->chip->step(tc->x));
                 }});
        }
    }
}

/** A chip past its calibration steps (an NTM's or a DNC's), built on
 * the first call of its micro's body. */
struct ReplayChip
{
    compiler::CompiledModel model;
    compiler::CompiledDnc dncModel;
    std::unique_ptr<sim::Chip> chip;
    std::unique_ptr<sim::DncChip> dnc;
    tensor::FVec x;
};

void
addReplayStepMicros(std::vector<Micro> &micros)
{
    for (const char *shape :
         {"shrdlu", "short", "bAbI", "dnc1024", "copy"}) {
        auto rc = std::make_shared<ReplayChip>();
        const std::string name = shape;
        micros.push_back(
            {strformat("ReplayStep/%s/16", shape), 0, 0, 0, [rc, name] {
                 const auto ac = arch::MannaConfig::baseline16();
                 const auto step = [&rc] {
                     return rc->dnc ? rc->dnc->step(rc->x)
                                    : rc->chip->step(rc->x);
                 };
                 if (!rc->chip && !rc->dnc) {
                     if (name == "dnc1024") {
                         // perfbench's DNC: the graph-traversal task's
                         // widths, 64-word rows, 2 read heads.
                         const auto &travers =
                             workloads::benchmarkByName("travers").config;
                         mann::DncConfig cfg;
                         cfg.memN = 1024;
                         cfg.memM = 64;
                         cfg.numReadHeads = 2;
                         cfg.controllerWidth = 128;
                         cfg.inputDim = travers.inputDim;
                         cfg.outputDim = travers.outputDim;
                         rc->dncModel = compiler::compileDnc(cfg, ac);
                         rc->dnc = std::make_unique<sim::DncChip>(
                             rc->dncModel, 1, sim::Fidelity::Fast);
                         rc->x = tensor::FVec(cfg.inputDim, 0.1f);
                     } else {
                         const auto &cfg =
                             workloads::benchmarkByName(name).config;
                         rc->model = compiler::compile(cfg, ac);
                         rc->chip = std::make_unique<sim::Chip>(
                             rc->model, 1, sim::Fidelity::Fast);
                         rc->x = tensor::FVec(cfg.inputDim, 0.1f);
                     }
                     // The calibration steps time, record and check.
                     for (int s = 0; s < 2; ++s)
                         step();
                 }
                 doNotOptimize(step());
             }});
    }
}

std::vector<Micro>
buildMicros()
{
    std::vector<Micro> micros;

    addKernelMicros(micros);

    // Inputs are generated once per micro-bench (shared_ptr captured
    // by the body), so the timed region covers only the primitive.
    for (std::size_t n : {std::size_t{256}, std::size_t{4096}}) {
        Rng rng(1);
        auto a = std::make_shared<tensor::FVec>(randomVec(n, rng));
        auto b = std::make_shared<tensor::FVec>(randomVec(n, rng));
        micros.push_back({strformat("Dot/%zu", n), n,
                          2 * n * sizeof(float), 2 * n, [a, b] {
                              doNotOptimize(tensor::dot(*a, *b));
                          }});
    }

    for (std::size_t n : {std::size_t{1024}, std::size_t{4096}}) {
        Rng rng(2);
        auto a = std::make_shared<tensor::FVec>(randomVec(n, rng));
        micros.push_back(
            {strformat("Softmax/%zu", n), n, 0, 0, [a] {
                 doNotOptimize(tensor::softmax(*a, 2.0f));
             }});
    }

    for (std::size_t rows : {std::size_t{512}, std::size_t{4096}}) {
        Rng rng(3);
        auto mem = std::make_shared<tensor::FMat>(
            rows, 128, randomVec(rows * 128, rng));
        auto key =
            std::make_shared<tensor::FVec>(randomVec(128, rng));
        micros.push_back(
            {strformat("RowCosineSimilarity/%zu", rows), rows * 128,
             rows * 128 * sizeof(float), rows * 128 * 4,
             [mem, key] {
                 doNotOptimize(
                     tensor::rowCosineSimilarity(*mem, *key));
             }});
    }

    for (std::size_t memN : {std::size_t{256}, std::size_t{1024}})
        micros.push_back({strformat("GoldenNtmStep/%zu", memN), 0, 0,
                          0, [memN] {
                              mann::MannConfig cfg;
                              cfg.memN = memN;
                              cfg.memM = 64;
                              cfg.controllerWidth = 64;
                              cfg.inputDim = 8;
                              cfg.outputDim = 8;
                              static thread_local std::unique_ptr<
                                  mann::Ntm>
                                  ntm;
                              static thread_local std::size_t
                                  builtFor = 0;
                              if (!ntm || builtFor != memN) {
                                  ntm = std::make_unique<mann::Ntm>(
                                      cfg, 1);
                                  builtFor = memN;
                              }
                              const tensor::FVec x(cfg.inputDim,
                                                   0.1f);
                              doNotOptimize(ntm->step(x).output);
                          }});

    micros.push_back({"CompileModel", 0, 0, 0, [] {
                          const auto bench =
                              workloads::tinyBenchmark();
                          const arch::MannaConfig ac =
                              arch::MannaConfig::withTiles(4);
                          doNotOptimize(
                              compiler::compile(bench.config, ac));
                      }});

    micros.push_back(
        {"SimulatedChipStep", 0, 0, 0, [] {
             // The chip references the model, so both persist
             // together across timed iterations.
             static thread_local std::unique_ptr<
                 compiler::CompiledModel>
                 model;
             static thread_local std::unique_ptr<sim::Chip> chip;
             static thread_local tensor::FVec x;
             if (!chip) {
                 const auto bench = workloads::tinyBenchmark();
                 const arch::MannaConfig ac =
                     arch::MannaConfig::withTiles(4);
                 model = std::make_unique<compiler::CompiledModel>(
                     compiler::compile(bench.config, ac));
                 chip = std::make_unique<sim::Chip>(*model, 1);
                 x = tensor::FVec(bench.config.inputDim, 0.1f);
             }
             doNotOptimize(chip->step(x));
         }});

    addTimedStepMicros(micros);
    addReplayStepMicros(micros);
    return micros;
}

} // namespace

int
main(int argc, char **argv)
{
    const Config cfg = Config::fromCommandLine(argc, argv);
    // Timing micro-benches perturb each other when run concurrently,
    // so jobs= defaults to 1 here (unlike the simulation sweeps).
    const std::size_t jobs =
        static_cast<std::size_t>(cfg.getInt("jobs", 1));
    const std::string only = cfg.getString("bench", "");
    const double minSeconds =
        std::max(0.001, cfg.getDouble("min_time", 0.2));
    const harness::SweepOptions opts =
        harness::sweepOptionsFromConfig(cfg);

    harness::printBanner("Microbenchmarks",
                         "Host performance of the simulator's hot "
                         "paths (not the modeled accelerator)");
    std::printf("SIMD dispatch: %s (override with "
                "MANNA_SIMD=scalar|avx2|neon)\n\n",
                tensor::simd::kernels().name);

    std::vector<Micro> micros;
    for (auto &m : buildMicros())
        if (only.empty() || m.name == only ||
            startsWith(m.name, only + "/"))
            micros.push_back(std::move(m));

    // Run through the fault-isolated harness: a micro-bench that
    // throws becomes a FAILED row instead of killing the binary. The
    // measured sec/op rides in MannaResult::secondsPerStep;
    // fingerprints are name-derived so stats=/bench_json= tally jobs
    // normally (journaling timings would be meaningless — don't pass
    // journal= here).
    std::vector<std::string> labels;
    std::vector<std::uint64_t> fingerprints;
    for (const Micro &m : micros) {
        labels.push_back(m.name);
        Fnv1a h;
        h.bytes(m.name.data(), m.name.size());
        fingerprints.push_back(h.value());
    }

    harness::SweepRunner runner(jobs);
    const auto report = runner.runIsolated(
        micros.size(),
        [&micros, minSeconds](std::size_t i, const CancelToken &) {
            harness::MannaResult r;
            r.secondsPerStep =
                secondsPerOp(micros[i].body, minSeconds);
            return r;
        },
        labels, fingerprints, opts);

    Table table(
        {"Benchmark", "ns/op", "ops/s", "items/s", "GB/s", "GFLOP/s"});
    for (std::size_t i = 0; i < micros.size(); ++i) {
        const auto &outcome = report.outcomes[i];
        if (!outcome.ok) {
            table.addRow(
                {micros[i].name, "FAILED", "FAILED", "-", "-", "-"});
            continue;
        }
        const double sec = outcome.value.secondsPerStep;
        const auto perSec = [sec](std::size_t perOp) {
            return perOp == 0
                       ? std::string("-")
                       : formatSig(static_cast<double>(perOp) / sec /
                                       1e9,
                                   3);
        };
        table.addRow(
            {micros[i].name, strformat("%.0f", sec * 1e9),
             strformat("%.0f", 1.0 / sec),
             micros[i].itemsPerOp == 0
                 ? "-"
                 : formatSig(static_cast<double>(
                                 micros[i].itemsPerOp) /
                                 sec,
                             3),
             perSec(micros[i].bytesPerOp),
             perSec(micros[i].flopsPerOp)});
    }
    harness::printTable(table);
    harness::applySweepObservability(cfg, "micro_kernels", report);
    return harness::finishSweep(report);
}
