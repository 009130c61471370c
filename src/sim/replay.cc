#include "replay.hh"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <unordered_map>
#include <utility>

#include "common/error.hh"
#include "common/logging.hh"
#include "common/strutil.hh"
#include "mann/dnc.hh"
#include "sim/noc.hh"
#include "tensor/dispatch.hh"

namespace manna::sim
{

using isa::Opcode;

namespace
{

void
execVmm(const ReplayOp &op)
{
    const float *v = op.a;
    const float *block = op.b;
    float *d = op.d;
    const std::uint32_t numRows = op.rows;
    const std::uint32_t numCols = op.n;
    const std::uint32_t pitch = op.pitchA;
    const bool accumulate = (op.flags & kReplayAccumulate) != 0;
    const auto &k = tensor::simd::kernels();
    if ((op.flags & kReplayRowDot) != 0) {
        float *dn = op.dn;
        for (std::uint32_t r = 0; r < numRows; ++r) {
            const float *row = block + r * pitch;
            float dotAcc = 0.0f;
            if ((op.flags & kReplayWithNorms) != 0) {
                float normAcc = 0.0f;
                k.dotNorm(row, v, numCols, &dotAcc, &normAcc);
                if (accumulate) {
                    d[r] += dotAcc;
                    dn[r] += normAcc;
                } else {
                    d[r] = dotAcc;
                    dn[r] = normAcc;
                }
            } else {
                dotAcc = k.dot(row, v, numCols);
                if (accumulate)
                    d[r] += dotAcc;
                else
                    d[r] = dotAcc;
            }
        }
    } else {
        if (!accumulate)
            std::fill(d, d + numCols, 0.0f);
        // Unlike vecMatMulInto() there is no w == 0 row skip here: the
        // eMAC array always streams every row, so NaN/inf rows reach
        // the accumulator even under a zero weight.
        for (std::uint32_t r = 0; r < numRows; ++r)
            k.axpy(v[r], block + r * pitch, d, numCols);
    }
}

void
execElementwise(const ReplayOp &op)
{
    const float *pa = op.a;
    const float *pb = op.b;
    float *pd = op.d;
    const std::uint32_t len = op.n;
    const std::uint32_t aLen = op.pitchA; // 0 = unused, 1 = broadcast
    const std::uint32_t bLen = op.pitchD;
    // Full-length operands route through the dispatched SIMD kernels;
    // broadcast (len == 1) sources and the remaining immediate forms
    // keep the scalar loop below. All of these are non-accumulating
    // elementwise maps (EwMac accumulates per element but each output
    // is independent), so the kernels are bit-identical to the loop.
    if ((pa == nullptr || aLen == len) &&
        (pb == nullptr || bLen == len)) {
        const auto &k = tensor::simd::kernels();
        switch (op.op) {
          case Opcode::EwAdd:
            k.add(pa, pb, pd, len);
            return;
          case Opcode::EwSub:
            k.sub(pa, pb, pd, len);
            return;
          case Opcode::EwMul:
            k.mul(pa, pb, pd, len);
            return;
          case Opcode::EwMac:
            k.mac(pa, pb, pd, len);
            return;
          case Opcode::EwMulImm:
            k.scale(pa, op.imm, pd, len);
            return;
          default:
            break;
        }
    }
    auto valA = [&](std::uint32_t i) {
        return aLen == 1 ? pa[0] : pa[i];
    };
    auto valB = [&](std::uint32_t i) {
        return bLen == 1 ? pb[0] : pb[i];
    };
    for (std::uint32_t i = 0; i < len; ++i) {
        switch (op.op) {
          case Opcode::EwAdd:
            pd[i] = valA(i) + valB(i);
            break;
          case Opcode::EwSub:
            pd[i] = valA(i) - valB(i);
            break;
          case Opcode::EwMul:
            pd[i] = valA(i) * valB(i);
            break;
          case Opcode::EwMac:
            pd[i] += valA(i) * valB(i);
            break;
          case Opcode::EwAddImm:
            pd[i] = valA(i) + op.imm;
            break;
          case Opcode::EwMulImm:
            pd[i] = valA(i) * op.imm;
            break;
          case Opcode::EwRsubImm:
            pd[i] = op.imm - valA(i);
            break;
          case Opcode::Fill:
            pd[i] = op.imm;
            break;
          default:
            panic("bad elementwise opcode");
        }
    }
}

void
execSfu(const ReplayOp &op)
{
    const float *pa = op.a;
    float *pd = op.d;
    const std::uint32_t len = op.n;
    switch (op.op) {
      case Opcode::SfuExp:
        for (std::uint32_t i = 0; i < len; ++i)
            pd[i] = std::exp(pa[i]);
        break;
      case Opcode::SfuPow: {
        // The exponent lives in tile memory and can change between
        // steps, so it is re-read at execution time.
        const float gamma = *op.b;
        for (std::uint32_t i = 0; i < len; ++i)
            pd[i] = std::pow(std::max(pa[i], 0.0f), gamma);
        break;
      }
      case Opcode::SfuRecip:
        for (std::uint32_t i = 0; i < len; ++i)
            pd[i] = 1.0f / pa[i];
        break;
      case Opcode::SfuSqrt:
        for (std::uint32_t i = 0; i < len; ++i)
            pd[i] = std::sqrt(pa[i]);
        break;
      case Opcode::SfuSigmoid:
        for (std::uint32_t i = 0; i < len; ++i)
            pd[i] = tensor::sigmoidScalar(pa[i]);
        break;
      case Opcode::SfuTanh:
        for (std::uint32_t i = 0; i < len; ++i)
            pd[i] = std::tanh(pa[i]);
        break;
      case Opcode::SfuSoftplus:
        for (std::uint32_t i = 0; i < len; ++i)
            pd[i] = tensor::softplusScalar(pa[i]);
        break;
      case Opcode::SfuAccSum: {
        float acc = 0.0f;
        for (std::uint32_t i = 0; i < len; ++i)
            acc += pa[i];
        pd[0] = acc;
        break;
      }
      case Opcode::SfuAccMax: {
        float acc = pa[0];
        for (std::uint32_t i = 1; i < len; ++i)
            acc = std::max(acc, pa[i]);
        pd[0] = acc;
        break;
      }
      default:
        panic("bad SFU opcode");
    }
}

/** Both fused row-update kinds: per row, the exact same per-element
 * operation sequence as the unfused ops (the kernel TUs are compiled
 * with -ffp-contract=off, so no FMA contraction can make the fused
 * chain round differently). Rows run in tape order, so rows = 1 is
 * exactly one recorded row. Every row but the last leaves no stage:
 * fusedAliasFree() proved that no source reads it, and the last row
 * overwrites every word of it. */
void
execFusedUpdate(const ReplayOp &op, const ReplayTape &tape)
{
    const float *add = tape.srcPtrs(op.pitchA)[0];
    float *stage = op.block == 0 ? op.dn : tape.stageScratch();
    const auto &k = tensor::simd::kernels();
    for (std::uint32_t r = 0; r < op.rows; ++r) {
        float *row = op.d + std::size_t(r) * op.pitchD;
        float *rowStage = r + 1 == op.rows ? stage : nullptr;
        if (op.kind == ReplayKind::FusedRowUpdate)
            k.rowUpdate(op.a, add, op.b[r], op.imm, row, rowStage, op.n);
        else
            k.linkUpdate(op.a, add, op.b[r], row, rowStage, op.n);
    }
    // A merged sweep's per-block ops each left their block of the
    // last row in the stage, in block order.
    for (std::uint32_t c = 0; op.block != 0 && c < op.n; c += op.block)
        std::copy(stage + c, stage + std::min(c + op.block, op.n), op.dn);
}

/** A merged row-dot sweep: the (row, vector, destination) pairs, row
 * by row, each row's vectors and then, with norms, its (row, row) pair
 * into dn[r]; dotPairs() serves them kDotPairs at a time, each pair's
 * destination getting its per-block Vmm dots in block order. Unused
 * lanes of the last call write a local spare. */
void
execRowDotSweep(const ReplayOp &op, const ReplayTape &tape)
{
    using tensor::simd::kDotPairs;
    const SweepPair *pairs = tape.sweepPairs(op.pitchD);
    const bool norms = (op.flags & kReplayWithNorms) != 0;
    const auto &k = tensor::simd::kernels();
    const float *a[kDotPairs];
    const float *b[kDotPairs];
    float *d[kDotPairs];
    std::size_t lanes = 0;
    auto push = [&](const float *row, const float *v, float *dst) {
        a[lanes] = row;
        b[lanes] = v;
        d[lanes] = dst;
        if (++lanes == kDotPairs) {
            k.dotPairs(a, b, d, op.n, op.block);
            lanes = 0;
        }
    };
    for (std::uint32_t r = 0; r < op.rows; ++r) {
        const float *row = op.b + std::size_t(r) * op.pitchA;
        for (std::uint32_t v = 0; v < op.vecs; ++v)
            push(row, pairs[v].v, pairs[v].d + r);
        if (norms)
            push(row, row, op.dn + r);
    }
    float spare = 0.0f;
    while (lanes != 0)
        push(a[0], b[0], &spare);
}

/** A merged column sweep: per vector, its rows kAxpyRows at a time
 * through axpyRows() (per element, the rows' products in row order, so
 * exactly the per-block axpys; the vectors' destinations are disjoint
 * from each other and from every source). */
void
execColumnSweep(const ReplayOp &op, const ReplayTape &tape)
{
    using tensor::simd::kAxpyRows;
    const SweepPair *pairs = tape.sweepPairs(op.pitchD);
    const auto &k = tensor::simd::kernels();
    for (std::uint32_t r = 0; r < op.rows; r += kAxpyRows) {
        const float *row = op.b + std::size_t(r) * op.pitchA;
        const std::size_t rows = std::min<std::size_t>(kAxpyRows, op.rows - r);
        for (std::uint32_t v = 0; v < op.vecs; ++v)
            k.axpyRows(pairs[v].v + r, row, op.pitchA, rows, pairs[v].d,
                       op.n);
    }
}

bool
isFusedUpdate(const ReplayOp &op)
{
    return op.kind == ReplayKind::FusedRowUpdate ||
           op.kind == ReplayKind::FusedLinkUpdate;
}

/** Half-open span overlap test for the passes' alias checks. */
bool
overlaps(const float *a, std::size_t an, const float *b, std::size_t bn)
{
    return a < b + bn && b < a + an;
}

/** A byte range [lo, hi). */
struct Span
{
    std::uintptr_t lo;
    std::uintptr_t hi;
};

/** Every byte that @p n words at @p p cover over a run whose
 * iterations advance @p p by @p step, @p last iterations after the
 * first (a single span when @p last is 0). */
Span
hull(const float *p, std::uintptr_t step, std::uint64_t last,
     std::size_t n)
{
    const auto first = reinterpret_cast<std::uintptr_t>(p);
    const std::uintptr_t final = first + last * step;
    return {std::min(first, final),
            std::max(first, final) + n * sizeof(float)};
}

/** The bytes of @p words words at @p p. */
Span
spanOf(const void *p, std::size_t words)
{
    const auto lo = reinterpret_cast<std::uintptr_t>(p);
    return {lo, lo + words * sizeof(float)};
}

bool
overlaps(Span x, Span y)
{
    return x.lo < y.hi && y.lo < x.hi;
}

bool
isEw(const ReplayOp &op, Opcode code, std::uint32_t n)
{
    return op.kind == ReplayKind::Elementwise && op.op == code &&
           op.n == n;
}

/**
 * The fused kernels write row[] and stage[] interleaved instead of
 * pass-by-pass, so every source span must be disjoint from both
 * written spans (they are in the compiler's layout — distinct memory
 * spaces — but the tape only sees raw pointers, so verify). Over a run
 * (@p last > 0) each span is its hull over the run's iterations.
 */
bool
fusedAliasFree(const ReplayOp &rop, const ReplayStep &step,
               const float *add, std::uintptr_t addStep,
               std::uint64_t last)
{
    const std::size_t n = rop.n;
    const Span row = hull(rop.d, step[2], last, n);
    const Span stage = hull(rop.dn, step[3], last, n);
    const Span src = hull(rop.a, step[0], last, n);
    const Span addv = hull(add, addStep, last, n);
    const Span w = hull(rop.b, step[1], last, 1);
    return !overlaps(row, stage) && !overlaps(src, stage) &&
           !overlaps(src, row) && !overlaps(addv, stage) &&
           !overlaps(addv, row) && !overlaps(w, stage) &&
           !overlaps(w, row);
}

/** Match the soft-write quad's shape and operand links at @p o
 * (aliasing is the caller's fusedAliasFree()); fills @p rop (pitchA
 * is left for the caller) and the add-vector row. */
bool
matchRowQuad(const ReplayOp *o, ReplayOp &rop, const float *&add)
{
    const std::uint32_t n = o[0].n;
    // stage = e * w; stage = c - stage; row = row * stage;
    // row += a * w.
    const bool shape =
        isEw(o[0], Opcode::EwMul, n) && o[0].pitchA == n &&
        o[0].pitchD == 1 && isEw(o[1], Opcode::EwRsubImm, n) &&
        o[1].pitchA == n && o[1].a == o[0].d && o[1].d == o[0].d &&
        isEw(o[2], Opcode::EwMul, n) && o[2].pitchA == n &&
        o[2].pitchD == n && o[2].a == o[2].d && o[2].b == o[0].d &&
        isEw(o[3], Opcode::EwMac, n) && o[3].pitchA == n &&
        o[3].pitchD == 1 && o[3].d == o[2].d && o[3].b == o[0].b;
    if (!shape)
        return false;
    rop = ReplayOp{};
    rop.kind = ReplayKind::FusedRowUpdate;
    rop.n = n;
    rop.rows = 1;
    rop.imm = o[1].imm;
    rop.a = o[0].a;  // erase row
    rop.b = o[0].b;  // w scalar
    rop.d = o[2].d;  // memory row
    rop.dn = o[0].d; // stage
    add = o[3].a;
    return true;
}

/** Match the DNC link triple at @p o; same contract as matchRowQuad. */
bool
matchLinkTriple(const ReplayOp *o, ReplayOp &rop, const float *&add)
{
    const std::uint32_t n = o[0].n;
    // stage = o - w; row = row * stage; row += p * w.
    const bool shape =
        isEw(o[0], Opcode::EwSub, n) && o[0].pitchA == n &&
        o[0].pitchD == 1 && isEw(o[1], Opcode::EwMul, n) &&
        o[1].pitchA == n && o[1].pitchD == n && o[1].a == o[1].d &&
        o[1].b == o[0].d && isEw(o[2], Opcode::EwMac, n) &&
        o[2].pitchA == n && o[2].pitchD == 1 && o[2].d == o[1].d &&
        o[2].b == o[0].b;
    if (!shape)
        return false;
    rop = ReplayOp{};
    rop.kind = ReplayKind::FusedLinkUpdate;
    rop.n = n;
    rop.rows = 1;
    rop.a = o[0].a;  // o row
    rop.b = o[0].b;  // w scalar
    rop.d = o[1].d;  // link row
    rop.dn = o[0].d; // stage
    add = o[2].a;    // precedence row
    return true;
}

/** The two idioms record() fuses, in the order it tries them: their
 * opcodes (each ends in EwMac) and matchers. A fused op's a, b and
 * dn come from the idiom's first op (a, b, d), its d from the
 * next-to-last op's d, and its add vector from the last op's a. */
struct Idiom
{
    std::size_t len;
    Opcode ops[4];
    bool (*match)(const ReplayOp *, ReplayOp &, const float *&);
};
constexpr Idiom kIdioms[] = {
    {4,
     {Opcode::EwMul, Opcode::EwRsubImm, Opcode::EwMul, Opcode::EwMac},
     matchRowQuad},
    {3, {Opcode::EwSub, Opcode::EwMul, Opcode::EwMac}, matchLinkTriple},
};

/** A byte range the validity walk watches, and its id. */
struct WatchedSpan
{
    Span span;
    std::size_t id;
};

void
sortSpans(std::vector<WatchedSpan> &spans)
{
    std::sort(spans.begin(), spans.end(),
              [](const WatchedSpan &x, const WatchedSpan &y) {
                  return x.span.lo < y.span.lo;
              });
}

/** Sort @p spans and merge the ones that overlap or touch. */
void
mergeSpans(std::vector<WatchedSpan> &spans)
{
    sortSpans(spans);
    std::size_t merged = 0;
    for (const WatchedSpan &s : spans) {
        if (merged > 0 && s.span.lo <= spans[merged - 1].span.hi)
            spans[merged - 1].span.hi =
                std::max(spans[merged - 1].span.hi, s.span.hi);
        else
            spans[merged++] = s;
    }
    spans.resize(merged);
}

/**
 * Disjoint watched ranges, sorted, behind a one-bit-per-line filter: a
 * span none of whose 256-byte lines holds a watched byte overlaps no
 * range and skips the search. Built once per seal; most of the spans
 * a tape walk meets miss every range.
 */
class WatchIndex
{
  public:
    explicit WatchIndex(std::vector<WatchedSpan> spans)
        : spans_(std::move(spans))
    {
        sortSpans(spans_);
        for (const WatchedSpan &s : spans_) {
            const std::uintptr_t lo = s.span.lo >> kLineBits;
            const std::uintptr_t hi = (s.span.hi - 1) >> kLineBits;
            if (hi - lo >= kFilterBits)
                filter_.fill(~std::uint64_t{0});
            for (std::uintptr_t line = lo;
                 line <= hi && line - lo < kFilterBits; ++line)
                filter_[bit(line) / 64] |= std::uint64_t{1}
                                           << (bit(line) % 64);
        }
    }

    /** Index of the first range ending after byte @p p (branch-free:
     * the probes are data-dependent, so a branchy search mispredicts
     * on most spans). */
    std::size_t first(std::uintptr_t p) const
    {
        if (spans_.empty())
            return 0;
        const WatchedSpan *base = spans_.data();
        std::size_t len = spans_.size();
        while (len > 1) {
            const std::size_t half = len / 2;
            base = base[half - 1].span.hi <= p ? base + half : base;
            len -= half;
        }
        return static_cast<std::size_t>(base - spans_.data()) +
               (base->span.hi <= p ? 1 : 0);
    }

    /** Call fn(id) for each range @p s overlaps, in address order. */
    template <typename Fn>
    void forEachHit(Span s, Fn &&fn) const
    {
        if (!mayHit(s))
            return;
        for (std::size_t i = first(s.lo);
             i < spans_.size() && spans_[i].span.lo < s.hi; ++i)
            fn(spans_[i].id);
    }

  private:
    static constexpr unsigned kLineBits = 8;
    static constexpr unsigned kFilterLog = 14;
    static constexpr std::uintptr_t kFilterBits = std::uintptr_t{1}
                                                  << kFilterLog;
    /** Spans over more lines than this skip the filter. */
    static constexpr std::uintptr_t kMaxProbes = 16;

    static std::size_t bit(std::uintptr_t line)
    {
        return static_cast<std::size_t>(
            (static_cast<std::uint64_t>(line) * 0x9e3779b97f4a7c15ull) >>
            (64 - kFilterLog));
    }

    bool mayHit(Span s) const
    {
        if (s.lo >= s.hi)
            return false;
        const std::uintptr_t lo = s.lo >> kLineBits;
        const std::uintptr_t hi = (s.hi - 1) >> kLineBits;
        if (hi - lo >= kMaxProbes)
            return true;
        for (std::uintptr_t line = lo; line <= hi; ++line)
            if ((filter_[bit(line) / 64] >> (bit(line) % 64) & 1) != 0)
                return true;
        return false;
    }

    std::vector<WatchedSpan> spans_;
    std::array<std::uint64_t, kFilterBits / 64> filter_{};
};

double
msSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

} // namespace

void
execTileOp(const ReplayOp &op, const ReplayTape *tape)
{
    switch (op.kind) {
      case ReplayKind::Copy2d:
        for (std::uint32_t r = 0; r < op.rows; ++r) {
            const float *from = op.a + r * op.pitchA;
            float *to = op.d + r * op.pitchD;
            std::copy(from, from + op.n, to);
        }
        break;
      case ReplayKind::Vmm:
        execVmm(op);
        break;
      case ReplayKind::Elementwise:
        execElementwise(op);
        break;
      case ReplayKind::Sfu:
        execSfu(op);
        break;
      case ReplayKind::FusedRowUpdate:
      case ReplayKind::FusedLinkUpdate:
      case ReplayKind::RowDotSweep:
      case ReplayKind::ColumnSweep:
        MANNA_ASSERT(tape != nullptr,
                     "the tape's merged ops need the owning tape");
        if (isFusedUpdate(op))
            execFusedUpdate(op, *tape);
        else if (op.kind == ReplayKind::RowDotSweep)
            execRowDotSweep(op, *tape);
        else
            execColumnSweep(op, *tape);
        break;
      default:
        panic("execTileOp on a chip-level replay op");
    }
}

void
ReplayTape::checkStep(std::size_t step) const
{
    if (digest_ == recordedDigest_ && appended_ == recordedOps_)
        return;
    throw SimError(strformat(
        "step %zu resolved %zu ops (digest %016llx) but step 1 "
        "recorded %zu (digest %016llx): the replay tape is stale",
        step, appended_, static_cast<unsigned long long>(digest_),
        recordedOps_, static_cast<unsigned long long>(recordedDigest_)));
}

void
ReplayTape::finishRecording()
{
    recordedDigest_ = digest_;
    recordedOps_ = appended_;
    if (std::getenv("MANNA_REPLAY_DEBUG") != nullptr)
        std::fprintf(stderr,
                     "replay: %zu ops (%zu of them in %zu runs, %zu "
                     "runs recorded op by op) -> %zu recorded\n",
                     appended_, runOps_, runs_, runFallbacks_,
                     ops_.size());
    elideStaging();
    state_ = State::Ready;
}

void
ReplayTape::record(const ReplayOp &op)
{
    keep(op, nullptr);
    // Both idioms end in an EwMac; a fused op never matches again.
    if (op.kind != ReplayKind::Elementwise || op.op != Opcode::EwMac)
        return;
    const std::size_t size = ops_.size();
    for (const Idiom &idiom : kIdioms) {
        ReplayOp rop;
        const float *add = nullptr;
        if (size < idiom.len ||
            !idiom.match(&ops_[size - idiom.len], rop, add) ||
            !fusedAliasFree(rop, {}, add, 0, 0))
            continue;
        ops_.resize(size - idiom.len);
        keep(rop, add);
        return;
    }
}

void
ReplayTape::keep(ReplayOp op, const float *add)
{
    if (isFusedUpdate(op)) {
        if (!ops_.empty() && isFusedUpdate(ops_.back())) {
            RunOp block{ops_.back(), {}, srcPool_[ops_.back().pitchA]};
            if (absorb(block, RunOp{op, {}, add}, lastCopy_, 1)) {
                ops_.back() = block.op;
                return;
            }
        }
        // A block's rows share one add vector: reuse its pool slot.
        if (srcPool_.empty() || srcPool_.back() != add)
            srcPool_.push_back(add);
        op.pitchA = static_cast<std::uint32_t>(srcPool_.size() - 1);
    }
    if (op.kind == ReplayKind::Copy2d)
        lastCopy_.op = op;
    ops_.push_back(op);
}

bool
ReplayTape::absorb(RunOp &block, const RunOp &next, const RunOp &copy,
                   std::uint64_t iterations)
{
    const ReplayOp &p = block.op;
    const ReplayOp &q = next.op;
    const ReplayStep &ps = block.step;
    const ReplayStep &qs = next.step;
    if (!isFusedUpdate(p) || q.kind != p.kind || q.n != p.n ||
        q.imm != p.imm)
        return false;
    // Two pointers that move linearly over a run agree at every
    // iteration if they agree at the first and step alike.
    if (q.a != p.a || qs[0] != ps[0] || q.dn != p.dn || qs[3] != ps[3] ||
        next.add != block.add || next.addStep != block.addStep ||
        q.b != p.b + p.rows || qs[1] != ps[1] || qs[2] != ps[2])
        return false;
    const std::uintptr_t gap = wordOf(q.d) - wordOf(p.d);
    const std::uint64_t pitch = p.rows > 1 ? p.pitchD : gap / sizeof(float);
    if (pitch < p.n || pitch > std::numeric_limits<std::uint32_t>::max() ||
        gap != p.rows * pitch * sizeof(float) ||
        (q.rows > 1 && q.pitchD != pitch))
        return false;
    const std::uint64_t last = iterations - 1;
    const std::uint32_t rows = p.rows + q.rows;
    const Span w = hull(p.b, ps[1], last, rows);
    const ReplayOp &ld = copy.op;
    if (overlaps(w, hull(p.d, ps[2], last,
                         std::size_t(rows - 1) * pitch + p.n)) ||
        (ld.rows > 0 &&
         overlaps(w, hull(ld.a, copy.step[0], last,
                          std::size_t(ld.rows - 1) * ld.pitchA + ld.n))))
        return false;
    block.op.rows = rows;
    block.op.pitchD = static_cast<std::uint32_t>(pitch);
    return true;
}

void
ReplayTape::appendRun(const std::vector<ReplayOp> &body,
                      const std::vector<ReplayStep> &steps,
                      std::uint64_t iterations)
{
    MANNA_ASSERT(body.size() == steps.size(),
                 "a run needs one step per body op");
    if (iterations == 0 || body.empty())
        return;
    if (recording()) {
        ++runs_;
        runOps_ += iterations * body.size();
        runFallbacks_ += iterations == 1 ? 1 : 0;
    }
    // Folding and compiling a run each cost about two iterations op
    // by op.
    if (iterations == 1) {
        for (std::size_t i = 0; i < body.size(); ++i)
            append(advanced(body[i], steps[i], 1));
        return;
    }
    foldRun(body, steps, iterations);
    if (!recording())
        return;
    if (!compileRun(body, steps, iterations)) {
        ++runFallbacks_;
        for (std::uint64_t k = 1; k <= iterations; ++k)
            for (std::size_t i = 0; i < body.size(); ++i)
                record(advanced(body[i], steps[i], k));
        return;
    }
    if (run_.size() == 1) {
        // A body of one block that each iteration continues is one
        // block for the whole run: iterations k and k+1 together, over
        // the first iterations - 1 values of k, span every row and w.
        RunOp block = run_[0];
        RunOp next = block;
        next.op = advanced(next.op, next.step, 1);
        next.add = advanced(next.add, next.addStep, 1);
        if (absorb(block, next, lastCopy_, iterations - 1)) {
            block.op.rows = run_[0].op.rows *
                            static_cast<std::uint32_t>(iterations);
            keep(block.op, block.add);
            return;
        }
    }
    for (std::uint64_t k = 0; k < iterations; ++k)
        for (const RunOp &c : run_)
            keep(advanced(c.op, c.step, k),
                 advanced(c.add, c.addStep, k));
}

void
ReplayTape::foldRun(const std::vector<ReplayOp> &body,
                    const std::vector<ReplayStep> &steps,
                    std::uint64_t iterations)
{
    // opHash() xors independent field terms, and a pointer's term is
    // its address times an odd constant: one step further adds the
    // step times that constant (mod 2^64). So each implied op's hash
    // comes from four additions, and no op is built.
    runHash_.resize(body.size());
    for (std::size_t i = 0; i < body.size(); ++i) {
        RunHash &h = runHash_[i];
        const ReplayOp &op = body[i];
        h.fields = fieldHash(op);
        const void *ptrs[4] = {op.a, op.b, op.d, op.dn};
        for (std::size_t j = 0; j < 4; ++j) {
            h.ptr[j] = wordOf(ptrs[j]) * kPtrMul[j];
            h.step[j] = steps[i][j] * kPtrMul[j];
        }
    }
    std::uint64_t digest = digest_;
    for (std::uint64_t k = 0; k < iterations; ++k) {
        for (RunHash &h : runHash_) {
            for (std::size_t j = 0; j < 4; ++j)
                h.ptr[j] += h.step[j];
            digest = folded(digest, h.fields ^ h.ptr[0] ^ h.ptr[1] ^
                                        h.ptr[2] ^ h.ptr[3]);
        }
    }
    digest_ = digest;
    appended_ += iterations * body.size();
}

bool
ReplayTape::compileRun(const std::vector<ReplayOp> &body,
                       const std::vector<ReplayStep> &steps,
                       std::uint64_t iterations)
{
    const std::uint64_t last = iterations - 1;
    run_.clear();
    // The last copy before each op: the body's, once it has had one;
    // before that the tape's, unless a later body copy precedes it
    // from the second iteration on.
    const bool bodyCopies =
        std::any_of(body.begin(), body.end(), [](const ReplayOp &op) {
            return op.kind == ReplayKind::Copy2d;
        });
    constexpr std::size_t kNone = ~std::size_t{0};
    std::size_t copyAt = kNone;
    for (std::size_t i = 0; i < body.size(); ++i) {
        if (body[i].kind == ReplayKind::Copy2d)
            copyAt = run_.size();
        run_.push_back({advanced(body[i], steps[i], 1), steps[i]});
        if (body[i].kind != ReplayKind::Elementwise ||
            body[i].op != Opcode::EwMac)
            continue;
        for (const Idiom &idiom : kIdioms) {
            // The body's ops that would end this idiom here.
            const std::size_t have = std::min(idiom.len, run_.size());
            RunOp *w = run_.data() + run_.size() - have;
            bool opcodes = true;
            for (std::size_t j = 0; j < have; ++j)
                opcodes = opcodes &&
                          w[j].op.kind == ReplayKind::Elementwise &&
                          w[j].op.op == idiom.ops[idiom.len - have + j];
            if (!opcodes)
                continue;
            // The idiom would begin before the iteration.
            if (have < idiom.len)
                return false;
            ReplayOp first[4], final[4];
            for (std::size_t j = 0; j < have; ++j) {
                first[j] = w[j].op;
                final[j] = advanced(w[j].op, w[j].step, last);
            }
            RunOp fused;
            ReplayOp finalRop;
            const float *finalAdd = nullptr;
            if (!idiom.match(first, fused.op, fused.add) ||
                !idiom.match(final, finalRop, finalAdd))
                return false;
            fused.step = {w[0].step[0], w[0].step[1],
                          w[have - 2].step[2], w[0].step[2]};
            fused.addStep = w[have - 1].step[0];
            if (!fusedAliasFree(fused.op, fused.step, fused.add,
                                fused.addStep, last))
                return false;
            run_.resize(run_.size() - have);
            // Rows left apart here still join when stamped, as do
            // rows continuing the previous iteration's block.
            const RunOp &copy = copyAt != kNone ? run_[copyAt] : lastCopy_;
            if (run_.empty() || (copyAt == kNone && bodyCopies) ||
                !absorb(run_.back(), fused, copy, iterations))
                run_.push_back(fused);
            break;
        }
    }
    return true;
}

/** One matched blocked-sweep group, as indices into the tape.
 * ops_[begin] is the load, which copies the block's home rows (in the
 * matrix buffer) to its staged copy (in the scratchpad); for
 * row-update groups ops_[end - 1] is the mirror store back home. */
struct ReplayTape::Group
{
    std::size_t begin = 0;
    std::size_t end = 0;
    const float *staged = nullptr;
    std::size_t stagedLen = 0;
    float *homeMut = nullptr; // non-null only for row updates
    const float *home = nullptr;
    std::uint32_t homePitch = 0;
    std::uint32_t rows = 0;  // the block's rows
    std::uint32_t width = 0; // and words per row
    std::size_t cluster = 0;
};

/** A chain of groups, [first, last), and the op that replaces it. */
struct ReplayTape::Sweep
{
    std::size_t first = 0;
    std::size_t last = 0;
    ReplayOp op;                      // its pool offset set when kept
    const float *add = nullptr;       // row updates: the add vector
    std::vector<SweepPair> pairs;     // Vmm sweeps: vectors, dsts
    std::vector<std::size_t> foreign; // window ops outside the groups
    // Vmm sweeps: the words its dropped copies wrote, the words its
    // window surely rewrites before reading any (all of them when every
    // copy starts at one word, else the first copy's), and the watched
    // stage interval that holds them.
    Span stage{};
    Span rewrite{};
    std::size_t watch = 0;
};

template <typename Fn>
void
ReplayTape::forEachSpan(const ReplayOp &op, Fn &&fn) const
{
    switch (op.kind) {
      case ReplayKind::Copy2d:
        fn(op.a, std::size_t(op.rows - 1) * op.pitchA + op.n, false);
        fn(op.d, std::size_t(op.rows - 1) * op.pitchD + op.n, true);
        break;
      case ReplayKind::Vmm: {
        const bool rowDot = (op.flags & kReplayRowDot) != 0;
        fn(op.b, std::size_t(op.rows - 1) * op.pitchA + op.n, false);
        fn(op.a, std::size_t(rowDot ? op.n : op.rows), false);
        fn(op.d, std::size_t(rowDot ? op.rows : op.n), true);
        if (op.dn != nullptr)
            fn(op.dn, std::size_t(op.rows), true);
        break;
      }
      case ReplayKind::Elementwise:
        if (op.a != nullptr)
            fn(op.a, std::size_t(op.pitchA), false);
        if (op.b != nullptr)
            fn(op.b, std::size_t(op.pitchD), false);
        fn(op.d, std::size_t(op.n), true);
        break;
      case ReplayKind::Sfu:
        fn(op.a, std::size_t(op.n), false);
        if (op.b != nullptr)
            fn(op.b, std::size_t(1), false);
        // The accumulating SFU forms reduce to a scalar dst.
        fn(op.d,
           isa::opInfo(op.op).sfuCost == isa::SfuCost::Acc
               ? std::size_t(1)
               : std::size_t(op.n),
           true);
        break;
      case ReplayKind::FusedRowUpdate:
      case ReplayKind::FusedLinkUpdate:
        fn(op.a, std::size_t(op.n), false);
        fn(op.b, std::size_t(op.rows), false);
        fn(op.d, std::size_t(op.rows - 1) * op.pitchD + op.n, true);
        fn(op.dn, std::size_t(op.block == 0 ? op.n : op.block), true);
        fn(srcPool_[op.pitchA], std::size_t(op.n), false);
        break;
      case ReplayKind::RowDotSweep:
      case ReplayKind::ColumnSweep: {
        const bool rowDot = op.kind == ReplayKind::RowDotSweep;
        fn(op.b, std::size_t(op.rows - 1) * op.pitchA + op.n, false);
        const SweepPair *pairs = sweepPairs(op.pitchD);
        for (std::uint32_t v = 0; v < op.vecs; ++v) {
            fn(pairs[v].v, std::size_t(rowDot ? op.n : op.rows), false);
            fn(pairs[v].d, std::size_t(rowDot ? op.rows : op.n), true);
        }
        if ((op.flags & kReplayWithNorms) != 0)
            fn(op.dn, std::size_t(op.rows), true);
        break;
      }
      case ReplayKind::Reduce:
        for (std::uint32_t t = 0; t < op.rows; ++t)
            fn(srcPool_[op.pitchA + t], std::size_t(op.n), false);
        break;
      case ReplayKind::Broadcast:
        for (std::uint32_t t = 0; t < op.rows; ++t)
            fn(dstPool_[op.pitchA + t], std::size_t(op.n), true);
        break;
      case ReplayKind::ReadVectorOut:
      case ReplayKind::UsageToAlloc:
        break;
    }
}

std::size_t
ReplayTape::chainSweep(const std::vector<Group> &groups,
                       const std::vector<int> &groupOf, std::size_t first,
                       Sweep &sw) const
{
    const Group &g0 = groups[first];
    const bool rowUpdate = g0.homeMut != nullptr;
    // A read group's Vmms, each right after the copy that stages its
    // vector.
    std::vector<std::size_t> vmms;
    auto vmmsOf = [&](std::size_t gi) {
        const Group &g = groups[gi];
        vmms.clear();
        for (std::size_t k = g.begin + 1; k < g.end; ++k) {
            if (groupOf[k] != static_cast<int>(gi))
                continue;
            const ReplayOp &c = ops_[k - 1];
            if (k - 1 == g.begin || c.kind != ReplayKind::Copy2d ||
                c.rows != 1 || c.d != ops_[k].a)
                return false;
            vmms.push_back(k);
        }
        return !vmms.empty() &&
               vmms.size() <= std::numeric_limits<std::uint8_t>::max();
    };

    // The merged op as far as the first group sets it.
    ReplayOp &op = sw.op;
    op = ReplayOp{};
    sw.pairs.clear();
    sw.foreign.clear();
    std::uint8_t flags = 0; // the first vector's Vmm flags
    if (rowUpdate) {
        if (g0.end - g0.begin != 3)
            return 0;
        op = ops_[g0.begin + 1];
        sw.add = srcPool_[op.pitchA];
    } else {
        if (!vmmsOf(first))
            return 0;
        const ReplayOp &m0 = ops_[vmms[0]];
        flags = m0.flags;
        if ((flags & kReplayAccumulate) == 0)
            return 0;
        op.kind = (flags & kReplayRowDot) != 0 ? ReplayKind::RowDotSweep
                                               : ReplayKind::ColumnSweep;
        op.flags = flags & kReplayWithNorms;
        op.dn = m0.dn;
        for (const std::size_t k : vmms)
            sw.pairs.push_back({ops_[k - 1].a, ops_[k].d});
    }
    const bool rowDot = op.kind == ReplayKind::RowDotSweep;
    const std::uint32_t hp = g0.homePitch;
    auto at = [](const void *p, const void *base, std::size_t words) {
        return wordOf(p) == wordOf(base) + words * sizeof(float);
    };
    // Group gi is the block at row rho and column col of the sweep.
    auto fitsAt = [&](std::size_t gi, std::size_t rho, std::size_t col) {
        const Group &g = groups[gi];
        if ((g.homeMut != nullptr) != rowUpdate || g.homePitch != hp ||
            !at(g.home, g0.home, rho * hp + col))
            return false;
        if (rowUpdate) {
            const ReplayOp &f = ops_[g.begin + 1];
            return g.end - g.begin == 3 && f.kind == op.kind &&
                   f.imm == op.imm && f.dn == op.dn && at(f.a, op.a, col) &&
                   at(f.b, op.b, rho) &&
                   at(srcPool_[f.pitchA], sw.add, col);
        }
        if (!vmmsOf(gi) || vmms.size() != sw.pairs.size())
            return false;
        for (std::size_t v = 0; v < vmms.size(); ++v) {
            const ReplayOp &c = ops_[vmms[v] - 1];
            const ReplayOp &m = ops_[vmms[v]];
            // Row norms ride on the first vector only.
            const auto want = static_cast<std::uint8_t>(
                v == 0 ? flags : flags & ~kReplayWithNorms);
            if (m.flags != want || c.n != (rowDot ? g.width : g.rows) ||
                !at(c.a, sw.pairs[v].v, rowDot ? col : rho) ||
                !at(m.d, sw.pairs[v].d, rowDot ? rho : col))
                return false;
        }
        const ReplayOp &m0 = ops_[vmms[0]];
        return op.dn == nullptr ? m0.dn == nullptr : at(m0.dn, op.dn, rho);
    };
    if (!fitsAt(first, 0, 0))
        return 0;

    // Outer blocks of inner blocks: row blocks of column blocks, or,
    // when the second group starts the first column's next row block,
    // the other way round. The first outer block sets how many inner
    // blocks each holds and their sizes; every column block is as wide
    // as the first but the last, which may be narrower.
    const bool rowMajor =
        first + 1 >= groups.size() || groups[first + 1].width != g0.width ||
        !fitsAt(first + 1, g0.rows, 0);
    std::vector<std::uint32_t> outer{rowMajor ? g0.rows : g0.width};
    std::vector<std::uint32_t> inner{rowMajor ? g0.width : g0.rows};
    auto widthFits = [](const std::vector<std::uint32_t> &widths,
                        std::uint32_t next) {
        return widths.back() == widths[0] && next <= widths[0];
    };
    std::size_t perOuter = 0; // inner blocks per outer block, once known
    std::size_t oOff = 0;     // the current outer block's offset
    std::size_t iOff = inner[0];
    std::size_t ii = 1; // its inner blocks so far
    std::size_t count = 1;
    std::size_t outerDone = 1; // outer blocks complete at count
    std::size_t complete = 1;
    for (std::size_t t = first + 1; t < groups.size(); ++t) {
        const Group &g = groups[t];
        const std::uint32_t os = rowMajor ? g.rows : g.width;
        const std::uint32_t is = rowMajor ? g.width : g.rows;
        auto fits = [&](std::size_t o, std::size_t i) {
            return rowMajor ? fitsAt(t, o, i) : fitsAt(t, i, o);
        };
        if ((perOuter == 0 || ii < perOuter) && os == outer.back() &&
            (perOuter != 0 ? is == inner[ii]
                           : !rowMajor || widthFits(inner, is)) &&
            fits(oOff, iOff)) {
            if (perOuter == 0)
                inner.push_back(is);
            iOff += is;
            ++ii;
        } else if ((perOuter == 0 || ii == perOuter) && is == inner[0] &&
                   (rowMajor || widthFits(outer, os)) &&
                   fits(oOff + outer.back(), 0)) {
            if (perOuter == 0)
                perOuter = ii;
            oOff += outer.back();
            outer.push_back(os);
            iOff = is;
            ii = 1;
        } else {
            break;
        }
        ++count;
        if (perOuter == 0 || ii == perOuter) {
            complete = count;
            outerDone = outer.size();
        }
    }
    outer.resize(outerDone);
    if (perOuter == 0)
        perOuter = inner.size();
    inner.resize(perOuter);
    auto total = [](const std::vector<std::uint32_t> &sizes) {
        std::uint64_t sum = 0;
        for (const std::uint32_t x : sizes)
            sum += x;
        return sum;
    };
    const std::vector<std::uint32_t> &heights = rowMajor ? outer : inner;
    const std::vector<std::uint32_t> &widths = rowMajor ? inner : outer;
    const std::uint64_t rows = total(heights);
    const std::uint64_t cols = total(widths);
    // A row update's stage ends as its row-major per-block ops left it.
    if (rows > std::numeric_limits<std::uint32_t>::max() / 2 ||
        cols > std::numeric_limits<std::uint32_t>::max() / 2 ||
        (rowUpdate && (!rowMajor || widths.size() < 2)))
        return 0;
    sw.first = first;
    sw.last = first + complete;
    op.rows = static_cast<std::uint32_t>(rows);
    op.n = static_cast<std::uint32_t>(cols);
    op.block = widths[0];
    const std::size_t span = (rows - 1) * hp + cols;

    // Legality: what the merged op reads (sources) and writes.
    std::vector<Span> reads;
    std::vector<Span> writes;
    if (rowUpdate) {
        op.d = g0.homeMut;
        op.pitchD = hp;
        reads = {spanOf(op.a, cols), spanOf(sw.add, cols),
                 spanOf(op.b, rows)};
        writes = {spanOf(op.d, span), spanOf(op.dn, op.block)};
    } else {
        op.b = g0.home;
        op.pitchA = hp;
        op.vecs = static_cast<std::uint8_t>(sw.pairs.size());
        reads.push_back(spanOf(op.b, span));
        for (const SweepPair &p : sw.pairs) {
            reads.push_back(spanOf(p.v, rowDot ? cols : rows));
            writes.push_back(spanOf(p.d, rowDot ? rows : cols));
        }
        if (op.dn != nullptr)
            writes.push_back(spanOf(op.dn, rows));
    }
    for (std::size_t i = 0; i < writes.size(); ++i) {
        for (std::size_t j = i + 1; j < writes.size(); ++j)
            if (overlaps(writes[i], writes[j]))
                return 0;
        for (const Span &r : reads)
            if (overlaps(writes[i], r))
                return 0;
    }
    // The window's ops outside the groups; the stage words that the
    // dropped copies wrote.
    const std::size_t begin = g0.begin;
    const std::size_t end = groups[sw.last - 1].end;
    sw.stage = sw.rewrite = {};
    bool oneStart = true;
    for (std::size_t k = begin; k < end; ++k) {
        if (groupOf[k] >= 0)
            continue;
        const ReplayOp &c = ops_[k];
        if (!rowUpdate && k + 1 < end && groupOf[k + 1] >= 0 &&
            ops_[k + 1].kind == ReplayKind::Vmm) {
            const Span s = spanOf(c.d, c.n);
            if (sw.stage.lo == sw.stage.hi)
                sw.stage = sw.rewrite = s;
            oneStart = oneStart && s.lo == sw.rewrite.lo;
            sw.stage = {std::min(sw.stage.lo, s.lo),
                        std::max(sw.stage.hi, s.hi)};
        } else {
            sw.foreign.push_back(k);
        }
    }
    if (oneStart)
        sw.rewrite = sw.stage;
    if (!rowUpdate) {
        for (const Span &s : reads)
            if (overlaps(sw.stage, s))
                return 0;
        for (const Span &s : writes)
            if (overlaps(sw.stage, s))
                return 0;
        writes.push_back(sw.stage);
    }
    for (const std::size_t k : sw.foreign) {
        bool clash = false;
        forEachSpan(ops_[k], [&](const float *p, std::size_t len,
                                 bool written) {
            if (p == nullptr || len == 0)
                return;
            const Span s = spanOf(p, len);
            for (const Span &w : writes)
                clash = clash || overlaps(s, w);
            for (const Span &r : reads)
                clash = clash || (written && overlaps(s, r));
        });
        if (clash)
            return 0;
    }
    return complete;
}

void
ReplayTape::elideStaging()
{
    const auto t0 = std::chrono::steady_clock::now();
    const bool debug = std::getenv("MANNA_REPLAY_DEBUG") != nullptr;
    const std::size_t before = ops_.size();

    auto touchesRegion = [&](const ReplayOp &op, const float *lo,
                             std::size_t len) {
        bool hit = false;
        forEachSpan(op, [&](const float *p, std::size_t sl, bool) {
            if (p != nullptr && overlaps(p, sl, lo, len))
                hit = true;
        });
        return hit;
    };

    // Pass 1: match the groups. The Vmm ops by the block they read,
    // each block's in tape order, bound the read-group scans; runs of
    // ops on one block share a lookup.
    std::unordered_map<const float *, std::vector<std::size_t>> vmmReads;
    const float *runBlock = nullptr;
    std::vector<std::size_t> *run = nullptr;
    auto readersOf = [&](const float *block) {
        if (run == nullptr || block != runBlock) {
            runBlock = block;
            run = &vmmReads[block];
        }
        return run;
    };
    for (std::size_t k = 0; k < ops_.size(); ++k)
        if (ops_[k].kind == ReplayKind::Vmm)
            readersOf(ops_[k].b)->push_back(k);
    std::vector<Group> groups;
    std::vector<int> groupOf(ops_.size(), -1); // per op: its group
    std::vector<std::size_t> members; // block Vmms of a read group
    std::size_t i = 0;
    while (i < ops_.size()) {
        const ReplayOp &ld = ops_[i];
        const std::uint32_t R = ld.rows;
        const std::uint32_t n = ld.n;
        const std::uint32_t hp = ld.pitchA;
        const std::uint32_t sp = ld.pitchD;
        const float *staged = ld.d;
        const float *home = ld.a;
        const std::size_t stagedLen = std::size_t(R - 1) * sp + n;
        const std::size_t homeLen = std::size_t(R - 1) * hp + n;
        if (ld.kind != ReplayKind::Copy2d || R == 0 || sp < n ||
            hp < n || overlaps(home, homeLen, staged, stagedLen)) {
            ++i;
            continue;
        }
        // True if a span touches neither the home nor the staged rows.
        auto clear = [&](const float *p, std::size_t len) {
            return !overlaps(p, len, home, homeLen) &&
                   !overlaps(p, len, staged, stagedLen);
        };

        Group g;
        g.begin = i;
        g.staged = staged;
        g.stagedLen = stagedLen;
        g.home = home;
        g.homePitch = hp;
        g.rows = R;
        g.width = n;
        const int id = static_cast<int>(groups.size());

        // Row-update shape: fused ops covering the R staged rows in
        // order (one block op once keep() has joined them), then the
        // mirror store. Every non-block operand must be disjoint from
        // both regions, and home rows must not overlap each other
        // (hp >= n above), or the in-place update would read its own
        // earlier writes.
        std::size_t j = i + 1;
        std::uint32_t covered = 0;
        bool rowGroup = true;
        for (; rowGroup && covered < R && j < ops_.size(); ++j) {
            const ReplayOp &f = ops_[j];
            rowGroup = isFusedUpdate(f) && f.n == n &&
                       f.d == staged + std::size_t(covered) * sp &&
                       (f.rows == 1 || f.pitchD == sp) &&
                       clear(f.a, n) && clear(srcPool_[f.pitchA], n) &&
                       clear(f.b, f.rows) && clear(f.dn, n);
            covered += f.rows;
        }
        if (rowGroup && covered == R && j < ops_.size()) {
            const ReplayOp &st = ops_[j];
            rowGroup = st.kind == ReplayKind::Copy2d &&
                       st.a == staged && st.d == home && st.n == n &&
                       st.rows == R && st.pitchA == sp &&
                       st.pitchD == hp;
        } else {
            rowGroup = false;
        }
        if (rowGroup) {
            g.homeMut = ops_[j].d;
            g.end = j + 1;
            std::fill(groupOf.begin() + static_cast<std::ptrdiff_t>(i),
                      groupOf.begin() + static_cast<std::ptrdiff_t>(j + 1),
                      id);
            groups.push_back(g);
            i = j + 1;
            continue;
        }

        // Read-only shape: Vmm ops over the staged block, possibly
        // interleaved with ops that never touch either region (the
        // codegen loads each head's key vector between Vmms). The
        // group ends at the last such Vmm; a cap bounds the scan.
        // The scan stops at the last Vmm that reads the staged block.
        members.clear();
        const std::size_t scanLimit = std::min(ops_.size(), i + 1 + 256);
        const std::vector<std::size_t> &readers = *readersOf(staged);
        const auto first =
            std::upper_bound(readers.begin(), readers.end(), i);
        const auto last = std::lower_bound(first, readers.end(), scanLimit);
        const std::size_t scanEnd = first == last ? i + 1 : *std::prev(last) + 1;
        for (std::size_t k = i + 1; k < scanEnd; ++k) {
            const ReplayOp &f = ops_[k];
            const bool blockVmm = f.kind == ReplayKind::Vmm &&
                                  f.b == staged && f.pitchA == sp &&
                                  f.rows == R && f.n == n;
            if (blockVmm) {
                const bool rowDot = (f.flags & kReplayRowDot) != 0;
                if (!clear(f.a, rowDot ? n : R) ||
                    !clear(f.d, rowDot ? R : n) ||
                    (f.dn != nullptr && !clear(f.dn, R)))
                    break;
                members.push_back(k);
            } else if (touchesRegion(f, staged, stagedLen) ||
                       touchesRegion(f, home, homeLen)) {
                break;
            }
        }
        if (members.empty()) {
            ++i;
            continue;
        }
        // Interleaved ops stay outside the group (-1), so the validity
        // check below still sees them as foreign to every cluster.
        groupOf[i] = id;
        for (const std::size_t k : members)
            groupOf[k] = id;
        g.end = members.back() + 1;
        groups.push_back(g);
        i = g.end;
    }

    if (groups.empty()) {
        if (debug)
            std::fprintf(stderr,
                         "replay: staging elision: 0 groups (%.2f ms)\n",
                         msSince(t0));
        return;
    }

    // Pass 2: chain the groups into sweeps.
    std::vector<Sweep> sweeps;
    for (std::size_t gi = 0; gi < groups.size();) {
        Sweep sw;
        const std::size_t count = chainSweep(groups, groupOf, gi, sw);
        if (count == 0) {
            ++gi;
            continue;
        }
        sweeps.push_back(std::move(sw));
        gi += count;
    }

    // Pass 3: cluster the staged regions into merged address
    // intervals, and the stage words of the Vmm sweeps likewise; one
    // walk over every span then keeps each cluster elidable only if
    // every span touching it belongs to one of its own groups, and
    // lists the ops that touch each stage interval.
    std::vector<WatchedSpan> clusters;
    clusters.reserve(groups.size());
    for (const Group &g : groups)
        clusters.push_back({spanOf(g.staged, g.stagedLen), 0});
    mergeSpans(clusters);
    const WatchIndex clusterIndex(clusters);
    for (Group &g : groups)
        g.cluster = clusterIndex.first(wordOf(g.staged));
    std::vector<WatchedSpan> stages;
    for (Sweep &sw : sweeps) {
        if (sw.stage.lo >= sw.stage.hi)
            continue;
        // Stage words inside a cluster would make the two overlap.
        bool inCluster = false;
        clusterIndex.forEachHit(sw.stage,
                                [&](std::size_t) { inCluster = true; });
        if (inCluster)
            sw.stage = {};
        else
            stages.push_back({sw.stage, 0});
    }
    mergeSpans(stages);
    for (Sweep &sw : sweeps) {
        if (sw.stage.lo >= sw.stage.hi)
            continue;
        const auto at = std::upper_bound(
            stages.begin(), stages.end(), sw.stage.lo,
            [](std::uintptr_t p, const WatchedSpan &w) {
                return p < w.span.lo;
            });
        sw.watch = static_cast<std::size_t>(at - stages.begin()) - 1;
    }
    std::vector<WatchedSpan> watched = clusters;
    watched.insert(watched.end(), stages.begin(), stages.end());
    for (std::size_t w = 0; w < watched.size(); ++w)
        watched[w].id = w;
    const WatchIndex index(std::move(watched));

    // Each stage interval's touching spans, in tape order; rewrite
    // marks the ones a single-row copy writes.
    struct Touch
    {
        std::size_t op;
        Span span;
        bool rewrite;
    };
    std::vector<std::vector<Touch>> touches(stages.size());
    std::vector<char> invalid(clusters.size(), 0);
    // The group ops of a Vmm sweep's window touch its stage words only
    // as a copy and then the Vmm reading it (chainSweep() checks it),
    // so they stand as one rewrite at the window's start.
    std::size_t sweepAt = 0;
    std::size_t foreignAt = 0;
    for (std::size_t idx = 0; idx < ops_.size(); ++idx) {
        const ReplayOp &op = ops_[idx];
        const int g = groupOf[idx];
        while (sweepAt < sweeps.size() &&
               groups[sweeps[sweepAt].last - 1].end <= idx) {
            ++sweepAt;
            foreignAt = 0;
        }
        const Sweep *sw = sweepAt < sweeps.size() &&
                                  groups[sweeps[sweepAt].first].begin <= idx &&
                                  sweeps[sweepAt].stage.lo <
                                      sweeps[sweepAt].stage.hi
                              ? &sweeps[sweepAt]
                              : nullptr;
        if (sw != nullptr && idx == groups[sw->first].begin)
            touches[sw->watch].push_back({idx, sw->rewrite, true});
        bool foreign = false;
        if (sw != nullptr && foreignAt < sw->foreign.size() &&
            sw->foreign[foreignAt] == idx) {
            foreign = true;
            ++foreignAt;
        }
        const Span staged =
            g >= 0 ? spanOf(groups[g].staged, groups[g].stagedLen)
                   : Span{};
        forEachSpan(op, [&](const float *p, std::size_t len,
                            bool written) {
            if (p == nullptr || len == 0)
                return;
            const Span s = spanOf(p, len);
            // A group's own staged rows lie in its own cluster alone, as
            // a window's stage words lie in their interval alone.
            auto within = [&s](Span x) {
                return s.lo >= x.lo && s.hi <= x.hi;
            };
            if (within(staged) ||
                (sw != nullptr && !foreign && within(sw->stage)))
                return;
            index.forEachHit(s, [&](std::size_t c) {
                if (c >= clusters.size()) {
                    touches[c - clusters.size()].push_back(
                        {idx, s,
                         written && op.kind == ReplayKind::Copy2d &&
                             op.rows == 1});
                    return;
                }
                if (invalid[c] || (g >= 0 && groups[g].cluster == c))
                    return;
                invalid[c] = 1;
                if (debug)
                    std::fprintf(stderr,
                                 "replay: staging cluster %zu kept "
                                 "(touched by op %zu kind=%d)\n",
                                 c, idx, static_cast<int>(op.kind));
            });
        });
    }

    // True if no op after @p sw's window, around the tape (every step
    // replays it), reads a stage word the sweep's dropped copies wrote
    // before a single-row copy writes that word again.
    auto stageDead = [&](const Sweep &sw) {
        const std::vector<Touch> &t = touches[sw.watch];
        const std::size_t begin = groups[sw.first].begin;
        const std::size_t end = groups[sw.last - 1].end;
        Span live = sw.stage;
        auto next = std::lower_bound(
            t.begin(), t.end(), end,
            [](const Touch &x, std::size_t k) { return x.op < k; });
        for (std::size_t seen = 0; seen < t.size(); ++seen, ++next) {
            if (next == t.end())
                next = t.begin();
            if (next->op >= begin && next->op < end)
                break; // round to the window: nothing else reads them
            const Span w = next->span;
            if (!overlaps(w, live))
                continue;
            if (!next->rewrite)
                return false;
            if (w.lo <= live.lo && w.hi >= live.hi)
                return true;
            if (w.lo <= live.lo)
                live.lo = w.hi;
            else if (w.hi >= live.hi)
                live.hi = w.lo;
        }
        return true;
    };
    // A sweep merges if every group's cluster is elided, and a Vmm
    // sweep, which drops its staging copies, if its stage words are
    // dead after it.
    std::vector<char> merges(sweeps.size(), 0);
    for (std::size_t s = 0; s < sweeps.size(); ++s) {
        const Sweep &sw = sweeps[s];
        bool ok = true;
        for (std::size_t gi = sw.first; ok && gi < sw.last; ++gi)
            ok = invalid[groups[gi].cluster] == 0;
        if (ok && !isFusedUpdate(sw.op))
            ok = sw.stage.lo < sw.stage.hi && stageDead(sw);
        merges[s] = ok ? 1 : 0;
    }

    // Pass 4, in place: in elidable clusters, drop the dead copies and
    // retarget the compute ops at the home rows; a merged sweep
    // becomes its op, then its window's other ops.
    std::size_t out = 0;
    std::size_t elided = 0;
    std::size_t mergedGroups = 0;
    std::size_t sweepOps = 0;
    std::size_t idx = 0;
    std::size_t next = 0; // the first sweep not yet passed
    for (std::size_t gi = 0; gi < groups.size(); ++gi) {
        const Group &g = groups[gi];
        while (idx < g.begin)
            ops_[out++] = ops_[idx++];
        while (next < sweeps.size() && sweeps[next].first < gi)
            ++next;
        if (next < sweeps.size() && sweeps[next].first == gi &&
            merges[next] != 0) {
            const Sweep &sw = sweeps[next];
            ReplayOp op = sw.op;
            if (isFusedUpdate(op)) {
                op.pitchA = static_cast<std::uint32_t>(srcPool_.size());
                srcPool_.push_back(sw.add);
                stageScratch_.resize(
                    std::max<std::size_t>(stageScratch_.size(), op.n));
                elided += 2 * (sw.last - sw.first);
            } else {
                op.pitchD = static_cast<std::uint32_t>(sweepPool_.size());
                sweepPool_.insert(sweepPool_.end(), sw.pairs.begin(),
                                  sw.pairs.end());
                elided += (1 + sw.pairs.size()) * (sw.last - sw.first);
            }
            ops_[out++] = op;
            for (const std::size_t k : sw.foreign)
                ops_[out++] = ops_[k];
            mergedGroups += sw.last - sw.first;
            ++sweepOps;
            idx = groups[sw.last - 1].end;
            gi = sw.last - 1;
            continue;
        }
        if (invalid[g.cluster] != 0) {
            while (idx < g.end)
                ops_[out++] = ops_[idx++];
            continue;
        }
        const bool rowGroup = g.homeMut != nullptr;
        elided += rowGroup ? 2 : 1;
        const std::size_t last = rowGroup ? g.end - 1 : g.end;
        std::size_t row = 0; // staged row the next row op starts at
        for (std::size_t k = g.begin + 1; k < last; ++k) {
            ReplayOp op = ops_[k];
            if (rowGroup) {
                // Move the op and its pitch to the home rows.
                op.d = g.homeMut + row * g.homePitch;
                op.pitchD = g.homePitch;
                row += op.rows;
            } else if (groupOf[k] >= 0) {
                op.b = g.home;
                op.pitchA = g.homePitch;
            }
            ops_[out++] = op;
        }
        idx = g.end;
    }
    while (idx < ops_.size())
        ops_[out++] = ops_[idx++];
    ops_.resize(out);
    if (debug)
        std::fprintf(stderr,
                     "replay: staging elision: %zu groups, %zu copies "
                     "dropped, %zu groups merged into %zu sweep ops, "
                     "%zu ops -> %zu (%.2f ms)\n",
                     groups.size(), elided, mergedGroups, sweepOps,
                     before, ops_.size(), msSince(t0));
}

void
execCommOp(const ReplayOp &op, const ReplayTape &tape,
           std::vector<float> &nocBuffer,
           std::vector<tensor::FVec> &readVectors,
           const tensor::FVec &pendingHidden)
{
    switch (op.kind) {
      case ReplayKind::Reduce:
        Noc::combineInto(tape.srcPtrs(op.pitchA), op.rows, op.n,
                         (op.flags & kReplayReduceMax) != 0
                             ? isa::ReduceOp::Max
                             : isa::ReduceOp::Sum,
                         nocBuffer);
        break;
      case ReplayKind::ReadVectorOut:
        readVectors[op.rows].assign(nocBuffer.begin(),
                                    nocBuffer.begin() + op.n);
        break;
      case ReplayKind::Broadcast: {
        if ((op.flags & kReplayHiddenIn) != 0)
            nocBuffer.assign(pendingHidden.begin(),
                             pendingHidden.end());
        float *const *dsts = tape.dstPtrs(op.pitchA);
        for (std::uint32_t t = 0; t < op.rows; ++t)
            std::copy(nocBuffer.begin(), nocBuffer.begin() + op.n,
                      dsts[t]);
        break;
      }
      case ReplayKind::UsageToAlloc:
        // The Controller tile's DNC free-list scan, with the golden
        // model's own function.
        nocBuffer = mann::dncAllocationFromUsage(nocBuffer);
        break;
      default:
        panic("execCommOp on a tile-level replay op");
    }
}

} // namespace manna::sim
