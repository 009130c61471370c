#include "replay.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
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
computeVmm(const ReplayOp &op)
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
computeElementwise(const ReplayOp &op)
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
computeSfu(const ReplayOp &op)
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
computeFusedUpdate(const ReplayOp &op, const ReplayTape &tape)
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
computeRowDotSweep(const ReplayOp &op, const ReplayTape &tape)
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
computeColumnSweep(const ReplayOp &op, const ReplayTape &tape)
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

/**
 * Disjoint byte ranges, sorted, merged from the ranges given (those
 * that overlap or touch become one): the staging clusters, or the
 * stage intervals, the validity walk watches.
 */
class WatchIndex
{
  public:
    explicit WatchIndex(std::vector<Span> spans) : spans_(std::move(spans))
    {
        std::sort(spans_.begin(), spans_.end(),
                  [](Span x, Span y) { return x.lo < y.lo; });
        std::size_t merged = 0;
        for (const Span s : spans_) {
            if (merged > 0 && s.lo <= spans_[merged - 1].hi)
                spans_[merged - 1].hi = std::max(spans_[merged - 1].hi, s.hi);
            else
                spans_[merged++] = s;
        }
        spans_.resize(merged);
    }

    std::size_t size() const { return spans_.size(); }

    /** Index of the first range ending after byte @p p. */
    std::size_t first(std::uintptr_t p) const
    {
        return static_cast<std::size_t>(
            std::partition_point(spans_.begin(), spans_.end(),
                                 [p](Span s) { return s.hi <= p; }) -
            spans_.begin());
    }

    /** Call fn(i) for each range i that @p s overlaps, in address
     * order. */
    template <typename Fn>
    void forEachHit(Span s, Fn &&fn) const
    {
        for (std::size_t i = first(s.lo);
             i < spans_.size() && spans_[i].lo < s.hi; ++i)
            fn(i);
    }

  private:
    std::vector<Span> spans_;
};

double
msSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

} // namespace

bool
replayDebug()
{
    static const bool debug = std::getenv("MANNA_REPLAY_DEBUG") != nullptr;
    return debug;
}

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
        computeVmm(op);
        break;
      case ReplayKind::Elementwise:
        computeElementwise(op);
        break;
      case ReplayKind::Sfu:
        computeSfu(op);
        break;
      case ReplayKind::FusedRowUpdate:
      case ReplayKind::FusedLinkUpdate:
      case ReplayKind::RowDotSweep:
      case ReplayKind::ColumnSweep:
        MANNA_ASSERT(tape != nullptr,
                     "the tape's merged ops need the owning tape");
        if (isFusedUpdate(op))
            computeFusedUpdate(op, *tape);
        else if (op.kind == ReplayKind::RowDotSweep)
            computeRowDotSweep(op, *tape);
        else
            computeColumnSweep(op, *tape);
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
    if (replayDebug())
        std::fprintf(stderr,
                     "replay: %zu ops (%zu of them in %zu runs, %zu "
                     "runs recorded op by op) -> %zu recorded\n",
                     appended_, runOps_, runs_, runFallbacks_,
                     ops_.size());
    if (!raw_)
        elideStaging();
    state_ = State::Ready;
}

void
ReplayTape::record(const ReplayOp &op)
{
    keep(op, nullptr);
    // Both idioms end in an EwMac; a fused op never matches again.
    if (raw_ || op.kind != ReplayKind::Elementwise ||
        op.op != Opcode::EwMac)
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
    if (raw_ || !compileRun(body, steps, iterations)) {
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

/** A window, whether its ops are the blocks it names, the first check
 * it failed (null while none), and what replaces it when it merges. */
struct ReplayTape::Sweep
{
    const SweepWindow *w = nullptr;
    bool shaped = false;
    const char *fail = nullptr;
    ReplayOp op;                // Vmm kinds, and row updates over
    const float *add = nullptr; // more than one column block
    Span staged{};              // every staged block
    Span stage{}; // Vmm kinds: the stage words its copies write
    std::vector<Span> reads;
    std::vector<Span> writes;
    std::size_t cluster = 0;
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
        fn(op.dn, std::size_t(op.n), true);
        fn(srcPool_[op.pitchA], std::size_t(op.n), false);
        break;
      case ReplayKind::Reduce:
        for (std::uint32_t t = 0; t < op.rows; ++t)
            fn(srcPool_[op.pitchA + t], std::size_t(op.n), false);
        break;
      case ReplayKind::Broadcast:
        for (std::uint32_t t = 0; t < op.rows; ++t)
            fn(dstPool_[op.pitchA + t], std::size_t(op.n), true);
        break;
      default: // the merged kinds come after the walks that call this
        break;
    }
}

void
ReplayTape::checkSweep(Sweep &sw) const
{
    const SweepWindow &w = *sw.w;
    const bool update = w.kind == compiler::SweepKind::RowUpdate;
    const bool rowDot = w.kind == compiler::SweepKind::RowDot;
    sw.fail = "ops differ from the descriptor";
    if (w.rows == 0 || w.cols == 0 || w.blockN == 0 || w.blockM == 0 ||
        w.pitch < w.cols || w.end > ops_.size() ||
        (update ? !w.pairs.empty()
                : w.pairs.empty() || w.pairs.size() > 255))
        return;
    // The blocks in the loop order compiler::emitBlockedSweep() emits.
    const std::uint32_t outer = w.outerRows ? w.rows : w.cols;
    const std::uint32_t inner = w.outerRows ? w.cols : w.rows;
    const std::uint32_t outerStep = w.outerRows ? w.blockN : w.blockM;
    const std::uint32_t innerStep = w.outerRows ? w.blockM : w.blockN;
    const ReplayOp *first = nullptr; // a row update's first block op
    std::size_t k = w.begin;
    for (std::uint32_t i = 0; i < outer; i += outerStep) {
        for (std::uint32_t j = 0; j < inner; j += innerStep) {
            const std::uint32_t r0 = w.outerRows ? i : j;
            const std::uint32_t c0 = w.outerRows ? j : i;
            const std::uint32_t rb = std::min(w.blockN, w.rows - r0);
            const std::uint32_t cb = std::min(w.blockM, w.cols - c0);
            float *home = w.home + std::size_t(r0) * w.pitch + c0;
            const std::size_t left = w.end - k;
            if (left < (update ? 3 : 1 + 2 * w.pairs.size()))
                return;
            const ReplayOp &ld = ops_[k++];
            if (ld.kind != ReplayKind::Copy2d || ld.a != home ||
                ld.rows != rb || ld.n != cb || ld.pitchA != w.pitch ||
                ld.pitchD < cb || ld.d != ops_[w.begin].d)
                return;
            const Span staged =
                spanOf(ld.d, std::size_t(rb - 1) * ld.pitchD + cb);
            sw.staged = {staged.lo, std::max(sw.staged.hi, staged.hi)};
            if (update) {
                const ReplayOp &f = ops_[k++];
                const ReplayOp &st = ops_[k++];
                first = first != nullptr ? first : &f;
                if (!isFusedUpdate(f) || f.kind != first->kind ||
                    f.n != cb || f.rows != rb || f.d != ld.d ||
                    (rb > 1 && f.pitchD != ld.pitchD) ||
                    f.a != first->a + c0 || f.b != first->b + r0 ||
                    srcPool_[f.pitchA] != srcPool_[first->pitchA] + c0 ||
                    f.dn != w.stage || f.imm != first->imm ||
                    st.kind != ReplayKind::Copy2d || st.a != ld.d ||
                    st.d != home || st.n != cb || st.rows != rb ||
                    st.pitchA != ld.pitchD || st.pitchD != w.pitch)
                    return;
                continue;
            }
            for (std::size_t v = 0; v < w.pairs.size(); ++v) {
                const ReplayOp &c = ops_[k++];
                const ReplayOp &m = ops_[k++];
                // Row norms ride on the first vector only.
                const bool norms = v == 0 && w.norms != nullptr;
                const auto flags = static_cast<std::uint8_t>(
                    kReplayAccumulate | (rowDot ? kReplayRowDot : 0) |
                    (norms ? kReplayWithNorms : 0));
                if (c.kind != ReplayKind::Copy2d || c.rows != 1 ||
                    c.a != w.pairs[v].v + (rowDot ? c0 : r0) ||
                    c.n != (rowDot ? cb : rb) || c.d != w.stage ||
                    m.kind != ReplayKind::Vmm || m.flags != flags ||
                    m.a != w.stage || m.b != ld.d ||
                    m.pitchA != ld.pitchD || m.rows != rb || m.n != cb ||
                    m.d != w.pairs[v].d + (rowDot ? r0 : c0) ||
                    m.dn != (norms ? w.norms + r0 : nullptr))
                    return;
            }
        }
    }
    if (k != w.end)
        return;
    sw.shaped = true;

    // The merged op, and what it reads and writes.
    const std::uint32_t block = std::min(w.blockM, w.cols);
    const Span matrix =
        spanOf(w.home, std::size_t(w.rows - 1) * w.pitch + w.cols);
    ReplayOp &op = sw.op;
    if (update) {
        op = *first;
        sw.add = srcPool_[first->pitchA];
        sw.reads = {spanOf(op.a, w.cols), spanOf(sw.add, w.cols),
                    spanOf(op.b, w.rows)};
        sw.writes = {matrix, spanOf(w.stage, block)};
        op.d = w.home;
        op.pitchD = w.pitch;
    } else {
        op.kind = rowDot ? ReplayKind::RowDotSweep : ReplayKind::ColumnSweep;
        op.flags = w.norms != nullptr ? kReplayWithNorms : 0;
        op.vecs = static_cast<std::uint8_t>(w.pairs.size());
        op.b = w.home;
        op.pitchA = w.pitch;
        op.dn = w.norms;
        sw.reads = {matrix};
        for (const SweepPair &p : w.pairs) {
            sw.reads.push_back(spanOf(p.v, rowDot ? w.cols : w.rows));
            sw.writes.push_back(spanOf(p.d, rowDot ? w.rows : w.cols));
        }
        if (w.norms != nullptr)
            sw.writes.push_back(spanOf(w.norms, w.rows));
        sw.stage = spanOf(w.stage, rowDot ? block : std::min(w.blockN, w.rows));
    }
    op.rows = w.rows;
    op.n = w.cols;
    op.block = block;

    // Legality: destinations disjoint from each other and from every
    // source, and the stage words from both.
    sw.fail = "aliased operands";
    for (std::size_t i = 0; i < sw.writes.size(); ++i) {
        for (std::size_t j = i + 1; j < sw.writes.size(); ++j)
            if (overlaps(sw.writes[i], sw.writes[j]))
                return;
        for (const Span &r : sw.reads)
            if (overlaps(sw.writes[i], r))
                return;
    }
    for (const std::vector<Span> *spans : {&sw.reads, &sw.writes})
        for (const Span &s : *spans)
            if (overlaps(sw.stage, s))
                return;
    sw.fail = nullptr;
}

void
ReplayTape::elideStaging()
{
    const auto t0 = std::chrono::steady_clock::now();
    const std::size_t before = ops_.size();

    // Pass 1: check each window alone.
    std::vector<Sweep> sweeps(windows_.size());
    std::size_t prevEnd = 0;
    for (std::size_t s = 0; s < windows_.size(); ++s) {
        sweeps[s].w = &windows_[s];
        if (windows_[s].begin >= prevEnd)
            checkSweep(sweeps[s]);
        else
            sweeps[s].fail = "overlaps the previous window";
        prevEnd = std::max(prevEnd, windows_[s].end);
    }

    // Pass 2: cluster the staged blocks of the windows whose ops match
    // into merged address intervals, and the stage words of the Vmm
    // sweeps likewise. One walk keeps a cluster elidable only if no
    // span outside those windows touches it, and lists each stage
    // interval's touches in tape order. A matched window touches its
    // staged blocks only to load them and read them back; it stands in
    // the walk as the spans it reads and writes, then as a rewrite of
    // its stage words (its first copy writes all of them, and any
    // earlier read of one is among those spans).
    std::vector<Span> staged;
    std::vector<Span> stages;
    for (const Sweep &sw : sweeps) {
        if (sw.shaped)
            staged.push_back(sw.staged);
        if (sw.fail == nullptr && sw.stage.lo < sw.stage.hi)
            stages.push_back(sw.stage);
    }
    const WatchIndex clusters(std::move(staged));
    const WatchIndex stageIndex(std::move(stages));
    for (Sweep &sw : sweeps) {
        sw.cluster = clusters.first(sw.staged.lo);
        sw.watch = stageIndex.first(sw.stage.lo);
    }

    // Each stage interval's touching spans, in tape order; rewrite
    // marks the ones written before anything reads them.
    struct Touch
    {
        std::size_t op;
        Span span;
        bool rewrite;
    };
    std::vector<std::vector<Touch>> touches(stageIndex.size());
    std::vector<char> invalid(clusters.size(), 0);
    auto touch = [&](std::size_t idx, Span s, bool rewrite) {
        clusters.forEachHit(s, [&](std::size_t c) { invalid[c] = 1; });
        stageIndex.forEachHit(s, [&](std::size_t i) {
            touches[i].push_back({idx, s, rewrite});
        });
    };
    std::size_t next = 0; // the next window
    for (std::size_t idx = 0; idx < ops_.size();) {
        while (next < sweeps.size() &&
               (!sweeps[next].shaped || sweeps[next].w->begin < idx))
            ++next;
        if (next < sweeps.size() && sweeps[next].w->begin == idx) {
            const Sweep &sw = sweeps[next];
            for (const Span &s : sw.reads)
                touch(idx, s, false);
            for (const Span &s : sw.writes)
                touch(idx, s, false);
            if (sw.stage.lo < sw.stage.hi)
                touch(idx, sw.stage, true);
            idx = sw.w->end;
            continue;
        }
        const ReplayOp &op = ops_[idx];
        forEachSpan(op, [&](const float *p, std::size_t len,
                            bool written) {
            if (p != nullptr && len != 0)
                touch(idx, spanOf(p, len),
                      written && op.kind == ReplayKind::Copy2d &&
                          op.rows == 1);
        });
        ++idx;
    }

    // True if no op after @p sw's window, around the tape (every step
    // replays it), reads a stage word the sweep's dropped copies wrote
    // before a copy writes that word again.
    auto stageDead = [&](const Sweep &sw) {
        const std::vector<Touch> &t = touches[sw.watch];
        Span live = sw.stage;
        auto at = std::lower_bound(
            t.begin(), t.end(), sw.w->end,
            [](const Touch &x, std::size_t k) { return x.op < k; });
        for (std::size_t seen = 0; seen < t.size(); ++seen, ++at) {
            if (at == t.end())
                at = t.begin();
            if (at->op >= sw.w->begin && at->op < sw.w->end)
                break; // round to the window: nothing else reads them
            const Span w = at->span;
            if (!overlaps(w, live))
                continue;
            if (!at->rewrite)
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

    // Pass 3, in place: a window that passed every check becomes its
    // merged op(s); every other op stays.
    std::size_t out = 0;
    std::size_t idx = 0;
    std::size_t merged = 0;
    for (Sweep &sw : sweeps) {
        const SweepWindow &w = *sw.w;
        if (sw.fail == nullptr && invalid[sw.cluster] != 0)
            sw.fail = "staging cluster touched outside the sweeps";
        if (sw.fail == nullptr && sw.stage.lo < sw.stage.hi &&
            !stageDead(sw))
            sw.fail = "stage words read after the sweep";
        if (sw.fail != nullptr)
            continue;
        while (idx < w.begin)
            ops_[out++] = ops_[idx++];
        ReplayOp op = sw.op;
        if (w.kind != compiler::SweepKind::RowUpdate) {
            op.pitchD = static_cast<std::uint32_t>(sweepPool_.size());
            sweepPool_.insert(sweepPool_.end(), w.pairs.begin(),
                              w.pairs.end());
            ops_[out++] = op;
        } else if (w.cols > w.blockM) {
            op.pitchA = static_cast<std::uint32_t>(srcPool_.size());
            srcPool_.push_back(sw.add);
            stageScratch_.resize(
                std::max<std::size_t>(stageScratch_.size(), op.n));
            ops_[out++] = op;
        } else {
            // One column block: each row block's op, at its home rows.
            for (std::size_t k = w.begin + 1; k < w.end; k += 3) {
                op = ops_[k];
                op.d = w.home + (k - w.begin) / 3 * w.blockN * w.pitch;
                op.pitchD = w.pitch;
                ops_[out++] = op;
            }
        }
        ++merged;
        idx = w.end;
    }
    while (idx < ops_.size())
        ops_[out++] = ops_[idx++];
    ops_.resize(out);
    if (!replayDebug())
        return;
    std::fprintf(stderr,
                 "replay: staging elision: %zu sweep windows described, "
                 "%zu merged, %zu kept raw, %zu ops -> %zu (%.2f ms)\n",
                 sweeps.size(), merged, sweeps.size() - merged, before,
                 ops_.size(), msSince(t0));
    for (std::size_t s = 0; s < sweeps.size(); ++s)
        if (sweeps[s].fail != nullptr)
            std::fprintf(stderr,
                         "replay: sweep window %zu (ops %zu..%zu) kept "
                         "raw: %s\n",
                         s, sweeps[s].w->begin, sweeps[s].w->end,
                         sweeps[s].fail);
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
