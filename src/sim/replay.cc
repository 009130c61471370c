#include "replay.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>

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
 * operation sequence as the unfused ops, including the final stage
 * values (the kernel TUs are compiled with -ffp-contract=off, so no
 * FMA contraction can make the fused chain round differently). Rows
 * run in tape order, so rows = 1 is exactly one recorded row. */
void
execFusedUpdate(const ReplayOp &op, const ReplayTape &tape)
{
    const float *add = tape.srcPtrs(op.pitchA)[0];
    const auto &k = tensor::simd::kernels();
    for (std::uint32_t r = 0; r < op.rows; ++r) {
        float *row = op.d + std::size_t(r) * op.pitchD;
        if (op.kind == ReplayKind::FusedRowUpdate)
            k.rowUpdate(op.a, add, op.b[r], op.imm, row, op.dn, op.n);
        else
            k.linkUpdate(op.a, add, op.b[r], row, op.dn, op.n);
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
 * spaces — but the tape only sees raw pointers, so verify).
 */
bool
fusedAliasFree(const float *row, const float *stage, const float *src,
               const float *add, const float *w, std::uint32_t n)
{
    return !overlaps(row, n, stage, n) && !overlaps(src, n, stage, n) &&
           !overlaps(src, n, row, n) && !overlaps(add, n, stage, n) &&
           !overlaps(add, n, row, n) && !overlaps(w, 1, stage, n) &&
           !overlaps(w, 1, row, n);
}

/** Match the soft-write quad at @p o; fills @p rop (pitchA is left
 * for the caller) and the add-vector row. */
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
    if (!shape ||
        !fusedAliasFree(o[2].d, o[0].d, o[0].a, o[3].a, o[0].b, n))
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
    if (!shape ||
        !fusedAliasFree(o[1].d, o[0].d, o[0].a, o[2].a, o[0].b, n))
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
        MANNA_ASSERT(tape != nullptr,
                     "fused row updates need the owning tape");
        execFusedUpdate(op, *tape);
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
        std::fprintf(stderr, "replay: %zu ops -> %zu after fusion\n",
                     appended_, ops_.size());
    elideStaging();
    state_ = State::Ready;
}

void
ReplayTape::record(const ReplayOp &op)
{
    ops_.push_back(op);
    // Both idioms end in an EwMac; a fused op never matches again.
    if (op.kind != ReplayKind::Elementwise || op.op != Opcode::EwMac)
        return;
    const std::size_t size = ops_.size();
    ReplayOp rop;
    const float *add = nullptr;
    std::size_t used = 0;
    if (size >= 4 && matchRowQuad(&ops_[size - 4], rop, add))
        used = 4;
    else if (size >= 3 && matchLinkTriple(&ops_[size - 3], rop, add))
        used = 3;
    if (used == 0)
        return;
    // A block's rows share one add vector: reuse its pool slot.
    if (srcPool_.empty() || srcPool_.back() != add)
        srcPool_.push_back(add);
    rop.pitchA = static_cast<std::uint32_t>(srcPool_.size() - 1);
    ops_.resize(size - used);
    ops_.push_back(rop);
}

void
ReplayTape::elideStaging()
{
    const auto t0 = std::chrono::steady_clock::now();
    const bool debug = std::getenv("MANNA_REPLAY_DEBUG") != nullptr;
    const std::size_t before = ops_.size();

    // One matched blocked-sweep group, as indices into the compacted
    // tape. ops_[begin] is the load, which copies the block's home
    // rows (in the matrix buffer) to its staged copy (in the
    // scratchpad); for row-update groups ops_[end - 1] is the mirror
    // store back home.
    struct Group
    {
        std::size_t begin = 0;
        std::size_t end = 0;
        const float *staged = nullptr;
        std::size_t stagedLen = 0;
        std::uint32_t stagedPitch = 0;
        float *homeMut = nullptr; // non-null only for row updates
        const float *home = nullptr;
        std::size_t homeLen = 0;
        std::uint32_t homePitch = 0;
        std::size_t cluster = 0;
    };

    // Enumerate every memory span an op reads or writes.
    auto forEachSpan = [&](const ReplayOp &op, auto &&fn) {
        switch (op.kind) {
          case ReplayKind::Copy2d:
            fn(op.a, std::size_t(op.rows - 1) * op.pitchA + op.n);
            fn(op.d, std::size_t(op.rows - 1) * op.pitchD + op.n);
            break;
          case ReplayKind::Vmm: {
            const bool rowDot = (op.flags & kReplayRowDot) != 0;
            fn(op.b, std::size_t(op.rows - 1) * op.pitchA + op.n);
            fn(op.a, std::size_t(rowDot ? op.n : op.rows));
            fn(op.d, std::size_t(rowDot ? op.rows : op.n));
            if (op.dn != nullptr)
                fn(op.dn, std::size_t(op.rows));
            break;
          }
          case ReplayKind::Elementwise:
            if (op.a != nullptr)
                fn(op.a, std::size_t(op.pitchA));
            if (op.b != nullptr)
                fn(op.b, std::size_t(op.pitchD));
            fn(op.d, std::size_t(op.n));
            break;
          case ReplayKind::Sfu:
            fn(op.a, std::size_t(op.n));
            if (op.b != nullptr)
                fn(op.b, std::size_t(1));
            // The accumulating SFU forms reduce to a scalar dst.
            fn(op.d, isa::opInfo(op.op).sfuCost == isa::SfuCost::Acc
                         ? std::size_t(1)
                         : std::size_t(op.n));
            break;
          case ReplayKind::FusedRowUpdate:
          case ReplayKind::FusedLinkUpdate:
            fn(op.a, std::size_t(op.n));
            fn(op.b, std::size_t(op.rows));
            fn(op.d, std::size_t(op.rows - 1) * op.pitchD + op.n);
            fn(op.dn, std::size_t(op.n));
            fn(srcPool_[op.pitchA], std::size_t(op.n));
            break;
          case ReplayKind::Reduce:
            for (std::uint32_t t = 0; t < op.rows; ++t)
                fn(srcPool_[op.pitchA + t], std::size_t(op.n));
            break;
          case ReplayKind::Broadcast:
            for (std::uint32_t t = 0; t < op.rows; ++t)
                fn(dstPool_[op.pitchA + t], std::size_t(op.n));
            break;
          case ReplayKind::ReadVectorOut:
          case ReplayKind::UsageToAlloc:
            break;
        }
    };
    auto touchesRegion = [&](const ReplayOp &op, const float *lo,
                             std::size_t len) {
        bool hit = false;
        forEachSpan(op, [&](const float *p, std::size_t sl) {
            if (p != nullptr && overlaps(p, sl, lo, len))
                hit = true;
        });
        return hit;
    };

    // Pass 1: match the groups and compact the tape in place (the
    // write index never passes the read index, and matching only
    // reads ahead of it). A row-update group whose R row ops share
    // every operand but a w that steps by one word becomes [load]
    // [one op with rows = R over the staged rows][store] here, so the
    // later passes visit one op where there were R.
    std::vector<Group> groups;
    std::vector<int> groupOf; // per compacted op: its group, or -1
    groupOf.reserve(ops_.size());
    std::size_t out = 0;
    auto emit = [&](const ReplayOp &op, int group) {
        ops_[out++] = op;
        groupOf.push_back(group);
    };
    std::vector<std::size_t> members; // block Vmms of a read group
    std::size_t i = 0;
    while (i < ops_.size()) {
        const ReplayOp ld = ops_[i];
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
            emit(ld, -1);
            ++i;
            continue;
        }
        // True if a span touches neither the home nor the staged rows.
        auto clear = [&](const float *p, std::size_t len) {
            return !overlaps(p, len, home, homeLen) &&
                   !overlaps(p, len, staged, stagedLen);
        };

        Group g;
        g.staged = staged;
        g.stagedLen = stagedLen;
        g.stagedPitch = sp;
        g.home = home;
        g.homeLen = homeLen;
        g.homePitch = hp;
        const int id = static_cast<int>(groups.size());

        // Row-update shape: R fused row updates on the staged rows,
        // then the mirror store. Every non-block operand must be
        // disjoint from both regions, and home rows must not overlap
        // each other (hp >= n above), or the in-place update would
        // read its own earlier writes.
        bool rowGroup = i + R + 1 < ops_.size();
        bool shared = true;
        const ReplayOp *rows = rowGroup ? &ops_[i + 1] : nullptr;
        for (std::uint32_t k = 0; rowGroup && k < R; ++k) {
            const ReplayOp &f = rows[k];
            rowGroup = isFusedUpdate(f) && f.rows == 1 && f.n == n &&
                       f.d == staged + std::size_t(k) * sp;
            shared = shared && rowGroup && f.kind == rows[0].kind &&
                     f.a == rows[0].a && f.dn == rows[0].dn &&
                     f.imm == rows[0].imm && f.b == rows[0].b + k &&
                     srcPool_[f.pitchA] == srcPool_[rows[0].pitchA];
        }
        if (rowGroup) {
            const ReplayOp &st = ops_[i + 1 + R];
            rowGroup = st.kind == ReplayKind::Copy2d &&
                       st.a == staged && st.d == home && st.n == n &&
                       st.rows == R && st.pitchA == sp &&
                       st.pitchD == hp;
        }
        if (rowGroup && shared) {
            const ReplayOp &f = rows[0];
            rowGroup = clear(f.a, n) && clear(srcPool_[f.pitchA], n) &&
                       clear(f.b, R) && clear(f.dn, n);
        } else {
            for (std::uint32_t k = 0; rowGroup && k < R; ++k) {
                const ReplayOp &f = rows[k];
                rowGroup = clear(f.a, n) &&
                           clear(srcPool_[f.pitchA], n) &&
                           clear(f.b, 1) && clear(f.dn, n);
            }
        }
        if (rowGroup) {
            g.begin = out;
            g.homeMut = ops_[i + 1 + R].d;
            const ReplayOp store = ops_[i + 1 + R];
            emit(ld, id);
            if (shared) {
                ReplayOp block = rows[0];
                block.rows = R;
                block.pitchD = sp;
                emit(block, id);
            } else {
                for (std::uint32_t k = 0; k < R; ++k)
                    emit(ops_[i + 1 + k], id);
            }
            emit(store, id);
            g.end = out;
            groups.push_back(g);
            i += R + 2;
            continue;
        }

        // Read-only shape: Vmm ops over the staged block, possibly
        // interleaved with ops that never touch either region (the
        // codegen loads each head's key vector between Vmms). The
        // group ends at the last such Vmm; a cap bounds the scan.
        members.clear();
        const std::size_t scanLimit = std::min(ops_.size(), i + 1 + 256);
        for (std::size_t j = i + 1; j < scanLimit; ++j) {
            const ReplayOp &f = ops_[j];
            const bool blockVmm = f.kind == ReplayKind::Vmm &&
                                  f.b == staged && f.pitchA == sp &&
                                  f.rows == R && f.n == n;
            if (blockVmm) {
                const bool rowDot = (f.flags & kReplayRowDot) != 0;
                if (!clear(f.a, rowDot ? n : R) ||
                    !clear(f.d, rowDot ? R : n) ||
                    (f.dn != nullptr && !clear(f.dn, R)))
                    break;
                members.push_back(j);
            } else if (touchesRegion(f, staged, stagedLen) ||
                       touchesRegion(f, home, homeLen)) {
                break;
            }
        }
        if (members.empty()) {
            emit(ld, -1);
            ++i;
            continue;
        }
        // Interleaved ops stay outside the group (-1), so the validity
        // check below still sees them as foreign to every cluster.
        g.begin = out;
        emit(ld, id);
        std::size_t m = 0;
        for (std::size_t j = i + 1; j <= members.back(); ++j) {
            const bool member = members[m] == j;
            m += member ? 1 : 0;
            emit(ops_[j], member ? id : -1);
        }
        g.end = out;
        groups.push_back(g);
        i = members.back() + 1;
    }
    ops_.resize(out);

    if (groups.empty()) {
        if (debug)
            std::fprintf(stderr,
                         "replay: staging elision: 0 groups (%.2f ms)\n",
                         msSince(t0));
        return;
    }

    // Pass 2: cluster the staged regions into merged address
    // intervals. The result is sorted and disjoint, so lookups
    // binary-search it.
    struct Interval
    {
        const float *lo;
        const float *hi;
    };
    std::vector<Interval> clusters;
    clusters.reserve(groups.size());
    for (const auto &g : groups)
        clusters.push_back({g.staged, g.staged + g.stagedLen});
    std::sort(clusters.begin(), clusters.end(),
              [](const Interval &x, const Interval &y) {
                  return x.lo < y.lo;
              });
    std::size_t merged = 0;
    for (const auto &iv : clusters) {
        if (merged > 0 && iv.lo <= clusters[merged - 1].hi)
            clusters[merged - 1].hi =
                std::max(clusters[merged - 1].hi, iv.hi);
        else
            clusters[merged++] = iv;
    }
    clusters.resize(merged);
    // First cluster ending after @p p (branch-free: the probes are
    // data-dependent, so a branchy search mispredicts on most spans).
    auto firstClusterAfter = [&](const float *p) {
        const Interval *base = clusters.data();
        std::size_t len = clusters.size();
        while (len > 1) {
            const std::size_t half = len / 2;
            base = base[half - 1].hi <= p ? base + half : base;
            len -= half;
        }
        return static_cast<std::size_t>(base - clusters.data()) +
               (base->hi <= p ? 1 : 0);
    };
    for (auto &g : groups)
        g.cluster = firstClusterAfter(g.staged);

    // A cluster stays elidable only if every span touching it belongs
    // to one of its own groups.
    std::vector<char> invalid(clusters.size(), 0);
    for (std::size_t idx = 0; idx < ops_.size(); ++idx) {
        const int g = groupOf[idx];
        forEachSpan(ops_[idx], [&](const float *p, std::size_t len) {
            if (p == nullptr || len == 0)
                return;
            for (std::size_t c = firstClusterAfter(p);
                 c < clusters.size() && clusters[c].lo < p + len; ++c) {
                if (invalid[c] || (g >= 0 && groups[g].cluster == c))
                    continue;
                invalid[c] = 1;
                if (debug)
                    std::fprintf(stderr,
                                 "replay: staging cluster %zu kept "
                                 "(touched by op %zu kind=%d)\n",
                                 c, idx,
                                 static_cast<int>(ops_[idx].kind));
            }
        });
    }

    // Pass 3, in place again: in elidable clusters, drop the dead
    // copies and retarget the compute ops at the home rows.
    const std::size_t compacted = ops_.size();
    out = 0;
    std::size_t elided = 0;
    std::size_t idx = 0;
    for (const Group &g : groups) {
        while (idx < g.begin)
            ops_[out++] = ops_[idx++];
        if (invalid[g.cluster] != 0) {
            while (idx < g.end)
                ops_[out++] = ops_[idx++];
            continue;
        }
        const bool rowGroup = g.homeMut != nullptr;
        elided += rowGroup ? 2 : 1;
        const std::size_t last = rowGroup ? g.end - 1 : g.end;
        for (std::size_t k = g.begin + 1; k < last; ++k) {
            ReplayOp op = ops_[k];
            if (rowGroup) {
                // Row op k-1 starts at staged row k-1 (a block op at
                // row 0); move it and its pitch to the home rows.
                op.d = g.homeMut + (k - g.begin - 1) * g.homePitch;
                op.pitchD = g.homePitch;
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
                     "replay: staging elision: %zu groups, "
                     "%zu copies dropped, %zu ops -> %zu -> %zu "
                     "(%.2f ms)\n",
                     groups.size(), elided, before, compacted,
                     ops_.size(), msSince(t0));
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
