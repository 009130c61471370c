/**
 * @file
 * Unit and property tests for the FP32 tensor primitives shared by
 * the golden model and the simulator's functional datapath.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.hh"
#include "tensor/dispatch.hh"
#include "tensor/matrix.hh"
#include "tensor/vector_ops.hh"

namespace manna::tensor
{
namespace
{

FVec
randomVec(std::size_t n, Rng &rng, float scale = 1.0f)
{
    FVec v(n);
    for (auto &x : v)
        x = static_cast<float>(rng.gaussian(0.0, scale));
    return v;
}

TEST(VectorOps, DotAndNorm)
{
    const FVec a{1.0f, 2.0f, 3.0f};
    const FVec b{4.0f, -5.0f, 6.0f};
    EXPECT_FLOAT_EQ(dot(a, b), 4.0f - 10.0f + 18.0f);
    EXPECT_FLOAT_EQ(norm2({3.0f, 4.0f}), 5.0f);
}

TEST(VectorOps, CosineSimilarityBounds)
{
    Rng rng(1);
    for (int i = 0; i < 200; ++i) {
        const FVec a = randomVec(16, rng);
        const FVec b = randomVec(16, rng);
        const float s = cosineSimilarity(a, b);
        EXPECT_LE(s, 1.0f + 1e-5f);
        EXPECT_GE(s, -1.0f - 1e-5f);
    }
}

TEST(VectorOps, CosineSimilarityIdenticalVectors)
{
    const FVec a{1.0f, 2.0f, -3.0f};
    EXPECT_NEAR(cosineSimilarity(a, a), 1.0f, 1e-5f);
    EXPECT_NEAR(cosineSimilarity(a, scale(a, -2.0f)), -1.0f, 1e-5f);
}

TEST(VectorOps, CosineSimilarityZeroVectorGuarded)
{
    const FVec zero(8, 0.0f);
    const FVec a{1.0f, 0, 0, 0, 0, 0, 0, 0};
    // epsilon keeps this finite and ~0.
    EXPECT_NEAR(cosineSimilarity(zero, a), 0.0f, 1e-3f);
}

TEST(VectorOps, ElementwiseBasics)
{
    const FVec a{1, 2, 3};
    const FVec b{4, 5, 6};
    EXPECT_EQ(add(a, b), (FVec{5, 7, 9}));
    EXPECT_EQ(sub(b, a), (FVec{3, 3, 3}));
    EXPECT_EQ(mul(a, b), (FVec{4, 10, 18}));
    EXPECT_EQ(scale(a, 2.0f), (FVec{2, 4, 6}));
    FVec y{1, 1, 1};
    axpy(2.0f, a, y);
    EXPECT_EQ(y, (FVec{3, 5, 7}));
}

class SoftmaxProperty : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(SoftmaxProperty, SumsToOneAndPositive)
{
    Rng rng(GetParam());
    const FVec a = randomVec(GetParam() + 2, rng, 3.0f);
    for (float beta : {0.5f, 1.0f, 4.0f}) {
        const FVec s = softmax(a, beta);
        float total = 0.0f;
        for (float v : s) {
            EXPECT_GT(v, 0.0f);
            total += v;
        }
        EXPECT_NEAR(total, 1.0f, 1e-5f);
    }
}

TEST_P(SoftmaxProperty, LargeBetaConcentratesOnMax)
{
    Rng rng(GetParam() * 7 + 1);
    FVec a = randomVec(GetParam() + 2, rng);
    const FVec s = softmax(a, 200.0f);
    const std::size_t argmax = static_cast<std::size_t>(
        std::max_element(a.begin(), a.end()) - a.begin());
    EXPECT_GT(s[argmax], 0.9f);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SoftmaxProperty,
                         ::testing::Values(1, 3, 8, 33, 100));

TEST(VectorOps, SoftmaxShiftInvariance)
{
    const FVec a{1.0f, 2.0f, 3.0f};
    FVec shifted = a;
    for (auto &v : shifted)
        v += 100.0f;
    EXPECT_LT(maxAbsDiff(softmax(a), softmax(shifted)), 1e-5f);
}

TEST(VectorOps, CircularConvolveIdentityKernel)
{
    Rng rng(4);
    const FVec a = randomVec(16, rng);
    // Kernel [0, 1, 0] (offsets -1, 0, +1) is the identity.
    const FVec out = circularConvolve(a, {0.0f, 1.0f, 0.0f});
    EXPECT_LT(maxAbsDiff(a, out), 1e-6f);
}

TEST(VectorOps, CircularConvolveShiftByOne)
{
    const FVec a{1.0f, 2.0f, 3.0f, 4.0f};
    // Kernel with weight on offset +1 rotates content forward:
    // out[i] = a[i-1].
    const FVec out = circularConvolve(a, {0.0f, 0.0f, 1.0f});
    EXPECT_EQ(out, (FVec{4.0f, 1.0f, 2.0f, 3.0f}));
}

class ConvolveProperty : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(ConvolveProperty, PreservesMassForStochasticKernels)
{
    Rng rng(GetParam() + 10);
    FVec a = randomVec(GetParam(), rng);
    for (auto &v : a)
        v = std::fabs(v);
    FVec kernel{0.2f, 0.5f, 0.3f};
    const FVec out = circularConvolve(a, kernel);
    EXPECT_NEAR(sum(out), sum(a), 1e-3f * sum(a) + 1e-5f);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ConvolveProperty,
                         ::testing::Values(4, 7, 32, 101));

TEST(VectorOps, SharpenNormalizesAndSharpens)
{
    const FVec w{0.1f, 0.6f, 0.3f};
    const FVec s = sharpen(w, 2.0f);
    EXPECT_NEAR(sum(s), 1.0f, 1e-6f);
    // Sharpening increases the mass of the largest element.
    EXPECT_GT(s[1], w[1]);
    EXPECT_LT(s[0], w[0]);
}

TEST(VectorOps, SharpenGammaOneIsNormalization)
{
    const FVec w{0.2f, 0.3f, 0.5f};
    const FVec s = sharpen(w, 1.0f);
    EXPECT_LT(maxAbsDiff(s, w), 1e-6f);
}

TEST(VectorOps, SharpenZeroInputDegeneratesToUniform)
{
    const FVec w(4, 0.0f);
    const FVec s = sharpen(w, 2.0f);
    for (float v : s)
        EXPECT_FLOAT_EQ(v, 0.25f);
}

TEST(VectorOps, ActivationRangesAndValues)
{
    EXPECT_NEAR(sigmoidScalar(0.0f), 0.5f, 1e-6f);
    EXPECT_GT(sigmoidScalar(10.0f), 0.999f);
    EXPECT_LT(sigmoidScalar(-10.0f), 0.001f);
    EXPECT_NEAR(softplusScalar(0.0f), std::log(2.0f), 1e-5f);
    EXPECT_NEAR(softplusScalar(30.0f), 30.0f, 1e-4f);
    EXPECT_NEAR(softplusScalar(-30.0f), 0.0f, 1e-5f);

    const FVec x{-1.0f, 0.0f, 2.0f};
    EXPECT_EQ(relu(x), (FVec{0.0f, 0.0f, 2.0f}));
    const FVec t = tanhVec(x);
    EXPECT_NEAR(t[1], 0.0f, 1e-6f);
    EXPECT_NEAR(t[2], std::tanh(2.0f), 1e-6f);
}

TEST(VectorOps, ConcatAndSlice)
{
    const FVec joined = concat({{1.0f, 2.0f}, {}, {3.0f}});
    EXPECT_EQ(joined, (FVec{1.0f, 2.0f, 3.0f}));
    EXPECT_EQ(slice(joined, 1, 2), (FVec{2.0f, 3.0f}));
}

TEST(VectorOps, SumMaxHelpers)
{
    const FVec a{1.0f, 5.0f, -2.0f};
    EXPECT_FLOAT_EQ(sum(a), 4.0f);
    EXPECT_FLOAT_EQ(maxElement(a), 5.0f);
    EXPECT_FLOAT_EQ(maxAbsDiff(a, {1.0f, 4.0f, -2.0f}), 1.0f);
}

// ---------------------------------------------------------------------
// FMat
// ---------------------------------------------------------------------

TEST(Matrix, ShapeAndAccess)
{
    FMat m(2, 3);
    EXPECT_EQ(m.rows(), 2u);
    EXPECT_EQ(m.cols(), 3u);
    m.at(1, 2) = 7.0f;
    EXPECT_FLOAT_EQ(m.at(1, 2), 7.0f);
    EXPECT_FLOAT_EQ(m.at(0, 0), 0.0f);
}

TEST(Matrix, RowColSetRow)
{
    FMat m(2, 3);
    m.setRow(0, {1.0f, 2.0f, 3.0f});
    m.setRow(1, {4.0f, 5.0f, 6.0f});
    EXPECT_EQ(m.row(1), (FVec{4.0f, 5.0f, 6.0f}));
    EXPECT_EQ(m.col(2), (FVec{3.0f, 6.0f}));
}

TEST(Matrix, TransposeInvolution)
{
    Rng rng(8);
    FMat m(5, 7, randomVec(35, rng));
    EXPECT_EQ(m.transposed().transposed().maxAbsDiff(m), 0.0f);
}

TEST(Matrix, VecMatMulMatchesManual)
{
    FMat m(2, 3);
    m.setRow(0, {1.0f, 2.0f, 3.0f});
    m.setRow(1, {4.0f, 5.0f, 6.0f});
    const FVec y = vecMatMul({2.0f, -1.0f}, m);
    EXPECT_EQ(y, (FVec{-2.0f, -1.0f, 0.0f}));
}

TEST(Matrix, MatVecMulMatchesManual)
{
    FMat m(2, 3);
    m.setRow(0, {1.0f, 2.0f, 3.0f});
    m.setRow(1, {4.0f, 5.0f, 6.0f});
    const FVec y = matVecMul(m, {1.0f, 0.0f, -1.0f});
    EXPECT_EQ(y, (FVec{-2.0f, -2.0f}));
}

class MatMulProperty
    : public ::testing::TestWithParam<std::pair<int, int>>
{
};

TEST_P(MatMulProperty, VecMatEqualsMatVecOfTranspose)
{
    Rng rng(99);
    const auto [r, c] = GetParam();
    FMat m(r, c, randomVec(static_cast<std::size_t>(r * c), rng));
    const FVec x = randomVec(static_cast<std::size_t>(r), rng);
    const FVec a = vecMatMul(x, m);
    const FVec b = matVecMul(m.transposed(), x);
    EXPECT_LT(maxAbsDiff(a, b), 1e-4f);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MatMulProperty,
    ::testing::Values(std::pair{1, 1}, std::pair{3, 5},
                      std::pair{16, 16}, std::pair{33, 7},
                      std::pair{64, 128}));

TEST(Matrix, MatVecMulBias)
{
    FMat m(2, 2);
    m.setRow(0, {1.0f, 0.0f});
    m.setRow(1, {0.0f, 1.0f});
    EXPECT_EQ(matVecMulBias(m, {3.0f, 4.0f}, {1.0f, -1.0f}),
              (FVec{4.0f, 3.0f}));
    // Empty bias treated as zero.
    EXPECT_EQ(matVecMulBias(m, {3.0f, 4.0f}, {}), (FVec{3.0f, 4.0f}));
}

TEST(Matrix, RowNormsAndCosine)
{
    FMat m(2, 2);
    m.setRow(0, {3.0f, 4.0f});
    m.setRow(1, {0.0f, 2.0f});
    EXPECT_EQ(rowNorms(m), (FVec{5.0f, 2.0f}));

    const FVec sims = rowCosineSimilarity(m, {0.0f, 1.0f});
    EXPECT_NEAR(sims[0], 0.8f, 1e-5f);
    EXPECT_NEAR(sims[1], 1.0f, 1e-5f);
}

TEST(Matrix, FillAndMaxAbsDiff)
{
    FMat a(2, 2), b(2, 2);
    a.fill(1.0f);
    b.fill(1.5f);
    EXPECT_FLOAT_EQ(a.maxAbsDiff(b), 0.5f);
}

// ---------------------------------------------------------------------
// Allocation-free *Into twins: bit-identical to the return-by-value
// primitives on random inputs, including when the out-parameter
// arrives with stale contents or reused capacity.
// ---------------------------------------------------------------------

class IntoTwinProperty : public ::testing::TestWithParam<std::size_t>
{
  protected:
    /** Stale garbage so tests catch any read-before-write of out. */
    FVec dirty(std::size_t n) const
    {
        return FVec(n, -123.456f);
    }
};

TEST_P(IntoTwinProperty, ElementwiseTwinsBitIdentical)
{
    Rng rng(GetParam() + 1000);
    const std::size_t n = GetParam();
    const FVec a = randomVec(n, rng, 2.0f);
    const FVec b = randomVec(n, rng, 2.0f);

    FVec out = dirty(n + 3);
    addInto(a, b, out);
    EXPECT_EQ(out, add(a, b));
    subInto(a, b, out);
    EXPECT_EQ(out, sub(a, b));
    mulInto(a, b, out);
    EXPECT_EQ(out, mul(a, b));
    scaleInto(a, 1.7f, out);
    EXPECT_EQ(out, scale(a, 1.7f));
}

TEST_P(IntoTwinProperty, ElementwiseTwinsAllowAliasedOutput)
{
    Rng rng(GetParam() + 2000);
    const std::size_t n = GetParam();
    const FVec a = randomVec(n, rng);
    const FVec b = randomVec(n, rng);

    FVec x = a;
    addInto(x, b, x);
    EXPECT_EQ(x, add(a, b));
    x = a;
    mulInto(x, x, x);
    EXPECT_EQ(x, mul(a, a));
    x = a;
    scaleInto(x, -0.5f, x);
    EXPECT_EQ(x, scale(a, -0.5f));
}

TEST_P(IntoTwinProperty, SoftmaxTwinsBitIdentical)
{
    Rng rng(GetParam() + 3000);
    const FVec a = randomVec(GetParam(), rng, 3.0f);

    FVec out = dirty(1);
    softmaxInto(a, out);
    EXPECT_EQ(out, softmax(a));
    for (float beta : {0.25f, 1.0f, 8.0f}) {
        softmaxInto(a, beta, out);
        EXPECT_EQ(out, softmax(a, beta));
    }
    // Aliased: softmax(x) into x itself.
    FVec x = a;
    softmaxInto(x, 2.0f, x);
    EXPECT_EQ(x, softmax(a, 2.0f));
}

TEST_P(IntoTwinProperty, ConvolveAndSharpenTwinsBitIdentical)
{
    Rng rng(GetParam() + 4000);
    const FVec a = randomVec(GetParam(), rng);
    const FVec kernel{0.2f, 0.5f, 0.3f};

    FVec out = dirty(2);
    circularConvolveInto(a, kernel, out);
    EXPECT_EQ(out, circularConvolve(a, kernel));

    FVec w = randomVec(GetParam(), rng);
    for (auto &v : w)
        v = std::fabs(v);
    for (float gamma : {1.0f, 2.0f, 5.0f}) {
        sharpenInto(w, gamma, out);
        EXPECT_EQ(out, sharpen(w, gamma));
    }
    // Degenerate all-zero input takes the uniform early-out path.
    const FVec zeros(GetParam(), 0.0f);
    sharpenInto(zeros, 2.0f, out);
    EXPECT_EQ(out, sharpen(zeros, 2.0f));
    // Aliased sharpen.
    FVec y = w;
    sharpenInto(y, 3.0f, y);
    EXPECT_EQ(y, sharpen(w, 3.0f));
}

TEST_P(IntoTwinProperty, MatrixTwinsBitIdentical)
{
    Rng rng(GetParam() + 5000);
    const std::size_t rows = GetParam();
    const std::size_t cols = GetParam() + 3;
    FMat m(rows, cols, randomVec(rows * cols, rng));
    const FVec x = randomVec(rows, rng);

    FVec out = dirty(5);
    vecMatMulInto(x, m, out);
    EXPECT_EQ(out, vecMatMul(x, m));

    const FVec key = randomVec(cols, rng);
    rowCosineSimilarityInto(m, key, 1e-6f, out);
    EXPECT_EQ(out, rowCosineSimilarity(m, key, 1e-6f));
}

INSTANTIATE_TEST_SUITE_P(Sizes, IntoTwinProperty,
                         ::testing::Values(1, 3, 8, 33, 128));

// ------------------------------------------------------------------
// SIMD dispatch: the active kernel table must be bit-identical to the
// scalar reference on every entry point, including unaligned lengths,
// denormals, and non-finite values. When the build or CPU lacks SIMD
// the active table IS the scalar table and these pass trivially.
// ------------------------------------------------------------------

// Bit-level equality so NaN payloads count too.
void
expectBitEqual(const FVec &a, const FVec &b, const char *what)
{
    ASSERT_EQ(a.size(), b.size()) << what;
    for (std::size_t i = 0; i < a.size(); ++i) {
        std::uint32_t ba = 0;
        std::uint32_t bb = 0;
        std::memcpy(&ba, &a[i], 4);
        std::memcpy(&bb, &b[i], 4);
        EXPECT_EQ(ba, bb) << what << " diverges at index " << i;
    }
}

void
expectBitEqual(float a, float b, const char *what)
{
    std::uint32_t ba = 0;
    std::uint32_t bb = 0;
    std::memcpy(&ba, &a, 4);
    std::memcpy(&bb, &b, 4);
    EXPECT_EQ(ba, bb) << what;
}

// Gaussian noise seasoned with denormals, infinities, and a NaN so
// the comparison covers the whole FP32 value space.
FVec
hostileVec(std::size_t n, Rng &rng)
{
    FVec v = randomVec(n, rng);
    if (n > 2)
        v[n / 2] = std::numeric_limits<float>::denorm_min();
    if (n > 4)
        v[n / 4] = std::numeric_limits<float>::infinity();
    if (n > 6)
        v[n - 1] = -std::numeric_limits<float>::quiet_NaN();
    return v;
}

class SimdTwinProperty : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(SimdTwinProperty, ElementwiseKernelsBitIdentical)
{
    const std::size_t n = GetParam();
    Rng rng(n + 9000);
    const auto &act = simd::kernels();
    const auto &ref = simd::scalarKernels();
    const FVec a = hostileVec(n, rng);
    const FVec b = hostileVec(n, rng);

    FVec outA(n);
    FVec outR(n);
    act.add(a.data(), b.data(), outA.data(), n);
    ref.add(a.data(), b.data(), outR.data(), n);
    expectBitEqual(outA, outR, "add");
    act.sub(a.data(), b.data(), outA.data(), n);
    ref.sub(a.data(), b.data(), outR.data(), n);
    expectBitEqual(outA, outR, "sub");
    act.mul(a.data(), b.data(), outA.data(), n);
    ref.mul(a.data(), b.data(), outR.data(), n);
    expectBitEqual(outA, outR, "mul");
    act.scale(a.data(), 0.37f, outA.data(), n);
    ref.scale(a.data(), 0.37f, outR.data(), n);
    expectBitEqual(outA, outR, "scale");

    FVec accA = b;
    FVec accR = b;
    act.axpy(-1.25f, a.data(), accA.data(), n);
    ref.axpy(-1.25f, a.data(), accR.data(), n);
    expectBitEqual(accA, accR, "axpy");
    accA = b;
    accR = b;
    act.mac(a.data(), b.data(), accA.data(), n);
    ref.mac(a.data(), b.data(), accR.data(), n);
    expectBitEqual(accA, accR, "mac");
}

TEST_P(SimdTwinProperty, ReductionKernelsBitIdentical)
{
    const std::size_t n = GetParam();
    Rng rng(n + 9100);
    const auto &act = simd::kernels();
    const auto &ref = simd::scalarKernels();
    // Finite values only: reductions meet inf/NaN in the scaleMax
    // test below, but inf - inf in a sum would trivialize this one.
    const FVec a = randomVec(n, rng);
    const FVec b = randomVec(n, rng);

    expectBitEqual(act.sum(a.data(), n), ref.sum(a.data(), n), "sum");
    expectBitEqual(act.dot(a.data(), b.data(), n),
                   ref.dot(a.data(), b.data(), n), "dot");

    float dA = 0, nA = 0, dR = 0, nR = 0;
    act.dotNorm(a.data(), b.data(), n, &dA, &nA);
    ref.dotNorm(a.data(), b.data(), n, &dR, &nR);
    expectBitEqual(dA, dR, "dotNorm dot");
    expectBitEqual(nA, nR, "dotNorm norm");
    // A row norm is the pair (row, row) of the batched row dot.
    expectBitEqual(nA, act.dot(a.data(), a.data(), n), "norm vs dot(a, a)");
    expectBitEqual(nR, ref.dot(a.data(), a.data(), n), "norm vs dot(a, a)");
}

TEST_P(SimdTwinProperty, ScaleMaxBitIdenticalOnHostileInput)
{
    const std::size_t n = GetParam();
    Rng rng(n + 9200);
    const auto &act = simd::kernels();
    const auto &ref = simd::scalarKernels();
    const FVec a = hostileVec(n, rng);

    FVec outA(n);
    FVec outR(n);
    const float mA = act.scaleMax(a.data(), 1.5f, outA.data(), n);
    const float mR = ref.scaleMax(a.data(), 1.5f, outR.data(), n);
    expectBitEqual(outA, outR, "scaleMax out");
    expectBitEqual(mA, mR, "scaleMax max");
}

TEST_P(SimdTwinProperty, CircularConvolveBitIdentical)
{
    const std::size_t n = GetParam();
    Rng rng(n + 9300);
    const auto &act = simd::kernels();
    const auto &ref = simd::scalarKernels();
    const FVec a = randomVec(n, rng);
    const FVec shift{0.1f, 0.7f, 0.2f};

    FVec outA(n, 0.0f);
    FVec outR(n, 0.0f);
    act.circularConvolve(a.data(), n, shift.data(), shift.size(),
                         outA.data());
    ref.circularConvolve(a.data(), n, shift.data(), shift.size(),
                         outR.data());
    expectBitEqual(outA, outR, "circularConvolve");
}

TEST_P(SimdTwinProperty, RowUpdateBitIdenticalAndMatchesUnfused)
{
    const std::size_t n = GetParam();
    Rng rng(n + 9400);
    const auto &act = simd::kernels();
    const auto &ref = simd::scalarKernels();
    const FVec e = hostileVec(n, rng);
    const FVec add = hostileVec(n, rng);
    const FVec row0 = randomVec(n, rng);
    const float w = 0.61f;
    const float c = 1.0f;

    FVec rowA = row0;
    FVec rowR = row0;
    FVec stgA(n);
    FVec stgR(n);
    act.rowUpdate(e.data(), add.data(), w, c, rowA.data(),
                  stgA.data(), n);
    ref.rowUpdate(e.data(), add.data(), w, c, rowR.data(),
                  stgR.data(), n);
    expectBitEqual(rowA, rowR, "rowUpdate row");
    expectBitEqual(stgA, stgR, "rowUpdate stage");
    // Without a stage only the stage store goes.
    for (const simd::KernelTable *t : {&act, &ref}) {
        FVec row = row0;
        t->rowUpdate(e.data(), add.data(), w, c, row.data(), nullptr, n);
        expectBitEqual(row, rowA, "rowUpdate row without stage");
    }

    // The fused kernel must round exactly like the unfused op
    // sequence it replaces (mul, rsub-imm, mul, mac).
    FVec stage(n);
    FVec rowU = row0;
    ref.scale(e.data(), w, stage.data(), n);
    for (std::size_t i = 0; i < n; ++i)
        stage[i] = c - stage[i];
    ref.mul(rowU.data(), stage.data(), rowU.data(), n);
    FVec addw(n);
    ref.scale(add.data(), w, addw.data(), n);
    for (std::size_t i = 0; i < n; ++i)
        rowU[i] += addw[i];
    expectBitEqual(rowA, rowU, "rowUpdate vs unfused sequence");
    expectBitEqual(stgA, stage, "rowUpdate stage vs unfused");
}

TEST_P(SimdTwinProperty, LinkUpdateBitIdenticalAndMatchesUnfused)
{
    const std::size_t n = GetParam();
    Rng rng(n + 9500);
    const auto &act = simd::kernels();
    const auto &ref = simd::scalarKernels();
    const FVec o = hostileVec(n, rng);
    const FVec p = hostileVec(n, rng);
    const FVec row0 = hostileVec(n, rng);
    const float w = 0.37f;

    FVec rowA = row0;
    FVec rowR = row0;
    FVec stgA(n);
    FVec stgR(n);
    act.linkUpdate(o.data(), p.data(), w, rowA.data(), stgA.data(), n);
    ref.linkUpdate(o.data(), p.data(), w, rowR.data(), stgR.data(), n);
    expectBitEqual(rowA, rowR, "linkUpdate row");
    expectBitEqual(stgA, stgR, "linkUpdate stage");
    for (const simd::KernelTable *t : {&act, &ref}) {
        FVec row = row0;
        t->linkUpdate(o.data(), p.data(), w, row.data(), nullptr, n);
        expectBitEqual(row, rowA, "linkUpdate row without stage");
    }

    // The fused kernel must round exactly like the unfused op
    // sequence it replaces (sub w, mul stage, mac p*w).
    const FVec wv(n, w);
    FVec stage(n);
    FVec rowU = row0;
    ref.sub(o.data(), wv.data(), stage.data(), n);
    ref.mul(rowU.data(), stage.data(), rowU.data(), n);
    ref.mac(p.data(), wv.data(), rowU.data(), n);
    expectBitEqual(rowA, rowU, "linkUpdate vs unfused sequence");
    expectBitEqual(stgA, stage, "linkUpdate stage vs unfused");
}

// Every table this build and CPU can run, the scalar reference first.
std::vector<const simd::KernelTable *>
runnableTables()
{
    std::vector<const simd::KernelTable *> tables = {
        &simd::scalarKernels()};
#if MANNA_HAVE_AVX2
    if (simd::levelSupported(simd::Level::Avx2))
        tables.push_back(&simd::avx2Kernels());
#endif
#if MANNA_HAVE_NEON
    tables.push_back(&simd::neonKernels());
#endif
    return tables;
}

// The batched row dot replays a column-blocked row-dot sweep: for each
// live pair, each block's dot (or, for a (row, row) pair, its norm),
// reduced exactly as dot() and dotNorm() reduce that block alone, added
// to the destination in block order. Each table must equal that
// composition of its own dot()/dotNorm() bit for bit, whichever lanes
// are live, with lanes sharing a row and lanes whose b is their a.
TEST(SimdDispatch, DotPairsEqualsPerPairBlockComposition)
{
    constexpr std::size_t kLanes = simd::kDotPairs;
    for (const std::size_t n :
         {1, 5, 8, 31, 32, 33, 101, 257, 1000, 1024, 1400, 4000}) {
        Rng rng(n + 9600);
        // Lanes 0-3 read row 0, lanes 4-7 row 1; lanes 3 and 7 are
        // their row's norm, the rest take keys 0-2.
        const FVec rows[] = {randomVec(n, rng), randomVec(n, rng)};
        const FVec keys[] = {randomVec(n, rng), randomVec(n, rng),
                             randomVec(n, rng)};
        const float *a[kLanes];
        const float *b[kLanes];
        for (std::size_t k = 0; k < kLanes; ++k) {
            a[k] = rows[k / 4].data();
            b[k] = k % 4 == 3 ? a[k] : keys[k % 4].data();
        }
        for (const simd::KernelTable *t : runnableTables()) {
            for (const std::size_t block : {32, 8, 5}) {
                for (std::size_t live = 1; live <= kLanes; ++live) {
                    SCOPED_TRACE(testing::Message()
                                 << t->name << " n=" << n << " block="
                                 << block << " live=" << live);
                    const auto init = [](std::size_t k) {
                        return 0.25f * static_cast<float>(k) - 1.0f;
                    };
                    FVec want(kLanes);
                    for (std::size_t k = 0; k < kLanes; ++k) {
                        float d = init(k);
                        for (std::size_t i = 0; k < live && i < n;
                             i += block) {
                            const std::size_t len = std::min(block, n - i);
                            float bd = 0.0f;
                            float bn = 0.0f;
                            t->dotNorm(a[k] + i, a[k] + i, len, &bd, &bn);
                            d += b[k] == a[k]
                                     ? bn
                                     : t->dot(a[k] + i, b[k] + i, len);
                        }
                        want[k] = d;
                    }
                    // Dead lanes repeat pair 0 into a spare.
                    FVec got(kLanes);
                    float spare = 0.0f;
                    const float *la[kLanes];
                    const float *lb[kLanes];
                    float *ld[kLanes];
                    for (std::size_t k = 0; k < kLanes; ++k) {
                        const bool on = k < live;
                        got[k] = init(k);
                        la[k] = on ? a[k] : a[0];
                        lb[k] = on ? b[k] : b[0];
                        ld[k] = on ? &got[k] : &spare;
                    }
                    t->dotPairs(la, lb, ld, n, block);
                    expectBitEqual(got, want, "dotPairs");
                }
            }
        }
    }
}

// axpyRows() for R rows is R sequential axpy() calls, bit for bit.
TEST(SimdDispatch, AxpyRowsEqualsSequentialAxpy)
{
    for (const std::size_t n : {1, 5, 8, 31, 32, 33, 101, 1400}) {
        Rng rng(n + 9800);
        const std::size_t pitch = n + 3;
        const FVec x = hostileVec(simd::kAxpyRows * pitch, rng);
        const FVec w = randomVec(simd::kAxpyRows, rng);
        const FVec y0 = randomVec(n, rng);
        for (const simd::KernelTable *t : runnableTables()) {
            for (std::size_t rows = 1; rows <= simd::kAxpyRows; ++rows) {
                SCOPED_TRACE(testing::Message() << t->name << " n=" << n
                                                << " rows=" << rows);
                FVec want = y0;
                for (std::size_t r = 0; r < rows; ++r)
                    t->axpy(w[r], x.data() + r * pitch, want.data(), n);
                FVec got = y0;
                t->axpyRows(w.data(), x.data(), pitch, rows, got.data(),
                            n);
                expectBitEqual(got, want, "axpyRows");
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, SimdTwinProperty,
                         ::testing::Values(1, 3, 7, 8, 9, 31, 64,
                                           100, 257));

TEST(SimdDispatch, ParseLevelAcceptsKnownNamesCaseInsensitive)
{
    EXPECT_EQ(simd::parseLevel("scalar"), simd::Level::Scalar);
    EXPECT_EQ(simd::parseLevel("AVX2"), simd::Level::Avx2);
    EXPECT_EQ(simd::parseLevel("Neon"), simd::Level::Neon);
    EXPECT_EQ(simd::parseLevel(""), std::nullopt);
    EXPECT_EQ(simd::parseLevel("avx512"), std::nullopt);
    EXPECT_EQ(simd::parseLevel("sse"), std::nullopt);
}

TEST(SimdDispatch, LevelNamesRoundTrip)
{
    for (auto lvl : {simd::Level::Scalar, simd::Level::Avx2,
                     simd::Level::Neon})
        EXPECT_EQ(simd::parseLevel(simd::levelName(lvl)), lvl);
}

TEST(SimdDispatch, ActiveLevelIsSupportedAndNamed)
{
    EXPECT_TRUE(simd::levelSupported(simd::activeLevel()));
    EXPECT_TRUE(simd::levelSupported(simd::Level::Scalar));
    EXPECT_STREQ(simd::kernels().name,
                 simd::levelName(simd::activeLevel()));
}

} // namespace
} // namespace manna::tensor
