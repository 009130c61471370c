#include "dispatch.hh"

#include <algorithm>
#include <cstddef>
#include <immintrin.h>
#include <limits>

// Compiled with -mavx2 -ffp-contract=off (and *only* this TU gets
// -mavx2, so the rest of the build still runs on any x86-64). No FMA
// intrinsics anywhere: every multiply-add is an explicit mul then add
// so the rounding matches the scalar reference bit-for-bit.

namespace manna::tensor::simd
{

namespace
{

// Sequential lane combine matching the scalar canon: acc starts at
// identity and folds lanes 0..7 in order.
float
reduceAddSequential(__m256 v, float identity)
{
    alignas(32) float lane[kStripe];
    _mm256_store_ps(lane, v);
    float acc = identity;
    for (std::size_t k = 0; k < kStripe; ++k)
        acc += lane[k];
    return acc;
}

float
reduceMaxSequential(__m256 v, float identity)
{
    alignas(32) float lane[kStripe];
    _mm256_store_ps(lane, v);
    float m = identity;
    for (std::size_t k = 0; k < kStripe; ++k)
        m = m > lane[k] ? m : lane[k];
    return m;
}

void
addAvx2(const float *a, const float *b, float *out, std::size_t n)
{
    const std::size_t main = n & ~(kStripe - 1);
    for (std::size_t i = 0; i < main; i += kStripe)
        _mm256_storeu_ps(out + i,
                         _mm256_add_ps(_mm256_loadu_ps(a + i),
                                       _mm256_loadu_ps(b + i)));
    for (std::size_t i = main; i < n; ++i)
        out[i] = a[i] + b[i];
}

void
subAvx2(const float *a, const float *b, float *out, std::size_t n)
{
    const std::size_t main = n & ~(kStripe - 1);
    for (std::size_t i = 0; i < main; i += kStripe)
        _mm256_storeu_ps(out + i,
                         _mm256_sub_ps(_mm256_loadu_ps(a + i),
                                       _mm256_loadu_ps(b + i)));
    for (std::size_t i = main; i < n; ++i)
        out[i] = a[i] - b[i];
}

void
mulAvx2(const float *a, const float *b, float *out, std::size_t n)
{
    const std::size_t main = n & ~(kStripe - 1);
    for (std::size_t i = 0; i < main; i += kStripe)
        _mm256_storeu_ps(out + i,
                         _mm256_mul_ps(_mm256_loadu_ps(a + i),
                                       _mm256_loadu_ps(b + i)));
    for (std::size_t i = main; i < n; ++i)
        out[i] = a[i] * b[i];
}

void
scaleAvx2(const float *a, float s, float *out, std::size_t n)
{
    const __m256 vs = _mm256_set1_ps(s);
    const std::size_t main = n & ~(kStripe - 1);
    for (std::size_t i = 0; i < main; i += kStripe)
        _mm256_storeu_ps(out + i,
                         _mm256_mul_ps(_mm256_loadu_ps(a + i), vs));
    for (std::size_t i = main; i < n; ++i)
        out[i] = a[i] * s;
}

void
axpyAvx2(float alpha, const float *x, float *y, std::size_t n)
{
    const __m256 va = _mm256_set1_ps(alpha);
    const std::size_t main = n & ~(kStripe - 1);
    for (std::size_t i = 0; i < main; i += kStripe) {
        const __m256 prod = _mm256_mul_ps(va, _mm256_loadu_ps(x + i));
        _mm256_storeu_ps(
            y + i, _mm256_add_ps(_mm256_loadu_ps(y + i), prod));
    }
    for (std::size_t i = main; i < n; ++i)
        y[i] += alpha * x[i];
}

void
macAvx2(const float *a, const float *b, float *out, std::size_t n)
{
    const std::size_t main = n & ~(kStripe - 1);
    for (std::size_t i = 0; i < main; i += kStripe) {
        const __m256 prod = _mm256_mul_ps(_mm256_loadu_ps(a + i),
                                          _mm256_loadu_ps(b + i));
        _mm256_storeu_ps(
            out + i, _mm256_add_ps(_mm256_loadu_ps(out + i), prod));
    }
    for (std::size_t i = main; i < n; ++i)
        out[i] += a[i] * b[i];
}

float
sumAvx2(const float *a, std::size_t n)
{
    __m256 acc = _mm256_setzero_ps();
    const std::size_t main = n & ~(kStripe - 1);
    for (std::size_t i = 0; i < main; i += kStripe)
        acc = _mm256_add_ps(acc, _mm256_loadu_ps(a + i));
    float r = reduceAddSequential(acc, 0.0f);
    for (std::size_t i = main; i < n; ++i)
        r += a[i];
    return r;
}

float
dotAvx2(const float *a, const float *b, std::size_t n)
{
    __m256 acc = _mm256_setzero_ps();
    const std::size_t main = n & ~(kStripe - 1);
    for (std::size_t i = 0; i < main; i += kStripe)
        acc = _mm256_add_ps(acc,
                            _mm256_mul_ps(_mm256_loadu_ps(a + i),
                                          _mm256_loadu_ps(b + i)));
    float r = reduceAddSequential(acc, 0.0f);
    for (std::size_t i = main; i < n; ++i)
        r += a[i] * b[i];
    return r;
}

void
dotNormAvx2(const float *a, const float *b, std::size_t n,
            float *dotOut, float *nrmOut)
{
    __m256 dacc = _mm256_setzero_ps();
    __m256 nacc = _mm256_setzero_ps();
    const std::size_t main = n & ~(kStripe - 1);
    for (std::size_t i = 0; i < main; i += kStripe) {
        const __m256 va = _mm256_loadu_ps(a + i);
        const __m256 vb = _mm256_loadu_ps(b + i);
        dacc = _mm256_add_ps(dacc, _mm256_mul_ps(va, vb));
        nacc = _mm256_add_ps(nacc, _mm256_mul_ps(va, va));
    }
    float d = reduceAddSequential(dacc, 0.0f);
    float nrm = reduceAddSequential(nacc, 0.0f);
    for (std::size_t i = main; i < n; ++i) {
        d += a[i] * b[i];
        nrm += a[i] * a[i];
    }
    *dotOut = d;
    *nrmOut = nrm;
}

float
scaleMaxAvx2(const float *a, float s, float *out, std::size_t n)
{
    const float ninf = -std::numeric_limits<float>::infinity();
    const __m256 vs = _mm256_set1_ps(s);
    __m256 vmax = _mm256_set1_ps(ninf);
    const std::size_t main = n & ~(kStripe - 1);
    for (std::size_t i = 0; i < main; i += kStripe) {
        const __m256 v = _mm256_mul_ps(_mm256_loadu_ps(a + i), vs);
        _mm256_storeu_ps(out + i, v);
        // maxps: second operand wins ties and NaNs, matching the
        // scalar canon (m > v ? m : v).
        vmax = _mm256_max_ps(vmax, v);
    }
    float m = reduceMaxSequential(vmax, ninf);
    for (std::size_t i = main; i < n; ++i) {
        const float v = a[i] * s;
        out[i] = v;
        m = m > v ? m : v;
    }
    return m;
}

void
circularConvolveAvx2(const float *a, std::size_t n, const float *shift,
                     std::size_t taps, float *out)
{
    // Reformulated as one rotated axpy per tap: for offset off,
    // out[i] += shift[off+R] * a[(i-off) mod n]. The rotation splits
    // into two contiguous segments, each a vectorizable axpy. Per
    // element the taps still accumulate in off = -R..+R order, so the
    // FP sequence (and hence every bit) matches the scalar reference.
    const std::ptrdiff_t radius = static_cast<std::ptrdiff_t>(taps / 2);
    const std::ptrdiff_t sn = static_cast<std::ptrdiff_t>(n);
    for (std::ptrdiff_t off = -radius; off <= radius; ++off) {
        const float tap = shift[static_cast<std::size_t>(off + radius)];
        // Source index for out[i] is (i - off) mod n =: (i + shiftBy)
        // mod n with shiftBy = (-off) mod n.
        const std::size_t shiftBy =
            static_cast<std::size_t>(((-off) % sn + sn) % sn);
        const std::size_t firstLen = n - shiftBy;
        axpyAvx2(tap, a + shiftBy, out, firstLen);
        axpyAvx2(tap, a, out + firstLen, shiftBy);
    }
}

void
rowUpdateAvx2(const float *e, const float *add, float w, float c,
              float *row, float *stage, std::size_t n)
{
    const __m256 vw = _mm256_set1_ps(w);
    const __m256 vc = _mm256_set1_ps(c);
    const std::size_t main = n & ~(kStripe - 1);
    for (std::size_t i = 0; i < main; i += kStripe) {
        const __m256 s =
            _mm256_sub_ps(vc, _mm256_mul_ps(_mm256_loadu_ps(e + i), vw));
        const __m256 r = _mm256_mul_ps(_mm256_loadu_ps(row + i), s);
        const __m256 av = _mm256_mul_ps(_mm256_loadu_ps(add + i), vw);
        _mm256_storeu_ps(row + i, _mm256_add_ps(r, av));
        if (stage != nullptr)
            _mm256_storeu_ps(stage + i, s);
    }
    for (std::size_t i = main; i < n; ++i) {
        float s = e[i] * w;
        s = c - s;
        const float r = row[i] * s;
        row[i] = r + add[i] * w;
        if (stage != nullptr)
            stage[i] = s;
    }
}

void
linkUpdateAvx2(const float *o, const float *p, float w, float *row,
               float *stage, std::size_t n)
{
    const __m256 vw = _mm256_set1_ps(w);
    const std::size_t main = n & ~(kStripe - 1);
    for (std::size_t i = 0; i < main; i += kStripe) {
        const __m256 s = _mm256_sub_ps(_mm256_loadu_ps(o + i), vw);
        if (stage != nullptr)
            _mm256_storeu_ps(stage + i, s);
        const __m256 r = _mm256_mul_ps(_mm256_loadu_ps(row + i), s);
        const __m256 pw = _mm256_mul_ps(_mm256_loadu_ps(p + i), vw);
        _mm256_storeu_ps(row + i, _mm256_add_ps(r, pw));
    }
    for (std::size_t i = main; i < n; ++i) {
        const float s = o[i] - w;
        if (stage != nullptr)
            stage[i] = s;
        const float r = row[i] * s;
        row[i] = r + p[i] * w;
    }
}

/** Lane k of the result is reduceAddSequential(v[k], 0.0f): the eight
 * vectors transposed, then added lane by lane in the same order. */
[[gnu::always_inline]] inline __m256
laneSums(const __m256 v[kStripe])
{
    const __m256 t0 = _mm256_unpacklo_ps(v[0], v[1]);
    const __m256 t1 = _mm256_unpackhi_ps(v[0], v[1]);
    const __m256 t2 = _mm256_unpacklo_ps(v[2], v[3]);
    const __m256 t3 = _mm256_unpackhi_ps(v[2], v[3]);
    const __m256 t4 = _mm256_unpacklo_ps(v[4], v[5]);
    const __m256 t5 = _mm256_unpackhi_ps(v[4], v[5]);
    const __m256 t6 = _mm256_unpacklo_ps(v[6], v[7]);
    const __m256 t7 = _mm256_unpackhi_ps(v[6], v[7]);
    const __m256 u0 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(1, 0, 1, 0));
    const __m256 u1 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(3, 2, 3, 2));
    const __m256 u2 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(1, 0, 1, 0));
    const __m256 u3 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(3, 2, 3, 2));
    const __m256 u4 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(1, 0, 1, 0));
    const __m256 u5 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(3, 2, 3, 2));
    const __m256 u6 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(1, 0, 1, 0));
    const __m256 u7 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(3, 2, 3, 2));
    // Row k of the transpose holds lane k of every vector.
    const __m256 lane[kStripe] = {
        _mm256_permute2f128_ps(u0, u4, 0x20),
        _mm256_permute2f128_ps(u1, u5, 0x20),
        _mm256_permute2f128_ps(u2, u6, 0x20),
        _mm256_permute2f128_ps(u3, u7, 0x20),
        _mm256_permute2f128_ps(u0, u4, 0x31),
        _mm256_permute2f128_ps(u1, u5, 0x31),
        _mm256_permute2f128_ps(u2, u6, 0x31),
        _mm256_permute2f128_ps(u3, u7, 0x31),
    };
    __m256 sum = _mm256_setzero_ps();
    for (std::size_t k = 0; k < kStripe; ++k)
        sum = _mm256_add_ps(sum, lane[k]);
    return sum;
}

/** The memory sweeps' column block: the chip's 32-word Matrix Buffer
 * row. */
constexpr std::size_t kChipBlock = 32;

/** Lane k: the dot of the @p len words at a[k] + i and b[k] + i,
 * reduced exactly as dotAvx2() reduces them alone (stripes, sequential
 * lane combine, scalar tail). A stripe accumulator starts at its first
 * product rather than at +0: the two differ only in the sign of a zero,
 * which the combine's +0 start erases. */
[[gnu::always_inline]] inline __m256
blockDots(const float *const *a, const float *const *b, std::size_t i,
          std::size_t len)
{
    const std::size_t main = len & ~(kStripe - 1);
    // Without a whole stripe every lane combine is +0.
    __m256 sums = _mm256_setzero_ps();
    if (main != 0) {
        __m256 acc[kStripe];
#pragma GCC unroll 8
        for (std::size_t k = 0; k < kStripe; ++k) {
            const float *pa = a[k] + i;
            const float *pb = b[k] + i;
            acc[k] =
                _mm256_mul_ps(_mm256_loadu_ps(pa), _mm256_loadu_ps(pb));
            for (std::size_t o = kStripe; o < main; o += kStripe)
                acc[k] = _mm256_add_ps(
                    acc[k], _mm256_mul_ps(_mm256_loadu_ps(pa + o),
                                          _mm256_loadu_ps(pb + o)));
        }
        sums = laneSums(acc);
    }
    if (main == len)
        return sums;
    alignas(32) float r[kStripe];
    _mm256_store_ps(r, sums);
    for (std::size_t k = 0; k < kStripe; ++k)
        for (std::size_t j = i + main; j < i + len; ++j)
            r[k] += a[k][j] * b[k][j];
    return _mm256_load_ps(r);
}

/** Eight pairs in the eight lanes: blockDots() reduces a block of every
 * pair at once, and one vector add accumulates all eight destinations,
 * in block order. The chip's block width is a compile-time constant, so
 * its loop keeps the stripe accumulators in registers. */
void
dotPairsAvx2(const float *const *a, const float *const *b,
             float *const *dst, std::size_t n, std::size_t block)
{
    alignas(32) float d[kDotPairs];
    for (std::size_t k = 0; k < kDotPairs; ++k)
        d[k] = *dst[k];
    __m256 acc = _mm256_load_ps(d);
    std::size_t i = 0;
    if (block == kChipBlock)
        for (; i + kChipBlock <= n; i += kChipBlock)
            acc = _mm256_add_ps(acc, blockDots(a, b, i, kChipBlock));
    for (; i < n; i += block)
        acc = _mm256_add_ps(acc,
                            blockDots(a, b, i, std::min(block, n - i)));
    _mm256_store_ps(d, acc);
    for (std::size_t k = 0; k < kDotPairs; ++k)
        *dst[k] = d[k];
}

/** kRows rows per pass over y: each stripe of y is loaded once, takes
 * its rows' products in row order, and is stored once. */
template <std::size_t kRows>
void
axpyRowsFixed(const float *alpha, const float *x, std::size_t pitch,
              float *y, std::size_t n)
{
    __m256 va[kRows];
    for (std::size_t r = 0; r < kRows; ++r)
        va[r] = _mm256_set1_ps(alpha[r]);
    const std::size_t main = n & ~(kStripe - 1);
    for (std::size_t i = 0; i < main; i += kStripe) {
        __m256 acc = _mm256_loadu_ps(y + i);
#pragma GCC unroll 4
        for (std::size_t r = 0; r < kRows; ++r)
            acc = _mm256_add_ps(
                acc,
                _mm256_mul_ps(va[r], _mm256_loadu_ps(x + r * pitch + i)));
        _mm256_storeu_ps(y + i, acc);
    }
    for (std::size_t i = main; i < n; ++i) {
        float acc = y[i];
        for (std::size_t r = 0; r < kRows; ++r)
            acc += alpha[r] * x[r * pitch + i];
        y[i] = acc;
    }
}

void
axpyRowsAvx2(const float *alpha, const float *x, std::size_t pitch,
             std::size_t rows, float *y, std::size_t n)
{
    static_assert(kAxpyRows == 4);
    switch (rows) {
      case 1:
        axpyRowsFixed<1>(alpha, x, pitch, y, n);
        break;
      case 2:
        axpyRowsFixed<2>(alpha, x, pitch, y, n);
        break;
      case 3:
        axpyRowsFixed<3>(alpha, x, pitch, y, n);
        break;
      default:
        axpyRowsFixed<4>(alpha, x, pitch, y, n);
        break;
    }
}

const KernelTable kAvx2Table = {
    "avx2",    addAvx2,      subAvx2, mulAvx2,
    scaleAvx2, axpyAvx2,     macAvx2, sumAvx2,
    dotAvx2,   dotNormAvx2,  scaleMaxAvx2,
    circularConvolveAvx2,    rowUpdateAvx2,
    linkUpdateAvx2,          dotPairsAvx2,
    axpyRowsAvx2,
};

} // namespace

const KernelTable &
avx2Kernels()
{
    return kAvx2Table;
}

} // namespace manna::tensor::simd
