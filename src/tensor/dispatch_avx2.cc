#include "dispatch.hh"

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
        _mm256_storeu_ps(stage + i, s);
    }
    for (std::size_t i = main; i < n; ++i) {
        float s = e[i] * w;
        s = c - s;
        const float r = row[i] * s;
        row[i] = r + add[i] * w;
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
        _mm256_storeu_ps(stage + i, s);
        const __m256 r = _mm256_mul_ps(_mm256_loadu_ps(row + i), s);
        const __m256 pw = _mm256_mul_ps(_mm256_loadu_ps(p + i), vw);
        _mm256_storeu_ps(row + i, _mm256_add_ps(r, pw));
    }
    for (std::size_t i = main; i < n; ++i) {
        const float s = o[i] - w;
        stage[i] = s;
        const float r = row[i] * s;
        row[i] = r + p[i] * w;
    }
}

const KernelTable kAvx2Table = {
    "avx2",    addAvx2,      subAvx2, mulAvx2,
    scaleAvx2, axpyAvx2,     macAvx2, sumAvx2,
    dotAvx2,   dotNormAvx2,  scaleMaxAvx2,
    circularConvolveAvx2,    rowUpdateAvx2,
    linkUpdateAvx2,
};

} // namespace

const KernelTable &
avx2Kernels()
{
    return kAvx2Table;
}

} // namespace manna::tensor::simd
