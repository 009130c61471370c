#include "dispatch.hh"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <limits>
#include <string>

#include "common/logging.hh"

// This TU is compiled with -ffp-contract=off (see CMakeLists.txt):
// the scalar reference below is the *definition* of kernel semantics,
// and letting the compiler fuse a*b+c into FMA would change its
// rounding relative to the explicit mul/add sequences in the SIMD TUs.

namespace manna::tensor::simd
{

namespace
{

// ---------------------------------------------------------------
// Scalar reference kernels. Reductions follow the canonical striped
// order documented in dispatch.hh; the lane loops below are safe for
// the compiler to SLP-vectorize because they need no reassociation.
// ---------------------------------------------------------------

void
addScalar(const float *a, const float *b, float *out, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        out[i] = a[i] + b[i];
}

void
subScalar(const float *a, const float *b, float *out, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        out[i] = a[i] - b[i];
}

void
mulScalar(const float *a, const float *b, float *out, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        out[i] = a[i] * b[i];
}

void
scaleScalar(const float *a, float s, float *out, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        out[i] = a[i] * s;
}

void
axpyScalar(float alpha, const float *x, float *y, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        y[i] += alpha * x[i];
}

void
macScalar(const float *a, const float *b, float *out, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        out[i] += a[i] * b[i];
}

float
sumScalar(const float *a, std::size_t n)
{
    float lane[kStripe] = {};
    const std::size_t main = n & ~(kStripe - 1);
    for (std::size_t i = 0; i < main; i += kStripe)
        for (std::size_t k = 0; k < kStripe; ++k)
            lane[k] += a[i + k];
    float acc = 0.0f;
    for (std::size_t k = 0; k < kStripe; ++k)
        acc += lane[k];
    for (std::size_t i = main; i < n; ++i)
        acc += a[i];
    return acc;
}

float
dotScalar(const float *a, const float *b, std::size_t n)
{
    float lane[kStripe] = {};
    const std::size_t main = n & ~(kStripe - 1);
    for (std::size_t i = 0; i < main; i += kStripe)
        for (std::size_t k = 0; k < kStripe; ++k)
            lane[k] += a[i + k] * b[i + k];
    float acc = 0.0f;
    for (std::size_t k = 0; k < kStripe; ++k)
        acc += lane[k];
    for (std::size_t i = main; i < n; ++i)
        acc += a[i] * b[i];
    return acc;
}

void
dotNormScalar(const float *a, const float *b, std::size_t n,
              float *dotOut, float *nrmOut)
{
    float dlane[kStripe] = {};
    float nlane[kStripe] = {};
    const std::size_t main = n & ~(kStripe - 1);
    for (std::size_t i = 0; i < main; i += kStripe) {
        for (std::size_t k = 0; k < kStripe; ++k) {
            dlane[k] += a[i + k] * b[i + k];
            nlane[k] += a[i + k] * a[i + k];
        }
    }
    float d = 0.0f;
    float nrm = 0.0f;
    for (std::size_t k = 0; k < kStripe; ++k) {
        d += dlane[k];
        nrm += nlane[k];
    }
    for (std::size_t i = main; i < n; ++i) {
        d += a[i] * b[i];
        nrm += a[i] * a[i];
    }
    *dotOut = d;
    *nrmOut = nrm;
}

float
scaleMaxScalar(const float *a, float s, float *out, std::size_t n)
{
    const float ninf = -std::numeric_limits<float>::infinity();
    float lane[kStripe];
    for (std::size_t k = 0; k < kStripe; ++k)
        lane[k] = ninf;
    const std::size_t main = n & ~(kStripe - 1);
    for (std::size_t i = 0; i < main; i += kStripe) {
        for (std::size_t k = 0; k < kStripe; ++k) {
            const float v = a[i + k] * s;
            out[i + k] = v;
            // maxps semantics: the second operand wins ties and NaNs.
            lane[k] = lane[k] > v ? lane[k] : v;
        }
    }
    float m = ninf;
    for (std::size_t k = 0; k < kStripe; ++k)
        m = m > lane[k] ? m : lane[k];
    for (std::size_t i = main; i < n; ++i) {
        const float v = a[i] * s;
        out[i] = v;
        m = m > v ? m : v;
    }
    return m;
}

void
circularConvolveScalar(const float *a, std::size_t n,
                       const float *shift, std::size_t taps, float *out)
{
    const std::ptrdiff_t radius = static_cast<std::ptrdiff_t>(taps / 2);
    const std::ptrdiff_t sn = static_cast<std::ptrdiff_t>(n);
    for (std::size_t i = 0; i < n; ++i) {
        float acc = 0.0f;
        for (std::ptrdiff_t off = -radius; off <= radius; ++off) {
            // w_s(i) = sum_j w_g(j) * s(i - j); with j = i - off the
            // kernel tap is s(off).
            std::ptrdiff_t j = static_cast<std::ptrdiff_t>(i) - off;
            j = ((j % sn) + sn) % sn;
            acc += a[static_cast<std::size_t>(j)] *
                   shift[static_cast<std::size_t>(off + radius)];
        }
        out[i] = acc;
    }
}

void
rowUpdateScalar(const float *e, const float *add, float w, float c,
                float *row, float *stage, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) {
        float s = e[i] * w;
        s = c - s;
        const float r = row[i] * s;
        row[i] = r + add[i] * w;
        if (stage != nullptr)
            stage[i] = s;
    }
}

void
linkUpdateScalar(const float *o, const float *p, float w, float *row,
                 float *stage, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) {
        const float s = o[i] - w;
        if (stage != nullptr)
            stage[i] = s;
        const float r = row[i] * s;
        row[i] = r + p[i] * w;
    }
}

void
dotPairsScalar(const float *const *a, const float *const *b,
               float *const *dst, std::size_t n, std::size_t block)
{
    for (std::size_t k = 0; k < kDotPairs; ++k) {
        float d = *dst[k];
        for (std::size_t i = 0; i < n; i += block)
            d += dotScalar(a[k] + i, b[k] + i, std::min(block, n - i));
        *dst[k] = d;
    }
}

void
axpyRowsScalar(const float *alpha, const float *x, std::size_t pitch,
               std::size_t rows, float *y, std::size_t n)
{
    for (std::size_t r = 0; r < rows; ++r)
        axpyScalar(alpha[r], x + r * pitch, y, n);
}

const KernelTable kScalarTable = {
    "scalar",    addScalar,      subScalar, mulScalar,
    scaleScalar, axpyScalar,     macScalar, sumScalar,
    dotScalar,   dotNormScalar,  scaleMaxScalar,
    circularConvolveScalar,      rowUpdateScalar,
    linkUpdateScalar,            dotPairsScalar,
    axpyRowsScalar,
};

struct Selection
{
    const KernelTable *table;
    Level level;
};

Selection
detectBest()
{
#if MANNA_HAVE_AVX2
    if (__builtin_cpu_supports("avx2"))
        return {&avx2Kernels(), Level::Avx2};
#endif
#if MANNA_HAVE_NEON
    return {&neonKernels(), Level::Neon};
#endif
    return {&kScalarTable, Level::Scalar};
}

Selection
select()
{
    const char *env = std::getenv("MANNA_SIMD");
    if (env == nullptr || *env == '\0')
        return detectBest();
    const auto requested = parseLevel(env);
    if (!requested) {
        warn("MANNA_SIMD=%s not recognized (want scalar|avx2|neon); "
             "auto-detecting",
             env);
        return detectBest();
    }
    if (!levelSupported(*requested)) {
        warn("MANNA_SIMD=%s not supported by this build/CPU; "
             "falling back to scalar",
             env);
        return {&kScalarTable, Level::Scalar};
    }
    switch (*requested) {
#if MANNA_HAVE_AVX2
    case Level::Avx2:
        return {&avx2Kernels(), Level::Avx2};
#endif
#if MANNA_HAVE_NEON
    case Level::Neon:
        return {&neonKernels(), Level::Neon};
#endif
    default:
        return {&kScalarTable, Level::Scalar};
    }
}

const Selection &
selection()
{
    static const Selection sel = select();
    return sel;
}

} // namespace

const KernelTable &
scalarKernels()
{
    return kScalarTable;
}

const KernelTable &
kernels()
{
    return *selection().table;
}

Level
activeLevel()
{
    return selection().level;
}

std::optional<Level>
parseLevel(std::string_view text)
{
    std::string lower;
    lower.reserve(text.size());
    for (char c : text)
        lower.push_back(static_cast<char>(
            std::tolower(static_cast<unsigned char>(c))));
    if (lower == "scalar")
        return Level::Scalar;
    if (lower == "avx2")
        return Level::Avx2;
    if (lower == "neon")
        return Level::Neon;
    return std::nullopt;
}

const char *
levelName(Level level)
{
    switch (level) {
    case Level::Scalar:
        return "scalar";
    case Level::Avx2:
        return "avx2";
    case Level::Neon:
        return "neon";
    }
    return "unknown";
}

bool
levelSupported(Level level)
{
    switch (level) {
    case Level::Scalar:
        return true;
    case Level::Avx2:
#if MANNA_HAVE_AVX2
        return __builtin_cpu_supports("avx2") != 0;
#else
        return false;
#endif
    case Level::Neon:
#if MANNA_HAVE_NEON
        return true;
#else
        return false;
#endif
    }
    return false;
}

} // namespace manna::tensor::simd
