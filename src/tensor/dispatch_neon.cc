#include "dispatch.hh"

#include <arm_neon.h>
#include <cstddef>

// NEON kernel stubs for aarch64 builds. The elementwise entries and
// the fused link update are real 4-wide NEON; the striped reductions
// (the batched row dot among them), the multi-row axpy and the
// soft-write row update currently delegate to the scalar reference (which is already the
// canonical order, so results stay bit-identical) until a tuned
// implementation lands. Compiled with -ffp-contract=off like every
// kernel TU.

namespace manna::tensor::simd
{

namespace
{

void
addNeon(const float *a, const float *b, float *out, std::size_t n)
{
    const std::size_t main = n & ~std::size_t(3);
    for (std::size_t i = 0; i < main; i += 4)
        vst1q_f32(out + i, vaddq_f32(vld1q_f32(a + i),
                                     vld1q_f32(b + i)));
    for (std::size_t i = main; i < n; ++i)
        out[i] = a[i] + b[i];
}

void
subNeon(const float *a, const float *b, float *out, std::size_t n)
{
    const std::size_t main = n & ~std::size_t(3);
    for (std::size_t i = 0; i < main; i += 4)
        vst1q_f32(out + i, vsubq_f32(vld1q_f32(a + i),
                                     vld1q_f32(b + i)));
    for (std::size_t i = main; i < n; ++i)
        out[i] = a[i] - b[i];
}

void
mulNeon(const float *a, const float *b, float *out, std::size_t n)
{
    const std::size_t main = n & ~std::size_t(3);
    for (std::size_t i = 0; i < main; i += 4)
        vst1q_f32(out + i, vmulq_f32(vld1q_f32(a + i),
                                     vld1q_f32(b + i)));
    for (std::size_t i = main; i < n; ++i)
        out[i] = a[i] * b[i];
}

void
scaleNeon(const float *a, float s, float *out, std::size_t n)
{
    const float32x4_t vs = vdupq_n_f32(s);
    const std::size_t main = n & ~std::size_t(3);
    for (std::size_t i = 0; i < main; i += 4)
        vst1q_f32(out + i, vmulq_f32(vld1q_f32(a + i), vs));
    for (std::size_t i = main; i < n; ++i)
        out[i] = a[i] * s;
}

void
axpyNeon(float alpha, const float *x, float *y, std::size_t n)
{
    const float32x4_t va = vdupq_n_f32(alpha);
    const std::size_t main = n & ~std::size_t(3);
    for (std::size_t i = 0; i < main; i += 4) {
        // Explicit mul then add (not vmlaq/fma) to match the scalar
        // reference's -ffp-contract=off rounding.
        const float32x4_t prod = vmulq_f32(va, vld1q_f32(x + i));
        vst1q_f32(y + i, vaddq_f32(vld1q_f32(y + i), prod));
    }
    for (std::size_t i = main; i < n; ++i)
        y[i] += alpha * x[i];
}

void
macNeon(const float *a, const float *b, float *out, std::size_t n)
{
    const std::size_t main = n & ~std::size_t(3);
    for (std::size_t i = 0; i < main; i += 4) {
        const float32x4_t prod =
            vmulq_f32(vld1q_f32(a + i), vld1q_f32(b + i));
        vst1q_f32(out + i, vaddq_f32(vld1q_f32(out + i), prod));
    }
    for (std::size_t i = main; i < n; ++i)
        out[i] += a[i] * b[i];
}

void
linkUpdateNeon(const float *o, const float *p, float w, float *row,
               float *stage, std::size_t n)
{
    const float32x4_t vw = vdupq_n_f32(w);
    const std::size_t main = n & ~std::size_t(3);
    for (std::size_t i = 0; i < main; i += 4) {
        const float32x4_t s = vsubq_f32(vld1q_f32(o + i), vw);
        if (stage != nullptr)
            vst1q_f32(stage + i, s);
        const float32x4_t r = vmulq_f32(vld1q_f32(row + i), s);
        const float32x4_t pw = vmulq_f32(vld1q_f32(p + i), vw);
        vst1q_f32(row + i, vaddq_f32(r, pw));
    }
    for (std::size_t i = main; i < n; ++i) {
        const float s = o[i] - w;
        if (stage != nullptr)
            stage[i] = s;
        const float r = row[i] * s;
        row[i] = r + p[i] * w;
    }
}

} // namespace

const KernelTable &
neonKernels()
{
    static const KernelTable table = [] {
        KernelTable t = scalarKernels();
        t.name = "neon";
        t.add = addNeon;
        t.sub = subNeon;
        t.mul = mulNeon;
        t.scale = scaleNeon;
        t.axpy = axpyNeon;
        t.mac = macNeon;
        t.linkUpdate = linkUpdateNeon;
        return t;
    }();
    return table;
}

} // namespace manna::tensor::simd
