#include "probe.hh"

#include <algorithm>
#include <cstring>
#include <functional>
#include <vector>

#include "common/rng.hh"
#include "spans.hh"
#include "tensor/dispatch.hh"

namespace perfbench
{

using manna::tensor::simd::KernelTable;

namespace
{

constexpr std::size_t kN = 4096;
constexpr std::size_t kTaps = 3; // shift radius 1, the common case
constexpr int kBatches = 9;

constexpr const char *kKernels[] = {"dot",  "sum",     "mac",
                                    "axpy", "rowUpdate", "dotNorm",
                                    "scaleMax", "circularConvolve"};

/** Keep a computed value alive without spending time on it. */
template <typename T>
void
keep(const T &value)
{
    asm volatile("" : : "g"(&value) : "memory");
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
}

/** Median ns per call over kBatches batches of at least 0.5 ms each. */
double
nsPerCall(const std::function<void()> &body)
{
    std::size_t calls = 1;
    for (;; calls *= 2) {
        const auto start = Clock::now();
        for (std::size_t i = 0; i < calls; ++i)
            body();
        if (Clock::now() - start >= std::chrono::microseconds(500))
            break;
    }
    std::vector<double> ns;
    for (int b = 0; b < kBatches; ++b) {
        const auto start = Clock::now();
        for (std::size_t i = 0; i < calls; ++i)
            body();
        ns.push_back(std::chrono::duration<double, std::nano>(
                         Clock::now() - start)
                         .count() /
                     static_cast<double>(calls));
    }
    return median(ns);
}

struct Operands
{
    std::vector<float> a, b, out, row, stage, shift;

    Operands()
        : a(kN), b(kN), out(kN, 0.0f), row(kN), stage(kN), shift(kTaps)
    {
        manna::Rng rng(7);
        for (auto *v : {&a, &b, &row, &shift})
            for (float &x : *v)
                x = static_cast<float>(rng.uniform(0.0, 1.0));
    }
};

double
timeKernel(const KernelTable &k, const std::string &name, Operands &o)
{
    const float *a = o.a.data();
    const float *b = o.b.data();
    float *out = o.out.data();
    if (name == "dot")
        return nsPerCall([&] { keep(k.dot(a, b, kN)); });
    if (name == "sum")
        return nsPerCall([&] { keep(k.sum(a, kN)); });
    if (name == "mac")
        return nsPerCall([&] { k.mac(a, b, out, kN); keep(out[0]); });
    if (name == "axpy")
        return nsPerCall([&] { k.axpy(1e-3f, a, out, kN); keep(out[0]); });
    if (name == "rowUpdate")
        return nsPerCall([&] {
            k.rowUpdate(a, b, 0.5f, 1.0f, o.row.data(), o.stage.data(),
                        kN);
            keep(o.row[0]);
        });
    if (name == "dotNorm")
        return nsPerCall([&] {
            float d = 0.0f, n = 0.0f;
            k.dotNorm(a, b, kN, &d, &n);
            keep(d);
            keep(n);
        });
    if (name == "scaleMax")
        return nsPerCall([&] { keep(k.scaleMax(a, 0.5f, out, kN)); });
    // Like mac and axpy, circularConvolve adds into out; it is not
    // reset between calls, and a few thousand calls stay far from
    // overflow.
    return nsPerCall([&] {
        k.circularConvolve(a, kN, o.shift.data(), kTaps, out);
        keep(out[0]);
    });
}

double
streamGbs()
{
    constexpr std::size_t bytes = 32u << 20;
    std::vector<char> src(bytes, 1), dst(bytes, 0);
    std::vector<double> gbs;
    for (int rep = 0; rep < 7; ++rep) {
        const auto start = Clock::now();
        std::memcpy(dst.data(), src.data(), bytes);
        keep(dst[rep]);
        const double s =
            std::chrono::duration<double>(Clock::now() - start).count();
        gbs.push_back(2.0 * static_cast<double>(bytes) / s * 1e-9);
    }
    return median(gbs);
}

} // namespace

FloorProbe
probeFloor()
{
    FloorProbe probe;
    Operands o;
    const KernelTable &active = manna::tensor::simd::kernels();
    const KernelTable &scalar = manna::tensor::simd::scalarKernels();
    for (const char *name : kKernels)
        probe.kernelNs[name] = timeKernel(active, name, o);
    probe.dotScalarNs = timeKernel(scalar, "dot", o);
    probe.sumScalarNs = timeKernel(scalar, "sum", o);
    probe.streamGbs = streamGbs();
    return probe;
}

} // namespace perfbench
