/**
 * @file
 * fp32 FMA-peak probe for the roofline: twelve independent FMA chains
 * per lane group, so the loop is bound by FMA throughput rather than
 * latency. Built with -mavx2 -mfma on x86 and gated at run time.
 */
#include <algorithm>

#include "workloads.h"

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#endif

namespace edgebench {

namespace {

constexpr int kChains = 12;
constexpr long kIters = 1L << 21;

#if defined(__AVX2__) && defined(__FMA__)
double
avx2Pass()
{
    __m256 acc[kChains];
    for (int i = 0; i < kChains; ++i)
        acc[i] = _mm256_set1_ps(static_cast<float>(i));
    const __m256 x = _mm256_set1_ps(0.999999f);
    const __m256 y = _mm256_set1_ps(1e-7f);
    const auto t0 = Clock::now();
    for (long it = 0; it < kIters; ++it)
        for (int i = 0; i < kChains; ++i)
            acc[i] = _mm256_fmadd_ps(acc[i], x, y);
    const double ms = msSince(t0);
    __m256 sum = acc[0];
    for (int i = 1; i < kChains; ++i)
        sum = _mm256_add_ps(sum, acc[i]);
    alignas(32) float out[8];
    _mm256_store_ps(out, sum);
    volatile float sink = out[0];
    (void)sink;
    return 2.0 * 8.0 * kChains * static_cast<double>(kIters) / (ms * 1e6);
}
#endif

double
scalarPass()
{
    float acc[kChains];
    for (int i = 0; i < kChains; ++i)
        acc[i] = static_cast<float>(i);
    const auto t0 = Clock::now();
    for (long it = 0; it < kIters / 8; ++it)
        for (int i = 0; i < kChains; ++i)
            acc[i] = acc[i] * 0.999999f + 1e-7f;
    const double ms = msSince(t0);
    volatile float sink = acc[0];
    (void)sink;
    return 2.0 * kChains * static_cast<double>(kIters / 8) / (ms * 1e6);
}

} // namespace

double
fmaPeakGflops()
{
    double best = 0.0;
    for (int rep = 0; rep < 5; ++rep) {
#if defined(__AVX2__) && defined(__FMA__)
        if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
            best = std::max(best, avx2Pass());
            continue;
        }
#endif
        best = std::max(best, scalarPass());
    }
    return best;
}

} // namespace edgebench
