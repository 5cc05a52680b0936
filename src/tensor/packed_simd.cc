#include "tensor/packed_simd.h"

#include <algorithm>
#include <type_traits>

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#elif defined(__aarch64__) && defined(__ARM_NEON)
#include <arm_neon.h>
#endif

namespace qt8::detail {

#if defined(__AVX2__) && defined(__FMA__)

bool
packedSimdAvailable()
{
    // This TU is compiled with -mavx2 -mfma whether or not the running
    // CPU has them; gate at runtime so the rest of the binary stays
    // safe on older x86 cores.
    static const bool ok = __builtin_cpu_supports("avx2") &&
                           __builtin_cpu_supports("fma");
    return ok;
}

bool
packedGatherAvailable()
{
    return packedSimdAvailable();
}

const char *
packedSimdName()
{
    return packedSimdAvailable() ? "avx2" : "portable";
}

void
dotChunk8Simd(const float *a, const double *w, int64_t kc, double *acc)
{
    __m256d acc0 = _mm256_loadu_pd(acc);
    __m256d acc1 = _mm256_loadu_pd(acc + 4);
    for (int64_t t = 0; t < kc; ++t) {
        // One broadcast activation against 8 decoded weight columns.
        // a[t] and w[..] both hold float-valued doubles, so the fmadd
        // product is exact and the single add per lane lands on the
        // same bits as the scalar mul-then-add.
        const __m256d av = _mm256_set1_pd(static_cast<double>(a[t]));
        acc0 = _mm256_fmadd_pd(av, _mm256_loadu_pd(w + t * 8), acc0);
        acc1 = _mm256_fmadd_pd(av, _mm256_loadu_pd(w + t * 8 + 4), acc1);
    }
    _mm256_storeu_pd(acc, acc0);
    _mm256_storeu_pd(acc + 4, acc1);
}

namespace {

/// The 8-column strip accumulators of M rows, held in registers. Each
/// k step broadcasts a[t] of every row (pre-widened to double, so the
/// broadcast is a plain load) against the step's 8 decoded codes; both
/// hold float-valued doubles, so the fmadd product is exact and every
/// lane stays the scalar ascending-k sum.
template <int M>
struct RowsAcc
{
    const double *a;
    int64_t lda;
    __m256d lo[M], hi[M];

    RowsAcc(const double *a_, int64_t lda_, const double *acc)
        : a(a_), lda(lda_)
    {
        for (int i = 0; i < M; ++i) {
            lo[i] = _mm256_loadu_pd(acc + 8 * i);
            hi[i] = _mm256_loadu_pd(acc + 8 * i + 4);
        }
    }

    void store(double *acc) const
    {
        for (int i = 0; i < M; ++i) {
            _mm256_storeu_pd(acc + 8 * i, lo[i]);
            _mm256_storeu_pd(acc + 8 * i + 4, hi[i]);
        }
    }

    void operator()(int64_t t, __m256d w0, __m256d w1)
    {
        for (int i = 0; i < M; ++i) {
            const __m256d av = _mm256_broadcast_sd(a + i * lda + t);
            lo[i] = _mm256_fmadd_pd(av, w0, lo[i]);
            hi[i] = _mm256_fmadd_pd(av, w1, hi[i]);
        }
    }
};

/// Stores decoded steps [t0, ...) as a column-interleaved panel.
struct PanelSink
{
    double *panel;
    int64_t t0;

    void operator()(int64_t t, __m256d w0, __m256d w1) const
    {
        double *p = panel + (t - t0) * 8;
        _mm256_storeu_pd(p, w0);
        _mm256_storeu_pd(p + 4, w1);
    }
};

/// Run @p fn with M = m (1..kGatherRows) as a compile-time constant.
template <class Fn>
void
withRows(int64_t m, Fn &&fn)
{
    switch (m) {
      case 1:
        fn(std::integral_constant<int, 1>{});
        break;
      case 2:
        fn(std::integral_constant<int, 2>{});
        break;
      case 3:
        fn(std::integral_constant<int, 3>{});
        break;
      case 4:
        fn(std::integral_constant<int, 4>{});
        break;
    }
}

/// The table values of 8 codes held as 32-bit indices. (The masked
/// form with an all-ones mask is the plain vgatherdpd; unlike
/// _mm256_i32gather_pd it starts from a defined register, so GCC does
/// not warn about an uninitialized source.)
inline void
gather8(const double *table, __m256i idx, __m256d &w0, __m256d &w1)
{
    const __m256d all = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
    w0 = _mm256_mask_i32gather_pd(_mm256_setzero_pd(), table,
                                  _mm256_castsi256_si128(idx), all, 8);
    w1 = _mm256_mask_i32gather_pd(_mm256_setzero_pd(), table,
                                  _mm256_extracti128_si256(idx, 1), all,
                                  8);
}

/// The 8 codes at @p p as 32-bit indices.
inline __m256i
widen8(const uint8_t *p)
{
    return _mm256_cvtepu8_epi32(
        _mm_loadl_epi64(reinterpret_cast<const __m128i *>(p)));
}

/// Contiguous addressing: step t's 8 codes are the adjacent bytes at
/// codes + rows[t], or codes + t * stride without a row table.
struct ContigWalk
{
    const uint8_t *codes;
    int64_t stride;
    const int32_t *rows;
    const double *table;

    template <class Sink>
    void operator()(int64_t t0, int64_t t1, Sink &sink) const
    {
        __m256d w0, w1;
        if (rows != nullptr) {
            for (int64_t t = t0; t < t1; ++t) {
                gather8(table, widen8(codes + rows[t]), w0, w1);
                sink(t, w0, w1);
            }
            return;
        }
        const uint8_t *row = codes + t0 * stride;
        for (int64_t t = t0; t < t1; ++t, row += stride) {
            gather8(table, widen8(row), w0, w1);
            sink(t, w0, w1);
        }
    }
};

/// Strided addressing: lane jj reads codes[off[jj] + t]. Two 64-bit
/// gathers (lanes 0-3 and 4-7) fetch steps t..t+7 of all 8 lanes, one
/// code per byte, little-endian, and each step's index halves feed
/// vgatherqpd directly. They run only while those 8 bytes lie inside
/// [off, off + t1); a tail of at most 7 steps loads one byte per lane,
/// so no lane reads past its slice.
struct StridedWalk
{
    const uint8_t *codes;
    const int32_t *off;
    const double *table;

    template <class Sink>
    void operator()(int64_t t0, int64_t t1, Sink &sink) const
    {
        const __m128i off_lo =
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(off));
        const __m128i off_hi =
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(off + 4));
        const __m256i ones = _mm256_set1_epi64x(-1);
        const __m256d all = _mm256_castsi256_pd(ones);
        const __m256i low = _mm256_set1_epi64x(0xff);
        __m256d w0, w1;
        int64_t t = t0;
        for (; t + 8 <= t1; t += 8) {
            const auto *base = reinterpret_cast<const long long *>(codes + t);
            const __m256i g0 = _mm256_mask_i32gather_epi64(
                _mm256_setzero_si256(), base, off_lo, ones, 1);
            const __m256i g1 = _mm256_mask_i32gather_epi64(
                _mm256_setzero_si256(), base, off_hi, ones, 1);
            for (int s = 0; s < 8; ++s) {
                const __m256i i0 =
                    _mm256_and_si256(_mm256_srli_epi64(g0, 8 * s), low);
                const __m256i i1 =
                    _mm256_and_si256(_mm256_srli_epi64(g1, 8 * s), low);
                w0 = _mm256_mask_i64gather_pd(_mm256_setzero_pd(), table,
                                              i0, all, 8);
                w1 = _mm256_mask_i64gather_pd(_mm256_setzero_pd(), table,
                                              i1, all, 8);
                sink(t + s, w0, w1);
            }
        }
        for (; t < t1; ++t) {
            const uint8_t *c = codes + t;
            gather8(table,
                    _mm256_setr_epi32(c[off[0]], c[off[1]], c[off[2]],
                                      c[off[3]], c[off[4]], c[off[5]],
                                      c[off[6]], c[off[7]]),
                    w0, w1);
            sink(t, w0, w1);
        }
    }
};

/// Rows [0, m) of one strip over steps [0, kc): straight from the
/// gathered registers for m <= kGatherRows, else one decoded panel per
/// kGatherPanelSteps chunk, reused by every row four at a time.
template <class Walk>
void
fmaStrip(const Walk &walk, const double *a, int64_t lda, int64_t m,
         int64_t kc, double *acc, double *panel)
{
    if (m <= kGatherRows) {
        withRows(m, [&](auto rows) {
            RowsAcc<decltype(rows)::value> r(a, lda, acc);
            walk(0, kc, r);
            r.store(acc);
        });
        return;
    }
    for (int64_t t0 = 0; t0 < kc; t0 += kGatherPanelSteps) {
        const int64_t t1 = std::min(kc, t0 + kGatherPanelSteps);
        PanelSink sink{panel, t0};
        walk(t0, t1, sink);
        for (int64_t i = 0; i < m; i += kGatherRows) {
            withRows(std::min(m - i, kGatherRows), [&](auto rows) {
                RowsAcc<decltype(rows)::value> r(a + i * lda, lda,
                                                 acc + i * 8);
                for (int64_t t = t0; t < t1; ++t) {
                    const double *p = panel + (t - t0) * 8;
                    r(t, _mm256_loadu_pd(p), _mm256_loadu_pd(p + 4));
                }
                r.store(acc + i * 8);
            });
        }
    }
}

} // namespace

void
gatherFmaContig(const uint8_t *codes, int64_t stride, const int32_t *rows,
                const double *table, const double *a, int64_t lda,
                int64_t m, int64_t kc, double *acc, double *panel)
{
    fmaStrip(ContigWalk{codes, stride, rows, table}, a, lda, m, kc, acc,
             panel);
}

void
gatherFmaStrided(const uint8_t *codes, const int32_t *off, int64_t strips,
                 const double *table, const double *a, int64_t lda,
                 int64_t m, int64_t kc, double *acc, double *panel)
{
    for (int64_t s = 0; s < strips; ++s)
        fmaStrip(StridedWalk{codes, off + 8 * s, table}, a, lda, m, kc,
                 acc + s * m * 8, panel);
}

#else // !AVX2

#if defined(__aarch64__) && defined(__ARM_NEON)

bool
packedSimdAvailable()
{
    return true; // NEON (incl. float64x2) is baseline on aarch64.
}

const char *
packedSimdName()
{
    return "neon";
}

void
dotChunk8Simd(const float *a, const double *w, int64_t kc, double *acc)
{
    float64x2_t acc0 = vld1q_f64(acc);
    float64x2_t acc1 = vld1q_f64(acc + 2);
    float64x2_t acc2 = vld1q_f64(acc + 4);
    float64x2_t acc3 = vld1q_f64(acc + 6);
    for (int64_t t = 0; t < kc; ++t) {
        const float64x2_t av = vdupq_n_f64(static_cast<double>(a[t]));
        acc0 = vfmaq_f64(acc0, av, vld1q_f64(w + t * 8));
        acc1 = vfmaq_f64(acc1, av, vld1q_f64(w + t * 8 + 2));
        acc2 = vfmaq_f64(acc2, av, vld1q_f64(w + t * 8 + 4));
        acc3 = vfmaq_f64(acc3, av, vld1q_f64(w + t * 8 + 6));
    }
    vst1q_f64(acc, acc0);
    vst1q_f64(acc + 2, acc1);
    vst1q_f64(acc + 4, acc2);
    vst1q_f64(acc + 6, acc3);
}

#else

bool
packedSimdAvailable()
{
    return false;
}

const char *
packedSimdName()
{
    return "portable";
}

void
dotChunk8Simd(const float *a, const double *w, int64_t kc, double *acc)
{
    // Never dispatched (packedSimdAvailable() is false); scalar body so
    // the symbol links on every platform.
    for (int64_t t = 0; t < kc; ++t) {
        const double av = static_cast<double>(a[t]);
        for (int jj = 0; jj < 8; ++jj)
            acc[jj] += av * w[t * 8 + jj];
    }
}

#endif

bool
packedGatherAvailable()
{
    return false;
}

// Never dispatched (packedGatherAvailable() is false): NEON and the
// portable build decode through packed.cc's scalar panel path. Scalar
// bodies so the symbols link on every platform.

void
gatherFmaContig(const uint8_t *codes, int64_t stride, const int32_t *rows,
                const double *table, const double *a, int64_t lda,
                int64_t m, int64_t kc, double *acc, double *)
{
    for (int64_t t = 0; t < kc; ++t) {
        const uint8_t *row = codes + (rows != nullptr ? rows[t] : t * stride);
        for (int64_t i = 0; i < m; ++i)
            for (int jj = 0; jj < 8; ++jj)
                acc[i * 8 + jj] += a[i * lda + t] * table[row[jj]];
    }
}

void
gatherFmaStrided(const uint8_t *codes, const int32_t *off, int64_t strips,
                 const double *table, const double *a, int64_t lda,
                 int64_t m, int64_t kc, double *acc, double *)
{
    for (int64_t s = 0; s < strips; ++s)
        for (int64_t t = 0; t < kc; ++t)
            for (int64_t i = 0; i < m; ++i)
                for (int jj = 0; jj < 8; ++jj)
                    acc[(s * m + i) * 8 + jj] +=
                        a[i * lda + t] * table[codes[off[8 * s + jj] + t]];
}

#endif

} // namespace qt8::detail
