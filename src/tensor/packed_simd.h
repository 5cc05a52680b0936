/**
 * @file
 * SIMD micro-kernels behind gemmQuantized and the packed KV-cache
 * attention GEMVs (packedDotRowsPaged / packedAccumRowsPaged).
 *
 * Vectorization never breaks bit-identity: 8 output columns advance
 * together through ascending k, each column's double accumulator
 * summed in exactly the scalar order. Products of two floats are exact
 * in double, so hardware FMA (one rounding of an already-exact product)
 * produces the same bits as mul-then-add.
 *
 * On AVX2 the code decode moves inside the FMA loop — the software form
 * of the paper's posit decoder in front of each MAC (section 4): each k
 * step loads its 8 codes, widens them to 32-bit indices and fetches
 * their table values with two 4-lane `_mm256_i32gather_pd`, which feed
 * the FMAs directly. Codes are addressed one of two ways:
 *
 *  - contiguous: a k step's 8 codes are adjacent bytes of one code row
 *    (attn.V over a page row; gemmQuantized with trans_w=false);
 *  - strided: lane jj walks its own code row, so two 64-bit gathers
 *    fetch 8 consecutive codes from each of the 8 rows (QK^T over page
 *    rows; trans_w=true), and each step's indices feed vgatherqpd
 *    directly. The gathers stop 8 bytes short of the slice end and a
 *    scalar-indexed tail finishes ragged widths, so no lane ever reads
 *    past its row's slice.
 *
 * Up to kGatherRows rows FMA straight from the gathered registers; more
 * rows (prefill chunks) gather-decode one [kGatherPanelSteps x 8]
 * double panel per strip and reuse it across rows, four at a time.
 *
 * Compiled as its own translation unit so only this file gets -mavx2
 * -mfma (x86) — the dispatcher checks __builtin_cpu_supports at
 * runtime, keeping the library safe on older cores. On aarch64 the
 * NEON panel FMA compiles under the default flags and the decode stays
 * scalar (in packed.cc); anywhere else the portable fallback in
 * packed.cc is used.
 */
#ifndef QT8_TENSOR_PACKED_SIMD_H
#define QT8_TENSOR_PACKED_SIMD_H

#include <cstdint>

namespace qt8::detail {

/// Largest row count the gather kernels FMA straight from registers.
constexpr int64_t kGatherRows = 4;
/// k steps per decoded panel when more than kGatherRows rows share a
/// strip: 256 x 8 doubles = 16 KB, L1-resident. @p panel arguments
/// below must hold kGatherPanelSteps * 8 doubles.
constexpr int64_t kGatherPanelSteps = 256;

/// True when the panel FMA (dotChunk8Simd) can run on this machine.
bool packedSimdAvailable();

/// True when the gather kernels can run on this machine (AVX2 + FMA).
bool packedGatherAvailable();

/// "avx2", "neon", or "portable" — surfaced by the kernel benches.
const char *packedSimdName();

/**
 * acc[jj] += sum over t in [0, kc) of a[t] * w[t*8 + jj], jj in 0..7.
 * @p w is the decoded weight panel, 8 doubles per k step (column-
 * interleaved); @p acc holds 8 running double accumulators. Ascending-k
 * per lane: bit-identical to the scalar loop.
 *
 * Only call when packedSimdAvailable(); the portable build compiles a
 * scalar body so the symbol always links.
 */
void dotChunk8Simd(const float *a, const double *w, int64_t kc,
                   double *acc);

/**
 * Contiguous codes. For i < m and jj < 8:
 *
 *   acc[i*8 + jj] += sum_{t<kc} a[i*lda + t] * table[codes[row(t) + jj]]
 *
 * in ascending t, where row(t) = rows[t] (a page-table walk resolved by
 * the caller), or t * stride when @p rows is null. Reads the 8 bytes at
 * codes + row(t) of every step. @p a holds op(A) rows widened to double
 * (exact).
 *
 * Only call when packedGatherAvailable(); other builds compile a scalar
 * body so the symbol always links.
 */
void gatherFmaContig(const uint8_t *codes, int64_t stride,
                     const int32_t *rows, const double *table,
                     const double *a, int64_t lda, int64_t m, int64_t kc,
                     double *acc, double *panel);

/**
 * Strided codes over @p strips 8-lane strips: lane jj of strip s reads
 * its step-t code at codes[off[8*s + jj] + t].
 *
 *   acc[(s*m + i)*8 + jj] += sum_{t<kc} a[i*lda + t] * table[codes[off[8*s + jj] + t]]
 *
 * Reads only the bytes [off, off + kc) of each lane. Same availability
 * rule as gatherFmaContig.
 */
void gatherFmaStrided(const uint8_t *codes, const int32_t *off,
                      int64_t strips, const double *table,
                      const double *a, int64_t lda, int64_t m, int64_t kc,
                      double *acc, double *panel);

} // namespace qt8::detail

#endif // QT8_TENSOR_PACKED_SIMD_H
