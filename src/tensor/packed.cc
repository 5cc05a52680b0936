#include "tensor/packed.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "tensor/ops.h"
#include "tensor/packed_simd.h"
#include "util/parallel.h"
#include "util/trace.h"

namespace qt8 {

PackedTensor
PackedTensor::pack(const Tensor &t, const Quantizer &q, float scale)
{
    return packCodes(t, q, scale, false);
}

PackedTensor
PackedTensor::packTransposed(const Tensor &t, const Quantizer &q,
                             float scale)
{
    return packCodes(t, q, scale, true);
}

PackedTensor
PackedTensor::packCodes(const Tensor &t, const Quantizer &q, float scale,
                        bool transpose)
{
    if (!packable(q))
        throw std::invalid_argument(
            "PackedTensor: format not packable (need a <=256-value "
            "grid): " + q.name());
    if (t.rank() != 2)
        throw std::invalid_argument("PackedTensor: rank-2 tensors only");

    const int64_t rows = t.dim(0);
    const int64_t cols = t.dim(1);
    PackedTensor p;
    p.shape_ = transpose ? std::vector<int64_t>{cols, rows} : t.shape();
    p.format_ = q.name();
    p.scale_ = scale;

    // Decode table with the 1/scale fold. The float multiply matches
    // TensorScaler's `quantize(x*s) * (float)(1/s)` rounding; scale==1
    // makes both multiplies exact identities.
    const std::vector<float> &vals = q.gridValues();
    const float inv = static_cast<float>(1.0 / static_cast<double>(scale));
    p.table_.assign(256, 0.0);
    for (size_t i = 0; i < vals.size(); ++i)
        p.table_[i] = static_cast<double>(vals[i] * inv);

    p.codes_.resize(static_cast<size_t>(rows * cols));
    const float *src = t.data();
    for (int64_t r = 0; r < rows; ++r) {
        for (int64_t c = 0; c < cols; ++c) {
            const float x = src[r * cols + c];
            if (std::isnan(x))
                throw std::invalid_argument(
                    "PackedTensor: NaN element has no grid code");
            p.codes_[static_cast<size_t>(transpose ? c * rows + r
                                                   : r * cols + c)] =
                static_cast<uint8_t>(q.gridIndex(x * scale));
        }
    }
    return p;
}

Tensor
PackedTensor::unpack() const
{
    Tensor out(shape_);
    float *dst = out.data();
    for (int64_t i = 0; i < out.numel(); ++i)
        dst[i] = static_cast<float>(table_[codes_[static_cast<size_t>(i)]]);
    return out;
}

namespace {

/// Output tile: 64 rows x 8 columns (8 = the SIMD accumulator width).
constexpr int64_t kPackedMBlock = 64;
constexpr int64_t kPackedNR = 8;
/// k-chunk of a decoded panel: 256 x 8 doubles = 16 KB, L1-resident,
/// shared by every row of the tile before the next chunk is decoded.
constexpr int64_t kPackedKChunk = detail::kGatherPanelSteps;
/// Same parallelism work threshold as the fp32 blocked GEMM.
constexpr int64_t kPackedParallelFlops = 16384;

/// Scalar fallback for the column-interleaved dot (same loop the SIMD
/// kernel vectorizes; products are exact in double either way).
void
dotChunk8Portable(const float *a, const double *w, int64_t kc, double *acc)
{
    for (int64_t t = 0; t < kc; ++t) {
        const double av = static_cast<double>(a[t]);
        for (int jj = 0; jj < kPackedNR; ++jj)
            acc[jj] += av * w[t * kPackedNR + jj];
    }
}

using DotFn = void (*)(const float *, const double *, int64_t, double *);

DotFn
pickDotKernel()
{
    return detail::packedSimdAvailable() ? detail::dotChunk8Simd
                                         : dotChunk8Portable;
}

/**
 * Code-row offsets (physical row * @p stride) of logical rows [0, rows)
 * through the page table, for the gather kernels: @p off gets one entry
 * per row, padded to whole 8-lane strips by repeating the last strip's
 * first row (those lanes are discarded). False when a row's @p span
 * bytes would not be addressable by a 32-bit gather index.
 */
bool
pagedRowOffsets(const int32_t *pages, int64_t page_size, int64_t rows,
                int64_t stride, int64_t span, std::vector<int32_t> &off)
{
    const int64_t strips = (rows + kPackedNR - 1) / kPackedNR;
    off.resize(static_cast<size_t>(strips * kPackedNR));
    for (int64_t r0 = 0, p = 0; r0 < rows; r0 += page_size, ++p) {
        const int64_t n = std::min(page_size, rows - r0);
        const int64_t base =
            static_cast<int64_t>(pages[p]) * page_size * stride;
        if (base + (n - 1) * stride + span >
            std::numeric_limits<int32_t>::max())
            return false;
        for (int64_t o = 0; o < n; ++o)
            off[static_cast<size_t>(r0 + o)] =
                static_cast<int32_t>(base + o * stride);
    }
    for (int64_t r = rows; r < strips * kPackedNR; ++r)
        off[static_cast<size_t>(r)] =
            off[static_cast<size_t>(r - r % kPackedNR)];
    return true;
}

/**
 * Apply the epilogue stages to one output element. @p local holds one
 * QuantHealth per stage (per-thread; merged by the caller) so the
 * health counters match the health-aware quantizeInPlace overload
 * element for element.
 */
inline float
applyEpilogue(const GemmEpilogue &epi, QuantHealth *local, float y,
              int64_t i, int64_t j, int64_t n)
{
    for (size_t s = 0; s < epi.stages.size(); ++s) {
        const GemmEpilogue::Stage &st = epi.stages[s];
        switch (st.kind) {
          case GemmEpilogue::Stage::Kind::kBias:
            y += st.data[j];
            break;
          case GemmEpilogue::Stage::Kind::kGelu:
            y = geluScalar(y);
            break;
          case GemmEpilogue::Stage::Kind::kResidual:
            y += st.data[i * n + j];
            break;
          case GemmEpilogue::Stage::Kind::kQuant: {
            const float q = st.quant->quantize(y);
            if (st.health != nullptr) {
                QuantHealth &h = local[s];
                ++h.count;
                if (std::isfinite(y)) {
                    const double a = std::fabs(static_cast<double>(y));
                    if (a > h.amax)
                        h.amax = a;
                    if (a > st.quant->maxRepresentable())
                        ++h.saturated;
                    if (y != 0.0f && q == 0.0f)
                        ++h.underflow;
                    h.abs_err_sum += std::fabs(
                        static_cast<double>(y) - static_cast<double>(q));
                } else {
                    ++h.nonfinite;
                }
            }
            y = q;
            break;
          }
        }
    }
    return y;
}

void
checkQuantizedShapes(const Tensor &a, bool trans_a, const PackedTensor &w,
                     bool trans_w, const Tensor &c, int64_t &m, int64_t &n,
                     int64_t &k)
{
    if (a.rank() != 2 || c.rank() != 2 || w.shape().size() != 2)
        throw std::invalid_argument("gemmQuantized: rank-2 operands only");
    m = trans_a ? a.dim(1) : a.dim(0);
    k = trans_a ? a.dim(0) : a.dim(1);
    const int64_t wk = trans_w ? w.dim(1) : w.dim(0);
    n = trans_w ? w.dim(0) : w.dim(1);
    if (k != wk || c.dim(0) != m || c.dim(1) != n)
        throw std::invalid_argument("gemmQuantized: shape mismatch");
}

} // namespace

void
gemmQuantized(const Tensor &a, bool trans_a, const PackedTensor &w,
              bool trans_w, Tensor &c, float alpha, float beta,
              const GemmEpilogue *epi)
{
    QT8_TRACE_SCOPE("gemm_quantized");
    int64_t m, n, k;
    checkQuantizedShapes(a, trans_a, w, trans_w, c, m, n, k);

    static const DotFn dot = pickDotKernel();
    // The gather kernels address codes with 32-bit offsets.
    static const bool gather_hw = detail::packedGatherAvailable();
    const bool gather =
        gather_hw && w.numel() <= std::numeric_limits<int32_t>::max();

    const float *pa = a.data();
    float *pc = c.data();
    const uint8_t *codes = w.codes();
    const double *table = w.table();
    const int64_t lda = a.dim(1);
    const int64_t ldw = w.dim(1); // code-row stride

    const int64_t tiles_m = (m + kPackedMBlock - 1) / kPackedMBlock;
    const int64_t strips_n = (n + kPackedNR - 1) / kPackedNR;
    const int64_t tiles = tiles_m * strips_n;
    const bool par =
        m * n * k > kPackedParallelFlops && kernelThreads() > 1;
    const size_t n_stages = epi != nullptr ? epi->stages.size() : 0;

#pragma omp parallel if (par)
    {
        // Per-thread scratch: the op(A) rows of the current row block
        // (packed for trans_a, as in the fp32 blocked GEMM; widened to
        // double for the gather kernels), the decoded [kc x 8] weight
        // panel, the per-row accumulators, and per-stage health
        // partials (merged once at the end).
        std::vector<float> a_pack;
        std::vector<double> a_wide;
        int64_t a_block = -1; // row block a_pack / a_wide hold
        std::vector<double> wdec(
            static_cast<size_t>(kPackedKChunk * kPackedNR));
        std::vector<double> acc(
            static_cast<size_t>(kPackedMBlock * kPackedNR));
        std::vector<QuantHealth> local(n_stages);

#pragma omp for schedule(static)
        for (int64_t tile = 0; tile < tiles; ++tile) {
            const int64_t i0 = (tile / strips_n) * kPackedMBlock;
            const int64_t j0 = (tile % strips_n) * kPackedNR;
            const int64_t i1 = std::min(m, i0 + kPackedMBlock);
            const int64_t bm = i1 - i0;
            const int64_t bn = std::min(n - j0, kPackedNR);

            if (trans_a && a_block != i0) {
                // op(A) row i is column i of A: stride-lda gather.
                a_pack.resize(static_cast<size_t>(bm) * k);
                for (int64_t t = 0; t < k; ++t) {
                    const float *src = pa + t * lda + i0;
                    for (int64_t ii = 0; ii < bm; ++ii)
                        a_pack[static_cast<size_t>(ii) * k + t] = src[ii];
                }
            }
            const float *ta = trans_a ? a_pack.data() : pa + i0 * lda;
            const int64_t tlda = trans_a ? k : lda;
            if (gather && a_block != i0) {
                a_wide.resize(static_cast<size_t>(bm) * k);
                for (int64_t ii = 0; ii < bm; ++ii)
                    std::copy(ta + ii * tlda, ta + ii * tlda + k,
                              a_wide.begin() + ii * k);
            }
            a_block = i0;

            std::fill(acc.begin(),
                      acc.begin() + static_cast<size_t>(bm) * kPackedNR,
                      0.0);

            if (gather && trans_w) {
                // op(W) column j is code row j: lane jj walks row j0+jj
                // along k (lanes past bn re-walk row j0, discarded).
                int32_t off[kPackedNR];
                for (int64_t jj = 0; jj < kPackedNR; ++jj)
                    off[jj] = static_cast<int32_t>(
                        (j0 + (jj < bn ? jj : 0)) * ldw);
                detail::gatherFmaStrided(codes, off, 1, table,
                                         a_wide.data(), k, bm, k,
                                         acc.data(), wdec.data());
            } else if (gather && bn == kPackedNR) {
                // op(W) column j is code column j: a k step's 8 codes
                // are adjacent bytes of code row k.
                detail::gatherFmaContig(codes + j0, ldw, nullptr, table,
                                        a_wide.data(), k, bm, k,
                                        acc.data(), wdec.data());
            } else {
                // Scalar decode (NEON, portable, ragged contiguous
                // strips): each [kc x 8] code panel goes through the
                // table into column-interleaved doubles; lanes beyond bn
                // are zero so their accumulators stay inert.
                for (int64_t k0 = 0; k0 < k; k0 += kPackedKChunk) {
                    const int64_t kc = std::min(kPackedKChunk, k - k0);
                    if (bn < kPackedNR)
                        std::fill(wdec.begin(),
                                  wdec.begin() +
                                      static_cast<size_t>(kc) * kPackedNR,
                                  0.0);
                    if (trans_w) {
                        for (int64_t jj = 0; jj < bn; ++jj) {
                            const uint8_t *row =
                                codes + (j0 + jj) * ldw + k0;
                            for (int64_t t = 0; t < kc; ++t)
                                wdec[static_cast<size_t>(
                                    t * kPackedNR + jj)] = table[row[t]];
                        }
                    } else {
                        for (int64_t t = 0; t < kc; ++t) {
                            const uint8_t *row =
                                codes + (k0 + t) * ldw + j0;
                            for (int64_t jj = 0; jj < bn; ++jj)
                                wdec[static_cast<size_t>(
                                    t * kPackedNR + jj)] = table[row[jj]];
                        }
                    }
                    for (int64_t ii = 0; ii < bm; ++ii)
                        dot(ta + ii * tlda + k0, wdec.data(), kc,
                            acc.data() + ii * kPackedNR);
                }
            }

            // alpha/beta + fused epilogue on the hot output tile; the
            // final rounding matches gemm() exactly (double alpha*acc
            // + beta*prev, one cast to float).
            for (int64_t ii = 0; ii < bm; ++ii) {
                float *rc = pc + (i0 + ii) * n;
                for (int64_t jj = 0; jj < bn; ++jj) {
                    const int64_t j = j0 + jj;
                    const double av =
                        acc[static_cast<size_t>(ii * kPackedNR + jj)];
                    const double prev = beta == 0.0f
                        ? 0.0
                        : static_cast<double>(beta) * rc[j];
                    float y = static_cast<float>(
                        static_cast<double>(alpha) * av + prev);
                    if (epi != nullptr)
                        y = applyEpilogue(*epi, local.data(), y, i0 + ii,
                                          j, n);
                    rc[j] = y;
                }
            }
        }

        if (n_stages > 0) {
#pragma omp critical(qt8_gemm_quantized_health)
            for (size_t s = 0; s < n_stages; ++s) {
                if (epi->stages[s].health != nullptr)
                    epi->stages[s].health->merge(local[s]);
            }
        }
    }
}

void
packedDotRows(const float *q, const uint8_t *codes, const double *table,
              int64_t rows, int64_t cols, int64_t stride, float *out,
              PackedKvScratch &scratch)
{
    const int32_t page = 0;
    packedDotRowsPaged(q, codes, table, &page, rows, rows, cols, stride,
                       out, scratch);
}

void
packedAccumRows(const float *w, const uint8_t *codes, const double *table,
                int64_t rows, int64_t cols, int64_t stride, float *out,
                PackedKvScratch &scratch)
{
    const int32_t page = 0;
    packedAccumRowsPaged(w, codes, table, &page, rows, rows, cols, stride,
                         out, scratch);
}

void
packedDotRowsPaged(const float *q, const uint8_t *codes,
                   const double *table, const int32_t *pages,
                   int64_t page_size, int64_t rows, int64_t cols,
                   int64_t stride, float *out, PackedKvScratch &scratch)
{
    static const DotFn dot = pickDotKernel();
    static const bool gather = detail::packedGatherAvailable();
    scratch.panel.resize(
        static_cast<size_t>(kPackedKChunk * kPackedNR));
    double *wdec = scratch.panel.data();

    if (gather && pagedRowOffsets(pages, page_size, rows, stride, cols,
                                  scratch.rows)) {
        // Lane jj of strip s walks code row 8s + jj along c (the k
        // dimension): every strip in one call.
        const int64_t strips = (rows + kPackedNR - 1) / kPackedNR;
        scratch.a.assign(q, q + cols);
        scratch.acc.assign(static_cast<size_t>(strips * kPackedNR), 0.0);
        detail::gatherFmaStrided(codes, scratch.rows.data(), strips, table,
                                 scratch.a.data(), 0, 1, cols,
                                 scratch.acc.data(), wdec);
        for (int64_t r = 0; r < rows; ++r)
            out[r] = static_cast<float>(scratch.acc[static_cast<size_t>(r)]);
        return;
    }

    double acc[kPackedNR];
    for (int64_t r0 = 0; r0 < rows; r0 += kPackedNR) {
        const int64_t bn = std::min(rows - r0, kPackedNR);
        std::fill(acc, acc + kPackedNR, 0.0);
        for (int64_t c0 = 0; c0 < cols; c0 += kPackedKChunk) {
            const int64_t kc = std::min(kPackedKChunk, cols - c0);
            if (bn < kPackedNR)
                std::fill(wdec, wdec + kc * kPackedNR, 0.0);
            for (int64_t jj = 0; jj < bn; ++jj) {
                const int64_t r = r0 + jj;
                const int64_t phys =
                    static_cast<int64_t>(pages[r / page_size]) *
                        page_size +
                    r % page_size;
                const uint8_t *row = codes + phys * stride + c0;
                for (int64_t t = 0; t < kc; ++t)
                    wdec[t * kPackedNR + jj] = table[row[t]];
            }
            dot(q + c0, wdec, kc, acc);
        }
        for (int64_t jj = 0; jj < bn; ++jj)
            out[r0 + jj] = static_cast<float>(acc[jj]);
    }
}

void
packedAccumRowsPaged(const float *w, const uint8_t *codes,
                     const double *table, const int32_t *pages,
                     int64_t page_size, int64_t rows, int64_t cols,
                     int64_t stride, float *out, PackedKvScratch &scratch)
{
    static const DotFn dot = pickDotKernel();
    static const bool gather = detail::packedGatherAvailable();
    scratch.panel.resize(
        static_cast<size_t>(kPackedKChunk * kPackedNR));
    double *wdec = scratch.panel.data();
    double acc[kPackedNR];

    const bool simd = gather && pagedRowOffsets(pages, page_size, rows,
                                                stride, cols, scratch.rows);
    if (simd)
        scratch.a.assign(w, w + rows);

    for (int64_t c0 = 0; c0 < cols; c0 += kPackedNR) {
        const int64_t bn = std::min(cols - c0, kPackedNR);
        std::fill(acc, acc + kPackedNR, 0.0);
        // The k dimension is the cache length, walked in ascending
        // logical row order through the page table; acc persists across
        // every page seam, so no intermediate rounding is introduced.
        if (simd && bn == kPackedNR) {
            detail::gatherFmaContig(codes + c0, 0, scratch.rows.data(),
                                    table, scratch.a.data(), 0, 1, rows,
                                    acc, wdec);
        } else {
            for (int64_t r0 = 0; r0 < rows; r0 += kPackedKChunk) {
                const int64_t kc = std::min(kPackedKChunk, rows - r0);
                if (bn < kPackedNR)
                    std::fill(wdec, wdec + kc * kPackedNR, 0.0);
                for (int64_t t = 0; t < kc; ++t) {
                    const int64_t r = r0 + t;
                    const int64_t phys =
                        static_cast<int64_t>(pages[r / page_size]) *
                            page_size +
                        r % page_size;
                    const uint8_t *row = codes + phys * stride + c0;
                    for (int64_t jj = 0; jj < bn; ++jj)
                        wdec[t * kPackedNR + jj] = table[row[jj]];
                }
                dot(w + r0, wdec, kc, acc);
            }
        }
        for (int64_t jj = 0; jj < bn; ++jj)
            out[c0 + jj] = static_cast<float>(acc[jj]);
    }
}

void
gemmQuantizedReference(const Tensor &a, bool trans_a, const PackedTensor &w,
                       bool trans_w, Tensor &c, float alpha, float beta,
                       const GemmEpilogue *epi)
{
    const Tensor wf = w.unpack();
    gemmReference(a, trans_a, wf, trans_w, c, alpha, beta);
    if (epi == nullptr)
        return;

    // Unfused semantics: each stage is a separate full-tensor pass
    // (addRowBias / geluInPlace / addInPlace / quantizeInPlace), which
    // is what the fused kernel must reproduce bit for bit.
    const int64_t m = c.dim(0);
    const int64_t n = c.dim(1);
    float *pc = c.data();
    for (const GemmEpilogue::Stage &st : epi->stages) {
        switch (st.kind) {
          case GemmEpilogue::Stage::Kind::kBias:
            for (int64_t i = 0; i < m; ++i)
                for (int64_t j = 0; j < n; ++j)
                    pc[i * n + j] += st.data[j];
            break;
          case GemmEpilogue::Stage::Kind::kGelu:
            for (int64_t i = 0; i < m * n; ++i)
                pc[i] = geluScalar(pc[i]);
            break;
          case GemmEpilogue::Stage::Kind::kResidual:
            for (int64_t i = 0; i < m * n; ++i)
                pc[i] += st.data[i];
            break;
          case GemmEpilogue::Stage::Kind::kQuant:
            if (st.health != nullptr) {
                st.quant->quantizeInPlace(
                    pc, static_cast<size_t>(m * n), *st.health);
            } else {
                st.quant->quantizeInPlace(pc,
                                          static_cast<size_t>(m * n));
            }
            break;
        }
    }
}

} // namespace qt8
