/**
 * @file
 * True 8-bit packed weight storage and the fused quantized GEMM.
 *
 * Every earlier layer of this codebase *fake*-quantizes: tensors are
 * rounded onto an 8-bit format's value grid but stay resident as fp32,
 * so the paper's formats buy accuracy results and zero speed or memory.
 * PackedTensor makes the codes real: a tensor whose values live on a
 * grid format's value grid is stored as one uint8 *code* per element
 * (the index into Quantizer::gridValues(), i.e. the same 256-entry
 * decode table the paper's hardware uses, section 4) plus a per-tensor
 * power-of-two scale — 1 byte/element instead of 4.
 *
 * gemmQuantized() consumes the codes directly: on AVX2 the micro-kernel
 * gathers each k step's 8 code values from the table inside the FMA
 * loop (the software form of the paper's decoder in front of each MAC,
 * section 4); NEON and the portable build decode a [kc x 8] panel
 * through the table right before the FMA loop (see packed_simd.h). The
 * kernel then applies the consumer's element-wise epilogue — bias add,
 * GeLU, residual add, quantize-back — on the output tile while it is
 * hot, instead of as separate full-tensor passes. This is the paper's
 * "operation fusion" (section 4.2) turned into a speed feature.
 *
 * Numerics contract: gemmQuantized is **bit-identical** to
 * decode-to-fp32 followed by gemm()/gemmReference() plus the separate
 * epilogue passes. Each output element is accumulated in double in
 * ascending-k order (float*float products are exact in double, so FMA
 * contraction cannot change a bit), the SIMD width spans *output
 * columns* rather than the k dimension, and every epilogue stage
 * replicates the element-wise math of the pass it replaces.
 */
#ifndef QT8_TENSOR_PACKED_H
#define QT8_TENSOR_PACKED_H

#include <cstdint>
#include <string>
#include <vector>

#include "numerics/quantizer.h"
#include "tensor/tensor.h"

namespace qt8 {

/**
 * Contiguous row-major uint8 codes + per-tensor scale for a rank-2
 * tensor quantized onto a <=256-value grid format.
 *
 * Packing quantizes x*scale onto the grid and stores the grid index;
 * decoding returns gridValues()[code] * (1/scale) with the same float
 * rounding TensorScaler uses, folded into the decode table so the
 * kernel pays nothing for it. With scale == 1 (the weight path —
 * QuantSession::quantWeight applies no per-tensor scale) the decoded
 * value is bit-identical to Quantizer::quantize of the original.
 */
class PackedTensor
{
  public:
    PackedTensor() = default;

    /// True when @p q's grid fits 8-bit codes (grid format with at most
    /// 256 representable values: posit(8,*), E4M3, E5M2, ...).
    static bool packable(const Quantizer &q)
    {
        return !q.gridValues().empty() && q.gridValues().size() <= 256;
    }

    /**
     * Quantize @p t (element-wise, times @p scale) onto @p q's grid and
     * pack the codes. Throws std::invalid_argument for non-packable
     * quantizers, non-rank-2 tensors, and NaN elements (no grid code
     * represents NaN).
     */
    static PackedTensor pack(const Tensor &t, const Quantizer &q,
                             float scale = 1.0f);

    /// pack() of @p t's transpose: a [cols, rows] tensor whose code
    /// (c, r) is that of t(r, c), built without an fp32 transposed copy
    /// (Linear packs W^T this way).
    static PackedTensor packTransposed(const Tensor &t, const Quantizer &q,
                                       float scale = 1.0f);

    /// Decode every code back to fp32 (the reference the fused kernel
    /// is tested against). Bit-identical to quantize-then-scale of the
    /// original tensor.
    Tensor unpack() const;

    bool empty() const { return codes_.empty(); }
    const std::vector<int64_t> &shape() const { return shape_; }
    int64_t dim(int i) const { return shape_[static_cast<size_t>(i)]; }
    int64_t numel() const { return static_cast<int64_t>(codes_.size()); }

    const uint8_t *codes() const { return codes_.data(); }
    /// 256-entry decode table: table()[code] is the decoded value with
    /// the 1/scale fold applied (exact doubles of float values).
    const double *table() const { return table_.data(); }

    float scale() const { return scale_; }
    const std::string &format() const { return format_; }

    /// Resident bytes of the packed representation (codes; the decode
    /// table is 2 KB per tensor). 4x smaller than the fp32 panel it
    /// replaces.
    size_t packedBytes() const { return codes_.size(); }
    /// Bytes of the fp32 tensor this packs (the GEMM's former operand).
    size_t fp32Bytes() const { return codes_.size() * sizeof(float); }

  private:
    static PackedTensor packCodes(const Tensor &t, const Quantizer &q,
                                  float scale, bool transpose);

    std::vector<int64_t> shape_; ///< Rank 2 (rows, cols).
    std::vector<uint8_t> codes_;
    std::vector<double> table_; ///< 256 entries, zero-padded.
    float scale_ = 1.0f;
    std::string format_;
};

/**
 * Element-wise epilogue fused into gemmQuantized's output tiles,
 * applied in stage order to each output element after alpha/beta:
 *
 *  - kBias:     y += data[j]               (addRowBias)
 *  - kGelu:     y = geluScalar(y)          (geluInPlace)
 *  - kResidual: y += data[i * n + j]       (residualAdd's addInPlace;
 *               the operand must already be residual-point quantized)
 *  - kQuant:    y = quant->quantize(y), accumulating the same
 *               per-element QuantHealth counters as the health-aware
 *               Quantizer::quantizeInPlace overload into *health when
 *               non-null (per-thread partials, merged once at the end;
 *               counts are exact, double sums may differ from the
 *               serial pass in the last ulp).
 *
 * Stage data is borrowed; it must outlive the gemmQuantized call.
 */
struct GemmEpilogue
{
    struct Stage
    {
        enum class Kind { kBias, kGelu, kResidual, kQuant };
        Kind kind;
        const float *data = nullptr;      ///< kBias [n] / kResidual [m,n].
        const Quantizer *quant = nullptr; ///< kQuant.
        QuantHealth *health = nullptr;    ///< kQuant, optional.
    };

    std::vector<Stage> stages;

    GemmEpilogue &bias(const float *row)
    {
        stages.push_back({Stage::Kind::kBias, row, nullptr, nullptr});
        return *this;
    }
    GemmEpilogue &gelu()
    {
        stages.push_back({Stage::Kind::kGelu, nullptr, nullptr, nullptr});
        return *this;
    }
    GemmEpilogue &residual(const float *full)
    {
        stages.push_back({Stage::Kind::kResidual, full, nullptr, nullptr});
        return *this;
    }
    GemmEpilogue &quant(const Quantizer *q, QuantHealth *health = nullptr)
    {
        stages.push_back({Stage::Kind::kQuant, nullptr, q, health});
        return *this;
    }
};

/**
 * C = alpha * op(A) . op(W) + beta * C, then the fused epilogue.
 * A is fp32 (m x k after optional transpose); W is packed 8-bit codes
 * (k x n after optional transpose: trans_w=true takes W stored [n, k],
 * the layout PackedTensor::pack gives a [out, in] weight). Accumulation
 * is double in ascending-k order per output element — bit-identical to
 * gemm()/gemmReference() over unpack(W), with the epilogue matching the
 * separate passes bit for bit. Parallel over (64-row x 8-column) output
 * tiles, so m=1 decode GEMVs still spread over cores. With
 * trans_w=false (Linear packs W^T, see packTransposed) a k step's 8
 * output columns are adjacent codes, the cheapest gather addressing;
 * trans_w=true gathers 8 k steps of 8 code rows at a time.
 */
void gemmQuantized(const Tensor &a, bool trans_a, const PackedTensor &w,
                   bool trans_w, Tensor &c, float alpha = 1.0f,
                   float beta = 0.0f, const GemmEpilogue *epi = nullptr);

/**
 * The unfused reference: unpack W to fp32, run gemmReference, then
 * apply the epilogue stages as separate serial element-wise passes.
 * Bit-identical to gemmQuantized (the equivalence tests' oracle).
 */
void gemmQuantizedReference(const Tensor &a, bool trans_a,
                            const PackedTensor &w, bool trans_w, Tensor &c,
                            float alpha = 1.0f, float beta = 0.0f,
                            const GemmEpilogue *epi = nullptr);

/**
 * Scratch for the packed KV-cache attention GEMVs below, reused across
 * calls so a decode step allocates it once per attention forward
 * instead of once per (batch, head): the scalar path's decoded
 * [kc x 8] double panel, and the gather path's resolved code-row
 * offsets, double-widened activation row and output accumulators.
 */
struct PackedKvScratch
{
    std::vector<double> panel;
    std::vector<int32_t> rows;
    std::vector<double> a;
    std::vector<double> acc;
};

/**
 * Decode-in-kernel QK^T GEMV over a packed KV panel:
 *
 *   out[r] = float( sum_{c=0}^{cols-1} q[c] * table[codes[r*stride + c]] )
 *
 * for r in [0, rows) — i.e. gemm(q[1 x cols], false, K[rows x cols],
 * true, out) where K's rows live as uint8 codes with row stride
 * @p stride (a head's d_head-column slice of a [*, d_model] code
 * panel). Accumulation is double in ascending-c order per output with
 * one final float cast, so the result is bit-identical to extracting
 * the head into fp32 and calling gemm()/gemmReference(). Eight outputs
 * advance together, one code row per SIMD lane; codes >= the format's
 * grid size decode to NaN and poison only the outputs that read them.
 * Runs as packedDotRowsPaged over one page of @p rows rows.
 */
void packedDotRows(const float *q, const uint8_t *codes,
                   const double *table, int64_t rows, int64_t cols,
                   int64_t stride, float *out, PackedKvScratch &scratch);

/**
 * Decode-in-kernel attn.V GEMV over a packed KV panel:
 *
 *   out[c] = float( sum_{r=0}^{rows-1} w[r] * table[codes[r*stride + c]] )
 *
 * for c in [0, cols) — i.e. gemm(w[1 x rows], false, V[rows x cols],
 * false, out) with V stored as codes. Same ascending-r double
 * accumulation and single final float cast as gemm(); bit-identical to
 * the fp32 head-extract path. Runs as packedAccumRowsPaged over one
 * page of @p rows rows.
 */
void packedAccumRows(const float *w, const uint8_t *codes,
                     const double *table, int64_t rows, int64_t cols,
                     int64_t stride, float *out, PackedKvScratch &scratch);

/**
 * packedDotRows through a page table: logical row r of the sequence
 * lives at physical code row
 *
 *   pages[r / page_size] * page_size + r % page_size
 *
 * of the arena-wide panel @p codes. The page table is resolved once
 * per call into code-row offsets; only the address computation differs
 * from a contiguous slab — the accumulation order (double, ascending c,
 * one final float cast per output) is unchanged, so the result is
 * bit-identical to gathering the pages into a contiguous slab and
 * calling gemm(). On AVX2, lane jj of each 8-row strip gathers 8 codes
 * of its row at a time and never reads past the row's @p cols slice.
 */
void packedDotRowsPaged(const float *q, const uint8_t *codes,
                        const double *table, const int32_t *pages,
                        int64_t page_size, int64_t rows, int64_t cols,
                        int64_t stride, float *out,
                        PackedKvScratch &scratch);

/**
 * packedAccumRows through a page table (see packedDotRowsPaged for the
 * addressing). The per-output double accumulator persists across row
 * chunks — and therefore across page boundaries — exactly as in the
 * contiguous kernel, so no intermediate float rounding is introduced
 * at page seams: bit-identical to the slab kernel on the same rows. On
 * AVX2 each step's 8 codes are adjacent bytes of one page row (ragged
 * column strips, cols % 8 != 0, take the scalar panel path).
 */
void packedAccumRowsPaged(const float *w, const uint8_t *codes,
                          const double *table, const int32_t *pages,
                          int64_t page_size, int64_t rows, int64_t cols,
                          int64_t stride, float *out,
                          PackedKvScratch &scratch);

} // namespace qt8

#endif // QT8_TENSOR_PACKED_H
