/**
 * @file
 * Probes the traced run adds: host roofline (STREAM triad, FMA peak),
 * kernel throughput with computed ops and bytes, quantizer and sampler
 * rates, and the decode-step anatomy from public sublayer calls.
 */
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "nn/block.h"
#include "serve/sampler.h"
#include "tensor/ops.h"
#include "tensor/packed.h"
#include "workloads.h"

namespace edgebench {

namespace {

/// Decode rows per step the kernel probes use in every workload
/// (long-decode's three clients), so tensor.* compares across runs.
constexpr int64_t kProbeRows = 3;

struct Machine
{
    double triad_gbps = 0.0; ///< STREAM triad, 3 x 32 MiB fp32 arrays.
    double fma_gflops = 0.0; ///< fp32 FMA peak, one thread.
};

/**
 * Per-call time (us) of @p fn in the host's uncontended mode: the lower
 * quartile of at least @p min_calls calls and @p min_ms of calls, after
 * one untimed warm-up call, moving to another vCPU after a call slower
 * than kSlowRatio times the fastest so far. (The host switches a vCPU
 * to a ~1.7x slower mode for spells of 0.1 s to seconds; a median of
 * short calls follows the share of slow spells, the quartile does not
 * while it is below 3/4.)
 */
template <class F>
double
fastCallUs(F &&fn, int min_calls = 20, double min_ms = 60.0)
{
    CpuTurn cpu(0);
    fn();
    std::vector<double> us;
    double best = 0.0;
    const auto start = Clock::now();
    while (static_cast<int>(us.size()) < min_calls || msSince(start) < min_ms) {
        const auto t0 = Clock::now();
        fn();
        us.push_back(msSince(t0) * 1000.0);
        cpu.hopIfSlow(us.back(), best);
        best = best == 0.0 ? us.back() : std::min(best, us.back());
    }
    return percentile(std::move(us), 25.0);
}

qt8::Tensor
randomTensor(std::vector<int64_t> shape, SplitMix &rng, double scale)
{
    qt8::Tensor t(std::move(shape));
    for (int64_t i = 0; i < t.numel(); ++i)
        t.at(i) = static_cast<float>((rng.unit() * 2.0 - 1.0) * scale);
    return t;
}

/// One kernel's throughput, with ops and bytes per call computed from
/// the operand sizes.
struct KernelRate
{
    double ops = 0.0;   ///< Flops per call (2 per multiply-add).
    double bytes = 0.0; ///< Operand bytes read + written per call.
    double us = 0.0;    ///< Median time per call.
};

void
addKernel(Report &rep, const std::string &name, const KernelRate &k,
          const Machine &m, bool as_bandwidth)
{
    const double gops = k.ops / (k.us * 1e3);
    const double gbps = k.bytes / (k.us * 1e3);
    const double bound =
        std::min(m.fma_gflops, m.triad_gbps * (k.ops / k.bytes));
    if (as_bandwidth)
        rep.layer("tensor." + name + "_gbps", gbps, "GB/s");
    else
        rep.layer("tensor." + name + "_gflops", gops, "GFLOP/s");
    rep.layer("tensor." + name + "_mflop", k.ops / 1e6, "MFLOP");
    rep.layer("tensor." + name + "_kib", k.bytes / 1024.0, "KiB");
    rep.layer("tensor." + name + "_roofline_pct",
              bound > 0 ? 100.0 * gops / bound : 0.0, "%");
}

/// Packed GEMMs over one decode step's weight shapes (per layer: q, k,
/// v, out 128x128, fc1 512x128, fc2 128x512; then the 256x128 head) at
/// @p m rows.
KernelRate
packedStepRate(int64_t m, SplitMix &rng)
{
    const qt8::Quantizer q = qt8::Quantizer::byName("posit8");
    const qt8::ModelConfig cfg = edgeLmConfig();
    struct Shape
    {
        int64_t n, k;
        int count;
    };
    const Shape shapes[] = {{cfg.d_model, cfg.d_model, 4 * cfg.n_layers},
                            {cfg.d_ff, cfg.d_model, cfg.n_layers},
                            {cfg.d_model, cfg.d_ff, cfg.n_layers},
                            {cfg.vocab, cfg.d_model, 1}};
    KernelRate total;
    for (const Shape &s : shapes) {
        const qt8::PackedTensor w =
            qt8::PackedTensor::pack(randomTensor({s.n, s.k}, rng, 0.5), q);
        const qt8::Tensor a = randomTensor({m, s.k}, rng, 1.0);
        qt8::Tensor c({m, s.n});
        const double us = fastCallUs(
            [&] { qt8::gemmQuantized(a, false, w, true, c); });
        total.us += us * s.count;
        total.ops += 2.0 * m * s.n * s.k * s.count;
        total.bytes += (static_cast<double>(s.n * s.k) + 4.0 * m * s.k +
                        4.0 * m * s.n) *
                       s.count;
    }
    return total;
}

Machine
probeMachine()
{
    Machine m;
    const size_t n = size_t{8} << 20; // 32 MiB per array
    std::vector<float> a(n, 0.0f), b(n, 1.0f), c(n, 2.0f);
    const float s = 3.0f;
    double best_ms = 1e300;
    for (int rep = 0; rep < 6; ++rep) {
        const auto t0 = Clock::now();
        for (size_t i = 0; i < n; ++i)
            a[i] = b[i] + s * c[i];
        best_ms = std::min(best_ms, msSince(t0));
    }
    volatile float sink = a[n / 2];
    (void)sink;
    m.triad_gbps = 3.0 * 4.0 * static_cast<double>(n) / (best_ms * 1e6);
    m.fma_gflops = fmaPeakGflops();
    return m;
}

/// tensor.* and numerics.* probes: packed GEMV (m = @p decode_rows),
/// packed GEMM (m = one prefill chunk), paged attention GEMVs over
/// @p ctx rows, fp32 training GEMMs, and the quantizer.
void
probeKernels(Report &rep, const Machine &m, int64_t decode_rows, int64_t ctx)
{
    SplitMix rng(0x6b65726e);
    addKernel(rep, "gemv_packed", packedStepRate(decode_rows, rng), m, false);
    addKernel(rep, "gemm_packed", packedStepRate(kPageSize, rng), m, false);

    // Paged attention GEMVs for one (row, head): QK^T over ctx packed
    // key rows, then attn.V over ctx packed value rows.
    {
        const qt8::ModelConfig cfg = edgeLmConfig();
        const int64_t d = cfg.d_model, dh = d / cfg.n_heads;
        ctx = std::clamp<int64_t>(ctx, 16, kMaxSeq);
        const int64_t pages = (ctx + kPageSize - 1) / kPageSize;
        const qt8::PackedTensor kv = qt8::PackedTensor::pack(
            randomTensor({pages * kPageSize, d}, rng, 1.0),
            qt8::Quantizer::byName("posit8"));
        std::vector<int32_t> table(static_cast<size_t>(pages));
        for (int64_t p = 0; p < pages; ++p) // scattered, not contiguous
            table[static_cast<size_t>(p)] =
                static_cast<int32_t>((p * 7) % pages);
        const qt8::Tensor qv = randomTensor({1, dh}, rng, 1.0);
        const qt8::Tensor w = randomTensor({1, ctx}, rng, 1.0 / ctx);
        std::vector<float> scores(static_cast<size_t>(ctx)),
            out(static_cast<size_t>(dh));
        qt8::PackedKvScratch scratch;
        KernelRate k;
        k.us = fastCallUs([&] {
            qt8::packedDotRowsPaged(qv.data(), kv.codes(), kv.table(),
                                    table.data(), kPageSize, ctx, dh, d,
                                    scores.data(), scratch);
            qt8::packedAccumRowsPaged(w.data(), kv.codes(), kv.table(),
                                      table.data(), kPageSize, ctx, dh, d,
                                      out.data(), scratch);
        });
        k.ops = 2.0 * 2.0 * static_cast<double>(ctx * dh);
        k.bytes = 2.0 * static_cast<double>(ctx * dh) + // K and V codes
                  4.0 * static_cast<double>(2 * dh + 2 * ctx) +
                  4.0 * static_cast<double>(pages);
        addKernel(rep, "attn_paged", k, m, true);
    }

    // fp32 blocked GEMMs at training shapes (batch 2 x seq 32 rows
    // through fc1): forward x.W^T, weight gradient g^T.x, input
    // gradient g.W.
    {
        const int64_t rows = 2 * 32, in = 128, out = 512;
        const qt8::Tensor x = randomTensor({rows, in}, rng, 1.0);
        const qt8::Tensor w = randomTensor({out, in}, rng, 0.5);
        const qt8::Tensor g = randomTensor({rows, out}, rng, 1.0);
        qt8::Tensor y({rows, out}), dw({out, in}), dx({rows, in});
        KernelRate k;
        k.us = fastCallUs([&] {
            qt8::gemm(x, false, w, true, y);
            qt8::gemm(g, true, x, false, dw);
            qt8::gemm(g, false, w, false, dx);
        });
        k.ops = 3.0 * 2.0 * static_cast<double>(rows * in * out);
        k.bytes = 4.0 * static_cast<double>(3 * (rows * in + out * in +
                                                 rows * out));
        addKernel(rep, "gemm_fp32", k, m, false);
    }

    // Quantizer on an activation-sized tensor (fc1 output at training
    // shapes): the forward grid, then the amax-scaled backward path.
    {
        const qt8::QuantConfig qc = qt8::QuantConfig::posit8();
        const qt8::Tensor src = randomTensor({256, 512}, rng, 4.0);
        qt8::Tensor buf = src;
        const size_t n = static_cast<size_t>(src.numel());
        std::vector<double> fwd_us, bwd_us;
        qt8::TensorScaler scaler(qc.bwd);
        CpuTurn cpu(0);
        double best = 0.0;
        const auto start = Clock::now();
        while (fwd_us.size() < 20 || msSince(start) < 120.0) {
            std::memcpy(buf.data(), src.data(), n * sizeof(float));
            auto t0 = Clock::now();
            qc.fwd.quantizeInPlace(buf.data(), n);
            fwd_us.push_back(msSince(t0) * 1000.0);
            std::memcpy(buf.data(), src.data(), n * sizeof(float));
            t0 = Clock::now();
            scaler.quantizeInPlace(buf.data(), n);
            bwd_us.push_back(msSince(t0) * 1000.0);
            const double both = fwd_us.back() + bwd_us.back();
            cpu.hopIfSlow(both, best);
            best = best == 0.0 ? both : std::min(best, both);
        }
        rep.layer("numerics.quantize_melem_s",
                  static_cast<double>(n) / percentile(fwd_us, 25.0),
                  "Melem/s");
        rep.layer("numerics.quantize_bwd_melem_s",
                  static_cast<double>(n) / percentile(bwd_us, 25.0),
                  "Melem/s");
    }
}

} // namespace

void
probeSampler(Report &rep)
{
    SplitMix rng(0x73616d70);
    const qt8::Tensor logits =
        randomTensor({4, edgeLmConfig().vocab}, rng, 4.0);
    const qt8::serve::SamplingParams greedy;
    qt8::Rng srng(1);
    int64_t sink = 0;
    const int batch = 64;
    const double us = fastCallUs([&] {
        for (int i = 0; i < batch; ++i)
            sink += qt8::serve::sampleToken(logits, i % 4, greedy, srng);
    });
    volatile int64_t keep = sink;
    (void)keep;
    rep.layer("serve.sampler.sample_us", us / batch, "us");
}

double
probeDecodeAnatomy(Report &rep, qt8::CausalLM &model, qt8::QuantSession &qs,
                   int64_t rows, int64_t ctx, int64_t prompt_rows,
                   SpanLog &log)
{
    using qt8::PagedRowRef;
    const qt8::ModelConfig cfg = edgeLmConfig();
    ctx = std::clamp<int64_t>(ctx, kPageSize, kMaxSeq - 1);
    const int64_t pps = (ctx + 1 + kPageSize - 1) / kPageSize;
    std::vector<qt8::KVPagePanels> panels(static_cast<size_t>(cfg.n_layers));
    for (auto &p : panels)
        p.reset(rows * pps, kPageSize, cfg.d_model,
                qs.config().kvPackedFormat());
    std::vector<std::vector<int32_t>> tables(static_cast<size_t>(rows));
    std::vector<std::vector<int32_t>> tokens(static_cast<size_t>(rows));
    SplitMix rng(0x616e6174);
    for (int64_t r = 0; r < rows; ++r) {
        for (int64_t p = 0; p < pps; ++p)
            tables[static_cast<size_t>(r)].push_back(
                static_cast<int32_t>(r * pps + p));
        tokens[static_cast<size_t>(r)] = randomTokens(rng, ctx + 1);
    }
    auto chunk = [&](int64_t r, int64_t start, int64_t n) {
        std::vector<int32_t> ids;
        std::vector<int64_t> pos;
        std::vector<PagedRowRef> refs;
        for (int64_t i = start; i < start + n; ++i) {
            ids.push_back(tokens[static_cast<size_t>(r)][static_cast<size_t>(i)]);
            pos.push_back(i);
            refs.push_back({tables[static_cast<size_t>(r)].data(), pps, i,
                            i + 1});
        }
        return model.forwardPagedRows(qs, ids, pos, refs, panels, {n - 1});
    };
    // Fill each sequence's history by chunked prefill.
    for (int64_t r = 0; r < rows; ++r)
        for (int64_t s = 0; s < ctx; s += kPageSize)
            chunk(r, s, std::min(kPageSize, ctx - s));

    std::vector<int32_t> ids;
    std::vector<int64_t> pos;
    std::vector<PagedRowRef> refs;
    std::vector<int64_t> logit_rows;
    for (int64_t r = 0; r < rows; ++r) {
        ids.push_back(tokens[static_cast<size_t>(r)][static_cast<size_t>(ctx)]);
        pos.push_back(ctx);
        refs.push_back({tables[static_cast<size_t>(r)].data(), pps, ctx,
                        ctx + 1});
        logit_rows.push_back(r);
    }

    enum Part { kEmbed, kLn, kQkv, kAttn, kOut, kFfn, kHead, kWhole, kParts };
    std::vector<double> t[kParts];
    auto us = [](Clock::time_point a, Clock::time_point b) {
        return msBetween(a, b) * 1000.0;
    };
    CpuTurn cpu(0); // hops off a vCPU in a slow spell, as fastCallUs
    double best_it = 0.0;
    const auto start = Clock::now();
    for (int it = 0; it < 400 && (it < 40 || msSince(start) < 2500.0); ++it) {
        const auto it0 = Clock::now();
        auto w0 = Clock::now();
        model.forwardPagedRows(qs, ids, pos, refs, panels, logit_rows);
        auto w1 = Clock::now();
        log.record("nn/decode_forward", w0, w1);
        t[kWhole].push_back(us(w0, w1));

        double part[kParts] = {};
        auto a = Clock::now();
        qt8::Tensor x = model.body.embed.forwardAt(qs, ids, pos);
        auto b = Clock::now();
        log.record("nn/embed", a, b);
        part[kEmbed] += us(a, b);
        x = model.body.embed_ln->forward(qs, x);
        a = Clock::now();
        log.record("nn/layernorm", b, a);
        part[kLn] += us(b, a);
        for (int l = 0; l < cfg.n_layers; ++l) {
            qt8::EncoderBlock &blk = *model.body.blocks[static_cast<size_t>(l)];
            const auto c0 = Clock::now();
            blk.attn.q_proj.forward(qs, x);
            blk.attn.k_proj.forward(qs, x);
            blk.attn.v_proj.forward(qs, x);
            const auto c1 = Clock::now();
            const qt8::Tensor att = blk.attn.forwardPagedRows(
                qs, x, refs, panels[static_cast<size_t>(l)], true);
            const auto c2 = Clock::now();
            blk.attn.out_proj.forward(qs, att);
            const auto c3 = Clock::now();
            const qt8::Tensor res = qt8::residualAdd(qs, x, att);
            const auto c4 = Clock::now();
            qt8::Tensor y = blk.ln_attn.forward(qs, res);
            const auto c5 = Clock::now();
            y = blk.ffns[0]->forward(qs, y, &y);
            const auto c6 = Clock::now();
            if (blk.ffn_lns[0])
                y = blk.ffn_lns[0]->forward(qs, y);
            const auto c7 = Clock::now();
            log.record("nn/qkv_proj", c0, c1);
            log.record("nn/attn_paged_rows", c1, c2);
            log.record("nn/out_proj", c2, c3);
            log.record("nn/residual", c3, c4);
            log.record("nn/layernorm", c4, c5);
            log.record("nn/ffn", c5, c6);
            log.record("nn/layernorm", c6, c7);
            // forwardPagedRows includes its four projections; the
            // attention core is what remains (plus the residual add).
            part[kQkv] += us(c0, c1);
            part[kOut] += us(c2, c3);
            part[kAttn] += us(c1, c2) - us(c0, c1) - us(c2, c3) + us(c3, c4);
            part[kLn] += us(c4, c5) + us(c6, c7);
            part[kFfn] += us(c5, c6);
            x = std::move(y);
        }
        a = Clock::now();
        model.lm_head.forward(qs, x);
        b = Clock::now();
        log.record("nn/lm_head", a, b);
        part[kHead] += us(a, b);
        for (int p = 0; p < kWhole; ++p)
            t[p].push_back(part[p]);
        const double it_us = msSince(it0) * 1000.0;
        cpu.hopIfSlow(it_us, best_it);
        best_it = best_it == 0.0 ? it_us : std::min(best_it, it_us);
    }

    // Report the iterations whose sublayer pass was in the host's
    // fastest quarter: every part and the whole forward of an
    // iteration ran within milliseconds of each other.
    std::vector<double> pass(t[kEmbed].size(), 0.0);
    for (int p = 0; p < kWhole; ++p)
        for (size_t i = 0; i < pass.size(); ++i)
            pass[i] += t[p][i];
    const double cut = percentile(pass, 25.0);
    const char *names[kParts] = {"nn.embed_us",    "nn.layernorm_us",
                                 "nn.qkv_proj_us", "nn.attn_us",
                                 "nn.out_proj_us", "nn.ffn_us",
                                 "nn.lm_head_us",  "nn.decode_forward_us"};
    double sum = 0.0;
    for (int p = 0; p < kParts; ++p) {
        std::vector<double> fast;
        for (size_t i = 0; i < pass.size(); ++i)
            if (pass[i] <= cut)
                fast.push_back(t[p][i]);
        const double v = median(fast);
        rep.layer(names[p], v, "us");
        if (p != kWhole)
            sum += v;
    }

    // One 16-row prefill chunk at the median prompt's last full chunk.
    const int64_t p0 = std::clamp<int64_t>(
        (prompt_rows - kPageSize) / kPageSize * kPageSize, 0,
        ctx - kPageSize);
    const double chunk_us = fastCallUs([&] {
        const auto a = Clock::now();
        chunk(0, p0, kPageSize);
        log.record("nn/prefill_chunk", a, Clock::now());
    });
    rep.layer("nn.prefill_chunk_ms", chunk_us / 1000.0, "ms");
    return sum;
}

void
finishTraced(Report &rep, const RunOptions &opt, const SpanLog &log,
             int64_t ctx)
{
    const Machine m = probeMachine();
    rep.layer("machine.triad_gbps", m.triad_gbps, "GB/s");
    rep.layer("machine.fma_gflops", m.fma_gflops, "GFLOP/s");
    probeKernels(rep, m, kProbeRows, ctx);

    const std::string path = opt.out_dir + "/trace-" + opt.workload +
                             "-seed" + std::to_string(opt.seed) + ".json";
    std::string note = "edgebench " + opt.workload + " seed " +
                       std::to_string(opt.seed) + "\n";
    for (const Metric &pm : rep.per_layer) {
        char line[160];
        std::snprintf(line, sizeof(line), "%s = %.6g %s\n", pm.name.c_str(),
                      pm.value, pm.unit.c_str());
        note += line;
    }
    if (log.writeChrome(path, note))
        std::printf("trace: %s (%zu spans)\n", path.c_str(), log.size());
}

} // namespace edgebench
