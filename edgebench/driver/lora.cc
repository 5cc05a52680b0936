/**
 * @file
 * lora-finetune: 8-bit LoRA fine-tuning of the edge LM on the synthetic
 * LmTask through the public CausalLM::forward / softmaxCrossEntropy /
 * CausalLM::backward / clipGradNorm / AdamW::step calls (the loop
 * trainLm runs). Between training steps the adapter as deployed when
 * fine-tuning started is served, unmerged, to three closed-loop
 * clients, so both of the paper's uses share one 8-bit datapath and
 * one core for the whole run. The whole episode is replayed from the
 * same checkpoint and data; every step keeps its fastest replay.
 */
#include <cmath>
#include <cstdio>
#include <filesystem>

#include "data/tasks.h"
#include "nn/checkpoint.h"
#include "nn/loss.h"
#include "nn/optim.h"
#include "workloads.h"

namespace edgebench {

namespace sv = qt8::serve;

namespace {

constexpr int64_t kBatch = 2;
constexpr int64_t kSeq = 32;
constexpr int kLoraRank = 8;
constexpr float kLoraAlpha = 2.0f;
constexpr double kLr = 5e-3;
constexpr double kClipNorm = 1.0;
constexpr uint64_t kTaskStructureSeed = 7;
constexpr int64_t kEvalBatch = 8; ///< Held-out batch for the loss check.

// Sizing: kReplays replays of kMinSteps or more training steps, each
// followed by one serving slice; kSliceMs is the nominal time of one
// step plus its slice, which turns --seconds into a step count. A
// small batch keeps each timed phase (forward, backward, optimizer)
// well under a second, so each has a fast replay to keep.
constexpr int kReplays = 6;
constexpr int kMinSteps = 4;
constexpr double kSliceMs = 500.0;

// Serving between training steps: each of 3 clients sends one
// in-domain request (33-48 prompt tokens, always three 16-row prefill
// chunks; 8-16 new; both stratified) and waits for it. A slice runs
// about 9 steps of kServeStepMs virtual time each, so it polls
// metricsSnapshot() once.
constexpr int kServeClients = 3;
constexpr int64_t kServePages = 64;
constexpr double kServeStepMs = 10.0;
constexpr double kServePollMs = 50.0;
constexpr SloLimits kServeSlo{400.0, 60.0};

/// What setup builds: the LoRA-enabled model, its parameters and the
/// optimizer.
struct Tuner
{
    std::unique_ptr<qt8::CausalLM> model;
    qt8::ParamList params;
    std::unique_ptr<qt8::AdamW> opt;
};

std::unique_ptr<Tuner>
setUpTuner(const std::string &ckpt, SpanLog &log)
{
    auto t = std::make_unique<Tuner>();
    {
        Span s(log, "deploy/load_checkpoint");
        t->model = std::make_unique<qt8::CausalLM>(edgeLmConfig(),
                                                   kModelSeed + 1);
        qt8::ParamList base;
        t->model->collectParams(base);
        std::string why;
        if (!qt8::loadCheckpoint(ckpt, base, &why))
            throw std::runtime_error("loadCheckpoint: " + why);
    }
    {
        Span s(log, "train/enable_lora");
        t->model->body.enableLora(kLoraRank, kLoraAlpha, /*all_dense=*/true);
        t->model->collectParams(t->params);
        t->opt = std::make_unique<qt8::AdamW>(kLr, 0.9, 0.999, 1e-8, 0.01);
    }
    return t;
}

/// A copy of @p params' model with the adapter enabled, to serve.
std::unique_ptr<qt8::CausalLM>
servedCopy(const qt8::ParamList &params)
{
    auto m = std::make_unique<qt8::CausalLM>(edgeLmConfig(), kModelSeed + 1);
    m->body.enableLora(kLoraRank, kLoraAlpha, /*all_dense=*/true);
    qt8::ParamList dst;
    m->collectParams(dst);
    qt8::copyParamValues(dst, params);
    return m;
}

/// Append one serving slice to the replay's episode; its step indices
/// continue the episode's.
void
appendSlice(Episode &all, Episode &&part, bool first)
{
    if (first) {
        all.before = part.before;
        all.step_cost_ms = part.step_cost_ms;
    }
    all.after = std::move(part.after);
    const int64_t offset = static_cast<int64_t>(all.step_ms.size());
    for (Served &r : part.requests) {
        r.submit_step += offset;
        r.first_step += offset;
        r.done_step += offset;
        all.requests.push_back(std::move(r));
    }
    auto append = [](std::vector<double> &to, const std::vector<double> &v) {
        to.insert(to.end(), v.begin(), v.end());
    };
    append(all.submit_ms, part.submit_ms);
    append(all.snapshot_ms, part.snapshot_ms);
    append(all.queue_depth, part.queue_depth);
    append(all.step_ms, part.step_ms);
    all.idle_ms += part.idle_ms;
}

/// One replay's training record: per-step phase times and losses.
struct TrainRecord
{
    std::vector<double> fwd_ms, bwd_ms, opt_ms, step_ms, losses;
    int64_t skipped = 0;
};

/// Loss of @p model on @p b, on a QuantSession of its own so the
/// training session's state is untouched.
double
evalLoss(qt8::CausalLM &model, const qt8::LmBatch &b)
{
    qt8::QuantSession qs(qt8::QuantConfig::posit8());
    return qt8::softmaxCrossEntropy(model.forward(qs, b.ids, b.batch, b.seq),
                                    b.targets)
        .loss;
}

} // namespace

Report
runLoraFinetune(const RunOptions &opt)
{
    Report rep;
    SpanLog log(opt.trace), off(false);
    const std::string dir = makeRunDir(opt);
    const std::string ckpt = dir + "/edge-lm.qt8ckpt";
    writeCheckpoint(ckpt);

    const int steps = std::max(
        kMinSteps,
        static_cast<int>(opt.seconds * 1000.0 / kReplays / kSliceMs + 0.5));
    const qt8::LmTask task(edgeLmConfig().vocab, kTaskStructureSeed);
    const uint64_t seed = opt.seed;
    qt8::Rng eval_rng(streamSeed(seed, 11, 0));
    const qt8::LmBatch eval = task.sample(eval_rng, kEvalBatch, kSeq);
    double eval_before = 0.0, eval_after = 0.0;
    std::vector<ClientRequest> serve_in(
        static_cast<size_t>(steps) * kServeClients);
    {
        SplitMix lens(streamSeed(seed, 20, 0));
        const std::vector<int64_t> prompt_len =
            stratified(lens, serve_in.size(), 33, 48);
        const std::vector<int64_t> budget =
            stratified(lens, serve_in.size(), 8, 16);
        qt8::Rng tokens(streamSeed(seed, 21, 0));
        for (size_t i = 0; i < serve_in.size(); ++i) {
            serve_in[i].prompt = task.stream(tokens, prompt_len[i]);
            serve_in[i].max_new = budget[i];
        }
    }
    SetupClock setup;
    std::vector<TrainRecord> train(kReplays);
    Replays rp;
    std::unique_ptr<Tuner> tuner;
    std::unique_ptr<qt8::CausalLM> served;
    std::unique_ptr<qt8::QuantSession> serve_qs;
    // Fastest time of phase @p m of step @p i over the replays before
    // @p k (0: none).
    auto bestBefore = [&train](int k, std::vector<double> TrainRecord::*m,
                               size_t i) {
        double best = 0.0;
        for (int j = 0; j < k; ++j) {
            const double v = (train[static_cast<size_t>(j)].*m)[i];
            best = best == 0.0 ? v : std::min(best, v);
        }
        return best;
    };
    int hops = 0;
    const auto t_run = Clock::now();
    for (int k = 0; k < kReplays; ++k) {
        // Each replay sets up afresh (one set-up round) and trains on
        // the same batches; traced runs record spans on half the steps
        // (tracedStep).
        CpuTurn cpu(k);
        TrainRecord &tr = train[static_cast<size_t>(k)];
        tuner.reset();
        tuner = setup.round([&] { return setUpTuner(ckpt, log); });
        qt8::CausalLM &model = *tuner->model;
        const qt8::ParamList &params = tuner->params;
        // The posit8 preset: posit8 forward and backward, per-tensor
        // scaled gradients.
        qt8::QuantSession train_qs(qt8::QuantConfig::posit8());
        qt8::Rng data_rng(streamSeed(seed, 10, 0));
        if (k == 0)
            eval_before = evalLoss(model, eval);

        // The adapter as deployed when fine-tuning starts, served while
        // the live copy trains (the engine borrows model and session).
        served = servedCopy(params);
        serve_qs = std::make_unique<qt8::QuantSession>(servingQuant());
        sv::ServeEngine engine(*served, *serve_qs,
                               engineConfig(kServePages, ""));
        Episode ep;
        for (int slice = 0; slice < steps; ++slice) {
            SpanLog &slog =
                tracedStep(k, static_cast<size_t>(slice)) ? log : off;
            const qt8::LmBatch b = task.sample(data_rng, kBatch, kSeq);
            qt8::CEResult ce;
            auto t0 = Clock::now();
            {
                Span s(slog, "train/forward");
                const qt8::Tensor logits =
                    model.forward(train_qs, b.ids, b.batch, b.seq);
                ce = qt8::softmaxCrossEntropy(logits, b.targets);
            }
            const size_t i = tr.fwd_ms.size();
            tr.fwd_ms.push_back(msSince(t0));
            cpu.hopIfSlow(tr.fwd_ms.back(),
                          bestBefore(k, &TrainRecord::fwd_ms, i));
            t0 = Clock::now();
            {
                Span s(slog, "train/backward");
                model.backward(train_qs, ce.dlogits);
            }
            tr.bwd_ms.push_back(msSince(t0));
            cpu.hopIfSlow(tr.bwd_ms.back(),
                          bestBefore(k, &TrainRecord::bwd_ms, i));
            t0 = Clock::now();
            {
                Span s(slog, "train/optimizer");
                if (qt8::gradsFinite(params)) {
                    qt8::clipGradNorm(params, kClipNorm);
                    tuner->opt->step(params);
                } else {
                    ++tr.skipped;
                }
                qt8::zeroGrads(params);
            }
            tr.opt_ms.push_back(msSince(t0));
            cpu.hopIfSlow(tr.opt_ms.back(),
                          bestBefore(k, &TrainRecord::opt_ms, i));
            tr.step_ms.push_back(tr.fwd_ms.back() + tr.bwd_ms.back() +
                                 tr.opt_ms.back());
            tr.losses.push_back(ce.loss);

            appendSlice(
                ep,
                runEpisode(
                    engine,
                    closedLoop(kServeClients, 1,
                               [&serve_in, slice](int c, int) {
                                   return serve_in[static_cast<size_t>(
                                       slice * kServeClients + c)];
                               }),
                    kServeStepMs, kServePollMs, log,
                    [&](size_t j) {
                        return tracedStep(k, ep.step_ms.size() + j);
                    },
                    [&](size_t j, double ms) {
                        cpu.hopIfSlow(ms, rp.bestSoFar(ep.step_ms.size() + j));
                    }),
                slice == 0);
        }
        hops += cpu.hops();
        if (k == 0)
            eval_after = evalLoss(model, eval);
        rp.runs.push_back(std::move(ep));
    }
    const double run_ms = msSince(t_run);
    const double rss = peakRssMiB();

    // Correctness: finite losses, the same losses in every replay, a
    // lower loss on a held-out batch after training than before, and
    // every served request equal to the served adapter's teacher-forced
    // greedy decode. (A window of a few 64-token training batches is
    // too noisy to compare; the held-out batch is fixed.)
    const std::vector<double> &losses = train[0].losses;
    bool finite = std::isfinite(eval_before) && std::isfinite(eval_after),
         same = true;
    for (const TrainRecord &tr : train) {
        for (double l : tr.losses)
            finite = finite && std::isfinite(l);
        same = same && tr.losses == losses;
    }
    if (!finite)
        rep.fail("non-finite training loss");
    if (!same)
        rep.fail("replays trained to different losses");
    if (!(eval_after < eval_before))
        rep.fail("held-out loss did not fall during training");
    char line[200];
    std::snprintf(line, sizeof(line),
                  "train: %d replays x %zu steps, held-out loss %.4f -> "
                  "%.4f, %lld skipped",
                  kReplays, losses.size(), eval_before, eval_after,
                  static_cast<long long>(train[0].skipped));
    rep.notes.push_back(line);
    rep.notes.push_back("vCPU hops after slow steps: " + std::to_string(hops));
    const auto t_oracle = Clock::now();
    const int64_t bad = runOracle(closedLoopJobs(rp.runs[0]), *served,
                                  servingQuant(), kLoraRank, kLoraAlpha);
    std::snprintf(line, sizeof(line), "phase: episode %.2f s, oracle %.2f s",
                  run_ms / 1e3, msSince(t_oracle) / 1e3);
    rep.notes.push_back(line);
    rep.mismatches = bad;
    if (bad > 0)
        rep.fail(std::to_string(bad) + " served request(s) differ from the "
                 "teacher-forced greedy oracle");

    rep.e2e("setup_s", setup.seconds(), "s");
    rep.e2e("peak_rss_mb", rss, "MiB");
    addTimelineMetrics(rep, rp, kServeSlo);
    // Trained tokens per second of best-of-R training time, phase by
    // phase.
    std::vector<std::vector<double>> fwd, bwd, optim, step;
    for (const TrainRecord &tr : train) {
        fwd.push_back(tr.fwd_ms);
        bwd.push_back(tr.bwd_ms);
        optim.push_back(tr.opt_ms);
        step.push_back(tr.step_ms);
    }
    const std::vector<double> best_fwd = bestOf(fwd), best_bwd = bestOf(bwd),
                              best_opt = bestOf(optim);
    double train_ms = 0.0;
    for (size_t i = 0; i < losses.size(); ++i)
        train_ms += best_fwd[i] + best_bwd[i] + best_opt[i];
    rep.e2e("tok_s",
            1000.0 * static_cast<double>(kBatch * kSeq) *
                static_cast<double>(losses.size()) / train_ms,
            "tok/s");
    for (const TrainRecord &tr : train) {
        rep.attempted += static_cast<int64_t>(tr.losses.size());
        rep.ok += static_cast<int64_t>(tr.losses.size()) - tr.skipped;
        rep.failed += tr.skipped;
    }

    addClosedLoopProperties(rep, rp.runs[0]);
    if (opt.trace) {
        const std::vector<double> best_steps = rp.bestStepMs();
        addServeLayerMetrics(rep, rp.runs[0]);
        addStepLayerMetrics(rep, best_steps);
        rep.layer("nn.train_fwd_ms_p50", median(best_fwd), "ms");
        rep.layer("nn.train_bwd_ms_p50", median(best_bwd), "ms");
        rep.layer("nn.optim_ms_p50", median(best_opt), "ms");
        addReplayTraceOverhead(rep, step, "summed training step ms");
        addDecodeAnatomy(rep, *served, *serve_qs, rp.runs[0], best_steps, log);
        finishTraced(rep, opt, log,
                     static_cast<int64_t>(medianContextRows(rp.runs[0])));
    }
    std::filesystem::remove_all(dir);
    return rep;
}

} // namespace edgebench
