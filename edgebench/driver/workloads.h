/**
 * @file
 * The three workloads, the serving episode record they share, and the
 * probes the traced run adds (machine roofline, kernels, quantizer,
 * sampler, decode anatomy).
 */
#ifndef EDGEBENCH_WORKLOADS_H
#define EDGEBENCH_WORKLOADS_H

#include <functional>
#include <string>
#include <vector>

#include "common.h"
#include "inputs.h"

namespace edgebench {

struct RunOptions
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string out_dir; ///< Checkpoint, spill tier and trace files.
};

Report runChatSessions(const RunOptions &opt);
Report runLongDecode(const RunOptions &opt);
Report runLoraFinetune(const RunOptions &opt);

// --- Serving episodes ---------------------------------------------------

/// One request as the client saw it. Times are virtual ms since the
/// episode started.
struct Served
{
    int owner = 0; ///< Session or closed-loop client.
    int turn = 0;  ///< The owner's request number.
    std::vector<int32_t> prompt;
    qt8::serve::RequestResult result;
    bool done = false;
    double due_ms = 0.0;    ///< Virtual time the request was due.
    double submit_ms = 0.0; ///< Virtual time submit() was called.
    /// The first step() after submit(), the step() that sampled its
    /// first token, and the step() whose callbacks completed it.
    int64_t submit_step = 0;
    int64_t first_step = 0;
    int64_t done_step = 0;
};

/// Everything one serving episode measured.
struct Episode
{
    std::vector<Served> requests;
    qt8::serve::ServeMetrics before; ///< Engine counters at the start.
    qt8::serve::ServeMetrics after;  ///< ... and after the last request.
    double idle_ms = 0.0;      ///< Virtual time with nothing in flight.
    double step_cost_ms = 0.0; ///< Virtual time one step() takes.
    std::vector<double> submit_ms;   ///< Time inside each submit().
    std::vector<double> snapshot_ms; ///< Time inside metricsSnapshot().
    std::vector<double> queue_depth; ///< pendingCount() at each poll.
    std::vector<double> step_ms;     ///< Time inside each step().
    /// KV pages of every live session (idle history or in-flight
    /// prompt) at each poll.
    std::vector<double> session_pages;
};

/// Per-request latency limits for slo_attain.
struct SloLimits
{
    double ttft_ms = 0.0;
    double tpot_ms = 0.0;
};

/// One request an owner sends.
struct Turn
{
    std::vector<int32_t> prompt;
    int64_t max_new = 0;
    uint64_t session_id = 0; ///< 0: stateless.
    double think_ms = 0.0;   ///< Due this long after the previous reply.
};

/**
 * Who sends what in an episode. Owner o (a chat session or a
 * closed-loop client) sends next(o, 0, nullptr) at virtual time
 * start_ms[o] + its think time; whenever its request k resolves, it
 * sends next(o, k + 1, &that_request) its think time later. next
 * returns false when the owner is done.
 */
struct Traffic
{
    std::vector<double> start_ms;
    std::function<bool(int owner, int k, const Served *prev, Turn &out)>
        next;
};

/// @p clients clients that each send @p per_client requests (from
/// @p req), the next as soon as the previous one resolves.
Traffic closedLoop(int clients, int per_client,
                   std::function<ClientRequest(int client, int k)> req);

/**
 * One serving episode over an externally stepped engine on a virtual
 * clock. Requests are submitted at step boundaries once due; each
 * step() advances the clock by @p step_cost_ms, and with nothing in
 * flight it jumps to the next due request. So the step sequence
 * depends only on the inputs, never on how fast the host runs, and an
 * open loop (sessions arriving over time, with think times) replays as
 * exactly as a closed one. metricsSnapshot() is polled every
 * @p poll_ms of virtual time. Spans of step i and of the calls after it
 * go to @p log when @p traced(i); @p on_step sees each step's index and
 * real time.
 */
Episode runEpisode(qt8::serve::ServeEngine &engine, const Traffic &traffic,
                   double step_cost_ms, double poll_ms, SpanLog &log,
                   const std::function<bool(size_t step)> &traced,
                   const std::function<void(size_t step, double ms)> &on_step);

/**
 * Replays of one episode: the same inputs run R times on fresh
 * deployments, so every replay runs the same step sequence.
 * bestStepMs() is each step's fastest replay; request latencies are
 * then read off that step timeline.
 */
struct Replays
{
    std::vector<Episode> runs;

    /// How the replays differ (step sequence, first-token steps or
    /// tokens), or empty when they agree; addTimelineMetrics reports
    /// a difference as a failure.
    std::string mismatch() const;
    std::vector<double> bestStepMs() const;
    /// Step @p i's fastest time over the replays so far (0: none).
    double bestSoFar(size_t i) const;
};

/**
 * End-to-end latency metrics of replays on the best-of-R step
 * timeline: a request submitted before step a, whose first token came
 * in step f and which completed in step e with n tokens, has a TTFT of
 * the steps a..f summed, plus the share of step a - 1 still to run
 * when it fell due, and a TPOT of steps f+1..e over n - 1.
 * slo_attain counts every request of every replay against the engine's
 * own TTFT and latency. Sets attempted / ok / failed.
 */
void addTimelineMetrics(Report &rep, const Replays &rp, const SloLimits &slo);

/// slo_attain, attempted / ok / failed and the raw p95 diagnostics of
/// @p eps, counting every sent request.
void addSloMetrics(Report &rep, const std::vector<const Episode *> &eps,
                   const SloLimits &slo);

/// Add every serve.* per-layer metric derivable from @p ep.
void addServeLayerMetrics(Report &rep, const Episode &ep);

/// step_ms_p50 / p99 of a best-of-R step timeline.
void addStepLayerMetrics(Report &rep, const std::vector<double> &best_step_ms);

/**
 * The decode anatomy at the most common decode-only row count of
 * @p ep's step timeline and its median context, the sampler probe, and
 * serve.engine.overhead_us_per_step: the median best-of-R time of the
 * decode-only steps with that row count, less the whole forward and the
 * sampling, with a note that adds the parts up.
 */
void addDecodeAnatomy(Report &rep, qt8::CausalLM &model,
                      qt8::QuantSession &qs, const Episode &ep,
                      const std::vector<double> &best_step_ms, SpanLog &log);

/// One oracle job per finished stateless request (prompt + output).
std::vector<OracleJob> closedLoopJobs(const Episode &ep);

/// Median over finished requests of prompt rows + half the output.
double medianContextRows(const Episode &ep);

/// Median prompt rows over sent requests.
double medianPromptRows(const Episode &ep);

/// Workload properties of a closed loop: no shared prefix, no session
/// resumes, no spill working set.
void addClosedLoopProperties(Report &rep, const Episode &ep);

/// trace.overhead_pct: the traced side's value of a lower-is-better
/// metric (@p what) against the untraced side's, measured on the same
/// inputs in interleaved replays.
void addTraceOverhead(Report &rep, double untraced, double traced,
                      const char *what);

/// Traced runs record the spans of step i of replay k
/// only when k + i is odd, so each step has as many traced repeats as
/// untraced ones, from both early and late replays.
inline bool
tracedStep(int replay, size_t step)
{
    return (static_cast<size_t>(replay) + step) % 2 == 1;
}

/// trace.overhead_pct of traced replays: summed best-of step time
/// over the traced repeats of each step (tracedStep) against the
/// untraced ones. @p steps holds each replay's step times.
void addReplayTraceOverhead(Report &rep,
                            const std::vector<std::vector<double>> &steps,
                            const char *what);

// --- Probes (traced runs) ------------------------------------------------

/// serve.sampler.sample_us: greedy sampleToken over a vocab-256 row.
void probeSampler(Report &rep);

/**
 * nn.* decode anatomy: every public sublayer call of one decode step
 * of @p rows rows at context @p ctx, the whole forwardPagedRows at the
 * same shape, and one 16-row prefill chunk. Returns the summed anatomy
 * (us); the whole-forward time is added as nn.decode_forward_us.
 */
double probeDecodeAnatomy(Report &rep, qt8::CausalLM &model,
                          qt8::QuantSession &qs, int64_t rows,
                          int64_t ctx, int64_t prompt_rows, SpanLog &log);

/**
 * End of a traced run: the machine probes (STREAM triad, FMA peak), the
 * tensor.* and numerics.* kernel probes at @p ctx context rows, and the
 * spans written as a Chrome trace.
 */
void finishTraced(Report &rep, const RunOptions &opt, const SpanLog &log,
                  int64_t ctx);

/// fp32 FMA peak of one thread (AVX2/FMA loop, portable fallback),
/// GFLOP/s.
double fmaPeakGflops();

/// A fresh per-run directory under opt.out_dir (checkpoint, spill tier).
std::string makeRunDir(const RunOptions &opt);

} // namespace edgebench

#endif // EDGEBENCH_WORKLOADS_H
