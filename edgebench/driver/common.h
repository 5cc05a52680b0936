/**
 * @file
 * Shared pieces of the edge-stack benchmark: the one model and
 * engine configuration every workload uses, the deploy path timed as
 * setup_s, the teacher-forced correctness oracle, an in-memory span
 * log written as Chrome/Perfetto JSON, sample statistics and the
 * metric report printed at the end of a run.
 */
#ifndef EDGEBENCH_COMMON_H
#define EDGEBENCH_COMMON_H

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "nn/model.h"
#include "quant/config.h"
#include "serve/engine.h"

namespace edgebench {

using Clock = std::chrono::steady_clock;

inline double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

inline double
msSince(Clock::time_point t0)
{
    return msBetween(t0, Clock::now());
}

// --- Sample statistics ------------------------------------------------

/// Linear interpolation between closest ranks (numpy default); 0 when
/// @p v is empty.
double percentile(std::vector<double> v, double p);
inline double
median(std::vector<double> v)
{
    return percentile(std::move(v), 50.0);
}
double mean(const std::vector<double> &v);

// --- Report -----------------------------------------------------------

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/// Everything one run prints: end-to-end metrics (untraced run),
/// per-layer metrics (traced run), measured workload properties, the
/// request counts and the correctness verdict.
struct Report
{
    std::vector<Metric> end_to_end;
    std::vector<Metric> per_layer;
    std::vector<Metric> properties;
    int64_t attempted = 0;
    int64_t ok = 0;
    int64_t failed = 0;
    int64_t mismatches = 0;
    bool correct = true;
    std::vector<std::string> notes;

    void e2e(const std::string &n, double v, const std::string &u)
    {
        end_to_end.push_back({n, v, u});
    }
    void layer(const std::string &n, double v, const std::string &u)
    {
        per_layer.push_back({n, v, u});
    }
    void prop(const std::string &n, double v, const std::string &u)
    {
        properties.push_back({n, v, u});
    }
    /// Value of a metric already added (end-to-end first); 0 if absent.
    double value(const std::string &n) const
    {
        for (const auto *list : {&end_to_end, &per_layer, &properties})
            for (const Metric &m : *list)
                if (m.name == n)
                    return m.value;
        return 0.0;
    }
    /// Fail the run with a reason (printed before the JSON line).
    void fail(const std::string &why)
    {
        correct = false;
        notes.push_back("FAIL: " + why);
    }
};

// --- Span log ---------------------------------------------------------

/**
 * Spans recorded around the benchmark's own calls into the program.
 * Kept in memory and written once at exit; when off, Span costs one
 * branch and reads no clock.
 */
class SpanLog
{
  public:
    explicit SpanLog(bool on) : on_(on), epoch_(Clock::now()) {}

    bool on() const { return on_; }
    void record(const char *name, Clock::time_point t0,
                Clock::time_point t1);
    /// Durations (ms) of every span named @p name, in record order.
    std::vector<double> durationsMs(const char *name) const;
    size_t size() const;
    /// Chrome trace JSON ("traceEvents" of ph:"X", microseconds) plus
    /// one note, the format tools/trace_summary folds.
    bool writeChrome(const std::string &path, const std::string &note) const;

  private:
    struct Entry
    {
        const char *name;
        int64_t t0_ns;
        int64_t dur_ns;
        uint32_t tid;
    };
    bool on_;
    Clock::time_point epoch_;
    mutable std::mutex mu_;
    std::vector<Entry> entries_;
};

/// RAII span; @p name must be a string literal.
class Span
{
  public:
    Span(SpanLog &log, const char *name)
        : log_(log.on() ? &log : nullptr), name_(name)
    {
        if (log_ != nullptr)
            t0_ = Clock::now();
    }
    ~Span()
    {
        if (log_ != nullptr)
            log_->record(name_, t0_, Clock::now());
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    SpanLog *log_;
    const char *name_;
    Clock::time_point t0_;
};

// --- CPU rotation -----------------------------------------------------

/**
 * Runs the calling thread on the @p k-th CPU (cycling) of those it may
 * use, until destroyed; then restores its CPU mask. Slow spells on this
 * host belong to one vCPU at a time, and a busy thread stays on one
 * vCPU, so repeats meant to be independent each take their own.
 */
class CpuTurn
{
  public:
    explicit CpuTurn(int k);
    ~CpuTurn();
    CpuTurn(const CpuTurn &) = delete;
    CpuTurn &operator=(const CpuTurn &) = delete;

    /**
     * After a timed position that took @p ms, whose fastest earlier
     * repeat took @p best_ms (0: none yet): if it ran kSlowRatio times
     * slower, this vCPU is in a slow spell, so move to the next one.
     */
    void hopIfSlow(double ms, double best_ms);
    int hops() const { return hops_; }

    static constexpr double kSlowRatio = 1.25;

  private:
    void pin();

    std::vector<int> saved_; ///< CPUs allowed before; empty = unchanged.
    size_t at_ = 0;
    int hops_ = 0;
};

// --- Model, engine and deploy path ------------------------------------

inline constexpr int64_t kPageSize = 16;
inline constexpr int64_t kMaxSeq = 512;
inline constexpr uint64_t kModelSeed = 20240427;

/// The edge-sized causal LM: d_model 128, 4 layers, 4 heads, d_ff 512,
/// vocab 256, max_seq 512.
qt8::ModelConfig edgeLmConfig();

/// posit8 with packed weights and packed KV (the serving datapath).
qt8::QuantConfig servingQuant();

/**
 * The single place the benchmark configures the serving engine: the
 * paged KV pool with 16-row pages and 16-row prefill chunks, the
 * shared-prefix cache, and (when @p spill_dir is non-empty) the disk
 * session tier. Only public EngineConfig fields are set.
 */
qt8::serve::EngineConfig engineConfig(int64_t n_pages,
                                      const std::string &spill_dir);

/// Write the deployable checkpoint (random-init edge LM) to @p path.
void writeCheckpoint(const std::string &path);

/// A deployed model: the engine borrows model and session, so it is
/// declared last and destroyed first.
struct Deployment
{
    std::unique_ptr<qt8::CausalLM> model;
    std::unique_ptr<qt8::QuantSession> qs;
    std::unique_ptr<qt8::serve::ServeEngine> engine;
};

/**
 * The deploy path timed as setup_s: construct the LM, loadCheckpoint,
 * build the engine and its arena, and serve one warm-up request (which
 * packs the weights on its first forward). Throws on any failure.
 */
std::unique_ptr<Deployment> deploy(const std::string &ckpt,
                                   const qt8::serve::EngineConfig &ec,
                                   SpanLog &log);

/**
 * setup_s. A workload times its set-up path kSetupReps times in each of
 * several rounds spread over the run, round r on CpuTurn(r); setup_s is
 * the median over the kSetupReps positions of each position's fastest
 * round (see bestOf).
 */
class SetupClock
{
  public:
    static constexpr int kSetupReps = 5;

    /// One round: build kSetupReps times with @p make, tearing each
    /// result down untimed before the next; returns the last one.
    template <class Make>
    auto round(Make &&make) -> decltype(make())
    {
        const CpuTurn cpu(static_cast<int>(rounds_.size()));
        decltype(make()) out;
        std::vector<double> secs;
        for (int r = 0; r < kSetupReps; ++r) {
            out.reset();
            const auto t0 = Clock::now();
            out = make();
            secs.push_back(msSince(t0) / 1e3);
        }
        rounds_.push_back(std::move(secs));
        return out;
    }

    double seconds() const;

  private:
    std::vector<std::vector<double>> rounds_;
};

/**
 * Best of R repeats, position by position: element i is the minimum of
 * element i over @p repeats, which must be equally long.
 *
 * This host switches between an uncontended mode and one about 1.7x
 * slower every few hundred milliseconds, and the slow share of a run
 * drifts between about 0.1 and 0.9. A median over samples shorter than
 * those spells then follows the slow share, not the code. Measuring
 * each short position (a deploy, an engine step, a chat turn) in R
 * repeats spread over the run and keeping its fastest keeps the
 * uncontended cost, as timeit's best-of-N does.
 */
std::vector<double> bestOf(const std::vector<std::vector<double>> &repeats);

// --- Correctness oracle -----------------------------------------------

/// One generated span to check: out[j] must equal the greedy argmax of
/// the teacher-forced logits at row start + j - 1 of @p seq.
struct OracleSpan
{
    int64_t start = 0; ///< Position of out[0] in seq (= prompt length).
    int64_t len = 0;
};

/// One teacher-forced forward: @p seq is a prompt plus every output
/// checked against it.
struct OracleJob
{
    std::vector<int32_t> seq;
    std::vector<OracleSpan> spans;
};

/**
 * Teacher-forced check of every job: one CausalLM::forward over each
 * job's seq and a greedy argmax per generated token, split between this
 * thread (on @p model) and one helper thread (on a parameter copy of
 * it), each with its own QuantSession built from @p qc. Returns the
 * number of spans with at least one mismatching token.
 */
int64_t runOracle(const std::vector<OracleJob> &jobs, qt8::CausalLM &model,
                  const qt8::QuantConfig &qc, int lora_rank = 0,
                  float lora_alpha = 0.0f);

/// Peak resident set of this process so far, MiB.
double peakRssMiB();

} // namespace edgebench

#endif // EDGEBENCH_COMMON_H
