#include "common.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <exception>
#include <cmath>
#include <cstdio>
#include <functional>
#include <stdexcept>
#include <string_view>
#include <thread>

#include "nn/checkpoint.h"
#include "tensor/ops.h"

namespace edgebench {

namespace sv = qt8::serve;

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank =
        std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(std::floor(rank));
    const size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

double
mean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double s = 0.0;
    for (double x : v)
        s += x;
    return s / static_cast<double>(v.size());
}

void
SpanLog::record(const char *name, Clock::time_point t0, Clock::time_point t1)
{
    if (!on_)
        return;
    // Thread ids fold to a small number for the viewer's track names.
    const uint32_t tid = static_cast<uint32_t>(
        std::hash<std::thread::id>{}(std::this_thread::get_id()) % 100000);
    const int64_t start =
        std::chrono::duration_cast<std::chrono::nanoseconds>(t0 - epoch_)
            .count();
    const int64_t dur =
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count();
    std::lock_guard<std::mutex> lock(mu_);
    entries_.push_back({name, start, dur, tid});
}

std::vector<double>
SpanLog::durationsMs(const char *name) const
{
    std::vector<double> out;
    std::lock_guard<std::mutex> lock(mu_);
    for (const Entry &e : entries_)
        if (std::string_view(e.name) == name)
            out.push_back(static_cast<double>(e.dur_ns) / 1e6);
    return out;
}

size_t
SpanLog::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return entries_.size();
}

namespace {

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (c == '\n') {
            out += "\\n";
        } else if (static_cast<unsigned char>(c) >= 0x20) {
            out += c;
        }
    }
    return out;
}

} // namespace

bool
SpanLog::writeChrome(const std::string &path, const std::string &note) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fprintf(f, "{\"traceEvents\": [\n");
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = 0; i < entries_.size(); ++i) {
        const Entry &e = entries_[i];
        std::fprintf(f,
                     "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                     "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f}%s\n",
                     e.name, e.tid, static_cast<double>(e.t0_ns) / 1e3,
                     static_cast<double>(e.dur_ns) / 1e3,
                     i + 1 < entries_.size() ? "," : "");
    }
    std::fprintf(f,
                 "],\n\"qt8_notes\": [{\"key\": \"edgebench\", "
                 "\"text\": \"%s\"}]}\n",
                 jsonEscape(note).c_str());
    return std::fclose(f) == 0;
}

CpuTurn::CpuTurn(int k)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0)
        return;
    for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &set))
            saved_.push_back(c);
    if (saved_.size() < 2) {
        saved_.clear();
        return;
    }
    at_ = static_cast<size_t>(k) % saved_.size();
    pin();
}

CpuTurn::~CpuTurn()
{
    if (saved_.empty())
        return;
    cpu_set_t set;
    CPU_ZERO(&set);
    for (int c : saved_)
        CPU_SET(c, &set);
    sched_setaffinity(0, sizeof(set), &set);
}

void
CpuTurn::pin()
{
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(saved_[at_], &one);
    sched_setaffinity(0, sizeof(one), &one);
}

void
CpuTurn::hopIfSlow(double ms, double best_ms)
{
    if (saved_.empty() || !(best_ms > 0.0) || ms <= kSlowRatio * best_ms)
        return;
    at_ = (at_ + 1) % saved_.size();
    pin();
    ++hops_;
}

qt8::ModelConfig
edgeLmConfig()
{
    qt8::ModelConfig cfg;
    cfg.name = "edge-lm";
    cfg.vocab = 256;
    cfg.max_seq = kMaxSeq;
    cfg.d_model = 128;
    cfg.d_ff = 512;
    cfg.n_heads = 4;
    cfg.n_layers = 4;
    return cfg;
}

qt8::QuantConfig
servingQuant()
{
    qt8::QuantConfig qc = qt8::QuantConfig::posit8();
    qc.weights_packed = true;
    qc.kv_packed = true;
    return qc;
}

sv::EngineConfig
engineConfig(int64_t n_pages, const std::string &spill_dir)
{
    sv::EngineConfig ec;
    ec.paged = true; // the only KV path the benchmark exercises
    ec.page_size = kPageSize;
    ec.prefill_chunk = kPageSize;
    ec.slot_capacity = kMaxSeq;
    ec.n_pages = n_pages;
    ec.prefix_cache = true;
    ec.spill_dir = spill_dir;
    ec.max_sessions = 512;
    return ec;
}

void
writeCheckpoint(const std::string &path)
{
    qt8::CausalLM model(edgeLmConfig(), kModelSeed);
    qt8::ParamList params;
    model.collectParams(params);
    if (!qt8::saveCheckpoint(path, params))
        throw std::runtime_error("cannot write checkpoint " + path);
}

std::unique_ptr<Deployment>
deploy(const std::string &ckpt, const sv::EngineConfig &ec, SpanLog &log)
{
    auto d = std::make_unique<Deployment>();
    {
        Span s(log, "deploy/load_checkpoint");
        d->model = std::make_unique<qt8::CausalLM>(edgeLmConfig(),
                                                   kModelSeed + 1);
        qt8::ParamList params;
        d->model->collectParams(params);
        std::string why;
        if (!qt8::loadCheckpoint(ckpt, params, &why))
            throw std::runtime_error("loadCheckpoint: " + why);
    }
    {
        Span s(log, "deploy/engine_ctor");
        d->qs = std::make_unique<qt8::QuantSession>(servingQuant());
        d->engine =
            std::make_unique<sv::ServeEngine>(*d->model, *d->qs, ec);
    }
    {
        Span s(log, "deploy/warmup_request");
        sv::Request req;
        for (int32_t i = 0; i < 20; ++i)
            req.prompt.push_back(8 + (i * 37) % 240);
        req.max_new_tokens = 4;
        auto fut = d->engine->submit(std::move(req));
        d->engine->runUntilIdle();
        if (fut.get().status != sv::RequestStatus::kOk)
            throw std::runtime_error("warm-up request failed");
    }
    return d;
}

double
SetupClock::seconds() const
{
    return median(bestOf(rounds_));
}

std::vector<double>
bestOf(const std::vector<std::vector<double>> &repeats)
{
    if (repeats.empty())
        return {};
    std::vector<double> best = repeats[0];
    for (const std::vector<double> &r : repeats) {
        if (r.size() != best.size())
            throw std::logic_error("bestOf: repeats differ in length");
        for (size_t i = 0; i < r.size(); ++i)
            best[i] = std::min(best[i], r[i]);
    }
    return best;
}

namespace {

int64_t
checkJob(qt8::CausalLM &model, qt8::QuantSession &qs, const OracleJob &job)
{
    const int64_t len = static_cast<int64_t>(job.seq.size());
    const qt8::Tensor logits = model.forward(qs, job.seq, 1, len);
    int64_t bad = 0;
    for (const OracleSpan &s : job.spans) {
        for (int64_t j = 0; j < s.len; ++j) {
            const int64_t pos = s.start + j;
            if (pos < 1 || pos >= len ||
                qt8::rowArgmax(logits, pos - 1) !=
                    job.seq[static_cast<size_t>(pos)]) {
                ++bad;
                break;
            }
        }
    }
    return bad;
}

} // namespace

int64_t
runOracle(const std::vector<OracleJob> &jobs, qt8::CausalLM &model,
          const qt8::QuantConfig &qc, int lora_rank, float lora_alpha)
{
    // The helper thread gets its own model: forward() caches
    // activations, so one model cannot serve two threads.
    qt8::CausalLM copy(edgeLmConfig(), kModelSeed + 2);
    if (lora_rank > 0)
        copy.body.enableLora(lora_rank, lora_alpha, /*all_dense=*/true);
    qt8::ParamList dst, src;
    copy.collectParams(dst);
    model.collectParams(src);
    qt8::copyParamValues(dst, src);

    std::atomic<size_t> next{0};
    std::atomic<int64_t> bad{0};
    auto work = [&](qt8::CausalLM &m) {
        qt8::QuantSession qs(qc);
        for (size_t i = next++; i < jobs.size(); i = next++)
            bad += checkJob(m, qs, jobs[i]);
    };
    std::exception_ptr helper_error;
    std::thread helper([&] {
        try {
            work(copy);
        } catch (...) {
            helper_error = std::current_exception();
        }
    });
    try {
        work(model);
    } catch (...) {
        helper.join();
        throw;
    }
    helper.join();
    if (helper_error)
        std::rethrow_exception(helper_error);
    return bad.load();
}

double
peakRssMiB()
{
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

} // namespace edgebench
