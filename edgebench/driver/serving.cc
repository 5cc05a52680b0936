/**
 * @file
 * chat-sessions (an open loop of multi-turn sessions) and long-decode
 * (a closed loop), both replayed over an externally stepped engine on
 * a virtual clock, plus the episode metrics both share with
 * lora-finetune's serving.
 */
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <queue>

#include "workloads.h"

namespace edgebench {

namespace sv = qt8::serve;

namespace {

// chat-sessions sizing: kChatReplays replays of Poisson session
// arrivals at kChatRate/s of virtual time, each step costing
// kChatStepMs of it (a little over a fast host's mean step), which
// keeps the engine busy for about 45% of the timeline. The arena is
// smaller than the idle-session working set, and a dashboard polls
// metricsSnapshot() every kChatPollMs. kChatSessionMs is the nominal
// time one session costs a replay, which turns --seconds into a
// session count.
constexpr int kChatReplays = 8;
constexpr double kChatRate = 11.0;
constexpr double kChatStepMs = 2.0;
constexpr double kChatSessionMs = 67.5;
constexpr int64_t kChatPages = 96;
constexpr double kChatPollMs = 50.0;
constexpr SloLimits kChatSlo{100.0, 10.0};

// long-decode sizing: 3 closed-loop clients, kDecodeReplays replays of
// the same requests. The arena holds every active sequence (3 x 30
// pages) and every prompt the prefix cache retains in a replay, so
// nothing is evicted. kDecodeRequestMs is the nominal time of one
// client request, which turns --seconds into a fixed request count.
constexpr int kDecodeClients = 3;
constexpr int kDecodeReplays = 4;
constexpr double kDecodeRequestMs = 1000.0;
constexpr int64_t kDecodePages = 512;
constexpr double kDecodeStepMs = 4.0;
constexpr double kDecodePollMs = 100.0;
constexpr SloLimits kDecodeSlo{300.0, 8.0};

int64_t
pagesFor(int64_t rows)
{
    return (rows + kPageSize - 1) / kPageSize;
}

/// Sessions arrive on @p in's schedule; each later turn extends the
/// session's own history and is due its think time after the previous
/// turn resolved kOk.
Traffic
chatTraffic(const ChatInputs &in)
{
    Traffic tr;
    for (const ChatSession &cs : in.sessions)
        tr.start_ms.push_back(cs.arrive_ms);
    tr.next = [&in](int o, int k, const Served *prev, Turn &out) {
        const ChatSession &cs = in.sessions[static_cast<size_t>(o)];
        const size_t t = static_cast<size_t>(k);
        if (t >= cs.user.size() ||
            (prev != nullptr && prev->result.status != sv::RequestStatus::kOk))
            return false;
        if (prev == nullptr) {
            out.prompt = in.system;
        } else {
            out.prompt = prev->prompt;
            out.prompt.insert(out.prompt.end(), prev->result.tokens.begin(),
                              prev->result.tokens.end());
        }
        out.prompt.insert(out.prompt.end(), cs.user[t].begin(),
                          cs.user[t].end());
        out.max_new = cs.max_new[t];
        out.session_id = static_cast<uint64_t>(o) + 1;
        out.think_ms = cs.think_ms[t];
        return true;
    };
    return tr;
}

/// One oracle job per session: its last served turn (prompt + output)
/// contains every earlier turn's prompt and output as a prefix, so one
/// forward checks them all.
std::vector<OracleJob>
sessionJobs(const Episode &ep)
{
    std::map<int, OracleJob> jobs;
    for (const Served &r : ep.requests) {
        if (!r.done || r.result.status != sv::RequestStatus::kOk)
            continue;
        OracleJob &job = jobs[r.owner];
        job.spans.push_back({static_cast<int64_t>(r.prompt.size()),
                             static_cast<int64_t>(r.result.tokens.size())});
        job.seq = r.prompt;
        job.seq.insert(job.seq.end(), r.result.tokens.begin(),
                       r.result.tokens.end());
    }
    std::vector<OracleJob> out;
    for (auto &[owner, job] : jobs)
        out.push_back(std::move(job));
    return out;
}

void
addChatProperties(Report &rep, const Episode &ep)
{
    double prompt = 0.0, shared = 0.0, turns = 0.0, resumes = 0.0;
    for (const Served &r : ep.requests) {
        prompt += static_cast<double>(r.prompt.size());
        shared += static_cast<double>(kSystemPromptTokens);
        turns += 1.0;
        resumes += r.turn > 0 ? 1.0 : 0.0;
    }
    rep.prop("workload.shared_prefix_share",
             prompt > 0 ? shared / prompt : 0.0, "ratio");
    rep.prop("workload.resume_share", turns > 0 ? resumes / turns : 0.0,
             "ratio");
    rep.prop("workload.median_ctx_rows", medianContextRows(ep), "rows");
    rep.prop("workload.spill_ws_ratio",
             mean(ep.session_pages) / static_cast<double>(kChatPages), "ratio");
}

void
addPhaseNote(Report &rep, double episode_ms, double oracle_ms)
{
    char line[160];
    std::snprintf(line, sizeof(line), "phase: episode %.2f s, oracle %.2f s",
                  episode_ms / 1e3, oracle_ms / 1e3);
    rep.notes.push_back(line);
}

/// Prefix sums of @p v: out[i] = v[0] + ... + v[i-1].
std::vector<double>
prefixSums(const std::vector<double> &v)
{
    std::vector<double> out(v.size() + 1, 0.0);
    for (size_t i = 0; i < v.size(); ++i)
        out[i + 1] = out[i] + v[i];
    return out;
}

double
sum(const std::vector<double> &v)
{
    double s = 0.0;
    for (double x : v)
        s += x;
    return s;
}

/// Replays of one episode and the deployment of the last one.
struct Replayed
{
    Replays rp;
    std::unique_ptr<Deployment> dep;
    int hops = 0;   ///< vCPU hops after slow steps, all replays.
    double ms = 0.0; ///< Real time of all replays, set-up included.

    std::vector<std::vector<double>> stepTimes() const
    {
        std::vector<std::vector<double>> steps;
        for (const Episode &e : rp.runs)
            steps.push_back(e.step_ms);
        return steps;
    }
};

/**
 * @p replays runs of @p traffic, replay k on a fresh deployment of
 * @p config(k) (one set-up round) starting on CpuTurn(k); from the
 * second replay on, a step slower than its best earlier repeat moves
 * to the next vCPU. Traced runs record spans on half the steps
 * (tracedStep).
 */
Replayed
replayEpisodes(int replays, SetupClock &setup, const std::string &ckpt,
               const std::function<sv::EngineConfig(int k)> &config,
               const Traffic &traffic, double step_cost_ms, double poll_ms,
               SpanLog &log)
{
    Replayed out;
    const auto t0 = Clock::now();
    for (int k = 0; k < replays; ++k) {
        CpuTurn cpu(k);
        const sv::EngineConfig ec = config(k);
        out.dep.reset();
        out.dep = setup.round([&] { return deploy(ckpt, ec, log); });
        out.rp.runs.push_back(runEpisode(
            *out.dep->engine, traffic, step_cost_ms, poll_ms, log,
            [k](size_t i) { return tracedStep(k, i); },
            [&](size_t i, double ms) {
                cpu.hopIfSlow(ms, out.rp.bestSoFar(i));
            }));
        out.hops += cpu.hops();
    }
    out.ms = msSince(t0);
    return out;
}

} // namespace

// --- Shared episode metrics ---------------------------------------------

void
addClosedLoopProperties(Report &rep, const Episode &ep)
{
    rep.prop("workload.shared_prefix_share", 0.0, "ratio");
    rep.prop("workload.resume_share", 0.0, "ratio");
    rep.prop("workload.median_ctx_rows", medianContextRows(ep), "rows");
    rep.prop("workload.spill_ws_ratio", 0.0, "ratio");
}

void
addTraceOverhead(Report &rep, double untraced, double traced,
                 const char *what)
{
    const double pct =
        untraced > 0.0 ? 100.0 * (traced - untraced) / untraced : 0.0;
    rep.layer("trace.overhead_pct", pct, "%");
    char line[200];
    std::snprintf(line, sizeof(line),
                  "tracing overhead: %s untraced %.4f traced %.4f (%+.2f%%)",
                  what, untraced, traced, pct);
    rep.notes.push_back(line);
}

void
addReplayTraceOverhead(Report &rep,
                       const std::vector<std::vector<double>> &steps,
                       const char *what)
{
    double total[2] = {0.0, 0.0};
    for (size_t i = 0; i < steps.at(0).size(); ++i) {
        double best[2] = {0.0, 0.0};
        for (size_t k = 0; k < steps.size(); ++k) {
            double &b = best[tracedStep(static_cast<int>(k), i) ? 1 : 0];
            b = b == 0.0 ? steps[k][i] : std::min(b, steps[k][i]);
        }
        total[0] += best[0];
        total[1] += best[1];
    }
    addTraceOverhead(rep, total[0], total[1], what);
}

Traffic
closedLoop(int clients, int per_client,
           std::function<ClientRequest(int client, int k)> req)
{
    Traffic tr;
    tr.start_ms.assign(static_cast<size_t>(clients), 0.0);
    tr.next = [per_client, req = std::move(req)](int c, int k, const Served *,
                                                 Turn &out) {
        if (k >= per_client)
            return false;
        ClientRequest cr = req(c, k);
        out.prompt = std::move(cr.prompt);
        out.max_new = cr.max_new;
        return true;
    };
    return tr;
}

Episode
runEpisode(sv::ServeEngine &engine, const Traffic &traffic,
           double step_cost_ms, double poll_ms, SpanLog &log,
           const std::function<bool(size_t step)> &traced,
           const std::function<void(size_t step, double ms)> &on_step)
{
    SpanLog off(false);
    Episode ep;
    ep.step_cost_ms = step_cost_ms;
    // Spans of step i and of the calls that follow it go to the same log.
    auto spans = [&]() -> SpanLog & {
        return traced(ep.step_ms.size()) ? log : off;
    };
    struct Due
    {
        double ms;
        int owner;
        bool operator>(const Due &o) const
        {
            return ms > o.ms || (ms == o.ms && owner > o.owner);
        }
    };
    const size_t owners = traffic.start_ms.size();
    std::priority_queue<Due, std::vector<Due>, std::greater<Due>> heap;
    std::vector<Turn> pending(owners);
    std::vector<int> sent(owners, 0);
    // KV pages each session holds or is about to hold: its history
    // while idle between turns, its prompt while a turn is in flight.
    std::vector<int64_t> session_pages(owners, 0);
    // Real submit time and step end times, to find first-token steps.
    std::vector<double> submitted_at, step_end;
    std::vector<size_t> completed;
    double vclock = 0.0, next_poll = poll_ms;
    int in_flight = 0;

    auto schedule = [&](int o, double after_ms, const Served *prev) {
        Turn &t = pending[static_cast<size_t>(o)];
        if (!traffic.next(o, sent[static_cast<size_t>(o)], prev, t))
            return false;
        heap.push({after_ms + t.think_ms, o});
        return true;
    };
    for (size_t o = 0; o < owners; ++o)
        schedule(static_cast<int>(o), traffic.start_ms[o], nullptr);

    ep.before = engine.metrics();
    const auto t0 = Clock::now();
    auto submitDue = [&](const Due &d) {
        Turn &t = pending[static_cast<size_t>(d.owner)];
        const size_t idx = ep.requests.size();
        Served sr;
        sr.owner = d.owner;
        sr.turn = sent[static_cast<size_t>(d.owner)]++;
        sr.prompt = t.prompt;
        sr.due_ms = d.ms;
        sr.submit_ms = vclock;
        sr.submit_step = static_cast<int64_t>(ep.step_ms.size());
        ep.requests.push_back(std::move(sr));
        if (t.session_id != 0)
            session_pages[static_cast<size_t>(d.owner)] =
                pagesFor(static_cast<int64_t>(t.prompt.size()));
        sv::Request req;
        req.prompt = std::move(t.prompt);
        req.max_new_tokens = t.max_new;
        req.session_id = t.session_id;
        req.on_complete = [&completed, &ep, idx](const sv::RequestResult &r) {
            ep.requests[idx].result = r;
            ep.requests[idx].done = true;
            ep.requests[idx].done_step =
                static_cast<int64_t>(ep.step_ms.size());
            completed.push_back(idx);
        };
        ++in_flight;
        const auto s0 = Clock::now();
        submitted_at.push_back(msBetween(t0, s0));
        {
            Span span(spans(), "serve/submit");
            engine.submit(std::move(req));
        }
        ep.submit_ms.push_back(msSince(s0));
    };

    for (;;) {
        while (!heap.empty() && heap.top().ms <= vclock) {
            const Due d = heap.top();
            heap.pop();
            submitDue(d);
        }
        if (in_flight == 0) {
            if (heap.empty())
                break;
            ep.idle_ms += heap.top().ms - vclock;
            vclock = heap.top().ms;
            continue;
        }
        const auto s0 = Clock::now();
        {
            Span span(spans(), "serve/step");
            engine.step();
        }
        const auto s1 = Clock::now();
        ep.step_ms.push_back(msBetween(s0, s1));
        step_end.push_back(msBetween(t0, s1));
        vclock += step_cost_ms;
        on_step(ep.step_ms.size() - 1, ep.step_ms.back());
        std::vector<size_t> done;
        done.swap(completed);
        for (size_t idx : done) {
            --in_flight;
            const Served &r = ep.requests[idx];
            const size_t o = static_cast<size_t>(r.owner);
            session_pages[o] =
                schedule(r.owner, vclock, &r) && pending[o].session_id != 0
                    ? pagesFor(static_cast<int64_t>(r.prompt.size() +
                                                    r.result.tokens.size()))
                    : 0;
        }
        if (vclock >= next_poll) {
            int64_t working_set = 0;
            for (int64_t p : session_pages)
                working_set += p;
            const auto p0 = Clock::now();
            {
                Span span(spans(), "serve/metrics_snapshot");
                const sv::ServeMetrics m = engine.metricsSnapshot();
                (void)m;
            }
            ep.snapshot_ms.push_back(msSince(p0));
            ep.queue_depth.push_back(
                static_cast<double>(engine.pendingCount()));
            ep.session_pages.push_back(static_cast<double>(working_set));
            next_poll = (std::floor(vclock / poll_ms) + 1.0) * poll_ms;
        }
    }
    ep.after = engine.metrics();
    // The engine's TTFT runs from submit() to the sampling of the first
    // token inside some step; that step is the first to end after it.
    for (size_t i = 0; i < ep.requests.size(); ++i) {
        Served &r = ep.requests[i];
        r.first_step = r.done_step;
        if (r.result.tokens.empty())
            continue;
        const double at = submitted_at[i] + r.result.ttft_ms;
        const auto it =
            std::lower_bound(step_end.begin() + r.submit_step,
                             step_end.begin() + r.done_step, at);
        r.first_step = it - step_end.begin();
    }
    return ep;
}

std::string
Replays::mismatch() const
{
    const Episode &a = runs.at(0);
    for (size_t k = 1; k < runs.size(); ++k) {
        const Episode &b = runs[k];
        const std::string which = "replay " + std::to_string(k);
        if (b.step_ms.size() != a.step_ms.size())
            return which + " ran " + std::to_string(b.step_ms.size()) +
                   " steps, replay 0 " + std::to_string(a.step_ms.size());
        if (b.requests.size() != a.requests.size())
            return which + " sent a different number of requests";
        for (size_t i = 0; i < a.requests.size(); ++i) {
            const Served &x = a.requests[i], &y = b.requests[i];
            if (x.submit_step != y.submit_step ||
                x.first_step != y.first_step || x.done_step != y.done_step ||
                x.result.status != y.result.status ||
                x.result.tokens != y.result.tokens)
                return which + " differs from replay 0 at request " +
                       std::to_string(i);
        }
    }
    return "";
}

std::vector<double>
Replays::bestStepMs() const
{
    std::vector<std::vector<double>> steps;
    for (const Episode &ep : runs)
        steps.push_back(ep.step_ms);
    return bestOf(steps);
}

double
Replays::bestSoFar(size_t i) const
{
    double best = 0.0;
    for (const Episode &ep : runs)
        if (i < ep.step_ms.size() && (best == 0.0 || ep.step_ms[i] < best))
            best = ep.step_ms[i];
    return best;
}

void
addSloMetrics(Report &rep, const std::vector<const Episode *> &eps,
              const SloLimits &slo)
{
    std::vector<double> ttft, tpot;
    int64_t attempted = 0, ok = 0, met = 0;
    for (const Episode *ep : eps)
        for (const Served &r : ep->requests) {
            ++attempted;
            if (!r.done || r.result.status != sv::RequestStatus::kOk)
                continue;
            ++ok;
            const double t = (r.submit_ms - r.due_ms) + r.result.ttft_ms;
            ttft.push_back(t);
            const size_t n = r.result.tokens.size();
            double p = 0.0;
            if (n >= 2) {
                p = (r.result.latency_ms - r.result.ttft_ms) /
                    static_cast<double>(n - 1);
                tpot.push_back(p);
            }
            if (t <= slo.ttft_ms && p <= slo.tpot_ms)
                ++met;
        }
    rep.attempted += attempted;
    rep.ok += ok;
    rep.failed += attempted - ok;
    rep.e2e("slo_attain",
            attempted > 0 ? static_cast<double>(met) /
                                static_cast<double>(attempted)
                          : 0.0,
            "ratio");
    // Raw tails, as every request saw them, host slow spells included.
    rep.layer("serve.engine.ttft_p95_ms", percentile(ttft, 95.0), "ms");
    rep.layer("serve.engine.tpot_p95_ms", percentile(tpot, 95.0), "ms");
    char line[200];
    std::snprintf(line, sizeof(line),
                  "raw latency samples: %zu ttft (%.1f beyond p95), %zu "
                  "tpot; slo ttft<=%.0f ms tpot<=%.0f ms",
                  ttft.size(), 0.05 * static_cast<double>(ttft.size()),
                  tpot.size(), slo.ttft_ms, slo.tpot_ms);
    rep.notes.push_back(line);
}

void
addTimelineMetrics(Report &rep, const Replays &rp, const SloLimits &slo)
{
    const std::string why = rp.mismatch();
    if (!why.empty())
        rep.fail("replays diverged: " + why);
    const Episode &ep = rp.runs.at(0);
    const std::vector<double> s =
        prefixSums(why.empty() ? rp.bestStepMs() : ep.step_ms);
    std::vector<double> ttft, tpot;
    for (const Served &r : ep.requests) {
        const int64_t n = static_cast<int64_t>(r.result.tokens.size());
        if (!r.done || r.result.status != sv::RequestStatus::kOk || n < 1)
            continue;
        const int64_t a = r.submit_step, f = r.first_step, e = r.done_step;
        const auto at = [&s](int64_t i) { return s[static_cast<size_t>(i)]; };
        // A request that fell due while step a - 1 ran waited for the
        // rest of it (0 in a closed loop, which submits when due).
        const double wait =
            a > 0 ? (r.submit_ms - r.due_ms) / ep.step_cost_ms *
                        (at(a) - at(a - 1))
                  : 0.0;
        ttft.push_back(wait + at(f + 1) - at(a));
        if (n >= 2)
            tpot.push_back((at(e + 1) - at(f + 1)) / static_cast<double>(n - 1));
    }
    rep.e2e("ttft_p50_ms", median(ttft), "ms");
    rep.e2e("tpot_p50_ms", median(tpot), "ms");
    std::vector<const Episode *> eps;
    for (const Episode &e : rp.runs)
        eps.push_back(&e);
    addSloMetrics(rep, eps, slo);
    char line[160];
    std::snprintf(line, sizeof(line),
                  "timeline: %zu replays x %zu steps, %zu requests each",
                  rp.runs.size(), ep.step_ms.size(), ep.requests.size());
    rep.notes.push_back(line);
}

void
addServeLayerMetrics(Report &rep, const Episode &ep)
{
    const sv::ServeMetrics &a = ep.after;
    const sv::ServeMetrics &b = ep.before;
    auto d = [](int64_t x, int64_t y) { return static_cast<double>(x - y); };
    rep.layer("serve.engine.submit_ms_p50", percentile(ep.submit_ms, 50.0),
              "ms");
    rep.layer("serve.engine.submit_ms_p99", percentile(ep.submit_ms, 99.0),
              "ms");
    rep.layer("serve.engine.queue_depth_mean", mean(ep.queue_depth),
              "count");
    // Busy share of the virtual timeline, with each step at its time in
    // this episode: 1 for a closed loop, which is never idle.
    const double busy = sum(ep.step_ms);
    rep.layer("serve.engine.busy_frac",
              busy > 0 ? busy / (busy + ep.idle_ms) : 0.0, "ratio");
    // Rows per forward: prefill rows computed plus decode rows (every
    // sampled token but each request's first, which a prefill row
    // produced).
    double prompt_rows = 0.0, first_tokens = 0.0;
    std::vector<double> restored_ttft;
    for (const Served &r : ep.requests) {
        prompt_rows += static_cast<double>(r.prompt.size());
        if (r.done && !r.result.tokens.empty())
            first_tokens += 1.0;
        if (r.done &&
            r.result.session_kv == sv::SessionKVSource::kRestoredFromSpill)
            restored_ttft.push_back(r.result.ttft_ms);
    }
    const double steps = d(a.steps, b.steps);
    const double rows =
        d(a.prefill_tokens_computed, b.prefill_tokens_computed) +
        d(a.generated_tokens, b.generated_tokens) - first_tokens;
    rep.layer("serve.engine.rows_per_step", steps > 0 ? rows / steps : 0.0,
              "rows");
    rep.layer("serve.metrics.snapshot_ms_p50",
              percentile(ep.snapshot_ms, 50.0), "ms");
    rep.layer("serve.metrics.snapshot_ms_p99",
              percentile(ep.snapshot_ms, 99.0), "ms");
    const double lookups = d(a.prefix_lookups, b.prefix_lookups);
    rep.layer("serve.paged_kv.prefix_hit_ratio",
              lookups > 0 ? d(a.prefix_hits, b.prefix_hits) / lookups : 0.0,
              "ratio");
    rep.layer("serve.paged_kv.prefill_compute_ratio",
              prompt_rows > 0
                  ? d(a.prefill_tokens_computed, b.prefill_tokens_computed) /
                        prompt_rows
                  : 0.0,
              "ratio");
    rep.layer("serve.paged_kv.pages_peak",
              static_cast<double>(a.pages_resident_peak), "pages");
    rep.layer("serve.paged_kv.evictions",
              d(a.prefix_evictions, b.prefix_evictions), "count");
    const double restored = d(a.sessions_restored, b.sessions_restored);
    const double recomputed = d(a.sessions_recomputed, b.sessions_recomputed);
    rep.layer("serve.kv_spill.spilled",
              d(a.sessions_spilled, b.sessions_spilled), "count");
    rep.layer("serve.kv_spill.restored", restored, "count");
    rep.layer("serve.kv_spill.recomputed", recomputed, "count");
    rep.layer("serve.kv_spill.resident_reused",
              d(a.sessions_resident_reused, b.sessions_resident_reused),
              "count");
    rep.layer("serve.kv_spill.restore_ratio",
              restored + recomputed > 0
                  ? restored / (restored + recomputed)
                  : 0.0,
              "ratio");
    rep.layer("serve.kv_spill.spilled_mb",
              d(a.spilled_bytes, b.spilled_bytes) / (1024.0 * 1024.0), "MiB");
    rep.layer("serve.kv_spill.restored_mb",
              d(a.restored_bytes, b.restored_bytes) / (1024.0 * 1024.0),
              "MiB");
    rep.layer("serve.kv_spill.restored_ttft_ms_p50",
              percentile(restored_ttft, 50.0), "ms");
}

void
addStepLayerMetrics(Report &rep, const std::vector<double> &best_step_ms)
{
    rep.layer("serve.engine.step_ms_p50", percentile(best_step_ms, 50.0),
              "ms");
    rep.layer("serve.engine.step_ms_p99", percentile(best_step_ms, 99.0),
              "ms");
}

void
addDecodeAnatomy(Report &rep, qt8::CausalLM &model, qt8::QuantSession &qs,
                 const Episode &ep, const std::vector<double> &best_step_ms,
                 SpanLog &log)
{
    // Decode rows of each step on the timeline; -1 marks a step that
    // also ran a prompt chunk.
    std::vector<int> rows(best_step_ms.size(), 0);
    for (const Served &r : ep.requests) {
        const int64_t n = static_cast<int64_t>(r.result.tokens.size());
        if (!r.done || r.result.status != sv::RequestStatus::kOk || n < 1)
            continue;
        for (int64_t i = r.submit_step; i <= r.done_step; ++i) {
            int &v = rows[static_cast<size_t>(i)];
            if (i <= r.first_step)
                v = -1;
            else if (v >= 0)
                ++v;
        }
    }
    std::map<int, int> count;
    for (int v : rows)
        if (v > 0)
            ++count[v];
    int common = 1;
    for (const auto &[v, c] : count)
        if (c > count[common])
            common = v;
    std::vector<double> decode_ms;
    for (size_t i = 0; i < rows.size(); ++i)
        if (rows[i] == common)
            decode_ms.push_back(best_step_ms[i]);

    const double anatomy_us = probeDecodeAnatomy(
        rep, model, qs, common, static_cast<int64_t>(medianContextRows(ep)),
        static_cast<int64_t>(medianPromptRows(ep)), log);
    probeSampler(rep);
    const double forward_us = rep.value("nn.decode_forward_us");
    const double sample_us = rep.value("serve.sampler.sample_us") * common;
    const double step_us = 1000.0 * median(decode_ms);
    const double overhead_us = step_us - forward_us - sample_us;
    rep.layer("serve.engine.overhead_us_per_step", overhead_us, "us");
    char line[300];
    std::snprintf(line, sizeof(line),
                  "decode anatomy at %d rows: sublayers %.1f us vs whole "
                  "forward %.1f us (%.1f%%); + sampling %.1f us + overhead "
                  "%.1f us = median %d-row decode step %.1f us (%zu steps)",
                  common, anatomy_us, forward_us,
                  forward_us > 0 ? 100.0 * anatomy_us / forward_us : 0.0,
                  sample_us, overhead_us, common, step_us, decode_ms.size());
    rep.notes.push_back(line);
}

std::vector<OracleJob>
closedLoopJobs(const Episode &ep)
{
    std::vector<OracleJob> jobs;
    for (const Served &r : ep.requests) {
        if (!r.done || r.result.status != sv::RequestStatus::kOk)
            continue;
        OracleJob job;
        job.seq = r.prompt;
        job.seq.insert(job.seq.end(), r.result.tokens.begin(),
                       r.result.tokens.end());
        job.spans.push_back({static_cast<int64_t>(r.prompt.size()),
                             static_cast<int64_t>(r.result.tokens.size())});
        jobs.push_back(std::move(job));
    }
    return jobs;
}

double
medianContextRows(const Episode &ep)
{
    std::vector<double> ctx;
    for (const Served &r : ep.requests)
        if (r.done)
            ctx.push_back(static_cast<double>(r.prompt.size()) +
                          0.5 * static_cast<double>(r.result.tokens.size()));
    return median(ctx);
}

double
medianPromptRows(const Episode &ep)
{
    std::vector<double> rows;
    for (const Served &r : ep.requests)
        rows.push_back(static_cast<double>(r.prompt.size()));
    return median(rows);
}

// --- Workloads ------------------------------------------------------------

Report
runChatSessions(const RunOptions &opt)
{
    Report rep;
    SpanLog log(opt.trace);
    const std::string dir = makeRunDir(opt);
    const std::string ckpt = dir + "/edge-lm.qt8ckpt";
    writeCheckpoint(ckpt);

    const int sessions = std::max(
        1, static_cast<int>(opt.seconds * 1000.0 / kChatReplays /
                                kChatSessionMs +
                            0.5));
    const ChatInputs in =
        makeChatInputs(opt.seed, sessions / kChatRate, sessions);
    SetupClock setup;
    // Each replay's engine spills to a disk tier of its own.
    Replayed run = replayEpisodes(
        kChatReplays, setup, ckpt,
        [&dir](int k) {
            return engineConfig(kChatPages,
                                dir + "/spill-" + std::to_string(k));
        },
        chatTraffic(in), kChatStepMs, kChatPollMs, log);
    const double rss = peakRssMiB();
    const Episode &ep = run.rp.runs[0];
    rep.notes.push_back("vCPU hops after slow steps: " +
                        std::to_string(run.hops));

    const auto t_oracle = Clock::now();
    const int64_t bad =
        runOracle(sessionJobs(ep), *run.dep->model, servingQuant());
    addPhaseNote(rep, run.ms, msSince(t_oracle));
    rep.mismatches = bad;
    if (bad > 0)
        rep.fail(std::to_string(bad) + " session(s) differ from the "
                 "teacher-forced greedy oracle");

    rep.e2e("setup_s", setup.seconds(), "s");
    rep.e2e("peak_rss_mb", rss, "MiB");
    addTimelineMetrics(rep, run.rp, kChatSlo);
    const std::vector<double> best = run.rp.bestStepMs();
    rep.e2e("tok_s",
            1000.0 *
                static_cast<double>(ep.after.generated_tokens -
                                    ep.before.generated_tokens) /
                sum(best),
            "tok/s");
    char line[160];
    std::snprintf(line, sizeof(line),
                  "virtual timeline: %d sessions over %.2f s, %.2f s idle",
                  sessions, sessions / kChatRate, ep.idle_ms / 1e3);
    rep.notes.push_back(line);
    addChatProperties(rep, ep);
    if (opt.trace) {
        addServeLayerMetrics(rep, ep);
        addStepLayerMetrics(rep, best);
        addReplayTraceOverhead(rep, run.stepTimes(), "summed step ms");
        probeSampler(rep);
        finishTraced(rep, opt, log,
                     static_cast<int64_t>(medianContextRows(ep)));
    }
    run.dep.reset();
    std::filesystem::remove_all(dir);
    return rep;
}

Report
runLongDecode(const RunOptions &opt)
{
    Report rep;
    SpanLog log(opt.trace);
    const std::string dir = makeRunDir(opt);
    const std::string ckpt = dir + "/edge-lm.qt8ckpt";
    writeCheckpoint(ckpt);

    const int per_client = std::max(
        1, static_cast<int>(opt.seconds * 1000.0 / kDecodeReplays /
                                kDecodeRequestMs +
                            0.5));
    const std::vector<ClientRequest> in =
        makeLongDecodeInputs(opt.seed, kDecodeClients, per_client);
    SetupClock setup;
    Replayed run = replayEpisodes(
        kDecodeReplays, setup, ckpt,
        [](int) { return engineConfig(kDecodePages, ""); },
        closedLoop(kDecodeClients, per_client,
                   [&in, per_client](int c, int i) {
                       return in[static_cast<size_t>(c * per_client + i)];
                   }),
        kDecodeStepMs, kDecodePollMs, log);
    const double rss = peakRssMiB();
    const Episode &ep = run.rp.runs[0];
    rep.notes.push_back("vCPU hops after slow steps: " +
                        std::to_string(run.hops));

    const auto t_oracle = Clock::now();
    const int64_t bad =
        runOracle(closedLoopJobs(ep), *run.dep->model, servingQuant());
    addPhaseNote(rep, run.ms, msSince(t_oracle));
    rep.mismatches = bad;
    if (bad > 0)
        rep.fail(std::to_string(bad) + " request(s) differ from the "
                 "teacher-forced greedy oracle");
    if (ep.after.sessions_spilled != ep.before.sessions_spilled ||
        ep.after.prefix_evictions != ep.before.prefix_evictions)
        rep.notes.push_back("note: long-decode spilled or evicted pages");

    rep.e2e("setup_s", setup.seconds(), "s");
    rep.e2e("peak_rss_mb", rss, "MiB");
    addTimelineMetrics(rep, run.rp, kDecodeSlo);
    const std::vector<double> best = run.rp.bestStepMs();
    rep.e2e("tok_s",
            1000.0 *
                static_cast<double>(ep.after.generated_tokens -
                                    ep.before.generated_tokens) /
                sum(best),
            "tok/s");
    addClosedLoopProperties(rep, ep);
    if (opt.trace) {
        addServeLayerMetrics(rep, ep);
        addStepLayerMetrics(rep, best);
        addReplayTraceOverhead(rep, run.stepTimes(), "summed step ms");
        addDecodeAnatomy(rep, *run.dep->model, *run.dep->qs, ep, best, log);
        finishTraced(rep, opt, log,
                     static_cast<int64_t>(medianContextRows(ep)));
    }
    run.dep.reset();
    std::filesystem::remove_all(dir);
    return rep;
}

std::string
makeRunDir(const RunOptions &opt)
{
    const std::string dir = opt.out_dir + "/" + opt.workload + "-seed" +
                            std::to_string(opt.seed) + "-run";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

} // namespace edgebench
