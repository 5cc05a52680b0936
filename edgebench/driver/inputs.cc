#include "inputs.h"

#include <algorithm>

namespace edgebench {

uint64_t
SplitMix::next()
{
    uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

int64_t
SplitMix::range(int64_t lo, int64_t hi)
{
    const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
    return lo + static_cast<int64_t>(next() % span);
}

double
SplitMix::unit()
{
    return static_cast<double>(next() >> 11) * (1.0 / 9007199254740992.0);
}

uint64_t
streamSeed(uint64_t seed, uint64_t tag, uint64_t index)
{
    SplitMix m(seed * 0x100000001b3ULL ^ (tag << 32) ^ index);
    m.next();
    return m.next();
}

std::vector<int32_t>
randomTokens(SplitMix &rng, int64_t n)
{
    std::vector<int32_t> out(static_cast<size_t>(n));
    for (int32_t &t : out)
        t = static_cast<int32_t>(rng.range(kFirstToken, kLastToken));
    return out;
}

std::vector<int64_t>
stratified(SplitMix &rng, size_t n, int64_t lo, int64_t hi)
{
    std::vector<int64_t> v(n);
    for (size_t i = 0; i < n; ++i)
        v[i] = lo + static_cast<int64_t>((static_cast<double>(i) + 0.5) *
                                         static_cast<double>(hi - lo + 1) /
                                         static_cast<double>(n));
    for (size_t i = n; i-- > 1;)
        std::swap(v[i], v[static_cast<size_t>(
                            rng.range(0, static_cast<int64_t>(i)))]);
    return v;
}

ChatInputs
makeChatInputs(uint64_t seed, double seconds, int sessions)
{
    ChatInputs in;
    SplitMix rng(streamSeed(seed, 1, 0));
    in.system = randomTokens(rng, kSystemPromptTokens);
    // Shapes, stratified like long-decode's lengths: half the sessions
    // have 2 turns, half 3, and lengths, budgets and think times are
    // evenly spaced over their ranges in a seeded order.
    const size_t n = static_cast<size_t>(std::max(1, sessions));
    const std::vector<int64_t> turns = stratified(rng, n, 2, 3);
    size_t later = 0;
    for (int64_t t : turns)
        later += static_cast<size_t>(t - 1);
    // A resumed turn prefills the last output token plus its new
    // tokens: 17-31 rows, always two 16-row chunks, so the TTFT median
    // does not sit on a one-or-two-chunk boundary.
    const std::vector<int64_t> first_len = stratified(rng, n, 8, 24);
    const std::vector<int64_t> later_len = stratified(rng, later, 16, 30);
    const std::vector<int64_t> budget = stratified(rng, n + later, 16, 32);
    const std::vector<int64_t> think = stratified(rng, later, 1000, 3000);
    std::vector<double> arrivals(n);
    for (double &a : arrivals)
        a = rng.unit() * seconds * 1000.0;
    std::sort(arrivals.begin(), arrivals.end());
    size_t li = 0, bi = 0;
    for (size_t s = 0; s < n; ++s) {
        ChatSession cs;
        cs.arrive_ms = arrivals[s];
        for (int64_t t = 0; t < turns[s]; ++t) {
            cs.user.push_back(
                randomTokens(rng, t == 0 ? first_len[s] : later_len[li]));
            cs.max_new.push_back(budget[bi++]);
            cs.think_ms.push_back(
                t == 0 ? 0.0 : static_cast<double>(think[li++]));
        }
        in.sessions.push_back(std::move(cs));
    }
    return in;
}

std::vector<ClientRequest>
makeLongDecodeInputs(uint64_t seed, int clients, int per_client)
{
    SplitMix rng(streamSeed(seed, 2, 0));
    const size_t n = static_cast<size_t>(clients) * per_client;
    const std::vector<int64_t> prompt_len = stratified(rng, n, 100, 160);
    const std::vector<int64_t> max_new = stratified(rng, n, 200, 320);
    std::vector<ClientRequest> out(n);
    for (size_t i = 0; i < n; ++i) {
        out[i].prompt = randomTokens(rng, prompt_len[i]);
        out[i].max_new = max_new[i];
    }
    return out;
}

} // namespace edgebench
