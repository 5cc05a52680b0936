/**
 * @file
 * Seeded input generators for the benchmark's workloads. They live in
 * the benchmark's own directory and use their own generator
 * (splitmix64), so edits elsewhere in the repository cannot shift the
 * inputs a seed produces.
 */
#ifndef EDGEBENCH_INPUTS_H
#define EDGEBENCH_INPUTS_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace edgebench {

/// splitmix64: small, fast and fixed forever.
class SplitMix
{
  public:
    explicit SplitMix(uint64_t seed) : s_(seed) {}
    uint64_t next();
    /// Uniform integer in [lo, hi].
    int64_t range(int64_t lo, int64_t hi);
    /// Uniform double in [0, 1).
    double unit();

  private:
    uint64_t s_;
};

/// Derive an independent stream seed from (seed, tag, index).
uint64_t streamSeed(uint64_t seed, uint64_t tag, uint64_t index);

/// Token ids the generators draw from (the low ids are reserved).
inline constexpr int32_t kFirstToken = 8;
inline constexpr int32_t kLastToken = 255;

std::vector<int32_t> randomTokens(SplitMix &rng, int64_t n);

/// @p n evenly spaced integers over [lo, hi] in a seeded order: input
/// lengths drawn this way have the same mix for every seed.
std::vector<int64_t> stratified(SplitMix &rng, size_t n, int64_t lo,
                                int64_t hi);

// --- chat-sessions ----------------------------------------------------

inline constexpr int64_t kSystemPromptTokens = 64; ///< 4 full KV pages.

struct ChatSession
{
    double arrive_ms = 0.0;
    /// New user tokens per turn (turn 0: the part after the shared
    /// system prompt).
    std::vector<std::vector<int32_t>> user;
    std::vector<int64_t> max_new;  ///< Output budget per turn.
    std::vector<double> think_ms;  ///< Pause before each turn (t >= 1).
};

struct ChatInputs
{
    std::vector<int32_t> system; ///< Shared system prompt.
    std::vector<ChatSession> sessions;
};

/**
 * @p sessions sessions arriving over [0, @p seconds) as a Poisson
 * process conditioned on its count (sorted uniform times). Each has 2-3
 * turns: 8-24 new user tokens on the first (after the system prompt),
 * 16-30 on later ones, 16-32 output tokens and 1-3 s of think time,
 * stratified over the sessions as makeLongDecodeInputs does.
 */
ChatInputs makeChatInputs(uint64_t seed, double seconds, int sessions);

// --- closed-loop clients -----------------------------------------------

struct ClientRequest
{
    std::vector<int32_t> prompt;
    int64_t max_new = 0;
};

/**
 * long-decode: @p per_client requests for each of @p clients clients,
 * client c's request k at index c * per_client + k. Each has a unique
 * prompt of 100-160 tokens with no shared prefix and a 200-320 token
 * budget. The lengths are stratified, so the seed changes which request
 * gets which length and its tokens, but not the length mix a run's
 * medians depend on.
 */
std::vector<ClientRequest> makeLongDecodeInputs(uint64_t seed, int clients,
                                                int per_client);

} // namespace edgebench

#endif // EDGEBENCH_INPUTS_H
