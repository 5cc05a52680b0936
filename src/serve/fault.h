/**
 * @file
 * Deterministic, seeded fault injection for the serving engine — the
 * chaos half of the robustness contract in DESIGN.md §10.
 *
 * A FaultInjector is handed to the engine through
 * EngineConfig::fault and consulted at fixed points of the scheduler
 * step. Every decision is drawn from one seeded xoshiro256++ stream
 * (never the wall clock or OS entropy), so a given (seed, step
 * sequence) replays the identical fault schedule. The hooks are always
 * compiled in; a null injector costs one pointer test per site.
 *
 * Supported faults:
 *  - NaN logits: overwrite one active row's step logits with NaN,
 *    either at scheduled (step, slot) trigger points or at a per-step
 *    rate. Exercises the engine's non-finite scan (kNumericFault).
 *  - KV bit flips: flip one random bit inside a random cached K/V row
 *    of a random active slot. Corrupts exactly that request's numerics
 *    (rows are sequence-independent), so its tokens may diverge — the
 *    soak test asserts everyone *else* stays bit-identical.
 *  - Allocation failure: make KVCachePool::acquire look exhausted for
 *    one admission attempt, delaying admission without losing work.
 *  - Step delay: stall the scheduler at the start of a step, before
 *    it takes the engine lock, widening race windows for
 *    submit/cancel/stop under ThreadSanitizer.
 *  - IO faults (KV spill store): open failure, ENOSPC mid-write, torn
 *    writes (success reported, file truncated), single-byte payload
 *    corruption, and short reads — every failure edge of the tiered
 *    KV storage in DESIGN.md §15. IO faults never touch numerics, so
 *    they must *never* change a request's tokens, only its
 *    restore-vs-recompute accounting.
 *
 * Requests whose numerics were touched (NaN or bit flip) are recorded
 * by id, so tests can separate "faulted" from "healthy" requests when
 * checking bit-identity against solo decodes.
 */
#ifndef QT8_SERVE_FAULT_H
#define QT8_SERVE_FAULT_H

#include <cstdint>
#include <mutex>
#include <unordered_set>
#include <vector>

#include "nn/attention.h"
#include "tensor/random.h"
#include "tensor/tensor.h"

namespace qt8::serve {

/// The fault schedule. Rates are per-opportunity probabilities in
/// [0, 1]; all zero (the default) disables every fault.
struct FaultConfig
{
    uint64_t seed = 1;

    /// Per-step probability of poisoning one active row's logits.
    double nan_logit_rate = 0.0;
    /// Scheduled NaN triggers: poison the row decoding in pool slot
    /// `slot` on scheduler step `step` (fires iff that slot is active
    /// then). Deterministic complement to nan_logit_rate.
    struct NanAt
    {
        int64_t step = 0;
        int32_t slot = 0;
    };
    std::vector<NanAt> nan_at;

    /// Per-step probability of flipping one bit in a random active
    /// slot's cached K/V panel row.
    double kv_bitflip_rate = 0.0;

    /// Per-admission-attempt probability of a simulated pool
    /// allocation failure (admission retries on a later step).
    double acquire_fail_rate = 0.0;

    /// Paged pool: per-step probability of flipping one bit inside a
    /// random resident page (shared prefix pages included — *every*
    /// request mapping the page is recorded as faulted).
    double page_bitflip_rate = 0.0;

    /// Paged pool: per-ensureTail probability of a simulated
    /// page-allocation failure (the request stalls one step).
    double page_acquire_fail_rate = 0.0;

    /// Per-step probability of sleeping delay_ms at the start of the
    /// step (engine lock not held).
    double delay_rate = 0.0;
    double delay_ms = 0.0;

    /// Per-step probability of a *forced scheduler preemption*: the
    /// engine preempts its lowest-class in-flight decode even without
    /// memory pressure (spill-and-requeue through the session tier,
    /// DESIGN.md §16). Stresses the preempt-resume identity path; it
    /// never touches numerics, so tokens must never change.
    double preempt_rate = 0.0;

    // --- IO fault family (KV spill store, DESIGN.md §15) -------------

    /// Per-open probability that a spill-file open fails (spill side:
    /// the spill is abandoned and the session stays resident; restore
    /// side: the spill is marked dead and the prompt recomputes).
    double spill_open_fail_rate = 0.0;
    /// Per-spill probability of ENOSPC mid-write: the partial file is
    /// deleted and the session stays resident.
    double spill_enospc_rate = 0.0;
    /// Per-spill probability of a *torn write*: the spill reports
    /// success but the file is truncated at a random byte — the damage
    /// surfaces as a short read on the next restore.
    double spill_torn_write_rate = 0.0;
    /// Per-spill probability of flipping one payload byte on disk
    /// after a successful write (caught by the per-page CRC on
    /// restore).
    double spill_corrupt_rate = 0.0;
    /// Per-restore probability of a simulated short read (truncated
    /// file / torn page) even when the file is intact.
    double spill_short_read_rate = 0.0;
};

/// A scheduler-side view of one active request's self page table, for
/// page-granularity fault targeting and sharer attribution.
struct PagedSeqView
{
    uint64_t id = 0;
    const std::vector<int32_t> *pages = nullptr;
    int64_t rows = 0; ///< Cached (visible) rows.
};

class FaultInjector
{
  public:
    struct Stats
    {
        int64_t nan_injected = 0;
        int64_t bits_flipped = 0;
        int64_t acquire_fails = 0;
        int64_t delays = 0;
        int64_t page_bits_flipped = 0;
        int64_t page_acquire_fails = 0;
        int64_t spill_open_fails = 0;
        int64_t spill_enospc = 0;
        int64_t spill_torn_writes = 0;
        int64_t spill_corruptions = 0;
        int64_t spill_short_reads = 0;
        int64_t forced_preempts = 0;
    };

    explicit FaultInjector(FaultConfig cfg);

    // --- Hooks, called by the scheduler (engine lock held) -----------

    /// True = pretend the pool has no free slot for this admission.
    bool onAcquire();

    /// Milliseconds to stall this step (0 = none).
    double onStepDelayMs();

    /// Poison logits rows per nan_at / nan_logit_rate. Row i of
    /// @p logits belongs to request ids[i] decoding in slots[i].
    void onLogits(int64_t step, const std::vector<uint64_t> &ids,
                  const std::vector<int32_t> &slots, Tensor &logits);

    /// Maybe flip one bit in the cached panels of a random active slot
    /// (positions < the slot's current length only).
    void onKvPanels(int64_t step, const std::vector<uint64_t> &ids,
                    const std::vector<int32_t> &slots,
                    std::vector<KVSlots> &self_layers);

    /// True = pretend the paged pool has no free page for this
    /// ensureTail (the request stalls and retries next step).
    bool onPageAcquire();

    /// Paged analogue of onKvPanels: maybe flip one bit inside a
    /// random visible page row of a random active sequence. Because a
    /// page may be mapped by several sequences (shared prefix), every
    /// sequence whose table contains the flipped physical page is
    /// recorded as faulted. Returns the flipped physical page id (so
    /// the scheduler can expel it from the prefix cache), or -1 when
    /// nothing was flipped.
    int32_t onKvPages(int64_t step, const std::vector<PagedSeqView> &seqs,
                      std::vector<KVPagePanels> &self_layers,
                      int64_t page_size);

    /// True = force a scheduler preemption this step (preempt_rate).
    bool onPreempt();

    // --- IO hooks, called by the KV spill store ----------------------

    /// What a spill-side write should pretend happened.
    enum class SpillWriteFault {
        kNone,
        kNoSpace, ///< ENOSPC mid-write: abandon, session stays resident.
        kTorn,    ///< Report success, truncate the file behind the
                  ///< caller's back (discovered at restore).
        kCorrupt, ///< Report success, flip one payload byte on disk.
    };

    /// True = pretend the spill-file open failed (EMFILE/EACCES class).
    bool onSpillOpen();
    /// Drawn once per spill after the payload is staged.
    SpillWriteFault onSpillWrite();
    /// True = pretend a read came up short during restore.
    bool onSpillRead();

    // --- Test-side accessors (thread-safe) ---------------------------

    Stats stats() const;

    /// Ids of every request whose numerics were touched (NaN logits or
    /// KV bit flip): their tokens may legitimately diverge from a solo
    /// decode, or retire kNumericFault.
    std::unordered_set<uint64_t> faultedIds() const;

    bool wasFaulted(uint64_t id) const;

  private:
    mutable std::mutex mu_; ///< Hooks run on the scheduler thread while
                            ///< tests read stats from theirs.
    FaultConfig cfg_;
    Rng rng_;
    Stats stats_;
    std::unordered_set<uint64_t> faulted_;
};

} // namespace qt8::serve

#endif // QT8_SERVE_FAULT_H
