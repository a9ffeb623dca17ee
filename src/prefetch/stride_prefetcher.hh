/**
 * @file
 * PC-indexed stride prefetcher attached to the shared L2 (Table 1).
 *
 * In an unprotected system the prefetcher trains on every access as it
 * executes — including speculative, wrong-path ones, which is the leak
 * exploited by the paper's attack 5. Under MuonTrap's commit-ordered
 * prefetching (§4.6), MemSystem trains it only when a filter line
 * filled from the L2 or memory commits, in commit order.
 */

#ifndef MTRAP_PREFETCH_STRIDE_PREFETCHER_HH
#define MTRAP_PREFETCH_STRIDE_PREFETCHER_HH

#include <cstdint>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace mtrap
{

class CoherenceBus;
class Serializer;
class Deserializer;

/** Stride-prefetcher configuration. */
struct PrefetcherParams
{
    /** Entries in the PC-indexed stride table. */
    unsigned tableEntries = 64;
    /** Confidence needed before prefetches are issued. */
    unsigned confidenceThreshold = 2;
    /** Saturating confidence ceiling. */
    unsigned confidenceMax = 4;
    /** Prefetch distance (lines ahead of the trained stride; gem5's
     *  stride prefetcher runs several lines deep). */
    unsigned degree = 4;
};

/**
 * Classic per-PC stride detector. `train()` observes a (pc, line
 * address) pair and may issue prefetch fills through the bus.
 */
class StridePrefetcher
{
  public:
    StridePrefetcher(const PrefetcherParams &params, CoherenceBus *bus,
                     StatGroup *parent);

    /** Observe one demand access and possibly issue prefetches. */
    void train(Addr pc, Addr paddr);

    /** Drop all training state (context-switch hygiene in tests). */
    void reset();

    /** Checkpoint the stride table. */
    void saveState(Serializer &s) const;
    void restoreState(Deserializer &d);

    const PrefetcherParams &params() const { return params_; }

  private:
    struct Entry
    {
        Addr pc = kAddrInvalid;
        Addr lastLine = 0;
        std::int64_t stride = 0;
        unsigned confidence = 0;
    };

    Entry &entryFor(Addr pc);

    PrefetcherParams params_;
    CoherenceBus *bus_;
    std::vector<Entry> table_;

    StatGroup stats_;

  public:
    Counter trains;
    Counter issued;
    Counter usefulFills;
};

} // namespace mtrap

#endif // MTRAP_PREFETCH_STRIDE_PREFETCHER_HH
