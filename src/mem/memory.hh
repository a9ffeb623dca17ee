/**
 * @file
 * Main-memory model: a functional sparse backing store plus a simple
 * DDR3-like latency model with row-buffer (open-page) behaviour.
 *
 * Functional data lives here only — caches track tags and coherence
 * state, and always read/write values through this store. That is
 * sufficient because the attacks and workloads observe *timing*, not
 * stale data, and it keeps the hierarchy single-copy and bug-free.
 */

#ifndef MTRAP_MEM_MEMORY_HH
#define MTRAP_MEM_MEMORY_HH

#include <cstdint>
#include <vector>

#include "common/flat_map.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "mem/access.hh"

namespace mtrap
{

class Serializer;
class Deserializer;

/** Timing parameters for the DRAM model (defaults ~ DDR3-1600 in core
 *  cycles at 2 GHz, matching Table 1's "DDR3-1600 11-11-11-28"). */
struct MemoryParams
{
    /** Latency for a row-buffer hit. */
    Cycle rowHitLatency = 50;
    /** Latency for a row-buffer miss (precharge + activate + CAS). */
    Cycle rowMissLatency = 110;
    /** Number of independent banks. */
    unsigned banks = 16;
    /** Bytes per DRAM row. */
    std::uint64_t rowBytes = 8192;
};

/**
 * Main memory: functional 64-bit-word store + bank/row timing.
 */
class MainMemory
{
  public:
    MainMemory(const MemoryParams &params, StatGroup *parent);

    /** Timing access for one cache line; returns latency in cycles. */
    Cycle access(const Access &acc);

    /** Functional read of the 64-bit word containing `addr`. Unwritten
     *  memory reads as a deterministic hash of the address, so workloads
     *  see stable, non-zero "data" without pre-initialisation. Inline:
     *  every functional load of every core lands here, through
     *  MemSystem::read. This store is the only copy of functional
     *  data; the caches track tags and coherence state only. */
    std::uint64_t read(Addr addr) const
    {
        const Addr word = addr & ~static_cast<Addr>(7);
        if (const std::uint64_t *v = store_.find(word))
            return *v;
        // Deterministic pseudo-contents for untouched memory.
        return mix64(word);
    }

    /** Functional write of the 64-bit word containing `addr`. */
    void write(Addr addr, std::uint64_t value)
    {
        store_.put(addr & ~static_cast<Addr>(7), value);
    }

    /** Number of distinct words ever written. */
    std::size_t footprintWords() const { return store_.size(); }

    const MemoryParams &params() const { return params_; }

    /** Checkpoint the word store (sorted by address for deterministic
     *  bytes) and the per-bank open rows. */
    void saveState(Serializer &s) const;
    void restoreState(Deserializer &d);

  private:
    unsigned bankOf(Addr addr) const;
    Addr rowOf(Addr addr) const;

    MemoryParams params_;
    /** Sparse word store; open-addressing map because every functional
     *  load lands here. */
    FlatWordMap store_;
    /** Currently open row per bank (kAddrInvalid = closed). */
    std::vector<Addr> openRow_;

    StatGroup stats_;

  public:
    Counter reads;
    Counter writes;
    Counter rowHits;
    Counter rowMisses;
};

} // namespace mtrap

#endif // MTRAP_MEM_MEMORY_HH
