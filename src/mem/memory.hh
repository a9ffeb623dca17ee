/**
 * @file
 * Main-memory model: a functional page-compressed backing store plus a
 * simple DDR3-like latency model with row-buffer (open-page) behaviour.
 *
 * Functional data lives here only — caches track tags and coherence
 * state, and always read/write values through this store. That is
 * sufficient because the attacks and workloads observe *timing*, not
 * stale data, and it keeps the hierarchy single-copy and bug-free.
 */

#ifndef MTRAP_MEM_MEMORY_HH
#define MTRAP_MEM_MEMORY_HH

#include <cstdint>
#include <deque>
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
     *  MemSystem::read. A read is one directory probe, a bit test and
     *  a popcount rank. This store is the only copy of functional
     *  data; the caches track tags and coherence state only. */
    std::uint64_t read(Addr addr) const
    {
        const Addr word = addr & ~static_cast<Addr>(7);
        if (const std::uint64_t *i = pageIndex_.find(word >> kPageShift)) {
            const Page &p = *reinterpret_cast<const Page *>(*i);
            const unsigned off = pageOffset(word);
            if (p.has(off))
                return p.words[p.rank(off)];
        }
        // Deterministic pseudo-contents for untouched memory.
        return mix64(word);
    }

    /** Functional write of the 64-bit word containing `addr`. */
    void write(Addr addr, std::uint64_t value);

    /** Number of distinct words ever written. */
    std::size_t footprintWords() const;

    const MemoryParams &params() const { return params_; }

    /** Checkpoint the written words as (address, value) pairs sorted
     *  by address, for deterministic bytes, and the per-bank open rows. */
    void saveState(Serializer &s) const;
    void restoreState(Deserializer &d);

  private:
    /** Words per page record: 512 x 8 B = one 4 KiB physical page. */
    static constexpr unsigned kPageShift = 12;
    static constexpr unsigned kPageWords = 1u << (kPageShift - 3);

    /** Set bits in `x`. Not std::popcount: for a baseline x86-64
     *  target (no -mpopcnt) that is a libgcc call, in the middle of the
     *  core's inlined load path. */
    static std::size_t bitCount(std::uint64_t x)
    {
        x -= (x >> 1) & 0x5555555555555555ull;
        x = (x & 0x3333333333333333ull) + ((x >> 2) & 0x3333333333333333ull);
        x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0full;
        return static_cast<std::size_t>((x * 0x0101010101010101ull) >> 56);
    }

    /** The written words of one physical page, in offset order. */
    struct Page
    {
        /** Bit `o % 64` of `written[o / 64]`: page word `o` is written. */
        std::uint64_t written[kPageWords / 64] = {};
        /** Written words in `written[0 .. j)`, for each mask word `j`. */
        std::uint16_t before[kPageWords / 64] = {};
        std::vector<std::uint64_t> words;

        bool has(unsigned off) const
        {
            return (written[off / 64] >> (off % 64)) & 1;
        }
        /** Position in `words` of page word `off`: where it is if it
         *  was written, where it goes if it was not. */
        std::size_t rank(unsigned off) const
        {
            const std::uint64_t lower =
                (std::uint64_t{1} << (off % 64)) - 1;
            return before[off / 64] + bitCount(written[off / 64] & lower);
        }
    };

    static unsigned pageOffset(Addr word)
    {
        return static_cast<unsigned>(word >> 3) & (kPageWords - 1);
    }

    unsigned bankOf(Addr addr) const;
    Addr rowOf(Addr addr) const;

    MemoryParams params_;
    /** Page directory: physical page number -> address of its record
     *  in `pages_`. Only pages with a written word have a record. */
    FlatWordMap pageIndex_{256};
    /** Page records (104 B each) in chunked storage: a new record
     *  never moves an old one, so the directory can point at them and
     *  growth copies nothing (a doubling vector held both its old and
     *  new buffers at the load-time memory peak). */
    std::deque<Page> pages_;
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
