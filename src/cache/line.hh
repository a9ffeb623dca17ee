/**
 * @file
 * Cache-line metadata shared by non-speculative caches and the
 * speculative filter caches.
 *
 * Data values are never stored in lines (see mem/memory.hh); a line is
 * pure metadata: tag(s), MESI state, and the MuonTrap additions — the
 * *committed* bit, the fill-level tag used for prefetch-commit
 * notifications, and the SE pseudo-state marker (paper §4.2, §4.5, §4.6).
 */

#ifndef MTRAP_CACHE_LINE_HH
#define MTRAP_CACHE_LINE_HH

#include "common/types.hh"

namespace mtrap
{

/** MESI coherence state. Filter caches may only ever be I or S (with the
 *  SE annotation riding on top of S). */
enum class CoherState : std::uint8_t
{
    Invalid,
    Shared,
    Exclusive,
    Modified,
};

/** Human-readable state name. */
const char *coherStateName(CoherState s);

/**
 * Metadata for one cache line.
 *
 * Kept deliberately small (24 bytes): the line arrays of a Table-1
 * system total several megabytes and every lookup/peek walks them, so
 * their footprint sets the simulator's hardware-cache behaviour. The
 * filter caches' virtual tags live in a FilterCache-side array rather
 * than here.
 */
struct CacheLine
{
    /** Physical line number (paddr >> kLineShift); tag+index combined. */
    Addr ptag = kAddrInvalid;
    /** LRU stamp: the owning cache's clock at the last hit or fill. */
    std::uint64_t replStamp = 0;
    CoherState state = CoherState::Invalid;
    /**
     * MuonTrap committed bit (§4.2): false while the line was brought in
     * by a still-speculative instruction. Always true in non-speculative
     * caches.
     */
    bool committed = true;
    /**
     * SE pseudo-state (§4.5): the line behaves as Shared, but when the
     * owning load commits the L1 launches an asynchronous upgrade to E.
     */
    bool sePending = false;
    /** Dirty bit for write-back caches. */
    bool dirty = false;
    /** Deepest hierarchy level the fill came from (1=L1,2=L2,3=mem);
     *  selects the prefetch-commit notification target (§4.6). */
    std::uint8_t fillLevel = 0;
    /** True if the line was installed by a prefetch and not yet demand
     *  referenced (prefetcher accuracy accounting). */
    bool prefetched = false;

    bool valid() const { return state != CoherState::Invalid; }

    /** Reset to an empty line. */
    void
    clear()
    {
        *this = CacheLine();
    }
};

} // namespace mtrap

#endif // MTRAP_CACHE_LINE_HH
