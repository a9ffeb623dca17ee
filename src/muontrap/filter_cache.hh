/**
 * @file
 * The speculative filter cache — the paper's central structure (§4.1-§4.4).
 *
 * A filter cache is a small, 1-cycle L0 sitting between the core and the
 * L1 that captures *all* speculative memory state:
 *
 *  - Each line carries a *committed* bit (§4.2): cleared when the line
 *    was brought in by a speculative instruction, set (with a
 *    write-through to the L1) when an instruction using the line
 *    commits.
 *  - The cache is non-inclusive non-exclusive with the rest of the
 *    hierarchy, write-through, and can therefore be *flash-cleared* in a
 *    single cycle: validity lives in registers beside the SRAM (§4.3),
 *    not in coherence state.
 *  - It is virtually indexed/tagged from the CPU side and physically
 *    tagged from the memory side (§4.4); fills are physically addressed
 *    and displace any alias so a physical line is present at most once.
 *  - Coherence-wise it may only hold S (or I); the SE pseudo-state is an
 *    annotation that triggers an asynchronous upgrade at commit (§4.5).
 *
 * This class extends the generic Cache with the dual-tag lookup path and
 * the register-file valid bits; policy (when to clear, when to commit)
 * lives in MuonTrapController.
 */

#ifndef MTRAP_MUONTRAP_FILTER_CACHE_HH
#define MTRAP_MUONTRAP_FILTER_CACHE_HH

#include "cache/cache.hh"

namespace mtrap
{

/**
 * Speculative filter cache. The CPU side looks up by virtual address;
 * the coherence side (bus snoops, invalidations) addresses it physically
 * through the base-class interface.
 */
class FilterCache : public Cache
{
  public:
    FilterCache(const CacheParams &params, StatGroup *parent);

    /**
     * CPU-side lookup by virtual address + ASID. The physical address is
     * also required because the set index is formed from the shared
     * least-significant bits of both (§4.4); a hit requires both tags to
     * match (same physical line, same virtual alias, same ASID) and the
     * register-file valid bit to be set.
     */
    CacheLine *lookupVirt(Asid asid, Addr vaddr, Addr paddr);

    /**
     * Fill with both tags. Physically addressed: if another virtual
     * alias of the same physical line is present it is overwritten, so
     * only one copy of each physical line ever exists (§4.4).
     *
     * @param speculative sets the committed bit accordingly
     * @param fill_level  hierarchy level the data came from (1/2/3)
     * @param se_pending  MuonTrap SE pseudo-state annotation
     */
    CacheLine &fillVirt(Asid asid, Addr vaddr, Addr paddr,
                        bool speculative, std::uint8_t fill_level,
                        bool se_pending, Eviction *ev = nullptr);

    /**
     * Flash clear (§4.3): clears every register-file valid bit in one
     * cycle; SRAM contents are untouched but unreachable. Constant time
     * regardless of occupancy — asserted by tests as the security-
     * relevant property (contrast CleanupSpec's state-dependent undo).
     */
    void flashClear();

    /** Number of flash clears performed. */
    std::uint64_t flashClearCount() const { return flashClears.value(); }

    /** Physical-side invalidation used by the coherence logic. */
    bool invalidate(Addr paddr) override;

    void invalidateAll() override { flashClear(); }

    /** The base-class peek honours valid bits via state==Invalid; expose
     *  a checked variant for tests: is the line present *and* valid? */
    bool presentValid(Addr paddr);

    /** Base cache state plus valid bits and virtual tags. */
    void saveState(Serializer &s) const override;
    void restoreState(Deserializer &d) override;

  private:
    /** Register-file valid bit per line (parallel-clearable). */
    std::vector<bool> validBit_;

    /**
     * Virtual tag + ASID per line, parallel to the base line array.
     * Kept out of CacheLine so the (much larger) non-speculative
     * caches' line arrays stay small; only stale when the valid bit is
     * clear or until fillVirt() rewrites it after a physical fill.
     */
    struct VirtTag
    {
        Addr vtag = kAddrInvalid;
        Asid asid = 0;
    };
    std::vector<VirtTag> vtags_;

    unsigned wayOf(const CacheLine *l) const;

    StatGroup fstats_;

  public:
    Counter flashClears;
    Counter aliasOverwrites;
    Counter speculativeFills;
    Counter committedFills;
    Counter uncommittedEvictions;
};

} // namespace mtrap

#endif // MTRAP_MUONTRAP_FILTER_CACHE_HH
