/**
 * @file
 * Address spaces, TLBs and the filter TLB (paper §4.7).
 *
 * AddressSpace gives every (asid, virtual page) a deterministic physical
 * page, with explicit aliasing so two processes (or a process and the
 * kernel) can share physical memory — required by the attack kernels.
 *
 * The main TLB is fully associative with LRU replacement. Under
 * MuonTrap, speculative translations are installed only in a small
 * *filter TLB*; they are promoted to the main TLB when the instruction
 * that used them commits, and the filter TLB is flash-cleared on
 * protection-domain switches just like the filter caches.
 */

#ifndef MTRAP_TLB_TLB_HH
#define MTRAP_TLB_TLB_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace mtrap
{

class Serializer;
class Deserializer;

/**
 * Global virtual-to-physical mapping authority (one per simulated
 * system). Default mappings are a deterministic per-ASID hash; explicit
 * aliases pin ranges to chosen physical pages for sharing.
 */
class AddressSpace
{
  public:
    AddressSpace();

    /** Translate a virtual address under `asid` to a physical address. */
    Addr translate(Asid asid, Addr vaddr) const;

    /** Pin `[vaddr, vaddr+bytes)` of `asid` to physical base `paddr`
     *  (page aligned). Used to create shared memory between domains. */
    void alias(Asid asid, Addr vaddr, Addr paddr, std::uint64_t bytes);

    /**
     * Physical address of the level-`level` page-table entry used when
     * walking `vaddr` of `asid` (levels 0..3, root first). These live in
     * a reserved physical region so PTW traffic is distinguishable and
     * cacheable.
     */
    Addr pteAddr(Asid asid, Addr vaddr, unsigned level) const;

    /** Number of levels in a page-table walk. */
    static constexpr unsigned kWalkLevels = 4;

  private:
    std::unordered_map<std::uint64_t, Addr> aliases_;

    /** Last translation, (asid,vpn) -> ppn: translate() is a pure
     *  function of its inputs (given the alias table), sits under every
     *  functional load, and accesses have strong page locality. alias()
     *  invalidates it. */
    mutable std::uint64_t mruKey_ = ~std::uint64_t{0};
    mutable Addr mruPpn_ = kAddrInvalid;

    static std::uint64_t key(Asid asid, Addr vpn);
};

/** One TLB translation entry. */
struct TlbEntry
{
    Asid asid = 0;
    Addr vpn = kAddrInvalid;
    Addr ppn = kAddrInvalid;
    std::uint64_t lastUse = 0;
    bool valid = false;
};

/** TLB configuration. */
struct TlbParams
{
    StatName name = "tlb";
    unsigned entries = 64;
};

/**
 * Fully-associative LRU TLB.
 */
class Tlb
{
  public:
    Tlb(const TlbParams &params, StatGroup *parent);

    /** Look up a translation; nullptr on miss. Updates LRU on hit.
     *  Inline: sits under every data and instruction access. */
    const TlbEntry *lookup(Asid asid, Addr vaddr)
    {
        const Addr vpn = pageNum(vaddr);
        if (mru_ && mru_->valid && mru_->asid == asid &&
            mru_->vpn == vpn) {
            mru_->lastUse = ++stamp_;
            ++hits;
            return mru_;
        }
        return lookupSlow(asid, vpn);
    }

    /** Install (or refresh) a translation; returns whether a valid
     *  entry was evicted (the TLB prime-and-probe observable). */
    bool insert(Asid asid, Addr vaddr, Addr paddr);

    /**
     * Install a translation the caller knows is absent (a lookup on
     * this TLB just missed, with no intervening insert): skips the
     * presence scan and takes the first free slot from a bitmask in
     * O(1). Victim choice is identical to insert() — lowest invalid
     * index, else the first-minimum LRU entry.
     */
    bool insertAbsent(Asid asid, Addr vaddr, Addr paddr);

    /** Drop a specific translation if present. */
    bool invalidate(Asid asid, Addr vaddr);

    /** Drop everything (context switch for the filter TLB). */
    void flush();

    unsigned validCount() const;
    unsigned capacity() const { return params_.entries; }

    /** Checkpoint entries, LRU stamp and free mask. The MRU hint is
     *  reset on restore: the fallback scan repeats the full compare and
     *  counts identically, so behaviour is unchanged. */
    void saveState(Serializer &s) const;
    void restoreState(Deserializer &d);

  private:
    /** Associative scan behind the MRU fast path (takes the vpn). */
    const TlbEntry *lookupSlow(Asid asid, Addr vpn);

    /** Fill `victim` (bumping eviction/insertion stats and the free
     *  mask) and report whether a valid entry died. */
    bool installAt(TlbEntry *victim, bool evicted, Asid asid, Addr vpn,
                   Addr paddr);

    /** Free-slot bitmask maintained only for <=64-entry TLBs. */
    bool trackFree() const { return params_.entries <= 64; }

    TlbParams params_;
    std::vector<TlbEntry> entries_;
    /** Bit i set = entries_[i] invalid (all-free value; see ctor). */
    std::uint64_t allFreeMask_ = 0;
    std::uint64_t freeMask_ = 0;
    std::uint64_t stamp_ = 0;
    /** Most-recently-hit entry: accesses have strong page locality, so
     *  checking it first skips the associative scan almost always. The
     *  full valid/asid/vpn compare is repeated on the hint, so a stale
     *  hint (after invalidate/flush/overwrite) just falls back. */
    TlbEntry *mru_ = nullptr;

    StatGroup stats_;

  public:
    Counter hits;
    Counter misses;
    Counter insertions;
    Counter evictions;
    Counter flushes;
};

} // namespace mtrap

#endif // MTRAP_TLB_TLB_HH
