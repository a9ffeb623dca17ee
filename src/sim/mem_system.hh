/**
 * @file
 * The complete memory system: per-core filter caches + L1s + TLBs,
 * shared L2 with stride prefetcher, snooping MESI bus, and main memory,
 * with per-scheme access walks.
 *
 * This is where the paper's mechanisms meet: execute-time accesses are
 * routed into filter structures when MuonTrap is enabled (with the
 * coherence and prefetch restrictions), and commit-time hooks perform
 * the write-through-at-commit, SE upgrades, commit-ordered prefetcher
 * training and filter-TLB promotion.
 */

#ifndef MTRAP_SIM_MEM_SYSTEM_HH
#define MTRAP_SIM_MEM_SYSTEM_HH

#include <memory>
#include <vector>

#include "cache/cache.hh"
#include "coherence/bus.hh"
#include "common/stats.hh"
#include "cpu/mem_iface.hh"
#include "defense/invisispec.hh"
#include "mem/memory.hh"
#include "muontrap/controller.hh"
#include "prefetch/stride_prefetcher.hh"
#include "tlb/tlb.hh"
#include "tlb/walker.hh"

namespace mtrap
{

/** Hierarchy-wide configuration (defaults = paper Table 1). */
struct MemSystemParams
{
    unsigned cores = 1;

    CacheParams l1d{/*name=*/"l1d", /*size=*/64 * 1024, /*assoc=*/2,
                    /*hitLatency=*/2, /*mshrs=*/4};
    CacheParams l1i{/*name=*/"l1i", /*size=*/32 * 1024, /*assoc=*/2,
                    /*hitLatency=*/1, /*mshrs=*/4};
    CacheParams l2{/*name=*/"l2", /*size=*/2 * 1024 * 1024, /*assoc=*/8,
                   /*hitLatency=*/20, /*mshrs=*/16};
    TlbParams dtlb{/*name=*/"dtlb", /*entries=*/64};
    TlbParams itlb{/*name=*/"itlb", /*entries=*/64};
    BusParams bus{};
    MemoryParams mem{};
    PrefetcherParams prefetcher{};
    bool l2PrefetcherEnabled = true;

    MuonTrapConfig mt{};
};

/**
 * Concrete MemIface implementation shared by every scheme. Also the
 * PTE-read sink for its per-core page-table walkers.
 */
class MemSystem final : public MemIface, public PtwAccessIface
{
  public:
    MemSystem(const MemSystemParams &params, StatGroup *parent);
    ~MemSystem() override;

    const MemSystemParams &params() const { return params_; }

    // --- MemIface ---------------------------------------------------------
    DataAccessResult dataAccess(CoreId core, Asid asid, Addr vaddr,
                                Addr pc, bool is_store, bool speculative,
                                Cycle when) override;
    Cycle dataProbe(CoreId core, Asid asid, Addr vaddr,
                    Cycle when) override;
    bool dataHitsPrivate(CoreId core, Asid asid, Addr vaddr) override;
    Cycle ifetchAccess(CoreId core, Asid asid, Addr vaddr,
                       Cycle when) override;
    void commitData(CoreId core, Asid asid, Addr vaddr, Addr pc,
                    bool is_store, bool tlb_missed, Cycle when) override;
    void commitIfetch(CoreId core, Asid asid, Addr vaddr,
                      Cycle when) override;
    void onSyscall(CoreId core, Cycle when) override;
    void onSandboxSwitch(CoreId core, Cycle when) override;
    void onContextSwitch(CoreId core, Cycle when) override;
    void onFlushBarrier(CoreId core, Cycle when) override;
    void onSquash(CoreId core, Cycle when) override;
    /** Inline: it sits under every functional load of every core. */
    std::uint64_t
    read(Asid asid, Addr vaddr) override
    {
        return mem_->read(vm_.translate(asid, vaddr));
    }
    void write(Asid asid, Addr vaddr, std::uint64_t value) override;
    /** The core's identity selects nothing: functional data is single
     *  copy. Declared here so that callers holding a MemSystem& (which
     *  hides MemIface's default by name) still find it. */
    std::uint64_t
    read(CoreId, Asid asid, Addr vaddr) override
    {
        return read(asid, vaddr);
    }

    // --- PtwAccessIface -----------------------------------------------------
    /** Walker PTE read: a physically-addressed load down the data path
     *  of the issuing core (acc.core). */
    AccessResult ptwAccess(const Access &acc) override;

    // --- component access (tests, attacks, examples) -----------------------
    AddressSpace &addressSpace() { return vm_; }
    MainMemory &memory() { return *mem_; }
    Cache &l2() { return *l2_; }
    CoherenceBus &bus() { return *bus_; }
    Cache &l1d(CoreId c) { return *l1d_.at(c); }
    Cache &l1i(CoreId c) { return *l1i_.at(c); }
    Tlb &dtlb(CoreId c) { return *dtlb_.at(c); }
    Tlb &itlb(CoreId c) { return *itlb_.at(c); }
    MuonTrapCore &muontrap(CoreId c) { return *mt_.at(c); }
    StridePrefetcher *prefetcher() { return prefetcher_.get(); }

    /** Route memory-side trace hooks (bus, MuonTrap filters, spec
     *  buffers) into `tracer`; null detaches. */
    void setTracer(Tracer *tracer);

    /**
     * Timing probe used by attack kernels to model a victim/attacker
     * *measuring* an access: returns the latency a demand load would see
     * right now, without changing any state anywhere (a perfect stop-
     * watch). `vaddr` is translated functionally.
     */
    Cycle timeProbe(CoreId core, Asid asid, Addr vaddr);

    /** Like timeProbe, but for a *store*: how long would it take this
     *  core to gain write ownership of `vaddr` right now? (Attack 3
     *  measures exactly this.) */
    Cycle timeStoreProbe(CoreId core, Asid asid, Addr vaddr);

    /** Like timeProbe, but through the instruction side (attack 6). */
    Cycle timeIfetchProbe(CoreId core, Asid asid, Addr vaddr);

    /**
     * Checkpoint the whole hierarchy: main memory (written words and
     * open DRAM rows), L2,
     * prefetcher (when enabled), then per core the
     * L1s, TLBs, MuonTrap filters and spec buffer. The bus and walkers
     * hold no mutable state beyond statistics.
     */
    void saveState(Serializer &s) const;
    void restoreState(Deserializer &d);

  private:
    struct Translation
    {
        Addr paddr = kAddrInvalid;
        Cycle latency = 0;
        bool miss = false;
    };

    /** Split hot/cold: translate() is the TLB-hit fast path (small
     *  enough to inline into the access walks); the filter-TLB probe
     *  and hardware walk live in translateMiss(). */
    inline Translation translate(CoreId core, Asid asid, Addr vaddr,
                                 Cycle when, bool speculative, bool ifetch)
        __attribute__((always_inline));
    Translation translateMiss(Tlb &tlb, CoreId core, Asid asid,
                              Addr vaddr, Cycle when, bool speculative);

    /** Post-translation data walk (also the page-table walker's entry
     *  point, where vaddr == paddr). */
    DataAccessResult dataAccessPhys(CoreId core, Asid asid, Addr vaddr,
                                    Addr paddr, Addr pc, bool is_store,
                                    bool speculative, Cycle when);

    /** Install a line into a non-speculative L1, handling the dirty
     *  victim writeback to L2. */
    CacheLine &fillL1(Cache &l1, Addr paddr, CoherState st);

    /** Commit one filter line: set the committed bit, write through to
     *  the L1 (honouring SE), mirror into the L2, and train the L2
     *  prefetcher (trainAtCommit). */
    void commitFilterLine(CoreId core, CacheLine &line, Addr paddr,
                          Addr pc, Cycle when);

    /** Commit-ordered prefetcher training (§4.6): under
     *  MuonTrapConfig::commitPrefetch, a committed line filled from the
     *  L2 or memory (`fill_level` >= 2) trains the L2 prefetcher. */
    void trainAtCommit(Addr pc, Addr paddr, unsigned fill_level);

    /** Latency a probe adds below an L1D miss: a bus transaction, then
     *  a remote exclusive owner's supply, an L2 hit or a DRAM row miss.
     *  Touches nothing (the probes' shared tail). */
    Cycle probeBelowL1(CoreId core, Addr paddr);

    /** Baseline (no-L0) data walk. */
    DataAccessResult baselineDataAccess(CoreId core, Asid asid, Addr paddr,
                                        Addr pc, bool is_store,
                                        Cycle when, Cycle lat_so_far);

    /** MuonTrap / insecure-L0 data walk. */
    DataAccessResult filterDataAccess(CoreId core, Asid asid, Addr vaddr,
                                      Addr paddr, Addr pc, bool is_store,
                                      bool speculative, Cycle when,
                                      Cycle lat_so_far);

    MemSystemParams params_;
    AddressSpace vm_;
    std::unique_ptr<MainMemory> mem_;
    std::unique_ptr<Cache> l2_;
    std::unique_ptr<CoherenceBus> bus_;
    std::unique_ptr<StridePrefetcher> prefetcher_;

    /**
     * Raw per-core component pointers for the access hot paths: one
     * contiguous load instead of a vector<unique_ptr> double
     * indirection per component touch. The unique_ptr vectors below
     * own the objects.
     */
    struct CoreSide
    {
        Cache *l1d;
        Cache *l1i;
        Tlb *dtlb;
        Tlb *itlb;
        MuonTrapCore *mt;
        PageTableWalker *walker;
        SpecBuffer *spec;
    };
    std::vector<CoreSide> side_;

    std::vector<std::unique_ptr<Cache>> l1d_;
    std::vector<std::unique_ptr<Cache>> l1i_;
    std::vector<std::unique_ptr<Tlb>> dtlb_;
    std::vector<std::unique_ptr<Tlb>> itlb_;
    std::vector<std::unique_ptr<MuonTrapCore>> mt_;
    std::vector<std::unique_ptr<PageTableWalker>> walker_;
    std::vector<std::unique_ptr<SpecBuffer>> specBuffer_;

    StatGroup stats_;

  public:
    Counter dataAccesses;
    Counter ifetchAccesses;
    Counter probes;
    Counter recommitFetches;
    Counter commitWriteThroughs;
    Counter seUpgradeRequests;
    Counter dramDemand;
    Counter dramPtw;
};

} // namespace mtrap

#endif // MTRAP_SIM_MEM_SYSTEM_HH
