/**
 * @file
 * Tournament branch predictor matching Table 1: 2048-entry local
 * predictor, 8192-entry global (gshare-style) predictor, 2048-entry
 * chooser, 4096-entry BTB and a 16-entry return-address stack.
 *
 * Deliberately *not* tagged by ASID: like pre-mitigation hardware, the
 * predictor and BTB are shared across protection domains, which is what
 * makes the Spectre training attacks in workload/attacks.cc work.
 * (MuonTrap leaves predictor isolation to orthogonal mechanisms, §4.9.)
 */

#ifndef MTRAP_CPU_BRANCH_PREDICTOR_HH
#define MTRAP_CPU_BRANCH_PREDICTOR_HH

#include <cstdint>
#include <vector>

#include "common/buffer_pool.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace mtrap
{

class Serializer;
class Deserializer;

/** Predictor sizing. */
struct BranchPredictorParams
{
    unsigned localEntries = 2048;
    unsigned localHistoryBits = 10;
    unsigned globalEntries = 8192;
    unsigned chooserEntries = 2048;
    unsigned btbEntries = 4096;
    unsigned rasEntries = 16;
};

/**
 * Tournament predictor with BTB and RAS. PCs are instruction indices
 * (the core's view). The BTB stores pc and target as 32-bit indices, so
 * both must be below 2^32 - 1 (the top value marks an empty entry);
 * Core::WinEntry::pcIndex makes the same assumption.
 */
class BranchPredictor
{
  public:
    BranchPredictor(const BranchPredictorParams &params, StatGroup *parent);

    /** Predict the direction of a conditional branch at `pc`. */
    bool predictDirection(Addr pc);

    /**
     * Train with the actual outcome. Call for every executed conditional
     * branch on the committed path.
     */
    void trainDirection(Addr pc, bool taken);

    /** Predicted target of an indirect branch at `pc`; kAddrInvalid if
     *  the BTB has no entry. */
    Addr predictTarget(Addr pc);

    /** Install/refresh a BTB entry (pc and target below 2^32 - 1). */
    void trainTarget(Addr pc, Addr target);

    /** RAS push on call. */
    void pushReturn(Addr return_pc);

    /** RAS pop on return; kAddrInvalid when empty. */
    Addr popReturn();

    /** Snapshot/restore of the speculation-visible state (global history
     *  and RAS) around wrong-path execution. */
    struct Snapshot
    {
        std::uint64_t globalHistory = 0;
        std::vector<Addr> ras;
        unsigned rasTop = 0;
    };
    Snapshot snapshot() const;
    /** Snapshot into existing storage (reuses the RAS vector's capacity;
     *  the checkpoint-pool path, taken on every mispredict). */
    void snapshotInto(Snapshot &s) const;
    void restore(const Snapshot &s);

    /** Checkpoint every table (histories, counters, BTB, RAS). */
    void saveState(Serializer &s) const;
    void restoreState(Deserializer &d);

  private:
    unsigned counterIndexLocal(Addr pc);
    unsigned counterIndexGlobal(Addr pc) const;

    static bool taken2bit(std::uint8_t c) { return c >= 2; }
    static void bump(std::uint8_t &c, bool up);

    BranchPredictorParams params_;
    std::vector<std::uint16_t> localHistory_;
    std::vector<std::uint8_t> localCounters_;
    std::vector<std::uint8_t> globalCounters_;
    std::vector<std::uint8_t> chooser_;
    std::uint64_t globalHistory_ = 0;

    /** Empty BTB field; reads back as kAddrInvalid. */
    static constexpr std::uint32_t kBtbInvalid = 0xffff'ffffu;
    struct BtbEntry
    {
        std::uint32_t pc = kBtbInvalid;
        std::uint32_t target = kBtbInvalid;
    };
    static_assert(sizeof(BtbEntry) == 8, "two 32-bit instruction indices");
    /** 4096 x 8 B: pool-allocated, rebuilt with every System. */
    std::vector<BtbEntry, PoolAllocator<BtbEntry>> btb_;

    std::vector<Addr> ras_;
    unsigned rasTop_ = 0;

    StatGroup stats_;

  public:
    Counter lookups;
    Counter mispredicts;
    Counter btbHits;
    Counter btbMisses;
    Formula mispredictRate;
};

} // namespace mtrap

#endif // MTRAP_CPU_BRANCH_PREDICTOR_HH
