#include "cpu/branch_predictor.hh"

#include "common/log.hh"
#include "snapshot/snapshot.hh"

namespace mtrap
{

namespace
{

StatSchema &
bpredStatSchema()
{
    static StatSchema s("bpred");
    return s;
}

double
bpredMispredictRate(const void *ctx)
{
    const BranchPredictor *p = static_cast<const BranchPredictor *>(ctx);
    const double l = static_cast<double>(p->lookups.value());
    return l > 0 ? static_cast<double>(p->mispredicts.value()) / l : 0.0;
}

} // namespace

BranchPredictor::BranchPredictor(const BranchPredictorParams &params,
                                 StatGroup *parent)
    : params_(params),
      localHistory_(params.localEntries, 0),
      localCounters_(1u << params.localHistoryBits, 1),
      globalCounters_(params.globalEntries, 1),
      chooser_(params.chooserEntries, 1),
      btb_(params.btbEntries),
      ras_(params.rasEntries, kAddrInvalid),
      stats_(bpredStatSchema(), "bpred", parent),
      lookups(&stats_, "lookups", "conditional-branch predictions"),
      mispredicts(&stats_, "mispredicts", "direction mispredictions"),
      btbHits(&stats_, "btb_hits", "indirect predictions with a BTB entry"),
      btbMisses(&stats_, "btb_misses", "indirect predictions without one"),
      mispredictRate(&stats_, "mispredict_rate",
                     "mispredicts / lookups",
                     &bpredMispredictRate, this)
{
    if (!isPow2(params.localEntries) || !isPow2(params.globalEntries) ||
        !isPow2(params.chooserEntries) || !isPow2(params.btbEntries))
        fatal("branch predictor tables must be powers of two");
}

void
BranchPredictor::bump(std::uint8_t &c, bool up)
{
    if (up) {
        if (c < 3)
            ++c;
    } else {
        if (c > 0)
            --c;
    }
}

unsigned
BranchPredictor::counterIndexLocal(Addr pc)
{
    const unsigned hist_idx =
        static_cast<unsigned>(pc) & (params_.localEntries - 1);
    const std::uint16_t hist = localHistory_[hist_idx];
    return hist & ((1u << params_.localHistoryBits) - 1);
}

unsigned
BranchPredictor::counterIndexGlobal(Addr pc) const
{
    return static_cast<unsigned>(pc ^ globalHistory_)
           & (params_.globalEntries - 1);
}

bool
BranchPredictor::predictDirection(Addr pc)
{
    ++lookups;
    const bool local_pred = taken2bit(localCounters_[counterIndexLocal(pc)]);
    const bool global_pred =
        taken2bit(globalCounters_[counterIndexGlobal(pc)]);
    const unsigned ch_idx =
        static_cast<unsigned>(pc) & (params_.chooserEntries - 1);
    const bool use_global = taken2bit(chooser_[ch_idx]);
    return use_global ? global_pred : local_pred;
}

void
BranchPredictor::trainDirection(Addr pc, bool taken)
{
    const unsigned hist_idx =
        static_cast<unsigned>(pc) & (params_.localEntries - 1);
    const unsigned local_idx = counterIndexLocal(pc);
    const unsigned global_idx = counterIndexGlobal(pc);
    const unsigned ch_idx =
        static_cast<unsigned>(pc) & (params_.chooserEntries - 1);

    const bool local_pred = taken2bit(localCounters_[local_idx]);
    const bool global_pred = taken2bit(globalCounters_[global_idx]);

    // Chooser trains towards whichever component was right.
    if (local_pred != global_pred)
        bump(chooser_[ch_idx], global_pred == taken);

    bump(localCounters_[local_idx], taken);
    bump(globalCounters_[global_idx], taken);

    localHistory_[hist_idx] = static_cast<std::uint16_t>(
        (localHistory_[hist_idx] << 1) | (taken ? 1 : 0));
    globalHistory_ = (globalHistory_ << 1) | (taken ? 1 : 0);
}

Addr
BranchPredictor::predictTarget(Addr pc)
{
    const BtbEntry &e = btb_[static_cast<unsigned>(pc)
                             & (params_.btbEntries - 1)];
    if (e.pc == pc) {
        ++btbHits;
        return e.target;
    }
    ++btbMisses;
    return kAddrInvalid;
}

void
BranchPredictor::trainTarget(Addr pc, Addr target)
{
    if (pc >= kBtbInvalid || target >= kBtbInvalid)
        panic("BTB: pc %#llx -> %#llx is not a 32-bit instruction index",
              static_cast<unsigned long long>(pc),
              static_cast<unsigned long long>(target));
    BtbEntry &e = btb_[static_cast<unsigned>(pc)
                       & (params_.btbEntries - 1)];
    e.pc = static_cast<std::uint32_t>(pc);
    e.target = static_cast<std::uint32_t>(target);
}

void
BranchPredictor::pushReturn(Addr return_pc)
{
    ras_[rasTop_] = return_pc;
    rasTop_ = (rasTop_ + 1) % params_.rasEntries;
}

Addr
BranchPredictor::popReturn()
{
    rasTop_ = (rasTop_ + params_.rasEntries - 1) % params_.rasEntries;
    const Addr r = ras_[rasTop_];
    ras_[rasTop_] = kAddrInvalid;
    return r;
}

BranchPredictor::Snapshot
BranchPredictor::snapshot() const
{
    return Snapshot{globalHistory_, ras_, rasTop_};
}

void
BranchPredictor::snapshotInto(Snapshot &s) const
{
    s.globalHistory = globalHistory_;
    s.ras = ras_;
    s.rasTop = rasTop_;
}

void
BranchPredictor::restore(const Snapshot &s)
{
    globalHistory_ = s.globalHistory;
    ras_ = s.ras;
    rasTop_ = s.rasTop;
}

void
BranchPredictor::saveState(Serializer &s) const
{
    s.vec(localHistory_);
    s.vec(localCounters_);
    s.vec(globalCounters_);
    s.vec(chooser_);
    s.u64(globalHistory_);
    s.u64(btb_.size());
    // u64 fields, an empty one as kAddrInvalid: the bytes predate the
    // 32-bit entries.
    auto wide = [](std::uint32_t v) {
        return v == kBtbInvalid ? kAddrInvalid : Addr{v};
    };
    for (const BtbEntry &e : btb_) {
        s.u64(wide(e.pc));
        s.u64(wide(e.target));
    }
    s.vec(ras_);
    s.u32(rasTop_);
}

void
BranchPredictor::restoreState(Deserializer &d)
{
    auto restoreSized = [&](auto &v, const char *what) {
        std::remove_reference_t<decltype(v)> in;
        d.vec(in);
        if (in.size() != v.size())
            throw SnapshotError(std::string(what) + " size mismatch");
        v = std::move(in);
    };
    restoreSized(localHistory_, "local history");
    restoreSized(localCounters_, "local counters");
    restoreSized(globalCounters_, "global counters");
    restoreSized(chooser_, "chooser");
    globalHistory_ = d.u64();
    if (d.u64() != btb_.size())
        throw SnapshotError("BTB size mismatch");
    auto narrow = [&d]() {
        const std::uint64_t v = d.u64();
        if (v == kAddrInvalid)
            return kBtbInvalid;
        if (v >= kBtbInvalid)
            throw SnapshotError("BTB pc or target is not a 32-bit index");
        return static_cast<std::uint32_t>(v);
    };
    for (BtbEntry &e : btb_) {
        e.pc = narrow();
        e.target = narrow();
        // trainTarget always writes both; a hit on this entry would
        // return the 32-bit empty marker instead of kAddrInvalid.
        if (e.pc != kBtbInvalid && e.target == kBtbInvalid)
            throw SnapshotError("BTB entry has a pc but no target");
    }
    restoreSized(ras_, "RAS");
    rasTop_ = d.u32();
}

} // namespace mtrap
