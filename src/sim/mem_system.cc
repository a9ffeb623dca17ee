#include "sim/mem_system.hh"

#include <algorithm>

#include "common/log.hh"
#include "snapshot/snapshot.hh"

namespace mtrap
{

namespace
{

StatSchema &
memSystemStatSchema()
{
    static StatSchema s("memsys");
    return s;
}

} // namespace

MemSystem::MemSystem(const MemSystemParams &params, StatGroup *parent)
    : params_(params),
      stats_(memSystemStatSchema(), "memsys", parent),
      dataAccesses(&stats_, "data_accesses", "execute-time data accesses"),
      ifetchAccesses(&stats_, "ifetch_accesses", "instruction-line fetches"),
      probes(&stats_, "probes", "non-mutating latency probes"),
      recommitFetches(&stats_, "recommit_fetches",
                      "commit-time refetches of filter lines evicted "
                      "before commit"),
      commitWriteThroughs(&stats_, "commit_write_throughs",
                          "filter lines written through to L1 at commit"),
      seUpgradeRequests(&stats_, "se_upgrade_requests",
                        "SE pseudo-state upgrades launched at commit"),
      dramDemand(&stats_, "dram_demand",
                 "demand data accesses serviced by DRAM"),
      dramPtw(&stats_, "dram_ptw", "PTE reads serviced by DRAM")
{
    if (params_.cores == 0)
        fatal("mem system: need at least one core");

    mem_ = std::make_unique<MainMemory>(params_.mem, &stats_);
    l2_ = std::make_unique<Cache>(params_.l2, &stats_);
    bus_ = std::make_unique<CoherenceBus>(params_.bus, l2_.get(),
                                          mem_.get(), &stats_);
    if (params_.l2PrefetcherEnabled) {
        prefetcher_ = std::make_unique<StridePrefetcher>(
            params_.prefetcher, bus_.get(), &stats_);
    }

    for (CoreId c = 0; c < params_.cores; ++c) {
        CacheParams l1dp = params_.l1d;
        l1dp.name = StatName::indexed("l1d", c);
        l1d_.push_back(std::make_unique<Cache>(l1dp, &stats_));

        CacheParams l1ip = params_.l1i;
        l1ip.name = StatName::indexed("l1i", c);
        l1i_.push_back(std::make_unique<Cache>(l1ip, &stats_));

        TlbParams dtp = params_.dtlb;
        dtp.name = StatName::indexed("dtlb", c);
        dtlb_.push_back(std::make_unique<Tlb>(dtp, &stats_));

        TlbParams itp = params_.itlb;
        itp.name = StatName::indexed("itlb", c);
        itlb_.push_back(std::make_unique<Tlb>(itp, &stats_));

        mt_.push_back(std::make_unique<MuonTrapCore>(params_.mt, c,
                                                     &stats_));

        specBuffer_.push_back(std::make_unique<SpecBuffer>(
            SpecBufferParams{}, c, &stats_));

        BusNode node;
        node.l1d = l1d_.back().get();
        node.l1i = l1i_.back().get();
        node.filterD = mt_.back()->dataFilter();
        node.filterI = mt_.back()->instFilter();
        bus_->addNode(node);
    }

    // Walkers are created last: they route their PTE reads back through
    // this object (ptwAccess).
    for (CoreId c = 0; c < params_.cores; ++c) {
        walker_.push_back(std::make_unique<PageTableWalker>(
            &vm_, c, this, &stats_));
    }

    for (CoreId c = 0; c < params_.cores; ++c) {
        side_.push_back(CoreSide{l1d_[c].get(), l1i_[c].get(),
                                 dtlb_[c].get(), itlb_[c].get(),
                                 mt_[c].get(), walker_[c].get(),
                                 specBuffer_[c].get()});
    }
}

AccessResult
MemSystem::ptwAccess(const Access &acc)
{
    DataAccessResult r = dataAccessPhys(
        acc.core, acc.asid, acc.paddr, acc.paddr, acc.pc,
        /*is_store=*/false, acc.speculative, acc.when);
    AccessResult out;
    out.latency = r.latency;
    out.nacked = r.nacked;
    out.serviceLevel = r.serviceLevel;
    return out;
}

MemSystem::~MemSystem() = default;

void
MemSystem::setTracer(Tracer *tracer)
{
    bus_->setTracer(tracer);
    for (CoreSide &s : side_) {
        s.mt->setTracer(tracer);
        s.spec->setTracer(tracer);
    }
}

void
MemSystem::saveState(Serializer &s) const
{
    mem_->saveState(s);
    l2_->saveState(s);
    if (prefetcher_)
        prefetcher_->saveState(s);
    for (CoreId c = 0; c < params_.cores; ++c) {
        l1d_[c]->saveState(s);
        l1i_[c]->saveState(s);
        dtlb_[c]->saveState(s);
        itlb_[c]->saveState(s);
        mt_[c]->saveState(s);
        specBuffer_[c]->saveState(s);
    }
}

void
MemSystem::restoreState(Deserializer &d)
{
    mem_->restoreState(d);
    l2_->restoreState(d);
    if (prefetcher_)
        prefetcher_->restoreState(d);
    for (CoreId c = 0; c < params_.cores; ++c) {
        l1d_[c]->restoreState(d);
        l1i_[c]->restoreState(d);
        dtlb_[c]->restoreState(d);
        itlb_[c]->restoreState(d);
        mt_[c]->restoreState(d);
        specBuffer_[c]->restoreState(d);
    }
}

// --------------------------------------------------------------------------
// Translation
// --------------------------------------------------------------------------

MemSystem::Translation
MemSystem::translate(CoreId core, Asid asid, Addr vaddr, Cycle when,
                     bool speculative, bool ifetch)
{
    Translation tr;
    Tlb &tlb = ifetch ? *side_[core].itlb : *side_[core].dtlb;

    // Main-TLB hit: the MRU shortcut inside lookup() makes this the
    // whole translation for page-local access runs.
    if (const TlbEntry *e = tlb.lookup(asid, vaddr)) {
        tr.paddr = (e->ppn << kPageShift) | (vaddr & (kPageBytes - 1));
        return tr;
    }
    return translateMiss(tlb, core, asid, vaddr, when, speculative);
}

MemSystem::Translation
MemSystem::translateMiss(Tlb &tlb, CoreId core, Asid asid, Addr vaddr,
                         Cycle when, bool speculative)
{
    Translation tr;
    MuonTrapCore &mt = *side_[core].mt;
    if (Tlb *ftlb = mt.filterTlb()) {
        if (const TlbEntry *e = ftlb->lookup(asid, vaddr)) {
            tr.paddr = (e->ppn << kPageShift)
                       | (vaddr & (kPageBytes - 1));
            return tr;
        }
    }

    // Full miss: hardware walk through the data hierarchy.
    tr.miss = true;
    tr.latency = side_[core].walker->walk(asid, vaddr, when, speculative);
    tr.paddr = vm_.translate(asid, vaddr);

    // MuonTrap: speculative translations go to the filter TLB only,
    // protecting the main TLB from speculative eviction (§4.7). Without
    // the filter TLB (or non-speculatively) they install directly.
    // Both TLBs just missed and the walk touches no TLB, so the entry
    // is provably absent: take the scan-free install.
    if (speculative && mt.filterTlb())
        mt.filterTlb()->insertAbsent(asid, vaddr, tr.paddr);
    else
        tlb.insertAbsent(asid, vaddr, tr.paddr);
    return tr;
}

// --------------------------------------------------------------------------
// Fill helpers
// --------------------------------------------------------------------------

CacheLine &
MemSystem::fillL1(Cache &l1, Addr paddr, CoherState st)
{
    Eviction ev;
    CacheLine &l = l1.fill(paddr, st, &ev);
    if (ev.valid && ev.dirty) {
        // Dirty victim: write back into the L2.
        const Addr victim_paddr = ev.ptag << kLineShift;
        CacheLine &wb = l2_->fill(victim_paddr, CoherState::Modified);
        wb.dirty = true;
    }
    return l;
}

// --------------------------------------------------------------------------
// Data access walks
// --------------------------------------------------------------------------

DataAccessResult
MemSystem::dataAccess(CoreId core, Asid asid, Addr vaddr, Addr pc,
                      bool is_store, bool speculative, Cycle when)
{
    ++dataAccesses;
    Translation tr = translate(core, asid, vaddr, when, speculative,
                               /*ifetch=*/false);
    DataAccessResult r = dataAccessPhys(core, asid, vaddr, tr.paddr, pc,
                                        is_store, speculative,
                                        when + tr.latency);
    r.latency += tr.latency;
    r.tlbMiss = tr.miss;
    return r;
}

DataAccessResult
MemSystem::dataAccessPhys(CoreId core, Asid asid, Addr vaddr, Addr paddr,
                          Addr pc, bool is_store, bool speculative,
                          Cycle when)
{
    if (params_.mt.enabled) {
        return filterDataAccess(core, asid, vaddr, paddr, pc, is_store,
                                speculative, when, 0);
    }
    return baselineDataAccess(core, asid, paddr, pc, is_store, when, 0);
}

DataAccessResult
MemSystem::baselineDataAccess(CoreId core, Asid asid, Addr paddr, Addr pc,
                              bool is_store, Cycle when, Cycle lat_so_far)
{
    (void)asid;
    Cache &l1 = *side_[core].l1d;
    DataAccessResult out;
    out.latency = lat_so_far + l1.params().hitLatency;

    CacheLine *line = l1.lookup(paddr);
    if (line) {
        ++l1.hits;
        out.serviceLevel = 1;
        if (is_store) {
            // Upgrade to M if needed (exclusive prefetch for the
            // commit-time write).
            if (line->state == CoherState::Shared) {
                SnoopOutcome so = bus_->writeRequest(core, paddr, false,
                                                     false, true, when);
                out.latency += so.latency;
            }
            line->state = CoherState::Modified;
            line->dirty = true;
        }
        if (prefetcher_ && !params_.mt.commitPrefetch && line->prefetched) {
            line->prefetched = false;
        }
        return out;
    }
    ++l1.misses;

    SnoopOutcome so = is_store
                          ? bus_->writeRequest(core, paddr, false, false,
                                               true, when)
                          : bus_->readRequest(core, paddr, false, false,
                                              true, when);
    // Misses occupy an L1 MSHR for their duration.
    out.latency += l1.reserveMshr(paddr, when, so.latency);
    out.latency += so.latency;
    out.serviceLevel = so.serviceLevel;

    CoherState st = CoherState::Shared;
    if (is_store)
        st = CoherState::Modified;
    else if (so.wouldBeExclusive)
        st = CoherState::Exclusive;
    CacheLine &nl = fillL1(l1, paddr, st);
    nl.dirty = is_store;

    // Unprotected prefetcher training: the L2's stride prefetcher sees
    // every access that reaches the bus, speculative or not.
    if (prefetcher_ && !params_.mt.commitPrefetch)
        prefetcher_->train(pc, paddr);
    return out;
}

DataAccessResult
MemSystem::filterDataAccess(CoreId core, Asid asid, Addr vaddr, Addr paddr,
                            Addr pc, bool is_store, bool speculative,
                            Cycle when, Cycle lat_so_far)
{
    MuonTrapCore &mt = *side_[core].mt;
    FilterCache &l0 = *mt.dataFilter();
    Cache &l1 = *side_[core].l1d;
    const bool protect = params_.mt.protectData;
    const bool coh = params_.mt.protectCoherence;
    const bool parallel = params_.mt.parallelL0L1;

    DataAccessResult out;
    out.latency = lat_so_far + l0.params().hitLatency;

    // L0 filter lookup (virtual side).
    if (CacheLine *line = l0.lookupVirt(asid, vaddr, paddr)) {
        ++l0.hits;
        out.serviceLevel = 0;
        if (protect && !speculative && !line->committed)
            commitFilterLine(core, *line, paddr, pc, when);
        return out;
    }
    ++l0.misses;

    // L1 lookup. Serial: pay L0 then L1; parallel (§6.5): overlap them.
    const Cycle l1_lat = l1.params().hitLatency;
    if (parallel)
        out.latency = lat_so_far + std::max<Cycle>(l0.params().hitLatency,
                                                   l1_lat);
    else
        out.latency += l1_lat;

    // Protected speculative accesses must not perturb L1 replacement
    // state; commit-time write-through refreshes it instead.
    CacheLine *l1line = (protect && speculative) ? l1.peek(paddr)
                                                 : l1.lookup(paddr);
    if (l1line) {
        ++l1.hits;
        out.serviceLevel = 1;
        // Copy into the filter for subsequent 1-cycle hits.
        l0.fillVirt(asid, vaddr, paddr, speculative && protect,
                    /*fill_level=*/1, /*se_pending=*/false);
        if (is_store && !protect) {
            if (l1line->state == CoherState::Shared) {
                SnoopOutcome so = bus_->writeRequest(core, paddr, false,
                                                     false, true, when);
                out.latency += so.latency;
            }
            l1line->state = CoherState::Modified;
            l1line->dirty = true;
        }
        return out;
    }
    ++l1.misses;

    // Miss in the private hierarchy: go to the bus.
    // Under full protection, a speculative store only *prefetches* the
    // line in S (§4.5); exclusive ownership is taken at commit. Without
    // coherence protection (ablations), stores behave like the baseline.
    SnoopOutcome so;
    if (!protect) {
        // Insecure L0: normal baseline request, fills L2.
        so = is_store ? bus_->writeRequest(core, paddr, false, false, true, when)
                      : bus_->readRequest(core, paddr, false, false, true, when);
    } else {
        so = bus_->readRequest(core, paddr, speculative && coh, coh,
                               /*fill_l2=*/!speculative, when);
    }
    if (so.nacked) {
        out.nacked = true;
        out.latency += so.latency;
        return out;
    }
    out.latency += l0.reserveMshr(paddr, when, so.latency);
    out.latency += so.latency;
    out.serviceLevel = so.serviceLevel;
    if (so.serviceLevel == 3) {
        // pc is unset for page-table-walker reads (see the walker's
        // access lambda) — split the DRAM traffic accordingly.
        if (pc == kAddrInvalid)
            ++dramPtw;
        else
            ++dramDemand;
    }

    const bool spec_fill = speculative && protect;
    const bool se = protect && coh && !is_store && so.wouldBeExclusive;
    CacheLine &fl =
        l0.fillVirt(asid, vaddr, paddr, spec_fill,
                    static_cast<std::uint8_t>(so.serviceLevel), se);

    if (!protect) {
        // Insecure L0 also fills the L1 immediately, like a normal
        // hierarchy.
        CoherState st = CoherState::Shared;
        if (is_store)
            st = CoherState::Modified;
        else if (so.wouldBeExclusive)
            st = CoherState::Exclusive;
        CacheLine &nl = fillL1(l1, paddr, st);
        nl.dirty = is_store;
    } else if (!speculative) {
        // Non-speculative access (e.g. a NACK retry at the head of the
        // queue): the line is committed on arrival.
        commitFilterLine(core, fl, paddr, pc, when);
    }

    // Prefetcher training at access time unless commit-ordered training
    // is enabled (the "prefetching" protection step of figures 8/9).
    if (prefetcher_ && !params_.mt.commitPrefetch)
        prefetcher_->train(pc, paddr);
    return out;
}

// --------------------------------------------------------------------------
// Commit-time actions
// --------------------------------------------------------------------------

void
MemSystem::commitFilterLine(CoreId core, CacheLine &line, Addr paddr,
                            Addr pc, Cycle when)
{
    (void)when;
    line.committed = true;
    ++commitWriteThroughs;

    Cache &l1 = *side_[core].l1d;
    if (line.sePending) {
        // Asynchronous SE->E upgrade launched from the L1 (§4.5); does
        // not block commit.
        line.sePending = false;
        ++seUpgradeRequests;
        bus_->commitUpgrade(core, paddr, /*is_store=*/false,
                            /*to_modified=*/false);
    } else {
        CacheLine *own = l1.peek(paddr);
        if (!own)
            fillL1(l1, paddr, CoherState::Shared);
        else
            l1.lookup(paddr); // refresh replacement state
    }
    // Mirror into the shared L2 so other cores can find committed data.
    if (!l2_->peek(paddr))
        l2_->fill(paddr, CoherState::Shared);

    trainAtCommit(pc, paddr, line.fillLevel);
}

void
MemSystem::trainAtCommit(Addr pc, Addr paddr, unsigned fill_level)
{
    // Commit-ordered prefetcher training (§4.6): only levels backed by
    // a prefetcher are notified. In the Table-1 system that is the L2,
    // which also trains on memory fills (the prefetched data lands
    // there); the L1 has none.
    if (prefetcher_ && params_.mt.commitPrefetch && fill_level >= 2)
        prefetcher_->train(pc, paddr);
}

void
MemSystem::commitData(CoreId core, Asid asid, Addr vaddr, Addr pc,
                      bool is_store, bool tlb_missed, Cycle when)
{
    const Addr paddr = vm_.translate(asid, vaddr);
    MuonTrapCore &mt = *side_[core].mt;

    // Promote the translation out of the filter TLB (§4.7).
    if (tlb_missed && mt.filterTlb()) {
        side_[core].dtlb->insert(asid, vaddr, paddr);
        if (params_.mt.tlbFilter)
            side_[core].walker->retranslate(asid, vaddr, when);
    }

    if (params_.mt.enabled && params_.mt.protectData) {
        FilterCache &l0 = *mt.dataFilter();
        CacheLine *line = l0.lookupVirt(asid, vaddr, paddr);
        if (line) {
            if (!line->committed)
                commitFilterLine(core, *line, paddr, pc, when);
        } else if (!side_[core].l1d->peek(paddr)) {
            // Evicted before commit and not already committed into the
            // L1 by an earlier instruction: a valid in-order execution
            // would have cached it, so refetch straight into the L1
            // (§4.2).
            ++recommitFetches;
            SnoopOutcome so = bus_->readRequest(
                core, paddr, false, params_.mt.protectCoherence, true, when);
            fillL1(*side_[core].l1d, paddr,
                   so.wouldBeExclusive ? CoherState::Exclusive
                                       : CoherState::Shared);
            trainAtCommit(pc, paddr, so.serviceLevel);
        }
        if (is_store) {
            // Commit-time exclusive upgrade + write-through (§4.2/§4.5).
            bus_->commitUpgrade(core, paddr, /*is_store=*/true,
                                /*to_modified=*/true);
            if (line)
                line->committed = true;
        }
        return;
    }

    // Baseline / insecure L0: stores must still ensure ownership (the
    // execute-time prefetch usually did; an eviction in between forces a
    // re-request).
    if (is_store) {
        Cache &l1 = *side_[core].l1d;
        CacheLine *own = l1.peek(paddr);
        if (!own || own->state != CoherState::Modified) {
            bus_->writeRequest(core, paddr, false, false, true, when);
            CacheLine &nl = fillL1(l1, paddr, CoherState::Modified);
            nl.dirty = true;
        }
    }
}

// --------------------------------------------------------------------------
// Instruction side
// --------------------------------------------------------------------------

Cycle
MemSystem::ifetchAccess(CoreId core, Asid asid, Addr vaddr, Cycle when)
{
    ++ifetchAccesses;
    Translation tr = translate(core, asid, vaddr, when,
                               /*speculative=*/true, /*ifetch=*/true);
    Cycle lat = tr.latency;
    const Addr paddr = tr.paddr;

    MuonTrapCore &mt = *side_[core].mt;
    Cache &l1i = *side_[core].l1i;

    if (FilterCache *fi = mt.instFilter()) {
        lat += fi->params().hitLatency;
        if (CacheLine *line = fi->lookupVirt(asid, vaddr, paddr)) {
            ++fi->hits;
            (void)line;
            return lat;
        }
        ++fi->misses;
        lat += l1i.params().hitLatency;
        if (l1i.peek(paddr)) {
            ++l1i.hits;
            fi->fillVirt(asid, vaddr, paddr, /*speculative=*/true,
                         /*fill_level=*/1, false);
            return lat;
        }
        ++l1i.misses;
        SnoopOutcome so = bus_->readRequest(core, paddr, true,
                                            params_.mt.protectCoherence,
                                            /*fill_l2=*/false, when);
        if (so.nacked) {
            // Instruction lines are read-shared; a NACK can only happen
            // if a data store owns the line. Retry non-speculatively.
            so = bus_->readRequest(core, paddr, false,
                                   params_.mt.protectCoherence, false, when);
        }
        lat += fi->reserveMshr(paddr, when, so.latency);
        lat += so.latency;
        fi->fillVirt(asid, vaddr, paddr, /*speculative=*/true,
                     static_cast<std::uint8_t>(so.serviceLevel), false);
        return lat;
    }

    // No instruction filter: conventional (insecure) I-side.
    lat += l1i.params().hitLatency;
    if (l1i.lookup(paddr)) {
        ++l1i.hits;
        return lat;
    }
    ++l1i.misses;
    const bool fill_l2 =
        !(params_.mt.enabled && params_.mt.protectData);
    SnoopOutcome so = bus_->readRequest(core, paddr, false, false,
                                        fill_l2, when);
    lat += l1i.reserveMshr(paddr, when, so.latency);
    lat += so.latency;
    fillL1(l1i, paddr, CoherState::Shared);
    return lat;
}

void
MemSystem::commitIfetch(CoreId core, Asid asid, Addr vaddr, Cycle when)
{
    (void)when;
    MuonTrapCore &mt = *side_[core].mt;
    const Addr paddr = vm_.translate(asid, vaddr);

    // Promote the instruction-side translation: a committed fetch makes
    // the mapping architectural.
    if (mt.filterTlb())
        side_[core].itlb->insert(asid, vaddr, paddr);

    FilterCache *fi = mt.instFilter();
    if (!fi)
        return;
    CacheLine *line = fi->lookupVirt(asid, vaddr, paddr);
    if (line) {
        if (!line->committed) {
            // Simpler than the data side (§4.7): set the committed bit
            // and copy into the L1I; no coherence upgrade is ever needed
            // for read-only instruction lines.
            line->committed = true;
            ++commitWriteThroughs;
            if (!side_[core].l1i->peek(paddr))
                fillL1(*side_[core].l1i, paddr, CoherState::Shared);
            if (!l2_->peek(paddr))
                l2_->fill(paddr, CoherState::Shared);
        }
    } else if (!side_[core].l1i->peek(paddr)) {
        // Evicted from the instruction filter before commit: as on the
        // data side (§4.2), a valid in-order execution would have cached
        // the line, so bring it into the L1I now.
        ++recommitFetches;
        bus_->readRequest(core, paddr, false,
                          params_.mt.protectCoherence, true, when);
        fillL1(*side_[core].l1i, paddr, CoherState::Shared);
    }
}

// --------------------------------------------------------------------------
// Probes
// --------------------------------------------------------------------------

Cycle
MemSystem::dataProbe(CoreId core, Asid asid, Addr vaddr, Cycle when)
{
    (void)when;
    ++probes;
    // InvisiSpec's speculative buffer: allocation may stall when full.
    Cycle lat = side_[core].spec->allocate(vaddr, when);

    // Translation for the probe is functional (InvisiSpec does not
    // protect the TLB; the real TLB fill happens at exposure).
    const Addr paddr = vm_.translate(asid, vaddr);

    Cache &l1 = *side_[core].l1d;
    lat += l1.params().hitLatency;
    return l1.peek(paddr) ? lat : lat + probeBelowL1(core, paddr);
}

bool
MemSystem::dataHitsPrivate(CoreId core, Asid asid, Addr vaddr)
{
    // Same CPU-side visibility rules as timeProbe's private prefix: a
    // virtual-tag filter hit or a physical L1D hit counts; anything
    // else would need the bus. Touches nothing.
    const Addr paddr = vm_.translate(asid, vaddr);
    MuonTrapCore &mt = *side_[core].mt;
    if (FilterCache *fd = mt.dataFilter()) {
        if (fd->lookupVirt(asid, vaddr, paddr))
            return true;
    }
    return side_[core].l1d->peek(paddr) != nullptr;
}

Cycle
MemSystem::timeProbe(CoreId core, Asid asid, Addr vaddr)
{
    const Addr paddr = vm_.translate(asid, vaddr);
    MuonTrapCore &mt = *side_[core].mt;

    Cycle lat = 0;
    if (FilterCache *fd = mt.dataFilter()) {
        lat += fd->params().hitLatency;
        // The probe sees what the *CPU side* would see: a virtual-tag
        // match with the valid bit set.
        if (fd->lookupVirt(asid, vaddr, paddr))
            return lat;
    }
    Cache &l1 = *side_[core].l1d;
    lat += l1.params().hitLatency;
    return l1.peek(paddr) ? lat : lat + probeBelowL1(core, paddr);
}

Cycle
MemSystem::timeStoreProbe(CoreId core, Asid asid, Addr vaddr)
{
    const Addr paddr = vm_.translate(asid, vaddr);
    Cache &l1 = *side_[core].l1d;

    Cycle lat = l1.params().hitLatency;
    const CacheLine *own = l1.peek(paddr);
    if (own && (own->state == CoherState::Modified ||
                own->state == CoherState::Exclusive))
        return lat;
    // Shared (an upgrade of the present line) or absent: an exclusive
    // request on the bus is needed.
    if (own)
        return lat + params_.bus.transactionLatency;
    return lat + probeBelowL1(core, paddr);
}

Cycle
MemSystem::probeBelowL1(CoreId core, Addr paddr)
{
    Cycle lat = params_.bus.transactionLatency;
    if (bus_->remoteHoldsExclusive(core, paddr))
        return lat + params_.bus.remoteSupplyLatency;
    lat += l2_->params().hitLatency;
    return l2_->peek(paddr) ? lat : lat + params_.mem.rowMissLatency;
}

Cycle
MemSystem::timeIfetchProbe(CoreId core, Asid asid, Addr vaddr)
{
    const Addr paddr = vm_.translate(asid, vaddr);
    MuonTrapCore &mt = *side_[core].mt;

    Cycle lat = 0;
    if (FilterCache *fi = mt.instFilter()) {
        lat += fi->params().hitLatency;
        if (fi->lookupVirt(asid, vaddr, paddr))
            return lat;
    }
    Cache &l1i = *side_[core].l1i;
    lat += l1i.params().hitLatency;
    if (l1i.peek(paddr))
        return lat;
    lat += params_.bus.transactionLatency;
    lat += l2_->params().hitLatency;
    if (l2_->peek(paddr))
        return lat;
    lat += params_.mem.rowMissLatency;
    return lat;
}

// --------------------------------------------------------------------------
// Domain events + functional data
// --------------------------------------------------------------------------

void
MemSystem::onSyscall(CoreId core, Cycle when)
{
    side_[core].mt->flush(FlushReason::Syscall, when);
}

void
MemSystem::onSandboxSwitch(CoreId core, Cycle when)
{
    side_[core].mt->flush(FlushReason::Sandbox, when);
}

void
MemSystem::onContextSwitch(CoreId core, Cycle when)
{
    side_[core].mt->flush(FlushReason::ContextSwitch, when);
    side_[core].spec->clear(when);
}

void
MemSystem::onFlushBarrier(CoreId core, Cycle when)
{
    side_[core].mt->flush(FlushReason::Explicit, when);
}

void
MemSystem::onSquash(CoreId core, Cycle when)
{
    side_[core].mt->flush(FlushReason::Misspeculation, when);
    side_[core].spec->clear(when);
}

void
MemSystem::write(Asid asid, Addr vaddr, std::uint64_t value)
{
    mem_->write(vm_.translate(asid, vaddr), value);
}

} // namespace mtrap
