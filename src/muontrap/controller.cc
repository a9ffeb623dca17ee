#include "muontrap/controller.hh"

#include "common/log.hh"
#include "snapshot/snapshot.hh"
#include "trace/trace.hh"

namespace mtrap
{

MuonTrapConfig
MuonTrapConfig::full()
{
    MuonTrapConfig c;
    c.enabled = true;
    c.protectData = true;
    c.protectCoherence = true;
    c.instFilter = true;
    c.tlbFilter = true;
    c.commitPrefetch = true;
    c.dataParams.name = "fcache_d";
    c.instParams.name = "fcache_i";
    return c;
}

MuonTrapConfig
MuonTrapConfig::insecureL0()
{
    MuonTrapConfig c;
    c.enabled = true;
    c.dataParams.name = "l0d_insecure";
    return c;
}

MuonTrapConfig
MuonTrapConfig::off()
{
    return MuonTrapConfig{};
}

namespace
{

StatSchema &
muontrapStatSchema()
{
    static StatSchema s("muontrap");
    return s;
}

} // namespace

MuonTrapCore::MuonTrapCore(const MuonTrapConfig &cfg, CoreId core,
                           StatGroup *parent)
    : cfg_(cfg), core_(core),
      stats_(muontrapStatSchema(), StatName::indexed("muontrap", core),
             parent),
      flushCtxSwitch(&stats_, "flush_ctx_switch",
                     "filter flushes on context switches"),
      flushSyscall(&stats_, "flush_syscall",
                   "filter flushes on kernel entry"),
      flushSandbox(&stats_, "flush_sandbox",
                   "filter flushes on sandbox entry/exit"),
      flushMisspec(&stats_, "flush_misspec",
                   "filter flushes on misspeculation (optional mode)"),
      flushExplicit(&stats_, "flush_explicit",
                    "filter flushes from the dedicated flush instruction")
{
    if (!cfg_.enabled)
        return;

    dataFilter_ = std::make_unique<FilterCache>(cfg_.dataParams, &stats_);
    if (cfg_.instFilter)
        instFilter_ = std::make_unique<FilterCache>(cfg_.instParams, &stats_);
    if (cfg_.tlbFilter) {
        TlbParams tp;
        tp.name = "filter_tlb";
        tp.entries = cfg_.filterTlbEntries;
        filterTlb_ = std::make_unique<Tlb>(tp, &stats_);
    }
}

void
MuonTrapCore::flush(FlushReason reason, Cycle when)
{
    if (!cfg_.enabled)
        return;
    // An insecure L0 has no protections and never clears; its lines were
    // propagated to the L1/L2 anyway.
    if (!cfg_.protectData && reason != FlushReason::Explicit)
        return;
    if (reason == FlushReason::Misspeculation && !cfg_.clearOnMisspec)
        return;

    switch (reason) {
      case FlushReason::ContextSwitch: ++flushCtxSwitch; break;
      case FlushReason::Syscall: ++flushSyscall; break;
      case FlushReason::Sandbox: ++flushSandbox; break;
      case FlushReason::Misspeculation: ++flushMisspec; break;
      case FlushReason::Explicit: ++flushExplicit; break;
    }
    if (tracer_)
        tracer_->record(core_, TraceEventKind::FilterFlush, when,
                        static_cast<std::uint64_t>(reason));

    if (dataFilter_)
        dataFilter_->flashClear();
    if (instFilter_)
        instFilter_->flashClear();
    if (filterTlb_)
        filterTlb_->flush();
}

void
MuonTrapCore::saveState(Serializer &s) const
{
    if (dataFilter_)
        dataFilter_->saveState(s);
    if (instFilter_)
        instFilter_->saveState(s);
    if (filterTlb_)
        filterTlb_->saveState(s);
}

void
MuonTrapCore::restoreState(Deserializer &d)
{
    if (dataFilter_)
        dataFilter_->restoreState(d);
    if (instFilter_)
        instFilter_->restoreState(d);
    if (filterTlb_)
        filterTlb_->restoreState(d);
}

} // namespace mtrap
