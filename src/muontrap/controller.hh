/**
 * @file
 * MuonTrap policy configuration and the per-core bundle of filter
 * structures (data/instruction filter caches and the filter TLB) with
 * their clearing logic.
 *
 * The configuration's individual switches correspond one-to-one to the
 * cumulative protection steps evaluated in the paper's figures 8 and 9:
 * insecure L0 -> +fcache -> +coherency -> +ifcache -> +prefetching ->
 * +clear-on-misspec, plus the parallel-L0/L1 lookup option of §6.5.
 */

#ifndef MTRAP_MUONTRAP_CONTROLLER_HH
#define MTRAP_MUONTRAP_CONTROLLER_HH

#include <memory>

#include "common/stats.hh"
#include "muontrap/filter_cache.hh"
#include "tlb/tlb.hh"

namespace mtrap
{

class Tracer;
class Serializer;
class Deserializer;

/** Full MuonTrap configuration. */
struct MuonTrapConfig
{
    /** Any L0 structures at all. False = no-L0 baseline. */
    bool enabled = false;
    /**
     * Committed-bit protections on the data side. When false but
     * `enabled`, the L0 behaves as an ordinary insecure L0 cache that
     * fills the L1/L2 normally ("insecure L0" in figures 8/9).
     */
    bool protectData = false;
    /** Reduced coherency speculation + S-only fills + SE upgrades. */
    bool protectCoherence = false;
    /** Instruction filter cache. */
    bool instFilter = false;
    /** Filter TLB + commit-time retranslation. */
    bool tlbFilter = false;
    /** Train the L2 prefetcher at commit (in program order) instead of
     *  at access time. */
    bool commitPrefetch = false;
    /** Flash-clear the filters on every squash (per-process option,
     *  §4.9/§4.10). */
    bool clearOnMisspec = false;
    /** Access L0 and L1 in parallel rather than serially (§6.5). */
    bool parallelL0L1 = false;

    /** Filter-cache geometry (paper Table 1: 2KiB 4-way, 1 cycle). */
    CacheParams dataParams{/*name=*/"fcache", /*size=*/2048, /*assoc=*/4,
                           /*hitLatency=*/1, /*mshrs=*/4};
    CacheParams instParams{/*name=*/"fcache", /*size=*/2048, /*assoc=*/4,
                           /*hitLatency=*/1, /*mshrs=*/4};
    unsigned filterTlbEntries = 16;

    /** Full protection, paper defaults (2KiB 4-way filters). */
    static MuonTrapConfig full();
    /** Insecure L0 (no protections), for the figure-8/9 baseline step. */
    static MuonTrapConfig insecureL0();
    /** Everything off: the unprotected baseline. */
    static MuonTrapConfig off();
};

/** Why a filter flush happened (stats breakdown). */
enum class FlushReason : std::uint8_t
{
    ContextSwitch,
    Syscall,
    Sandbox,
    Misspeculation,
    Explicit,
};

/**
 * Per-core MuonTrap state: owns the filter caches and filter TLB and
 * implements the domain-switch clearing policy.
 */
class MuonTrapCore
{
  public:
    MuonTrapCore(const MuonTrapConfig &cfg, CoreId core, StatGroup *parent);

    const MuonTrapConfig &config() const { return cfg_; }

    /** Data filter cache; nullptr when no L0 is configured. */
    FilterCache *dataFilter() { return dataFilter_.get(); }
    /** Instruction filter cache; nullptr unless cfg.instFilter. */
    FilterCache *instFilter() { return instFilter_.get(); }
    /** Filter TLB; nullptr unless cfg.tlbFilter. */
    Tlb *filterTlb() { return filterTlb_.get(); }

    /**
     * Flash-clear every filter structure. Constant-time (§4.3): the
     * valid bits live in registers. Does nothing when the configuration
     * doesn't warrant clearing for this reason (e.g. misspeculation with
     * clearOnMisspec off, or an insecure L0 which never clears).
     * `when` stamps the trace event when a tracer is attached; clears
     * that the policy suppresses are not traced.
     */
    void flush(FlushReason reason, Cycle when = 0);

    /** Route performed flushes into `tracer` (null disables). */
    void setTracer(Tracer *tracer) { tracer_ = tracer; }

    /** Checkpoint the owned filter structures (present ones only). */
    void saveState(Serializer &s) const;
    void restoreState(Deserializer &d);

  private:
    MuonTrapConfig cfg_;
    CoreId core_ = 0;
    Tracer *tracer_ = nullptr;
    std::unique_ptr<FilterCache> dataFilter_;
    std::unique_ptr<FilterCache> instFilter_;
    std::unique_ptr<Tlb> filterTlb_;

    StatGroup stats_;

  public:
    Counter flushCtxSwitch;
    Counter flushSyscall;
    Counter flushSandbox;
    Counter flushMisspec;
    Counter flushExplicit;
};

} // namespace mtrap

#endif // MTRAP_MUONTRAP_CONTROLLER_HH
