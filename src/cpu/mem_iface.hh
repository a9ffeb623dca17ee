/**
 * @file
 * Interface the out-of-order core uses to reach the memory system.
 *
 * Keeping this abstract lets cpu/ stay independent of the concrete
 * hierarchy (sim/mem_system.*), which differs per defence scheme.
 */

#ifndef MTRAP_CPU_MEM_IFACE_HH
#define MTRAP_CPU_MEM_IFACE_HH

#include <cstdint>

#include "common/types.hh"

namespace mtrap
{

/** Result of an execute-time data access. */
struct DataAccessResult
{
    Cycle latency = 1;
    /** NACKed by reduced coherency speculation; the core must retry the
     *  access once the instruction is non-speculative. */
    bool nacked = false;
    /** The access missed the TLB (the core schedules a commit-time
     *  retranslation, paper §4.7). */
    bool tlbMiss = false;
    /** Deepest level that serviced the access (0..3). */
    unsigned serviceLevel = 0;
};

/**
 * Memory-system interface: execute-time accesses, commit-time actions,
 * protection-domain events and functional data.
 */
class MemIface
{
  public:
    virtual ~MemIface() = default;

    /** Execute-time data access (load, or store line-prefetch). */
    virtual DataAccessResult dataAccess(CoreId core, Asid asid, Addr vaddr,
                                        Addr pc, bool is_store,
                                        bool speculative, Cycle when) = 0;

    /** Non-mutating latency probe (InvisiSpec speculative loads). */
    virtual Cycle dataProbe(CoreId core, Asid asid, Addr vaddr,
                            Cycle when) = 0;

    /**
     * Non-mutating hit check on the core's private data hierarchy
     * (filter cache + L1D): would a demand load of `vaddr` hit without
     * going to the bus? Drives the delay-on-miss defence
     * (CoreDefense::DelayOnMiss). Defaults to "hit" so simple MemIface
     * fakes never delay.
     */
    virtual bool dataHitsPrivate(CoreId core, Asid asid, Addr vaddr)
    {
        (void)core;
        (void)asid;
        (void)vaddr;
        return true;
    }

    /** Instruction fetch of the line containing `vaddr`. */
    virtual Cycle ifetchAccess(CoreId core, Asid asid, Addr vaddr,
                               Cycle when) = 0;

    /** The instruction that accessed `vaddr` has committed. */
    virtual void commitData(CoreId core, Asid asid, Addr vaddr, Addr pc,
                            bool is_store, bool tlb_missed,
                            Cycle when) = 0;

    /** An instruction fetched from `vaddr` has committed. */
    virtual void commitIfetch(CoreId core, Asid asid, Addr vaddr,
                              Cycle when) = 0;

    /** Kernel entry (Syscall op) committed on `core`. */
    virtual void onSyscall(CoreId core, Cycle when) = 0;

    /** Sandbox entry/exit committed on `core`. */
    virtual void onSandboxSwitch(CoreId core, Cycle when) = 0;

    /** Scheduler switched the process on `core`. */
    virtual void onContextSwitch(CoreId core, Cycle when) = 0;

    /** FlushBarrier op committed on `core`. */
    virtual void onFlushBarrier(CoreId core, Cycle when) = 0;

    /** A misspeculation was squashed on `core` (clear-on-misspec). */
    virtual void onSquash(CoreId core, Cycle when) = 0;

    /** Functional data read/write through the address space. */
    virtual std::uint64_t read(Asid asid, Addr vaddr) = 0;
    virtual void write(Asid asid, Addr vaddr, std::uint64_t value) = 0;

    /**
     * Core-attributed functional read: the core's loads come through
     * here, so a wrapper can attribute them per core (hostbench times
     * them). Functional data is single-copy, so the value is the plain
     * read's; the default forwards to it and MemIface fakes need not
     * override it.
     */
    virtual std::uint64_t read(CoreId core, Asid asid, Addr vaddr)
    {
        (void)core;
        return read(asid, vaddr);
    }
};

} // namespace mtrap

#endif // MTRAP_CPU_MEM_IFACE_HH
