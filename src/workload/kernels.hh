/**
 * @file
 * Synthetic workload generator: kernel library + profile-driven program
 * construction.
 *
 * SPEC CPU2006 and Parsec binaries cannot ship with this repository, so
 * every benchmark is modelled as a *profile*: a weighted mix of memory /
 * compute / control kernels whose parameters (footprints, locality
 * class, memory-level parallelism, branch behaviour, code size, sharing)
 * reproduce the sensitivity the paper reports for that benchmark (see
 * DESIGN.md §5 for the substitution argument). Profiles are compiled
 * into micro-ISA programs; multi-threaded profiles emit one program per
 * core over a shared address space.
 *
 * Kernel catalogue:
 *  - stream:  sequential line-stride loads/stores (prefetch friendly)
 *  - random:  LCG-indexed independent loads (high MLP, prefetch hostile)
 *  - chase:   dependent pointer chasing over a pre-built ring
 *  - compute: integer/FP ALU chains
 *  - branchy: data-dependent (hard-to-predict) branches
 *  - shared:  accesses to a region shared by all threads (coherence)
 *
 * Large code footprints are modelled by cloning the loop body across
 * many code blocks chained with unconditional branches.
 */

#ifndef MTRAP_WORKLOAD_KERNELS_HH
#define MTRAP_WORKLOAD_KERNELS_HH

#include <functional>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "isa/program.hh"

namespace mtrap
{

class MemSystem;

/** Tunable description of one benchmark. */
struct WorkloadProfile
{
    std::string name = "synthetic";
    unsigned threads = 1;

    // Kernel mix: relative instance counts per loop body.
    unsigned streamOps = 0;
    unsigned randomOps = 0;
    unsigned chaseOps = 0;
    /** Indirect accesses: an independent pointer-table load feeding a
     *  dependent dereference (the astar/omnetpp adjacency pattern whose
     *  MLP load-restricting defences destroy, §6.3). */
    unsigned indirectOps = 0;
    unsigned computeOps = 8;
    unsigned branchyOps = 0;
    unsigned sharedOps = 0;

    /** Private data footprint per thread, bytes (power of two). */
    std::uint64_t dataFootprint = 64 * 1024;
    /** Stream advance per op in bytes: 8 gives 8 accesses per line
     *  (high spatial locality); 64*k strides k lines per op. */
    unsigned streamStrideBytes = 8;
    /** Fraction [0,100] of random/branchy accesses that stay inside the
     *  hot region (temporal locality); the rest roam the footprint. */
    unsigned hotPct = 90;
    /** Hot-region size, bytes (power of two, <= dataFootprint). */
    std::uint64_t hotBytes = 16 * 1024;
    /** Pointer-chase ring size, bytes (power of two); 0 = use
     *  dataFootprint. */
    std::uint64_t chaseBytes = 0;
    /** Independent random streams interleaved (memory-level
     *  parallelism). */
    unsigned mlp = 1;
    /** Fraction [0,100] of stream/shared memory ops that are stores. */
    unsigned storePct = 0;
    /** Code blocks the body is cloned into (instruction footprint). */
    unsigned codeBlocks = 1;
    /** Fraction [0,100] of branchy branches that are data-dependent
     *  (the rest are perfectly biased). */
    unsigned branchRandomPct = 50;
    /** Compute flavour: fraction [0,100] of compute ops that are FP. */
    unsigned fpPct = 0;
    /** Multiply fraction [0,100] of compute ops. */
    unsigned mulPct = 0;

    // Multi-threaded (Parsec-like) knobs.
    /** Shared region size, bytes (power of two); 0 = none. */
    std::uint64_t sharedFootprint = 0;
    /** Fraction [0,100] of shared ops that are stores (invalidation
     *  traffic). */
    unsigned sharedStorePct = 0;

    std::uint64_t seed = 42;
};

/** A ready-to-run workload: one program per core plus memory setup. */
struct Workload
{
    std::string name;
    Asid asid = 1;
    /** Generation seed of the profile the programs were built from
     *  (WorkloadProfile::seed); runs key warm snapshots on it. */
    std::uint64_t seed = 0;
    std::vector<Program> threadPrograms;
    /** Pre-run functional memory initialisation (chase chains etc.). */
    std::function<void(MemSystem &)> init;

    unsigned threads() const
    {
        return static_cast<unsigned>(threadPrograms.size());
    }
};

/** Virtual-address plan for generated programs (one process). */
struct WorkloadLayout
{
    static constexpr Addr kPrivateBase = 0x10'0000'0000ull;
    static constexpr Addr kSharedBase = 0x20'0000'0000ull;
    static constexpr Addr kChaseBase = 0x30'0000'0000ull;
    static constexpr Addr kCodeBase = 0x40'0000ull;
    /** Per-thread private region stride. */
    static constexpr Addr kThreadStride = 0x1'0000'0000ull;
};

/**
 * Compile a profile into a runnable workload. `asid` selects the
 * process's address space: multiprogrammed (scheduled) runs give each
 * job a distinct asid so their footprints do not alias.
 */
Workload buildWorkload(const WorkloadProfile &profile, Asid asid = 1);

/**
 * Build just one thread's program (unit tests / examples that want a
 * bare Program).
 */
Program buildThreadProgram(const WorkloadProfile &profile,
                           unsigned thread_id);

/** Initialise the pointer-chase ring for `profile` in `asid`'s address
 *  space (called by Workload::init; exposed for tests). */
void initChaseRing(MemSystem &mem, Asid asid, const WorkloadProfile &p,
                   unsigned thread_id);

} // namespace mtrap

#endif // MTRAP_WORKLOAD_KERNELS_HH
