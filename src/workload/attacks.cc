#include "workload/attacks.hh"

#include <algorithm>
#include <array>
#include <functional>

#include "common/log.hh"
#include "sim/system.hh"

namespace mtrap
{

namespace
{

// --- address plan -----------------------------------------------------------
// Victim virtual addresses.
constexpr Asid kVictim = 1;
constexpr Asid kAttacker = 2;

constexpr Addr kArray = 0x50'0000'0000ull;      // victim bounds-checked array
constexpr Addr kBoundPP = 0x51'0000'0000ull;    // **bound (chase level 0)
constexpr Addr kBoundP = 0x52'0000'0000ull;     // *bound  (chase level 1)
constexpr Addr kVProbe = 0x53'0000'0000ull;     // victim's probe pages
constexpr Addr kShm = 0x54'0000'0000ull;        // shared data (attacks 3/4/7)
constexpr Addr kPfRegion = 0x55'0000'0000ull;   // prefetcher region (5/8)

// Attacker virtual addresses.
constexpr Addr kAEvict = 0x60'0000'0000ull;     // eviction set pages
constexpr Addr kAPrime = 0x61'0000'0000ull;     // prime pages (1/2/9/10)
constexpr Addr kAShm = 0x62'0000'0000ull;       // attacker view of kShm
constexpr Addr kAPf = 0x63'0000'0000ull;        // attacker view of kPfRegion
constexpr Addr kACode = 0x64'0000'0000ull;      // attacker view of victim code

// Engineered physical region (clear of the hash-allocated ranges).
constexpr Addr kPinBase = 1ull << 42;

constexpr std::int64_t kBound = 64;             // in-bounds limit (bytes)
constexpr std::int64_t kSecretIndex = 128;      // OOB index reaching the secret

// L1D geometry (Table 1: 64 KiB, 2-way, 64 B lines -> 512 sets).
constexpr unsigned kL1Sets = 512;
constexpr unsigned kL1Ways = 2;
constexpr unsigned kL2Sets = 4096;
constexpr unsigned kL2Ways = 8;

// Probe L1 sets for secret bit 0 / 1 (multiples of 64 so the line offset
// within its page is 0 and page-granular aliasing lines up exactly).
constexpr unsigned kSet0 = 128;
constexpr unsigned kSet1 = 192;

// Prefetcher attacks (5/8): offset of the bit=1 region, bytes the
// victim's stride loop walks, and the line beyond them.
constexpr std::uint64_t kRegionGap = 16 * 1024;
constexpr std::uint64_t kLoopBytes = 4 * kLineBytes;
constexpr std::uint64_t kProbeOff = 5 * kLineBytes;

/** Timing threshold separating "private hierarchy hit" from "had to go
 *  to the L2 or beyond". */
constexpr Cycle kFastThreshold = 8;
/** Threshold separating "somewhere on chip" from "DRAM". */
constexpr Cycle kOnChipThreshold = 60;

/** Physical address of the line with L1 set `set` and tag-disambiguator
 *  `tag` inside the pinned region. Tag stride = one L1 way (32 KiB),
 *  which preserves the set index. */
Addr
paddrForSet(unsigned tag, unsigned set)
{
    return kPinBase + static_cast<Addr>(tag) * (kL1Sets * kLineBytes)
           + static_cast<Addr>(set) * kLineBytes;
}

/** Physical address with L2 set `set` (and L1 set `set % kL1Sets`) and
 *  tag-disambiguator `tag`, in a second pinned region (attack 9). Tag
 *  stride = one L2 way (256 KiB), preserving both set indices. */
Addr
paddrForL2Set(unsigned tag, unsigned set)
{
    return kPinBase + (1ull << 41)
           + static_cast<Addr>(tag) * (kL2Sets * kLineBytes)
           + static_cast<Addr>(set) * kLineBytes;
}

/** A virtual page pinned onto the page of an engineered physical line. */
struct Page
{
    Addr va;
    Addr pa;
    /** Virtual address of the pinned line itself. */
    Addr line() const { return va + (pa & (kPageBytes - 1)); }
};

/** `n` consecutive pages from `va` per candidate set (bit-0 set first),
 *  the i-th pinned onto the line with tag `tag + i` in that set. */
std::vector<Page>
pinnedPages(Addr va, unsigned tag, unsigned n,
            Addr (*paddr)(unsigned, unsigned), unsigned set0, unsigned set1)
{
    std::vector<Page> pages;
    for (unsigned b = 0; b < 2; ++b)
        for (unsigned i = 0; i < n; ++i)
            pages.push_back({va + pages.size() * kPageBytes,
                             paddr(tag + i, b ? set1 : set0)});
    return pages;
}

void
aliasPages(AddressSpace &vm, Asid asid, const std::vector<Page> &pages)
{
    for (const Page &p : pages)
        vm.alias(asid, p.va, pageAlign(p.pa), kPageBytes);
}

/** Map the same physical range into the victim and the attacker. */
std::function<void(AddressSpace &)>
sharedRegion(Addr victim_va, Addr attacker_va, Addr pa, std::uint64_t bytes)
{
    return [=](AddressSpace &vm) {
        vm.alias(kVictim, victim_va, pa, bytes);
        vm.alias(kAttacker, attacker_va, pa, bytes);
    };
}

// --- programs ---------------------------------------------------------------

/** Load every page's pinned line once. */
Program
primeProgram(const char *name, const std::vector<Page> &pages)
{
    ProgramBuilder b(name);
    for (const Page &p : pages)
        b.movi(2, static_cast<std::int64_t>(p.line())).load(3, 2, 0);
    b.halt();
    return b.take();
}

/** Victim gadget prologue of every bounds-check attack: load the (evicted,
 *  hence slow) bound through a dependent chain, bounds-check r1 (which
 *  mispredicts in bounds when r1 is out of bounds), read r4 = array[r1]. */
void
emitSecretRead(ProgramBuilder &b)
{
    b.movi(21, static_cast<std::int64_t>(kBoundPP));
    b.load(3, 21, 0);       // r3 = &bound      (slow when evicted)
    b.load(3, 3, 0);        // r3 = bound       (dependent, slow)
    b.braUge("done", 1, 3);
    b.movi(20, static_cast<std::int64_t>(kArray));
    b.load(4, 20, 0, 1, 0); // r4 = array[r1] (secret when OOB)
}

/** The secret-indexed gadget of attacks 1, 3, 4 and 9: touch
 *  base + (bit << shift). */
Program
secretGadget(const char *name, unsigned shift, Addr base)
{
    ProgramBuilder b(name);
    emitSecretRead(b);
    b.andi(5, 4, 1).shli(5, 5, shift);
    b.movi(22, static_cast<std::int64_t>(base)).load(6, 22, 0, 5, 0);
    b.label("done").halt();
    return b.take();
}

/** The stride gadget of attacks 5 and 8: on the wrong path, loop a same-PC
 *  load over 4 sequential lines of the bit-selected region, training the
 *  stride prefetcher (in an unprotected system) to run ahead. */
Program
strideGadget(const char *name)
{
    ProgramBuilder b(name);
    emitSecretRead(b);
    b.andi(5, 4, 1).shli(5, 5, 14); // *16KiB region select
    b.movi(22, static_cast<std::int64_t>(kPfRegion)).add(22, 22, 5);
    b.movi(7, 0).movi(8, static_cast<std::int64_t>(kLoopBytes));
    b.label("loop");
    b.load(6, 22, 0, 7, 0);         // same PC every iteration
    b.addi(7, 7, kLineBytes).braLt("loop", 7, 8);
    b.label("done").halt();
    return b.take();
}

/** Take M ownership of both shared lines (attacks 3 and 7). */
Program
ownerProgram(const char *name)
{
    ProgramBuilder b(name);
    b.movi(2, static_cast<std::int64_t>(kAShm)).movi(3, 0x77);
    b.store(3, 2, 0).store(3, 2, 64).halt();
    return b.take();
}

/** What the attacker switches back in with, just to time from a core. */
const Program &
noopProgram()
{
    static const Program noop = ProgramBuilder("noop").halt().take();
    return noop;
}

// --- choreography helpers ---------------------------------------------------

/** Resume the core's current context, or context-switch (which flushes
 *  the filters under MuonTrap). */
enum class Entry { Resume, Switch };

/** Run a program to completion in `asid`, with r1 (gadget input) and
 *  r26 preloaded. */
void
runProgram(Core &core, Entry entry, const Program &prog, Asid asid,
           std::uint64_t r1 = 0, std::uint64_t r26 = 0)
{
    ArchContext ctx;
    ctx.program = &prog;
    ctx.asid = asid;
    ctx.pc = prog.entry;
    ctx.regs[1] = r1;
    ctx.regs[26] = r26;
    if (entry == Entry::Switch)
        core.contextSwitch(ctx);
    else
        core.setContext(ctx);
    core.run(2'000'000);
    if (!core.halted())
        panic("attack program %s did not halt", prog.name.c_str());
    core.drain();
}

/** The attacker's eviction program: per target physical line, load
 *  enough conflicting lines (attacker pages aliased here onto engineered
 *  physical pages) to push it out of both the L1 and the L2. */
Program
evictionProgram(AddressSpace &vm, const std::vector<Addr> &target_paddrs)
{
    // One attacker virtual page per eviction line.
    std::vector<Page> pages;
    auto add = [&](Addr pa) {
        pages.push_back({kAEvict + pages.size() * kPageBytes, pa});
    };
    for (Addr target : target_paddrs) {
        const Addr line = target >> kLineShift;
        // L1 eviction lines: same L1 set, distinct tags (use high tag
        // numbers so they don't collide with prime/probe lines).
        for (Addr k = 0; k < kL1Ways + 1; ++k)
            add(kPinBase + (1ull << 35) + k * (kL1Sets * kLineBytes)
                + (line & (kL1Sets - 1)) * kLineBytes);
        // L2 eviction lines: same L2 set, distinct tags. Stride of one
        // L2 way (256 KiB) preserves both L1 and L2 set bits.
        for (Addr k = 0; k < kL2Ways + 2; ++k)
            add(kPinBase + (1ull << 36) + k * (kL2Sets * kLineBytes)
                + (line & (kL2Sets - 1)) * kLineBytes);
    }
    Program evict = primeProgram("evict", pages);
    aliasPages(vm, kAttacker, pages);
    return evict;
}

/** The attacker's two probe timings: bit-0 target, bit-1 target. */
using Probes = std::array<Cycle, 2>;

using Probe = std::function<Probes(System &, std::uint64_t secret)>;

/** Probe: the attacker times `va0` and `va1` with `timer` from core `c`
 *  (on the victim's core 0 it first has to be switched back in). */
Probe
timeBoth(Cycle (MemSystem::*timer)(CoreId, Asid, Addr), CoreId c,
         Addr va0, Addr va1)
{
    return [=](System &sys, std::uint64_t) {
        if (c == 0)
            runProgram(sys.core(0), Entry::Switch, noopProgram(),
                       kAttacker);
        return Probes{(sys.mem().*timer)(c, kAttacker, va0),
                      (sys.mem().*timer)(c, kAttacker, va1)};
    };
}

// --- decision rules: a bit from the two probes (255 = can't tell) ----------

/** The target whose probe is slow (evicted or demoted) names the bit. */
unsigned
slowSet(Cycle t0, Cycle t1, Cycle threshold)
{
    const bool slow1 = t1 > threshold;
    return ((t0 > threshold) == slow1) ? 255 : (slow1 ? 1 : 0);
}

/** The benign (bit=0) target is architecturally warmed by the victim's
 *  in-bounds training, so the bit is read off the bit=1 target alone:
 *  warm means the speculative access happened. */
unsigned
bit1Warm(Cycle, Cycle t1, Cycle threshold)
{
    return (t1 < threshold) ? 1 : 0;
}

/** The target whose probe is fast names the bit. */
unsigned
decideBit(Cycle t0, Cycle t1, Cycle threshold)
{
    return slowSet(t1, t0, threshold);
}

// --- the driver -------------------------------------------------------------

/** One attack, as runAttack() runs it. */
struct Attack
{
    const char *detail = "";
    unsigned cores = 1;
    /** Page aliases, applied to each fresh system first. */
    std::function<void(AddressSpace &)> aliases{};
    /** The bounds-check gadget the driver trains and then runs out of
     *  bounds; null for the attacks with their own choreography. */
    const Program *victim = nullptr;
    std::uint64_t r26 = 0;  ///< victim r26 preload (attack 2)
    Addr scratch = 0;       ///< victim word mapped before training (10)
    /** The attacker's step between eviction and the victim's run. */
    std::function<void(System &)> prime{};
    /** Times both targets after the victim's run (or, without a
     *  bounds-check victim, runs the whole choreography). */
    Probe probe{};
    unsigned (*decide)(Cycle t0, Cycle t1, Cycle threshold) = slowSet;
    Cycle threshold = kFastThreshold;
};

const char *
attackName(AttackFn run)
{
    for (const AttackEntry &a : kAttackTable)
        if (a.run == run)
            return a.name;
    panic("attack missing from kAttackTable");
}

/** Run `a` for secret 0 and 1, each on a fresh system, and report
 *  whether the probes recovered both (timings: the secret=1 run's). */
AttackOutcome
runAttack(AttackFn self, Scheme s, const MuonTrapConfig *mt_override,
          const Attack &a)
{
    unsigned rec[2] = {255, 255};
    Probes p{0, 0};
    std::uint64_t instructions = 0;
    Cycle cycles = 0;
    for (std::uint64_t secret = 0; secret < 2; ++secret) {
        SystemConfig sys_cfg = SystemConfig::forScheme(s, a.cores);
        if (mt_override)
            sys_cfg.mem.mt = *mt_override;
        System sys(sys_cfg);
        AddressSpace &vm = sys.mem().addressSpace();
        a.aliases(vm);
        if (a.victim) {
            const Program evict = evictionProgram(
                vm, {vm.translate(kVictim, kBoundPP),
                     vm.translate(kVictim, kBoundP)});
            // The bound chain, the victim array and the secret:
            // *kBoundPP = kBoundP ; *kBoundP = kBound
            MemSystem &mem = sys.mem();
            mem.write(kVictim, kBoundPP, kBoundP);
            mem.write(kVictim, kBoundP, static_cast<std::uint64_t>(kBound));
            for (std::int64_t i = 0; i < kBound; i += 8)
                mem.write(kVictim, kArray + static_cast<Addr>(i), 0);
            mem.write(kVictim, kArray + kSecretIndex, secret);
            if (a.scratch)
                mem.write(kVictim, a.scratch, 0);
            Core &core = sys.core(0);
            // 1. The victim trains its bounds check with in-bounds inputs.
            for (std::uint64_t i = 0; i < 64; i += 8)
                runProgram(core, Entry::Resume, *a.victim, kVictim, i,
                           a.r26);
            // 2. The attacker's helper process time-shares the victim's
            //    core to evict the bound chain from its L1/L2 (conflict
            //    eviction), which opens the long speculation window.
            runProgram(core, Entry::Switch, evict, kAttacker);
            if (a.prime)
                a.prime(sys);
            // 3. The victim switches back in on the malicious OOB input.
            runProgram(core, Entry::Switch, *a.victim, kVictim,
                       static_cast<std::uint64_t>(kSecretIndex), a.r26);
        }
        // 4. The attacker times its two targets.
        p = a.probe(sys, secret);
        rec[secret] = a.decide(p[0], p[1], a.threshold);
        for (CoreId c = 0; c < sys.numCores(); ++c) {
            instructions += sys.core(c).committedEver();
            cycles += sys.core(c).now();
        }
    }
    return {.attack = attackName(self), .scheme = schemeName(s),
            .leaked = (rec[0] == 0 && rec[1] == 1),
            .recovered0 = rec[0], .recovered1 = rec[1],
            .probe0Time = p[0], .probe1Time = p[1], .detail = a.detail,
            .simInstructions = instructions, .simCycles = cycles};
}

/** Run a prime-and-probe attack on core 0 (1, 2, 9, 10): the attacker
 *  primes every way of both candidate sets before the victim runs, then
 *  switches back in and times them. Per set the slowest way counts: an
 *  evicted line marks the set the victim's speculative load landed in. */
AttackOutcome
primeAndProbe(AttackFn self, Scheme s, const MuonTrapConfig *mt_override,
              Attack a, const std::vector<Page> &vpages,
              const std::vector<Page> &primes)
{
    const Program prime = primeProgram("prime", primes);
    a.aliases = [&](AddressSpace &vm) {
        aliasPages(vm, kVictim, vpages);
        aliasPages(vm, kAttacker, primes);
    };
    a.prime = [&](System &sys) {
        runProgram(sys.core(0), Entry::Resume, prime, kAttacker);
    };
    a.probe = [&](System &sys, std::uint64_t) {
        ArchContext actx;
        actx.program = &prime;
        actx.asid = kAttacker;
        sys.core(0).contextSwitch(actx);
        const std::size_t ways = primes.size() / 2;
        Probes t{0, 0};
        for (unsigned b = 0; b < 2; ++b)
            for (std::size_t w = 0; w < ways; ++w)
                t[b] = std::max(t[b], sys.mem().timeProbe(
                                          0, kAttacker,
                                          primes[b * ways + w].line()));
        return t;
    };
    return runAttack(self, s, mt_override, a);
}

} // namespace

AttackOutcome
runSpectrePrimeProbe(Scheme s, const MuonTrapConfig *mt_override)
{
    // Victim probe pages: bit b touches the line with L1 set kSet{b}
    // (*4096 selects the probe page); the attacker primes both ways of
    // each probed set.
    const Program victim = secretGadget("victim1", 12, kVProbe);
    return primeAndProbe(
        runSpectrePrimeProbe, s, mt_override,
        {.detail = "attacker primes two L1 sets; victim's speculative "
                   "secret-indexed load evicts from one of them",
         .victim = &victim},
        pinnedPages(kVProbe, 5, 1, paddrForSet, kSet0, kSet1),
        pinnedPages(kAPrime, 0, kL1Ways, paddrForSet, kSet0, kSet1));
}

AttackOutcome
runInclusionPolicyAttack(Scheme s, const MuonTrapConfig *mt_override)
{
    // Victim blasts one L1 set with three speculative fills (more than
    // the 2-way associativity), selected by the secret bit.
    ProgramBuilder vb("victim2");
    emitSecretRead(vb);
    // r5 = bit * 3 pages (r26 preloaded with 3)
    vb.andi(5, 4, 1).shli(5, 5, 12).mul(5, 5, 26);
    vb.movi(22, static_cast<std::int64_t>(kVProbe));
    vb.load(6, 22, 0 * kPageBytes, 5, 0);
    vb.load(7, 22, 1 * kPageBytes, 5, 0);
    vb.load(8, 22, 2 * kPageBytes, 5, 0);
    vb.label("done").halt();
    const Program victim = vb.take();
    return primeAndProbe(
        runInclusionPolicyAttack, s, mt_override,
        {.detail = "victim's speculative fills must not displace "
                   "attacker-visible L1 state (NINE filter cache)",
         .victim = &victim,
         // Preloading r26 = 3 in the context registers is simpler than
         // prepending a movi (r26 survives setup).
         .r26 = 3},
        pinnedPages(kVProbe, 5, 3, paddrForSet, kSet0, kSet1),
        pinnedPages(kAPrime, 0, kL1Ways, paddrForSet, kSet0, kSet1));
}

AttackOutcome
runSharedDataAttack(Scheme s, const MuonTrapConfig *mt_override)
{
    // Victim gadget: speculatively touch SHM + bit*64 (*64: line select).
    const Program victim = secretGadget("victim3", 6, kShm);
    // Attacker: own both lines in M.
    const Program owner = ownerProgram("owner3");
    return runAttack(
        runSharedDataAttack, s, mt_override,
        {.detail = "victim's speculative load must not demote the "
                   "attacker's M line (reduced coherency speculation)",
         .cores = 2,
         .aliases = sharedRegion(kShm, kAShm, kPinBase + (1ull << 37),
                                 kPageBytes),
         .victim = &victim,
         // The attacker takes M ownership of both lines on its core.
         .prime = [&](System &sys) {
             runProgram(sys.core(1), Entry::Resume, owner, kAttacker);
         },
         // The attacker times stores to both lines; the slow store (a
         // demoted line) reveals the bit.
         .probe = timeBoth(&MemSystem::timeStoreProbe, 1, kAShm,
                           kAShm + 64)});
}

AttackOutcome
runFilterCacheCoherencyAttack(Scheme s, const MuonTrapConfig *mt_override)
{
    // The victim speculatively loads SHM + bit*64 (cold everywhere).
    const Program victim = secretGadget("victim4", 6, kShm);
    return runAttack(
        runFilterCacheCoherencyAttack, s, mt_override,
        {.detail = "the victim's speculative copy must be invisible to "
                   "other cores' load timing (S-only fills + async SE "
                   "upgrade)",
         .cores = 2,
         .aliases = sharedRegion(kShm, kAShm, kPinBase + (1ull << 38),
                                 kPageBytes),
         .victim = &victim,
         // The attacker times plain loads of both lines from its core:
         // under a leaky design the line the victim touched answers
         // faster (remote supply / L2 copy).
         .probe = timeBoth(&MemSystem::timeProbe, 1, kAShm, kAShm + 64),
         .decide = bit1Warm,
         .threshold = kOnChipThreshold});
}

AttackOutcome
runPrefetcherAttack(Scheme s, const MuonTrapConfig *mt_override)
{
    const Program victim = strideGadget("victim5");
    return runAttack(
        runPrefetcherAttack, s, mt_override,
        {.detail = "speculative stride training must not install lines "
                   "the victim never touched (prefetch on commit)",
         // Both 16KiB regions, shared with the attacker.
         .aliases = sharedRegion(kPfRegion, kAPf, kPinBase + (1ull << 39),
                                 2 * kRegionGap),
         .victim = &victim,
         // The attacker probes the line *beyond* the victim's touches in
         // each region: only the prefetcher could have brought it in.
         // Training warms the bit=0 region's prefetch target.
         .probe = timeBoth(&MemSystem::timeProbe, 0, kAPf + kProbeOff,
                           kAPf + kRegionGap + kProbeOff),
         .decide = bit1Warm,
         .threshold = kOnChipThreshold});
}

AttackOutcome
runIcacheAttack(Scheme s, const MuonTrapConfig *mt_override)
{
    // Victim gadget with two landing pads a page of code apart.
    ProgramBuilder vb("victim6");
    emitSecretRead(vb);
    // target index = gadgetA + bit*1024 (1024 instructions = 1 page)
    vb.andi(5, 4, 1).shli(5, 5, 10);
    vb.movi(7, 0);                   // patched below with gadgetA index
    const std::uint64_t movi_idx = vb.here() - 1;
    vb.add(5, 5, 7).jumpReg(5);
    vb.label("done").halt();
    // Pad so gadget A starts on a fresh page of code.
    while (vb.here() % 1024 != 0)
        vb.nop();
    const std::uint64_t gadget_a = vb.here();
    vb.label("gadgetA");
    for (int i = 0; i < 4; ++i)
        vb.nop();
    vb.bra("done");
    while (vb.here() % 1024 != 0)
        vb.nop();
    vb.label("gadgetB");
    for (int i = 0; i < 4; ++i)
        vb.nop();
    vb.bra("done").halt();
    Program victim = vb.take();
    victim.ops[movi_idx].imm = static_cast<std::int64_t>(gadget_a);
    const Addr ga_va = victim.pcToVaddr(gadget_a);
    const Addr gb_va = victim.pcToVaddr(gadget_a + 1024);

    return runAttack(
        runIcacheAttack, s, mt_override,
        {.detail = "secret-dependent speculative control flow must not be "
                   "observable through instruction-cache timing "
                   "(instruction filter cache)",
         // The attacker maps the victim's code pages (shared library
         // scenario) so it can time instruction lines.
         .aliases = [&](AddressSpace &vm) {
             const Addr ga_pa = pageAlign(vm.translate(kVictim, ga_va));
             const Addr gb_pa = pageAlign(vm.translate(kVictim, gb_va));
             vm.alias(kAttacker, kACode, ga_pa, kPageBytes);
             vm.alias(kAttacker, kACode + kPageBytes, gb_pa, kPageBytes);
         },
         .victim = &victim,
         // Gadget A is architecturally fetched during training (benign
         // bit = 0), so the secret is read off gadget B's line alone.
         .probe = timeBoth(&MemSystem::timeIfetchProbe, 0,
                           kACode + (ga_va & (kPageBytes - 1)),
                           kACode + kPageBytes + (gb_va & (kPageBytes - 1))),
         .decide = bit1Warm,
         .threshold = kOnChipThreshold});
}

AttackOutcome
runSpectreBtbInjection(Scheme s, const MuonTrapConfig *mt_override)
{
    constexpr Addr kFnPtrP = 0x56'0000'0000ull; // &fnptr (chase level 0)
    constexpr Addr kFnPtr = 0x58'0000'0000ull;  // fnptr  (chase level 1)
    constexpr Addr kSecret = 0x57'0000'0000ull;

    // Victim: load a function pointer and call through it. The gadget
    // (attacker-chosen speculative target) lives later in the victim's
    // own code, as v2 gadgets do.
    ProgramBuilder vb("victim_v2");
    vb.movi(20, static_cast<std::int64_t>(kFnPtrP));
    vb.movi(21, static_cast<std::int64_t>(kSecret));
    vb.movi(22, static_cast<std::int64_t>(kVProbe));
    // Dependent two-level pointer load: with both lines evicted by the
    // attacker, target resolution takes two DRAM round trips — a wide
    // speculation window, as real v2 exploits engineer.
    vb.load(4, 20, 0);              // r4 = &fnptr
    vb.load(4, 4, 0);               // r4 = fn index
    const std::uint64_t jump_pc = vb.here();
    vb.jumpReg(4);
    vb.label("benign").movi(5, 1);
    // The benign path touches *other words* of the secret's and probe
    // pages (as real victims do), keeping their translations warm so
    // the gadget's dependent loads fit inside the speculation window.
    // The measured probe lines themselves are never touched here.
    vb.load(5, 21, 2048).load(5, 22, 2048);
    vb.load(5, 22, kPageBytes + 2048).halt();
    while (vb.here() % 64 != 0)
        vb.nop();
    const std::uint64_t gadget_pc = vb.here();
    vb.label("gadget");
    vb.load(6, 21, 0).andi(6, 6, 1).shli(6, 6, 12); // secret bit * 4096
    vb.load(7, 22, 0, 6, 0).halt();                 // probe[bit]
    const Program victim = vb.take();
    const std::uint64_t benign_pc = jump_pc + 1;

    // Attacker trainer: an indirect jump at the *same PC* whose real
    // target is the gadget index — the BTB is PC-indexed and not
    // ASID-tagged, exactly the pre-mitigation hardware v2 needs.
    ProgramBuilder ab("trainer_v2");
    ab.movi(4, static_cast<std::int64_t>(gadget_pc));
    while (ab.here() < jump_pc)
        ab.nop();
    ab.jumpReg(4);
    // The trainer's own program must contain the jump target.
    while (ab.here() < gadget_pc)
        ab.nop();
    ab.movi(5, 2).halt();
    const Program trainer = ab.take();

    return runAttack(
        runSpectreBtbInjection, s, mt_override,
        {.detail = "attacker-trained BTB sends the victim's indirect call "
                   "speculatively into a secret-leaking gadget; the cache "
                   "channel must stay closed even though the injection "
                   "itself needs orthogonal BTB isolation",
         // The victim's probe pages, which the attacker maps too.
         .aliases = [](AddressSpace &vm) {
             aliasPages(vm, kVictim,
                        pinnedPages(kVProbe, 9, 1, paddrForSet, kSet0, kSet1));
             aliasPages(vm, kAttacker,
                        pinnedPages(kAPrime, 9, 1, paddrForSet, kSet0, kSet1));
         },
         .probe = [&](System &sys, std::uint64_t secret) {
             AddressSpace &vm = sys.mem().addressSpace();
             sys.mem().write(kVictim, kFnPtrP, kFnPtr);
             sys.mem().write(kVictim, kFnPtr, benign_pc);
             sys.mem().write(kVictim, kSecret, secret);
             const Program evict =
                 evictionProgram(vm, {vm.translate(kVictim, kFnPtrP),
                                      vm.translate(kVictim, kFnPtr)});
             Core &core = sys.core(0);
             // 1. Victim runs normally (BTB learns the benign target).
             for (int i = 0; i < 4; ++i)
                 runProgram(core, Entry::Resume, victim, kVictim);
             // 2. Attacker poisons the BTB entry and evicts the function
             //    pointer to widen the speculation window.
             runProgram(core, Entry::Switch, trainer, kAttacker);
             for (int i = 0; i < 4; ++i)
                 runProgram(core, Entry::Resume, trainer, kAttacker);
             runProgram(core, Entry::Resume, evict, kAttacker);
             // 3. Victim's next call speculates into the gadget.
             runProgram(core, Entry::Switch, victim, kVictim);
             // 4. Attacker times the probe lines.
             return timeBoth(&MemSystem::timeProbe, 0, kAPrime,
                             kAPrime + kPageBytes)(sys, secret);
         },
         .decide = decideBit,
         .threshold = kOnChipThreshold});
}

AttackOutcome
runBusCovertChannel(Scheme s, const MuonTrapConfig *mt_override)
{
    // Sender: commit a store to line[secret] (r1 = secret bit).
    ProgramBuilder sb("sender7");
    sb.andi(5, 1, 1).shli(5, 5, 6); // *64: line select
    sb.movi(22, static_cast<std::int64_t>(kShm));
    sb.movi(3, 0x5e).store(3, 22, 0, 5, 0).halt();
    const Program sender = sb.take();
    // Receiver: take M ownership of both candidate lines.
    const Program receiver = ownerProgram("receiver7");
    return runAttack(
        runBusCovertChannel, s, mt_override,
        {.detail = "committed cross-core covert channel: the sender's "
                   "architectural store steals the receiver's M line, "
                   "read back as store-ownership latency — outside every "
                   "speculation defence's threat model (matrix negative "
                   "control: all schemes leak)",
         .cores = 2,
         .aliases = sharedRegion(kShm, kAShm, kPinBase + (1ull << 40),
                                 kPageBytes),
         .probe = [&](System &sys, std::uint64_t secret) {
             // 1. Receiver takes M on both lines on its core.
             runProgram(sys.core(1), Entry::Resume, receiver, kAttacker);
             // 2. Sender commits a store to line[secret], transferring
             //    ownership across the bus.
             runProgram(sys.core(0), Entry::Resume, sender, kVictim,
                        secret);
             // 3. Receiver times store ownership of both lines: the
             //    stolen line needs the bus again.
             return timeBoth(&MemSystem::timeStoreProbe, 1, kAShm,
                             kAShm + 64)(sys, secret);
         }});
}

AttackOutcome
runPrefetchCovertChannel(Scheme s, const MuonTrapConfig *mt_override)
{
    // Victim gadget: identical stride training to attack 5.
    const Program victim = strideGadget("victim8");
    return runAttack(
        runPrefetchCovertChannel, s, mt_override,
        {.detail = "the victim's speculative strides train the shared L2 "
                   "prefetcher, which installs lines a *second core's* "
                   "receiver can time — speculative training must not "
                   "cross cores (prefetch on commit)",
         .cores = 2,
         .aliases = sharedRegion(kPfRegion, kAPf,
                                 kPinBase + (1ull << 40) + (1ull << 39),
                                 2 * kRegionGap),
         .victim = &victim,
         // The receiver on core 1 times the line beyond the victim's
         // touches in each region: only the shared prefetcher could have
         // brought it on chip, and the shared L2 makes it visible
         // cross-core. Training warms the bit=0 region's target.
         .probe = timeBoth(&MemSystem::timeProbe, 1, kAPf + kProbeOff,
                           kAPf + kRegionGap + kProbeOff),
         .decide = bit1Warm,
         .threshold = kOnChipThreshold});
}

AttackOutcome
runL2PrimeProbe(Scheme s, const MuonTrapConfig *mt_override)
{
    // Two L2 sets that alias to the *same* L1 set (128 and 640 are both
    // 128 mod 512) and whose line offsets are page-aligned.
    constexpr unsigned kL2PSet0 = 128;
    constexpr unsigned kL2PSet1 = 640;
    // Victim gadget: the attack-1 secret-indexed probe load.
    const Program victim = secretGadget("victim9", 12, kVProbe);
    return primeAndProbe(
        runL2PrimeProbe, s, mt_override,
        {.detail = "pure set-conflict eviction timing on the shared L2: "
                   "the victim's speculative fill evicts one way of an "
                   "attacker-primed L2 set (both candidate lines share an "
                   "L1 set, isolating the L2 conflict)",
         .victim = &victim,
         // A line pushed all the way to DRAM marks the conflicted set.
         .threshold = kOnChipThreshold},
        pinnedPages(kVProbe, 20, 1, paddrForL2Set, kL2PSet0, kL2PSet1),
        pinnedPages(kAPrime, 0, kL2Ways, paddrForL2Set, kL2PSet0, kL2PSet1));
}

AttackOutcome
runSpecStoreChannel(Scheme s, const MuonTrapConfig *mt_override)
{
    constexpr Addr kScratch = 0x59'0000'0000ull; // victim scratch slot
    // Victim gadget: OOB load -> transient store -> forwarded load ->
    // secret-indexed probe. The forwarded value arrives with the
    // *store address* register's (clean) taint.
    ProgramBuilder vb("victim10");
    emitSecretRead(vb);
    vb.movi(23, static_cast<std::int64_t>(kScratch));
    vb.store(4, 23, 0);             // transient store of the secret
    vb.load(5, 23, 0);              // store-buffer forward
    vb.andi(5, 5, 1).shli(5, 5, 12);
    vb.movi(22, static_cast<std::int64_t>(kVProbe));
    vb.load(6, 22, 0, 5, 0);        // touch probe[bit]
    vb.label("done").halt();
    const Program victim = vb.take();
    return primeAndProbe(
        runSpecStoreChannel, s, mt_override,
        {.detail = "a transient store is forwarded to a younger load, "
                   "laundering the secret's taint before the probe load "
                   "(the documented STT store-forwarding gap: STT leaks, "
                   "the cache-isolation defences still block the channel)",
         .victim = &victim,
         // Touch the scratch slot so its mapping exists before the run.
         .scratch = kScratch},
        pinnedPages(kVProbe, 11, 1, paddrForSet, kSet0, kSet1),
        pinnedPages(kAPrime, 0, kL1Ways, paddrForSet, kSet0, kSet1));
}

// --- the table's consumers and the declared contract ------------------------

std::vector<AttackOutcome>
runAllAttacks(Scheme s)
{
    std::vector<AttackOutcome> out;
    for (const AttackEntry &a : kAttackTable)
        out.push_back(a.run(s, nullptr));
    return out;
}

bool
expectedLeak(const std::string &attack, Scheme s)
{
    // The committed bus covert channel is architectural: outside every
    // speculation defence's threat model.
    if (attack == "7:bus-covert")
        return true;
    switch (s) {
      case Scheme::Baseline:
      case Scheme::InsecureL0:
        return true;
      case Scheme::MuonTrap:
      case Scheme::MuonTrapClearMisspec:
      case Scheme::MuonTrapParallel:
        return false;
      case Scheme::InvisiSpecSpectre:
      case Scheme::InvisiSpecFuture:
      case Scheme::DelayOnMiss:
        // Load-side defences leave the instruction side unprotected.
        return attack == "6:icache";
      case Scheme::SttSpectre:
      case Scheme::SttFuture:
        // ... and STT additionally has the store-forwarding taint gap.
        return attack == "6:icache" || attack == "10:spec-store";
    }
    return true;
}

const std::vector<Scheme> &
securityMatrixSchemes()
{
    static const std::vector<Scheme> v = {
        Scheme::Baseline,
        Scheme::InsecureL0,
        Scheme::MuonTrap,
        Scheme::MuonTrapClearMisspec,
        Scheme::InvisiSpecSpectre,
        Scheme::SttSpectre,
        Scheme::DelayOnMiss,
    };
    return v;
}

} // namespace mtrap
