/**
 * @file
 * Executable implementations of the paper's attack boxes (1-6), the
 * Spectre-v2 injection variant and four extended choreographies (7-10).
 * Each attack builds fresh systems, runs the attacker/victim
 * choreography for secret values 0 and 1, and reports whether timing
 * measurements recover the secret.
 *
 * Under Scheme::Baseline every attack must leak; under Scheme::MuonTrap
 * every attack but the committed bus channel (7) must be blocked. The
 * declared outcome of every (attack, scheme) cell is expectedLeak();
 * tests/security/matrix_test.cc and the harness's security suite
 * (`mtrap_batch --suite security`) assert the live outcomes against it.
 *
 * Choreography is driven from C++ (prime, run victim gadget, measure)
 * rather than from a single program, mirroring how the attacks are
 * described: the attacker controls when the victim runs and measures
 * with a perfect stopwatch (MemSystem::timeProbe), which only makes the
 * attacks *easier* — a defence that stops the stopwatch version stops
 * the noisy-timer version a fortiori. All attacks run through one
 * driver in attacks.cc: per secret value it builds a fresh system, and
 * for the bounds-check attacks it evicts the bound chain, trains the
 * victim gadget in bounds and runs it out of bounds; each attack adds
 * only its aliases, its attacker step, its probe and one of three
 * decision rules. The v2 and bus-covert attacks bring their own
 * choreography.
 */

#ifndef MTRAP_WORKLOAD_ATTACKS_HH
#define MTRAP_WORKLOAD_ATTACKS_HH

#include <string>
#include <vector>

#include "defense/scheme.hh"

namespace mtrap
{

/** Result of one attack experiment. */
struct AttackOutcome
{
    std::string attack;
    std::string scheme;
    /** Secret recovered for both secret=0 and secret=1 runs. */
    bool leaked = false;
    /** Recovered bits (255 = indistinguishable). */
    unsigned recovered0 = 255;
    unsigned recovered1 = 255;
    /** Representative probe timings from the secret=1 run. */
    Cycle probe0Time = 0;
    Cycle probe1Time = 0;
    std::string detail;
    /** Simulation work of both runs: instructions committed and final
     *  clocks, summed over every core of each run's system. */
    std::uint64_t simInstructions = 0;
    Cycle simCycles = 0;
};

/**
 * Every attack takes the scheme to attack and an optional MuonTrap
 * configuration override (`mt_override`), which replaces the scheme's
 * memory-side configuration on the Table-1 system. The override is how
 * the ablation security tests show that each sub-mechanism is load-
 * bearing: e.g. full MuonTrap minus commit-time prefetching must leak
 * through attack 5 again.
 */

/** Attack 1: Spectre prime-and-probe through the data cache. */
AttackOutcome runSpectrePrimeProbe(Scheme s,
                                   const MuonTrapConfig *mt_override
                                       = nullptr);

/** Attack 2: inclusion-policy attack — evicting attacker-visible lines
 *  from the L1 via speculative fills. */
AttackOutcome runInclusionPolicyAttack(Scheme s,
                                       const MuonTrapConfig *mt_override
                                           = nullptr);

/** Attack 3: shared-data attack — speculatively demoting a remote M/E
 *  line and timing the owner's next store (two cores). */
AttackOutcome runSharedDataAttack(Scheme s,
                                  const MuonTrapConfig *mt_override
                                      = nullptr);

/** Attack 4: filter-cache coherency attack — observing the victim's
 *  speculative copy through coherence-grant timing (two cores). */
AttackOutcome runFilterCacheCoherencyAttack(
    Scheme s, const MuonTrapConfig *mt_override = nullptr);

/** Attack 5: prefetcher attack — speculative stride training leaking
 *  through prefetched lines. */
AttackOutcome runPrefetcherAttack(Scheme s,
                                  const MuonTrapConfig *mt_override
                                      = nullptr);

/** Attack 6: instruction-cache attack — secret-dependent speculative
 *  control flow observed through I-cache timing. */
AttackOutcome runIcacheAttack(Scheme s,
                              const MuonTrapConfig *mt_override
                                  = nullptr);

/**
 * Spectre variant 2 (branch-target injection, §7.1/§4.9): the attacker
 * trains the shared BTB so the victim's indirect call speculatively
 * jumps to a *gadget the attacker chose*, which loads a secret-indexed
 * probe line. The paper notes BTB isolation (Arm v8.5 / Intel eIBRS) as
 * the orthogonal fix for the *injection*; MuonTrap's contribution is
 * that even with a poisoned BTB the cache side *channel* is closed.
 */
AttackOutcome runSpectreBtbInjection(Scheme s,
                                     const MuonTrapConfig *mt_override
                                         = nullptr);

/**
 * Attack 7: cross-core covert channel through the coherence bus. The
 * sender's *committed* store steals write ownership of a receiver-owned
 * line; the receiver reads the bit off store-ownership latency. Pure
 * architectural channel — the negative control of the matrix: every
 * speculation defence leaks it, by design.
 */
AttackOutcome runBusCovertChannel(Scheme s,
                                  const MuonTrapConfig *mt_override
                                      = nullptr);

/** Attack 8: cross-core channel through shared prefetcher training
 *  state — the victim's speculative strides prefetch into the shared
 *  L2, where a second core's receiver can time them. */
AttackOutcome runPrefetchCovertChannel(Scheme s,
                                       const MuonTrapConfig *mt_override
                                           = nullptr);

/** Attack 9: prime-and-probe on the shared L2 with no flush primitive:
 *  pure set-conflict eviction timing. Both candidate lines share an L1
 *  set, so only an L2 conflict explains the signal. */
AttackOutcome runL2PrimeProbe(Scheme s,
                              const MuonTrapConfig *mt_override
                                  = nullptr);

/** Attack 10: speculative-store channel — a transient store is
 *  forwarded to a younger load, laundering the secret's taint before it
 *  reaches the probe load (the documented STT forwarding gap). */
AttackOutcome runSpecStoreChannel(Scheme s,
                                  const MuonTrapConfig *mt_override
                                      = nullptr);

using AttackFn = AttackOutcome (*)(Scheme, const MuonTrapConfig *);

/** One row of the security matrix: the attack's name (which its
 *  AttackOutcome::attack reports) and its runner. */
struct AttackEntry
{
    const char *name;
    AttackFn run;
};

/** All paper attacks plus the v2 injection variant and the extended
 *  choreographies (7-10), in matrix row order: the one list of attacks,
 *  which runAllAttacks() and the harness's security suite iterate. */
inline constexpr AttackEntry kAttackTable[] = {
    {"1:spectre-prime-probe", runSpectrePrimeProbe},
    {"2:inclusion-policy", runInclusionPolicyAttack},
    {"3:shared-data", runSharedDataAttack},
    {"4:filter-coherency", runFilterCacheCoherencyAttack},
    {"5:prefetcher", runPrefetcherAttack},
    {"6:icache", runIcacheAttack},
    {"v2:btb-injection", runSpectreBtbInjection},
    {"7:bus-covert", runBusCovertChannel},
    {"8:prefetch-covert", runPrefetchCovertChannel},
    {"9:l2-prime-probe", runL2PrimeProbe},
    {"10:spec-store", runSpecStoreChannel},
};

/** Every kAttackTable row under `s`, in matrix row order. */
std::vector<AttackOutcome> runAllAttacks(Scheme s);

/**
 * Declared expected outcome for every (attack, scheme) cell of the
 * security matrix: true = the attack leaks under that scheme. This is
 * the contract the harness verdict and the security tests assert the
 * live outcomes against (tests/security/matrix_test.cc pins the same
 * table literally).
 */
bool expectedLeak(const std::string &attack, Scheme s);

/** The scheme columns of the security matrix, in presentation order. */
const std::vector<Scheme> &securityMatrixSchemes();

} // namespace mtrap

#endif // MTRAP_WORKLOAD_ATTACKS_HH
