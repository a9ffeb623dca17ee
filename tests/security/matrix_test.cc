/**
 * @file
 * THE security matrix, declared in one place: for every
 * (attack, scheme) cell, whether the attack is expected to LEAK or be
 * blocked. This table is the single source of truth; ctest asserts
 * that (a) the library contract expectedLeak() — which the harness
 * verdict and docs are driven by — matches it cell for cell, and
 * (b) the live attack outcomes match it cell for cell. Any divergence
 * between code, harness and documentation therefore fails here first.
 *
 * Also pins, literally, the recovered bits and probe timings of every
 * attack under every scheme and under every ablation configuration
 * (tests/security/ablation_test.cc), and the determinism contract for
 * the extended choreographies: running an attack twice yields identical
 * outcomes, bit for bit.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "workload/attacks.hh"

namespace mtrap
{
namespace
{

/**
 * Declared expected-outcome table. One row per attack; one character
 * per scheme column ('L' = LEAK, 'b' = blocked). Columns follow
 * securityMatrixSchemes() order:
 *
 *   B = Baseline              V = InvisiSpec-Spectre
 *   I = Insecure-L0           S = STT-Spectre
 *   M = MuonTrap              D = DelayOnMiss
 *   C = MuonTrap-ClearMisspec
 *
 * Rationale per surprising cell:
 *  - Insecure-L0 leaks every attack: an unprotected L0 propagates
 *    speculative fills to the L1, so even 1:spectre-prime-probe still
 *    works.
 *  - 6:icache leaks under the load-side defences (V/S/D): they leave
 *    the instruction side unprotected; MuonTrap's instruction filter
 *    blocks it.
 *  - v2:btb-injection is blocked by MuonTrap although the BTB injection
 *    itself still happens (MuonTrap leaves predictor isolation to
 *    orthogonal mechanisms, §4.9): the cache channel the gadget needs
 *    is closed.
 *  - 7:bus-covert leaks everywhere: a committed, architectural channel
 *    — the matrix's negative control, which no speculation defence can
 *    (or should) close.
 *  - 10:spec-store leaks under STT only: STT clears the taint at
 *    store-to-load forwarding, so the probe load issues unhindered.
 *    DelayOnMiss blocks it: the forwarded *value* is free, but the
 *    probe load still misses the private hierarchy while shadowed, so
 *    it stalls past the squash.
 */
struct DeclaredRow
{
    const char *attack;
    const char *cells; // B I M C V S D
};

constexpr DeclaredRow kDeclaredMatrix[] = {
    {"1:spectre-prime-probe", "LLbbbbb"},
    {"2:inclusion-policy",    "LLbbbbb"},
    {"3:shared-data",         "LLbbbbb"},
    {"4:filter-coherency",    "LLbbbbb"},
    {"5:prefetcher",          "LLbbbbb"},
    {"6:icache",              "LLbbLLL"},
    {"v2:btb-injection",      "LLbbbbb"},
    {"7:bus-covert",          "LLLLLLL"},
    {"8:prefetch-covert",     "LLbbbbb"},
    {"9:l2-prime-probe",      "LLbbbbb"},
    {"10:spec-store",         "LLbbbLb"},
};

constexpr std::size_t kRows = std::size(kDeclaredMatrix);

TEST(SecurityMatrix, ColumnsAreTheDocumentedSchemes)
{
    const std::vector<Scheme> &schemes = securityMatrixSchemes();
    const std::vector<std::string> expected = {
        "Baseline",           "Insecure-L0", "MuonTrap",
        "MuonTrap-ClearMisspec", "InvisiSpec-Spectre", "STT-Spectre",
        "DelayOnMiss",
    };
    ASSERT_EQ(schemes.size(), expected.size());
    for (std::size_t i = 0; i < schemes.size(); ++i)
        EXPECT_EQ(schemeName(schemes[i]), expected[i]);
    for (const DeclaredRow &row : kDeclaredMatrix)
        ASSERT_EQ(std::strlen(row.cells), schemes.size()) << row.attack;
}

TEST(SecurityMatrix, LibraryContractMatchesDeclaredTable)
{
    const std::vector<Scheme> &schemes = securityMatrixSchemes();
    for (const DeclaredRow &row : kDeclaredMatrix) {
        for (std::size_t c = 0; c < schemes.size(); ++c) {
            EXPECT_EQ(expectedLeak(row.attack, schemes[c]),
                      row.cells[c] == 'L')
                << row.attack << " under " << schemeName(schemes[c]);
        }
    }
}

TEST(SecurityMatrix, LiveOutcomesMatchDeclaredTableEveryCell)
{
    const std::vector<Scheme> &schemes = securityMatrixSchemes();
    for (std::size_t c = 0; c < schemes.size(); ++c) {
        const std::vector<AttackOutcome> outcomes =
            runAllAttacks(schemes[c]);
        ASSERT_EQ(outcomes.size(), kRows)
            << "runAllAttacks rows out of sync with the declared table";
        for (std::size_t r = 0; r < kRows; ++r) {
            const AttackOutcome &o = outcomes[r];
            ASSERT_EQ(o.attack, kDeclaredMatrix[r].attack)
                << "attack order out of sync with the declared table";
            EXPECT_EQ(o.leaked, kDeclaredMatrix[r].cells[c] == 'L')
                << o.attack << " under " << schemeName(schemes[c])
                << ": recovered0=" << o.recovered0
                << " recovered1=" << o.recovered1
                << " t0=" << o.probe0Time << " t1=" << o.probe1Time
                << " — " << o.detail;
        }
    }
}

// --- pinned outcomes --------------------------------------------------------

/** One attack outcome, pinned literally so a failure names its cell. */
struct Pin
{
    unsigned recovered0;
    unsigned recovered1;
    Cycle probe0Time;
    Cycle probe1Time;
};

void
expectPinned(const AttackOutcome &o, const Pin &p, const std::string &cell)
{
    EXPECT_EQ(o.recovered0, p.recovered0) << cell;
    EXPECT_EQ(o.recovered1, p.recovered1) << cell;
    EXPECT_EQ(o.probe0Time, p.probe0Time) << cell;
    EXPECT_EQ(o.probe1Time, p.probe1Time) << cell;
}

struct PinnedRow
{
    const char *attack;
    Pin cells[10]; // allSchemes() order
};

/**
 * (recovered0, recovered1, probe0Time, probe1Time) for every attack
 * under every scheme of allSchemes(), not just the seven matrix
 * columns: Baseline, Insecure-L0, MuonTrap, MuonTrap-ClearMisspec,
 * MuonTrap-ParallelL1, InvisiSpec-Spectre, InvisiSpec-Future,
 * STT-Spectre, STT-Future, DelayOnMiss. Probe times are from the
 * secret=1 run. A refactor of the attack code leaves every value here
 * unchanged; a value that moves is a timing change to that attack.
 */
const PinnedRow kPinnedOutcomes[] = {
    {"1:spectre-prime-probe",
     {{0, 1, 2, 32}, {0, 1, 3, 33}, {255, 255, 3, 3},
      {255, 255, 3, 3}, {255, 255, 3, 3}, {255, 255, 2, 2},
      {255, 255, 2, 2}, {255, 255, 2, 2}, {255, 255, 2, 2},
      {255, 255, 2, 2}}},
    {"2:inclusion-policy",
     {{0, 1, 2, 32}, {0, 1, 3, 33}, {255, 255, 3, 3},
      {255, 255, 3, 3}, {255, 255, 3, 3}, {255, 255, 2, 2},
      {255, 255, 2, 2}, {255, 255, 2, 2}, {255, 255, 2, 2},
      {255, 255, 2, 2}}},
    {"3:shared-data",
     {{0, 1, 2, 12}, {0, 1, 2, 12}, {255, 255, 2, 2},
      {255, 255, 2, 2}, {255, 255, 2, 2}, {255, 255, 2, 2},
      {255, 255, 2, 2}, {255, 255, 2, 2}, {255, 255, 2, 2},
      {255, 255, 2, 2}}},
    {"4:filter-coherency",
     {{0, 1, 27, 27}, {0, 1, 28, 28}, {0, 0, 28, 143},
      {0, 0, 28, 143}, {0, 0, 28, 143}, {0, 0, 27, 142},
      {0, 0, 27, 142}, {0, 0, 27, 142}, {0, 0, 27, 142},
      {0, 0, 27, 142}}},
    {"5:prefetcher",
     {{0, 1, 32, 32}, {0, 1, 33, 33}, {0, 0, 33, 143},
      {0, 0, 33, 143}, {0, 0, 33, 143}, {0, 0, 32, 142},
      {0, 0, 32, 142}, {0, 0, 32, 142}, {0, 0, 32, 142},
      {0, 0, 32, 142}}},
    {"6:icache",
     {{0, 1, 1, 1}, {0, 1, 1, 1}, {0, 0, 2, 142},
      {0, 0, 2, 142}, {0, 0, 2, 142}, {0, 1, 1, 1},
      {0, 1, 1, 1}, {0, 1, 1, 1}, {0, 1, 1, 1},
      {0, 1, 1, 1}}},
    {"v2:btb-injection",
     {{0, 1, 142, 2}, {0, 1, 143, 3}, {255, 255, 143, 143},
      {255, 255, 143, 143}, {255, 255, 143, 143}, {255, 255, 142, 142},
      {255, 255, 142, 142}, {255, 255, 142, 142}, {255, 255, 142, 142},
      {255, 255, 142, 142}}},
    {"7:bus-covert",
     {{0, 1, 2, 27}, {0, 1, 2, 27}, {0, 1, 2, 27},
      {0, 1, 2, 27}, {0, 1, 2, 27}, {0, 1, 2, 27},
      {0, 1, 2, 27}, {0, 1, 2, 27}, {0, 1, 2, 27},
      {0, 1, 2, 27}}},
    {"8:prefetch-covert",
     {{0, 1, 32, 32}, {0, 1, 33, 33}, {0, 0, 33, 143},
      {0, 0, 33, 143}, {0, 0, 33, 143}, {0, 0, 32, 142},
      {0, 0, 32, 142}, {0, 0, 32, 142}, {0, 0, 32, 142},
      {0, 0, 32, 142}}},
    {"9:l2-prime-probe",
     {{0, 1, 32, 142}, {0, 1, 33, 143}, {255, 255, 33, 33},
      {255, 255, 33, 33}, {255, 255, 33, 33}, {255, 255, 32, 32},
      {255, 255, 32, 32}, {255, 255, 32, 32}, {255, 255, 32, 32},
      {255, 255, 32, 32}}},
    {"10:spec-store",
     {{0, 1, 2, 32}, {0, 1, 3, 33}, {255, 255, 3, 3},
      {255, 255, 3, 3}, {255, 255, 3, 3}, {255, 255, 2, 2},
      {255, 255, 2, 2}, {0, 1, 2, 32}, {0, 1, 2, 32},
      {255, 255, 2, 2}}},
};

TEST(SecurityMatrix, OutcomesPinnedUnderEveryScheme)
{
    const std::vector<Scheme> &schemes = allSchemes();
    ASSERT_EQ(schemes.size(), std::size(kPinnedOutcomes[0].cells));
    for (std::size_t c = 0; c < schemes.size(); ++c) {
        const std::vector<AttackOutcome> outcomes =
            runAllAttacks(schemes[c]);
        ASSERT_EQ(outcomes.size(), std::size(kPinnedOutcomes));
        for (std::size_t r = 0; r < outcomes.size(); ++r) {
            const AttackOutcome &o = outcomes[r];
            ASSERT_EQ(o.attack, kPinnedOutcomes[r].attack);
            expectPinned(o, kPinnedOutcomes[r].cells[c],
                         o.attack + " under " + schemeName(schemes[c]));
        }
    }
}

MuonTrapConfig
fullWith(void (*edit)(MuonTrapConfig &))
{
    MuonTrapConfig c = MuonTrapConfig::full();
    edit(c);
    return c;
}

/** Every (attack, MuonTrapConfig) pair that ablation_test runs, under
 *  Scheme::MuonTrap, pinned the same way. */
TEST(SecurityMatrix, AblationOutcomesPinned)
{
    const MuonTrapConfig full = MuonTrapConfig::full();
    const MuonTrapConfig no_coh = fullWith(
        [](MuonTrapConfig &c) { c.protectCoherence = false; });
    const MuonTrapConfig no_pf = fullWith(
        [](MuonTrapConfig &c) { c.commitPrefetch = false; });
    const MuonTrapConfig no_if = fullWith(
        [](MuonTrapConfig &c) { c.instFilter = false; });
    const MuonTrapConfig ins_l0 = MuonTrapConfig::insecureL0();
    const MuonTrapConfig par = fullWith(
        [](MuonTrapConfig &c) { c.parallelL0L1 = true; });
    const struct
    {
        const char *config;
        AttackFn fn;
        const MuonTrapConfig *mt;
        Pin pin;
    } cases[] = {
        {"no coherence protection", runSharedDataAttack, &no_coh,
         {0, 1, 2, 12}},
        {"full", runSharedDataAttack, &full, {255, 255, 2, 2}},
        {"no commit prefetch", runPrefetcherAttack, &no_pf,
         {0, 1, 33, 33}},
        {"no instruction filter", runIcacheAttack, &no_if, {0, 1, 1, 1}},
        {"insecure L0", runSpectrePrimeProbe, &ins_l0, {0, 1, 3, 33}},
        {"no instruction filter", runSpectrePrimeProbe, &no_if,
         {255, 255, 3, 3}},
        {"no commit prefetch", runSharedDataAttack, &no_pf,
         {255, 255, 2, 2}},
        {"parallel L0/L1", runSpectrePrimeProbe, &par, {255, 255, 3, 3}},
        {"parallel L0/L1", runInclusionPolicyAttack, &par,
         {255, 255, 3, 3}},
        {"parallel L0/L1", runIcacheAttack, &par, {0, 0, 2, 142}},
    };
    for (const auto &k : cases) {
        const AttackOutcome o = k.fn(Scheme::MuonTrap, k.mt);
        expectPinned(o, k.pin, o.attack + " with " + k.config);
    }
}

// --- determinism of the extended choreographies ----------------------------

void
expectIdenticalOutcomes(const AttackOutcome &a, const AttackOutcome &b)
{
    EXPECT_EQ(a.attack, b.attack);
    EXPECT_EQ(a.scheme, b.scheme);
    EXPECT_EQ(a.leaked, b.leaked) << a.attack << " on " << a.scheme;
    EXPECT_EQ(a.recovered0, b.recovered0) << a.attack << " on "
                                          << a.scheme;
    EXPECT_EQ(a.recovered1, b.recovered1) << a.attack << " on "
                                          << a.scheme;
    EXPECT_EQ(a.probe0Time, b.probe0Time) << a.attack << " on "
                                          << a.scheme;
    EXPECT_EQ(a.probe1Time, b.probe1Time) << a.attack << " on "
                                          << a.scheme;
    EXPECT_EQ(a.detail, b.detail);
}

struct NamedAttack
{
    const char *name;
    AttackFn fn;
};

// Print the attack by name only: gtest's default printer shows the two
// pointers, whose addresses change from run to run, so the listed test
// names would never repeat.
void
PrintTo(const NamedAttack &a, std::ostream *os)
{
    *os << a.name;
}

class NewAttackDeterminism : public ::testing::TestWithParam<NamedAttack>
{
};

TEST_P(NewAttackDeterminism, RunTwiceIsBitIdentical)
{
    const AttackFn fn = GetParam().fn;
    // Two schemes bracketing the interesting behaviour: the leaky
    // baseline and the defence with the most machinery.
    for (Scheme s : {Scheme::Baseline, Scheme::MuonTrap}) {
        const AttackOutcome first = fn(s, nullptr);
        const AttackOutcome second = fn(s, nullptr);
        expectIdenticalOutcomes(first, second);
    }
}

INSTANTIATE_TEST_SUITE_P(
    ExtendedAttacks, NewAttackDeterminism,
    ::testing::Values(NamedAttack{"bus_covert", &runBusCovertChannel},
                      NamedAttack{"prefetch_covert",
                                  &runPrefetchCovertChannel},
                      NamedAttack{"l2_prime_probe", &runL2PrimeProbe},
                      NamedAttack{"spec_store", &runSpecStoreChannel}),
    [](const ::testing::TestParamInfo<NamedAttack> &info) {
        return std::string(info.param.name);
    });

} // namespace
} // namespace mtrap
