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
 * Also pins the determinism contract for the extended choreographies:
 * running an attack twice yields identical outcomes, bit for bit.
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
 *  - 6:icache leaks under the load-side defences (V/S/D): they leave
 *    the instruction side unprotected; MuonTrap's instruction filter
 *    blocks it.
 *  - 7:bus-covert leaks everywhere: a committed, architectural channel
 *    — the matrix's negative control.
 *  - 10:spec-store leaks under STT only: store-to-load forwarding
 *    clears the taint before the probe load.
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

using AttackFn = AttackOutcome (*)(Scheme, const MuonTrapConfig *);

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
