/**
 * @file
 * Unit tests for the tournament branch predictor, BTB and RAS.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "cpu/branch_predictor.hh"
#include "snapshot/snapshot.hh"

namespace mtrap
{
namespace
{

TEST(BranchPredictor, LearnsAlwaysTaken)
{
    StatGroup g("g");
    BranchPredictor bp(BranchPredictorParams{}, &g);
    // The local component indexes counters by branch history, so the
    // first ~historyBits outcomes walk fresh counters; train past that.
    for (int i = 0; i < 24; ++i) {
        bp.predictDirection(0x40);
        bp.trainDirection(0x40, true);
    }
    EXPECT_TRUE(bp.predictDirection(0x40));
}

TEST(BranchPredictor, LearnsAlwaysNotTaken)
{
    StatGroup g("g");
    BranchPredictor bp(BranchPredictorParams{}, &g);
    for (int i = 0; i < 8; ++i) {
        bp.predictDirection(0x44);
        bp.trainDirection(0x44, false);
    }
    EXPECT_FALSE(bp.predictDirection(0x44));
}

TEST(BranchPredictor, LearnsAlternatingPatternViaLocalHistory)
{
    StatGroup g("g");
    BranchPredictor bp(BranchPredictorParams{}, &g);
    // Warm up on a strict T/N/T/N pattern.
    bool outcome = false;
    for (int i = 0; i < 64; ++i) {
        bp.predictDirection(0x80);
        bp.trainDirection(0x80, outcome);
        outcome = !outcome;
    }
    // Now the predictor should track the alternation.
    int correct = 0;
    for (int i = 0; i < 32; ++i) {
        const bool pred = bp.predictDirection(0x80);
        if (pred == outcome)
            ++correct;
        bp.trainDirection(0x80, outcome);
        outcome = !outcome;
    }
    EXPECT_GE(correct, 28) << "local history should capture T/N/T/N";
}

TEST(BranchPredictor, IndependentBranchesDoNotInterfereMuch)
{
    StatGroup g("g");
    BranchPredictor bp(BranchPredictorParams{}, &g);
    for (int i = 0; i < 16; ++i) {
        bp.predictDirection(0x100);
        bp.trainDirection(0x100, true);
        bp.predictDirection(0x200);
        bp.trainDirection(0x200, false);
    }
    EXPECT_TRUE(bp.predictDirection(0x100));
    EXPECT_FALSE(bp.predictDirection(0x200));
}

TEST(BranchPredictor, CrossDomainTrainingPersists)
{
    // The predictor is deliberately not ASID-tagged: an attacker can
    // train a victim's branch (Spectre v1 precondition).
    StatGroup g("g");
    BranchPredictor bp(BranchPredictorParams{}, &g);
    for (int i = 0; i < 8; ++i) {
        bp.predictDirection(0x300);
        bp.trainDirection(0x300, false);
    }
    // "Context switch": nothing resets; the trained prediction remains.
    EXPECT_FALSE(bp.predictDirection(0x300));
}

TEST(Btb, HitReturnsTrainedTarget)
{
    StatGroup g("g");
    BranchPredictor bp(BranchPredictorParams{}, &g);
    EXPECT_EQ(bp.predictTarget(0x50), kAddrInvalid);
    bp.trainTarget(0x50, 0x1234);
    EXPECT_EQ(bp.predictTarget(0x50), 0x1234u);
}

TEST(Btb, ConflictingPcsEvict)
{
    StatGroup g("g");
    BranchPredictorParams p;
    p.btbEntries = 16;
    BranchPredictor bp(p, &g);
    bp.trainTarget(0x10, 0x111);
    bp.trainTarget(0x10 + 16, 0x222); // same BTB slot
    EXPECT_EQ(bp.predictTarget(0x10), kAddrInvalid);
    EXPECT_EQ(bp.predictTarget(0x10 + 16), 0x222u);
}

TEST(Btb, SnapshotWritesWideEntries)
{
    // The BTB stores 32-bit entries but saves u64 pc/target pairs, an
    // empty field as kAddrInvalid: slot 0x50 holds the trained pair and
    // slot 0x51 is empty.
    StatGroup g("g");
    BranchPredictor bp(BranchPredictorParams{}, &g);
    bp.trainTarget(0x50, 0x1234);
    Serializer s;
    bp.saveState(s);
    std::vector<std::uint8_t> pattern;
    for (std::uint64_t w : {std::uint64_t{0x50}, std::uint64_t{0x1234},
                            kAddrInvalid, kAddrInvalid})
        for (unsigned i = 0; i < 8; ++i)
            pattern.push_back(static_cast<std::uint8_t>(w >> (8 * i)));
    const auto &bytes = s.bytes();
    EXPECT_NE(std::search(bytes.begin(), bytes.end(), pattern.begin(),
                          pattern.end()),
              bytes.end());

    Serializer framed;
    framed.beginSection(1);
    bp.saveState(framed);
    framed.endSection();
    BranchPredictor back(BranchPredictorParams{}, &g);
    Deserializer d(frameSnapshot(framed, 1, 2), 1, 2);
    d.beginSection(1);
    back.restoreState(d);
    d.endSection();
    EXPECT_EQ(back.predictTarget(0x50), 0x1234u);
    EXPECT_EQ(back.predictTarget(0x51), kAddrInvalid);
}

TEST(Ras, PushPopLifo)
{
    StatGroup g("g");
    BranchPredictor bp(BranchPredictorParams{}, &g);
    bp.pushReturn(0x10);
    bp.pushReturn(0x20);
    EXPECT_EQ(bp.popReturn(), 0x20u);
    EXPECT_EQ(bp.popReturn(), 0x10u);
    EXPECT_EQ(bp.popReturn(), kAddrInvalid);
}

TEST(Ras, WrapsAtCapacity)
{
    StatGroup g("g");
    BranchPredictorParams p;
    p.rasEntries = 4;
    BranchPredictor bp(p, &g);
    for (Addr i = 1; i <= 6; ++i)
        bp.pushReturn(i);
    // The oldest two were overwritten.
    EXPECT_EQ(bp.popReturn(), 6u);
    EXPECT_EQ(bp.popReturn(), 5u);
    EXPECT_EQ(bp.popReturn(), 4u);
    EXPECT_EQ(bp.popReturn(), 3u);
}

TEST(Snapshot, RestoresGlobalHistoryAndRas)
{
    StatGroup g("g");
    BranchPredictor bp(BranchPredictorParams{}, &g);
    bp.pushReturn(0x10);
    const auto snap = bp.snapshot();
    bp.pushReturn(0x20);
    bp.trainDirection(0x100, true); // advances global history
    bp.restore(snap);
    EXPECT_EQ(bp.popReturn(), 0x10u)
        << "wrong-path RAS pushes must be undone by restore";
}

TEST(Stats, MispredictRateFormula)
{
    StatGroup g("g");
    BranchPredictor bp(BranchPredictorParams{}, &g);
    bp.predictDirection(0x10);
    bp.predictDirection(0x10);
    ++bp.mispredicts;
    EXPECT_DOUBLE_EQ(bp.mispredictRate.value(), 0.5);
}

} // namespace
} // namespace mtrap
