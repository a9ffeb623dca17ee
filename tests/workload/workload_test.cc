/**
 * @file
 * Unit tests for the synthetic workload generator: profiles build valid
 * programs, chase rings are well-formed, and profiles exhibit the
 * behaviour class they claim (locality, MLP, branchiness, sharing).
 */

#include <gtest/gtest.h>

#include <set>

#include "sim/mem_system.hh"
#include "sim/runner.hh"
#include "workload/parsec_profiles.hh"
#include "workload/spec_profiles.hh"

namespace mtrap
{
namespace
{

TEST(Profiles, AllSpecBenchmarksBuild)
{
    EXPECT_EQ(specBenchmarkNames().size(), 26u);
    for (const std::string &name : specBenchmarkNames()) {
        const Workload w = buildSpecWorkload(name);
        EXPECT_EQ(w.threads(), 1u);
        EXPECT_GT(w.threadPrograms[0].size(), 10u);
        EXPECT_EQ(w.name, name);
    }
}

TEST(Profiles, AllParsecBenchmarksBuild)
{
    EXPECT_EQ(parsecBenchmarkNames().size(), 7u);
    for (const std::string &name : parsecBenchmarkNames()) {
        const Workload w = buildParsecWorkload(name);
        EXPECT_EQ(w.threads(), 4u);
        for (const Program &p : w.threadPrograms)
            EXPECT_GT(p.size(), 10u);
    }
}

TEST(Profiles, UnknownNameFatal)
{
    EXPECT_EXIT(buildSpecWorkload("nonesuch"),
                ::testing::ExitedWithCode(1), "unknown");
    EXPECT_EXIT(buildParsecWorkload("nonesuch"),
                ::testing::ExitedWithCode(1), "unknown");
}

TEST(Profiles, DeterministicGeneration)
{
    const Program a = buildThreadProgram(specProfile("gcc"), 0);
    const Program b = buildThreadProgram(specProfile("gcc"), 0);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a.ops[i].type, b.ops[i].type);
        EXPECT_EQ(a.ops[i].imm, b.ops[i].imm);
    }
}

TEST(Profiles, ThreadsGetDistinctPrivateRegions)
{
    const Program t0 = buildThreadProgram(parsecProfile("ferret"), 0);
    const Program t1 = buildThreadProgram(parsecProfile("ferret"), 1);
    // The preamble loads the private base into r10 via movi; find it.
    auto find_base = [](const Program &p) -> std::int64_t {
        for (const MicroOp &op : p.ops)
            if (op.alu == AluOp::MovImm && op.dst == 10)
                return op.imm;
        return -1;
    };
    EXPECT_NE(find_base(t0), find_base(t1));
}

TEST(Profiles, CodeBlocksGrowProgramSize)
{
    WorkloadProfile small = specProfile("gcc");
    WorkloadProfile big = small;
    small.codeBlocks = 1;
    big.codeBlocks = 8;
    EXPECT_GT(buildThreadProgram(big, 0).size(),
              4 * buildThreadProgram(small, 0).size() / 2);
}

TEST(ChaseRing, IsASingleCycle)
{
    StatGroup g("g");
    MemSystemParams mp;
    MemSystem ms(mp, &g);
    WorkloadProfile p = specProfile("mcf");
    p.dataFootprint = 64 * kLineBytes; // 64 nodes for a fast test
    p.chaseBytes = 64 * kLineBytes;
    initChaseRing(ms, 1, p, 0);

    const Addr base = WorkloadLayout::kChaseBase;
    std::set<Addr> seen;
    Addr cur = base;
    for (unsigned i = 0; i < 64; ++i) {
        EXPECT_TRUE(seen.insert(cur).second) << "ring revisited early";
        cur = ms.read(1, cur);
        EXPECT_GE(cur, base);
        EXPECT_LT(cur, base + 64 * kLineBytes);
    }
    EXPECT_EQ(cur, base) << "ring must close after visiting every node";
}

// --- behaviour-class checks (cheap end-to-end runs) -------------------------

RunResult
quickRun(const Workload &w, Scheme s)
{
    RunOptions opt;
    opt.warmupInstructions = 5'000;
    opt.measureInstructions = 20'000;
    return run({SystemConfig::forScheme(s), w, opt}).result;
}

TEST(Behaviour, ComputeProfileHasHighIpc)
{
    const RunResult r = quickRun(buildSpecWorkload("gamess"),
                                 Scheme::Baseline);
    EXPECT_GT(r.ipc, 1.2);
}

TEST(Behaviour, PointerChaseProfileHasLowIpc)
{
    const RunResult chase = quickRun(buildSpecWorkload("mcf"),
                                     Scheme::Baseline);
    const RunResult compute = quickRun(buildSpecWorkload("gamess"),
                                       Scheme::Baseline);
    EXPECT_LT(chase.ipc, compute.ipc * 0.7);
}

TEST(Behaviour, BranchyProfileMispredicts)
{
    RunOptions opt;
    opt.warmupInstructions = 5'000;
    opt.measureInstructions = 20'000;
    RunOutput out = run({SystemConfig::forScheme(Scheme::Baseline),
                         buildSpecWorkload("gobmk"), opt, "b"});
    EXPECT_GT(out.system->core(0).squashes.value(), 100u)
        << "gobmk-like profiles must mispredict heavily";
}

TEST(Behaviour, SharedProfileGeneratesCoherenceTraffic)
{
    RunOptions opt;
    opt.warmupInstructions = 5'000;
    opt.measureInstructions = 15'000;
    RunOutput out = run({SystemConfig::forScheme(Scheme::Baseline, 4),
                         buildParsecWorkload("ferret"), opt, "f"});
    EXPECT_GT(out.system->mem().bus().remoteSupplies.value(), 0u)
        << "shared writes must cause cache-to-cache transfers";
}

TEST(Behaviour, StreamProfileTriggersPrefetcher)
{
    RunOptions opt;
    opt.warmupInstructions = 5'000;
    opt.measureInstructions = 15'000;
    RunOutput out = run({SystemConfig::forScheme(Scheme::Baseline),
                         buildSpecWorkload("lbm"), opt, "l"});
    EXPECT_GT(out.system->mem().prefetcher()->issued.value(), 50u);
}

} // namespace
} // namespace mtrap
