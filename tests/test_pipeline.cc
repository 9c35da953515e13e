/**
 * @file
 * Timing-model tests: the POWER5-class core model must exhibit the
 * behaviours the paper's experiments rely on — the 2-cycle taken-branch
 * bubble, costly direction mispredictions, BTAC bubble removal, FXU
 * scaling, cache-miss latency and dependency serialization.
 */

#include <gtest/gtest.h>

#include "masm/assembler.h"
#include "obs/pmu_sampler.h"
#include "sim/machine.h"

namespace bp5::sim {
namespace {

RunResult
runTimed(const std::string &body, const MachineConfig &cfg = MachineConfig(),
         uint64_t max = 10'000'000)
{
    Machine m(cfg);
    masm::Program p = masm::assemble(body + "\nli r0, 0\nsc\n", 0x10000);
    m.loadProgram(p);
    m.state().pc = p.base;
    RunResult res = m.run(max);
    EXPECT_TRUE(res.halted);
    return res;
}

/** A counted loop whose body is repeated independent adds. */
std::string
addLoop(int iters, int adds)
{
    std::string s = "li r3, " + std::to_string(iters) + "\nmtctr r3\n";
    s += "loop:\n";
    for (int i = 0; i < adds; ++i)
        s += "add r" + std::to_string(4 + i % 8) + ", r10, r11\n";
    s += "bdnz loop\n";
    return s;
}

TEST(Pipeline, CyclesAreNonZeroAndBounded)
{
    RunResult r = runTimed(addLoop(100, 4));
    EXPECT_GT(r.counters.cycles, 0u);
    // IPC can never exceed the commit width.
    EXPECT_LE(r.counters.ipc(), 5.0);
    EXPECT_GT(r.counters.ipc(), 0.1);
}

TEST(Pipeline, DependentChainSerializes)
{
    // A loop of dependent adds retires at most one add per cycle; the
    // same adds made independent exploit both FXUs.  The loop amortizes
    // cold instruction-cache misses.
    std::string dep = "li r3, 500\nmtctr r3\nli r4, 0\nli r5, 1\nloop:\n";
    for (int i = 0; i < 16; ++i)
        dep += "add r4, r4, r5\n";
    dep += "bdnz loop\n";
    RunResult r = runTimed(dep);
    EXPECT_GE(r.counters.cycles, 500u * 16u);

    std::string indep = "li r3, 500\nmtctr r3\nli r4, 0\nli r5, 1\nloop:\n";
    for (int i = 0; i < 16; ++i)
        indep += "add r" + std::to_string(6 + i % 8) + ", r4, r5\n";
    indep += "bdnz loop\n";
    RunResult r2 = runTimed(indep);
    EXPECT_LT(r2.counters.cycles * 3, r.counters.cycles * 2);
}

TEST(Pipeline, TwoFxuLimitIndependentAdds)
{
    // With 2 FXUs, >=6000 independent adds take >= ~3000 cycles.
    RunResult r = runTimed(addLoop(1000, 6));
    double ipc = r.counters.ipc();
    EXPECT_LT(ipc, 2.6); // 2 FXUs + branch per iteration
}

TEST(Pipeline, TakenBranchBubbleCosts)
{
    MachineConfig with = MachineConfig();
    MachineConfig without = MachineConfig();
    without.takenBranchPenalty = 0;
    // Tight loop: one taken branch every 3 instructions.
    RunResult a = runTimed(addLoop(2000, 2), with);
    RunResult b = runTimed(addLoop(2000, 2), without);
    EXPECT_GT(a.counters.cycles, b.counters.cycles + 2 * 1800);
    EXPECT_GT(a.counters.takenBubbles, 1900u);
}

TEST(Pipeline, SmtRaisesTakenPenalty)
{
    MachineConfig smt;
    smt.smt = true;
    RunResult a = runTimed(addLoop(2000, 2));
    RunResult b = runTimed(addLoop(2000, 2), smt);
    EXPECT_GT(b.counters.cycles, a.counters.cycles);
}

TEST(Pipeline, LoopBranchesPredictWell)
{
    RunResult r = runTimed(addLoop(5000, 2));
    // The backward loop branch mispredicts at most a handful of times.
    EXPECT_LT(r.counters.branchMispredictRate(), 0.01);
}

TEST(Pipeline, DataDependentBranchesMispredict)
{
    // Branch on a pseudo-random bit (xorshift): ~50% taken, no pattern.
    std::string s = R"(
        li r3, 12345
        li r4, 5000
        mtctr r4
        li r5, 0
        li r6, 0
    loop:
        # xorshift64 step
        sldi r7, r3, 13
        xor r3, r3, r7
        srdi r7, r3, 7
        xor r3, r3, r7
        sldi r7, r3, 17
        xor r3, r3, r7
        andi. r7, r3, 1
        beq skip
        addi r5, r5, 1
    skip:
        addi r6, r6, 1
        bdnz loop
    )";
    RunResult r = runTimed(s);
    // The data-dependent branch is ~half of conditional branches here
    // (the rest are well-predicted loop branches).
    EXPECT_GT(r.counters.branchMispredictRate(), 0.10);
    EXPECT_GT(r.counters.mispredictDirectionShare(), 0.95);
}

TEST(Pipeline, MispredictsCostCycles)
{
    // Same loop, branch always taken (predictable) vs random.
    std::string predictable = R"(
        li r4, 3000
        mtctr r4
        li r5, 0
    loop:
        andi. r7, r4, 0
        beq always
        addi r5, r5, 1
    always:
        addi r6, r6, 1
        bdnz loop
    )";
    RunResult a = runTimed(predictable);
    EXPECT_LT(a.counters.branchMispredictRate(), 0.02);
}

TEST(Pipeline, BtacRemovesTakenBubble)
{
    MachineConfig base;
    MachineConfig btac = MachineConfig::power5WithBtac();
    // Tiny hot loop: the loop branch has a stable target.
    RunResult a = runTimed(addLoop(5000, 2), base);
    RunResult b = runTimed(addLoop(5000, 2), btac);
    EXPECT_LT(b.counters.cycles, a.counters.cycles);
    EXPECT_GT(b.counters.btacPredictions, 4000u);
    EXPECT_LT(b.counters.btacMispredicts * 20,
              b.counters.btacPredictions);
}

TEST(Pipeline, BtacStatsExposed)
{
    MachineConfig cfg = MachineConfig::power5WithBtac();
    Machine m(cfg);
    masm::Program p = masm::assemble(addLoop(100, 2) + "\nli r0,0\nsc\n",
                                     0x10000);
    m.loadProgram(p);
    m.state().pc = p.base;
    m.run();
    EXPECT_GT(m.btac().stats().lookups, 0u);
    EXPECT_GT(m.btac().stats().allocations, 0u);
}

TEST(Pipeline, MoreFxusHelpFxuBoundCode)
{
    std::string body = addLoop(2000, 8);
    RunResult two = runTimed(body, MachineConfig::power5WithFxu(2));
    RunResult four = runTimed(body, MachineConfig::power5WithFxu(4));
    EXPECT_LT(four.counters.cycles, two.counters.cycles);
    double speedup = double(two.counters.cycles) / four.counters.cycles;
    EXPECT_GT(speedup, 1.2);
}

TEST(Pipeline, FxuCountDoesNotAffectCorrectness)
{
    std::string body = "li r3, 10\nmtctr r3\nli r4, 0\n"
                       "loop: addi r4, r4, 3\nbdnz loop\n"
                       "mr r3, r4\n";
    for (unsigned fxu : {2u, 3u, 4u}) {
        Machine m(MachineConfig::power5WithFxu(fxu));
        masm::Program p = masm::assemble(body + "li r0,0\nsc\n", 0x10000);
        m.loadProgram(p);
        m.state().pc = p.base;
        RunResult r = m.run();
        EXPECT_EQ(r.exitCode, 30);
    }
}

TEST(Pipeline, CacheMissesAddLatency)
{
    // Stream over 1 MiB (larger than L1D 32 KiB): misses appear.
    std::string s = R"(
        li r3, 8192
        mtctr r3
        li r4, 0
        oris r5, r4, 4
    loop:
        ldx r6, r5, r4
        addi r4, r4, 128
        bdnz loop
    )";
    RunResult r = runTimed(s);
    EXPECT_GT(r.counters.l1dMisses, 7000u);

    // L1-resident version of the same loop is much faster per load.
    std::string s2 = R"(
        li r3, 8192
        mtctr r3
        li r4, 0
        oris r5, r4, 4
    loop:
        ldx r6, r5, r4
        bdnz loop
    )";
    RunResult r2 = runTimed(s2);
    EXPECT_LT(r2.counters.l1dMisses, 10u);
    EXPECT_LT(r2.counters.cycles, r.counters.cycles);
}

TEST(Pipeline, StoreToLoadForwardingOrdersAccesses)
{
    // A load immediately after a store to the same address must see
    // the stored value (functional) and be ordered after it (timing).
    std::string s = R"(
        li r1, 0x4000
        li r3, 1234
        std r3, 0(r1)
        ld r4, 0(r1)
        mr r3, r4
    )";
    Machine m;
    masm::Program p = masm::assemble(s + "li r0,0\nsc\n", 0x10000);
    m.loadProgram(p);
    m.state().pc = p.base;
    RunResult r = m.run();
    EXPECT_EQ(r.exitCode, 1234);
}

TEST(Pipeline, StallCyclesDoNotExceedTotal)
{
    RunResult r = runTimed(addLoop(3000, 4));
    uint64_t total = 0;
    for (uint64_t v : r.counters.stallCycles)
        total += v;
    EXPECT_LE(total, r.counters.cycles);
}

TEST(Pipeline, TimelineSamplingProducesSeries)
{
    Machine m;
    masm::Program p = masm::assemble(addLoop(20000, 4) + "li r0,0\nsc\n",
                                     0x10000);
    m.loadProgram(p);
    m.state().pc = p.base;
    obs::PmuSampler sampler(1000);
    m.setTraceSink(&sampler);
    m.run(UINT64_MAX);
    const std::vector<obs::IntervalSample> timeline = sampler.timeline();
    EXPECT_GT(timeline.size(), 10u);
    for (const auto &s : timeline) {
        EXPECT_GE(s.ipc, 0.0);
        EXPECT_LE(s.ipc, 5.0);
    }
}

TEST(Pipeline, TimingMatchesFunctionalResults)
{
    // The timing run must retire the identical architectural state.
    std::string body = addLoop(500, 3) + "mr r3, r4\n";
    Machine m1, m2;
    masm::Program p = masm::assemble(body + "li r0,0\nsc\n", 0x10000);
    m1.loadProgram(p);
    m1.state().pc = p.base;
    m2.loadProgram(p);
    m2.state().pc = p.base;
    RunResult a = m1.run();
    RunResult b = m2.runFunctional();
    EXPECT_EQ(a.exitCode, b.exitCode);
    EXPECT_EQ(a.counters.instructions, b.counters.instructions);
    EXPECT_EQ(m1.state().gpr, m2.state().gpr);
}

TEST(Pipeline, MispredictPenaltyKnobMatters)
{
    std::string s = R"(
        li r3, 12345
        li r4, 3000
        mtctr r4
    loop:
        sldi r7, r3, 13
        xor r3, r3, r7
        srdi r7, r3, 7
        xor r3, r3, r7
        andi. r7, r3, 1
        beq skip
        addi r5, r5, 1
    skip:
        bdnz loop
    )";
    MachineConfig cheap;
    cheap.mispredictPenalty = 0;
    MachineConfig dear;
    dear.mispredictPenalty = 30;
    RunResult a = runTimed(s, cheap);
    RunResult b = runTimed(s, dear);
    EXPECT_GT(b.counters.cycles, a.counters.cycles);
}

TEST(Pipeline, RunIsDeterministic)
{
    RunResult a = runTimed(addLoop(1000, 3));
    RunResult b = runTimed(addLoop(1000, 3));
    EXPECT_EQ(a.counters.cycles, b.counters.cycles);
    EXPECT_EQ(a.counters.mispredDirection, b.counters.mispredDirection);
}

} // namespace
} // namespace bp5::sim
