/**
 * @file
 * Tests of SMARTS-style sampled timing (sim::SamplingParams): the
 * exactness contract (architectural counters identical to a full
 * detailed run; only cycle/event counters are extrapolated), error
 * bounds of the extrapolation, and reset() clearing the sampling
 * mode.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "kernels/kernels.h"
#include "masm/assembler.h"
#include "sim/machine.h"
#include "workloads/workload.h"

using namespace bp5;

namespace {

/// ~180k dynamic instructions with data-dependent branches and memory
/// traffic: enough work that sampled windows see the steady state.
const char *kLoopSrc = R"(
        addis   r13, r0, 0x40
        li      r14, 0
        li      r15, 1234
        li      r12, 16384
        mtctr   r12
loop:
        mulli   r15, r15, 25
        addi    r15, r15, 13
        srdi    r16, r15, 7
        andi.   r17, r15, 63
        std     r15, 0(r13)
        ld      r18, 0(r13)
        cmpdi   r17, 32
        blt     skip
        add     r14, r14, r18
skip:
        bdnz    loop
        mr      r3, r14
        li      r0, 0
        sc
)";

sim::RunResult
runLoop(const sim::SamplingParams &p,
        const sim::MachineConfig &cfg = sim::MachineConfig())
{
    masm::Program prog = masm::assemble(kLoopSrc);
    sim::Machine m(cfg);
    m.setSampling(p);
    m.loadProgram(prog);
    m.state().pc = prog.base;
    return m.run();
}

/// Strip the extrapolated event counters, keeping the architectural
/// ones the sampling contract promises to report exactly.
sim::Counters
archOnly(sim::Counters c)
{
    c.cycles = 0;
    c.mispredDirection = c.mispredTarget = c.takenBubbles = 0;
    c.btacPredictions = c.btacCorrect = c.btacMispredicts = 0;
    c.l1dMisses = c.l1iMisses = c.l2Misses = 0;
    c.stallCycles.fill(0);
    c.cpi.fill(0);
    return c;
}

TEST(Sampling, ArchCountersExactEventCountersClose)
{
    sim::RunResult full = runLoop(sim::SamplingParams{});
    sim::RunResult sampled = runLoop({2'000, 18'000, true});

    ASSERT_TRUE(full.halted);
    ASSERT_TRUE(sampled.halted);
    EXPECT_FALSE(full.sampled);
    EXPECT_TRUE(sampled.sampled);
    EXPECT_EQ(sampled.exitCode, full.exitCode);

    // The architectural side is exact, including the dynamic op mix
    // and the reconstructed cache access counts.
    EXPECT_EQ(archOnly(sampled.counters), archOnly(full.counters));
    EXPECT_EQ(sampled.counters.l1iAccesses, sampled.counters.instructions);
    EXPECT_EQ(sampled.counters.l1dAccesses,
              sampled.counters.loads + sampled.counters.stores);

    // Measurement bookkeeping adds up.
    const auto &st = sampled.sampling;
    EXPECT_GT(st.windows, 1u);
    EXPECT_EQ(st.detailedInstructions + st.fastForwardedInstructions,
              sampled.counters.instructions);
    EXPECT_GT(st.detailedCycles, 0u);
    EXPECT_LT(st.detailedInstructions, sampled.counters.instructions / 2);

    // Extrapolated IPC and mispredict rate track the full run.
    double ipcErr = std::fabs(sampled.counters.ipc() - full.counters.ipc()) /
                    full.counters.ipc();
    EXPECT_LT(ipcErr, 0.15) << "sampled " << sampled.counters.ipc()
                            << " vs full " << full.counters.ipc();
    double fullRate = double(full.counters.mispredDirection) /
                      double(full.counters.instructions);
    double sampRate = double(sampled.counters.mispredDirection) /
                      double(sampled.counters.instructions);
    EXPECT_LT(std::fabs(sampRate - fullRate), 0.01)
        << "sampled " << sampRate << " vs full " << fullRate;
}

TEST(Sampling, DisabledParamsAreBitExact)
{
    // Zeroed params (enabled() == false) must take the plain full-
    // detail path, bit-for-bit.
    sim::RunResult a = runLoop(sim::SamplingParams{});
    sim::RunResult b = runLoop({0, 0, true});
    sim::RunResult c = runLoop({5'000, 0, true}); // skip=0: disabled
    EXPECT_FALSE(b.sampled);
    EXPECT_FALSE(c.sampled);
    EXPECT_EQ(a.counters, b.counters);
    EXPECT_EQ(a.counters, c.counters);
}

TEST(Sampling, WorksWithBtacConfig)
{
    sim::MachineConfig cfg = sim::MachineConfig::power5WithBtac();
    sim::RunResult full = runLoop(sim::SamplingParams{}, cfg);
    sim::RunResult sampled = runLoop({2'000, 18'000, true}, cfg);
    EXPECT_EQ(archOnly(sampled.counters), archOnly(full.counters));
    double ipcErr = std::fabs(sampled.counters.ipc() - full.counters.ipc()) /
                    full.counters.ipc();
    EXPECT_LT(ipcErr, 0.15);
}

TEST(Sampling, ResetDisablesSampling)
{
    sim::Machine m;
    m.setSampling({1'000, 9'000, true});
    EXPECT_TRUE(m.sampling().enabled());
    m.reset();
    EXPECT_FALSE(m.sampling().enabled());
}

/// KernelMachine pass-through: sampled totals keep architectural
/// counts exact across repeated kernel invocations, and reset()
/// returns the machine to full-detail mode (reset == fresh).
TEST(Sampling, KernelMachineSampledWorkload)
{
    using namespace bp5::kernels;
    workloads::WorkloadConfig wc;
    wc.app = workloads::App::Fasta;
    wc.simInstructionBudget = 200'000;
    workloads::Workload w(wc);

    KernelMachine full(workloads::appKernel(wc.app),
                       mpc::Variant::Baseline, sim::MachineConfig());
    w.simulate(full);

    KernelMachine sampled(workloads::appKernel(wc.app),
                          mpc::Variant::Baseline, sim::MachineConfig());
    sampled.setSampling({2'000, 18'000, true});
    w.simulate(sampled);

    EXPECT_EQ(archOnly(sampled.totals()), archOnly(full.totals()));
    EXPECT_GT(sampled.totals().cycles, 0u);
    double ipcErr =
        std::fabs(sampled.totals().ipc() - full.totals().ipc()) /
        full.totals().ipc();
    EXPECT_LT(ipcErr, 0.15);

    // reset() clears sampling: the machine must reproduce the fresh
    // full-detail machine bit-for-bit.
    sampled.reset();
    w.simulate(sampled);
    EXPECT_EQ(sampled.totals(), full.totals());
}

} // namespace
