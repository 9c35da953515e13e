/**
 * @file
 * Workload-layer tests: input generation, the Fig-1 native profile,
 * simulated counter sanity (Table I bands), and variant behaviour at
 * the application level.
 */

#include <gtest/gtest.h>

#include "workloads/workload.h"

namespace bp5::workloads {
namespace {

WorkloadConfig
cfg(App app, InputClass k = InputClass::A, uint64_t budget = 300'000)
{
    WorkloadConfig c;
    c.app = app;
    c.klass = k;
    c.simInstructionBudget = budget;
    return c;
}

TEST(WorkloadMeta, NamesAndKernels)
{
    EXPECT_STREQ(appName(App::Blast), "Blast");
    EXPECT_STREQ(appName(App::Hmmer), "Hmmer");
    EXPECT_EQ(appKernel(App::Clustalw),
              kernels::KernelKind::ForwardPass);
    EXPECT_EQ(appKernel(App::Fasta), kernels::KernelKind::Dropgsw);
    EXPECT_EQ(appKernel(App::Blast), kernels::KernelKind::SemiGAlign);
    EXPECT_EQ(appKernel(App::Hmmer), kernels::KernelKind::P7Viterbi);
}

TEST(WorkloadMeta, InputClassParsing)
{
    EXPECT_EQ(inputClassFromString("A"), InputClass::A);
    EXPECT_EQ(inputClassFromString("b"), InputClass::B);
    EXPECT_EQ(inputClassFromString("C"), InputClass::C);
}

TEST(Workload, ProfileSharesSumToOne)
{
    for (int a = 0; a < int(App::NUM_APPS); ++a) {
        Workload w(cfg(static_cast<App>(a)));
        auto prof = w.profileNative();
        ASSERT_FALSE(prof.empty()) << appName(static_cast<App>(a));
        double total = 0.0;
        for (const auto &f : prof)
            total += f.share;
        EXPECT_NEAR(total, 1.0, 1e-9);
        // Breakdown is sorted by descending share.
        for (size_t i = 1; i < prof.size(); ++i)
            EXPECT_GE(prof[i - 1].seconds, prof[i].seconds);
    }
}

TEST(Workload, HotKernelDominatesProfile)
{
    // Paper Fig 1: every app except Blast spends > half its time in
    // one function; Blast's largest is SEMI_G_ALIGN.  Use class B so
    // the asymptotics show.
    const char *expect[4] = {"SEMI_G_ALIGN", "forward_pass", "dropgsw",
                             "P7Viterbi"};
    for (int a = 0; a < 4; ++a) {
        Workload w(cfg(static_cast<App>(a), InputClass::B));
        auto prof = w.profileNative();
        if (static_cast<App>(a) == App::Blast) {
            // Blast has no >50% function (paper Fig 1); under load the
            // ordering of its top two stages can flip, so assert the
            // gapped-extension kernel is a major consumer rather than
            // strictly the largest.
            double share = 0.0;
            for (const auto &f : prof) {
                if (f.name.find("SEMI_G_ALIGN") != std::string::npos)
                    share = f.share;
            }
            EXPECT_GT(share, 0.20);
            continue;
        }
        EXPECT_NE(prof[0].name.find(expect[a]), std::string::npos)
            << appName(static_cast<App>(a)) << " top function is "
            << prof[0].name;
        EXPECT_GT(prof[0].share, 0.45);
    }
}

TEST(Workload, SimulateProducesSaneCounters)
{
    for (int a = 0; a < int(App::NUM_APPS); ++a) {
        Workload w(cfg(static_cast<App>(a)));
        SimResult r = w.simulate(mpc::Variant::Baseline,
                                 sim::MachineConfig());
        const sim::Counters &c = r.counters;
        EXPECT_GE(c.instructions, 100'000u);
        EXPECT_GT(r.invocations, 0u);
        EXPECT_GT(c.ipc(), 0.3) << appName(static_cast<App>(a));
        EXPECT_LT(c.ipc(), 5.0);
        // Table I bands: branchy integer code, tiny L1D miss rate,
        // essentially all mispredictions direction-caused.
        EXPECT_GT(c.branchFraction(), 0.05);
        EXPECT_LT(c.l1dMissRate(), 0.08);
        EXPECT_GT(c.mispredictDirectionShare(), 0.95);
    }
}

TEST(Workload, BudgetBoundsSimulation)
{
    Workload w(cfg(App::Fasta, InputClass::A, 150'000));
    SimResult r = w.simulate(mpc::Variant::Baseline,
                             sim::MachineConfig());
    EXPECT_GE(r.counters.instructions, 150'000u);
    // One extra invocation at most beyond the budget boundary.
    EXPECT_LT(r.counters.instructions, 150'000u + 2'000'000u);
}

TEST(Workload, DeterministicAcrossRuns)
{
    Workload w1(cfg(App::Clustalw));
    Workload w2(cfg(App::Clustalw));
    SimResult a = w1.simulate(mpc::Variant::Baseline,
                              sim::MachineConfig());
    SimResult b = w2.simulate(mpc::Variant::Baseline,
                              sim::MachineConfig());
    EXPECT_EQ(a.counters.cycles, b.counters.cycles);
    EXPECT_EQ(a.counters.instructions, b.counters.instructions);
}

TEST(Workload, PredicationImprovesEveryApp)
{
    // Fig 3's headline: hand-max IPC beats baseline on all four apps.
    for (int a = 0; a < int(App::NUM_APPS); ++a) {
        Workload w(cfg(static_cast<App>(a), InputClass::A, 400'000));
        SimResult base = w.simulate(mpc::Variant::Baseline,
                                    sim::MachineConfig());
        SimResult hmax = w.simulate(mpc::Variant::HandMax,
                                    sim::MachineConfig());
        EXPECT_GT(hmax.counters.ipc(), base.counters.ipc())
            << appName(static_cast<App>(a));
        EXPECT_GT(hmax.counters.predicatedFraction(), 0.01);
        EXPECT_LT(hmax.counters.branchFraction(),
                  base.counters.branchFraction());
    }
}

TEST(Workload, BtacReducesCycles)
{
    Workload w(cfg(App::Fasta, InputClass::A, 400'000));
    SimResult base = w.simulate(mpc::Variant::Baseline,
                                sim::MachineConfig());
    SimResult btac = w.simulate(mpc::Variant::Baseline,
                                sim::MachineConfig::power5WithBtac());
    EXPECT_LT(btac.counters.cycles, base.counters.cycles);
    EXPECT_GT(btac.counters.btacPredictions, 0u);
    EXPECT_LT(btac.counters.btacMispredicts,
              btac.counters.btacPredictions / 10);
}

TEST(Workload, TimelineCollected)
{
    Workload w(cfg(App::Clustalw, InputClass::A, 400'000));
    kernels::KernelMachine km(appKernel(App::Clustalw),
                              mpc::Variant::Baseline, sim::MachineConfig());
    km.setSampleInterval(10'000);
    w.simulate(km);
    const std::vector<obs::IntervalSample> timeline =
        km.sampler()->timeline();
    EXPECT_GT(timeline.size(), 5u);
    // Cycle stamps ascend across kernel invocations.
    for (size_t i = 1; i < timeline.size(); ++i)
        EXPECT_GE(timeline[i].cycle, timeline[i - 1].cycle);
}

TEST(Workload, CompiledStatsExposed)
{
    Workload w(cfg(App::Clustalw));
    SimResult r = w.simulate(mpc::Variant::CompIsel,
                             sim::MachineConfig());
    EXPECT_GT(r.compiled.ifc.converted, 0u);
    EXPECT_GT(r.compiled.cg.iselEmitted, 0u);
}

} // namespace
} // namespace bp5::workloads
