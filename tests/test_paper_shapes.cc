/**
 * @file
 * Reproduction-shape regression tests: the qualitative claims of the
 * paper's evaluation, asserted end-to-end at small input scales.  If
 * a future change to the simulator, compiler or workloads breaks one
 * of the paper's findings, these tests fail before the benches do.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "workloads/workload.h"

namespace bp5::workloads {
namespace {

WorkloadConfig
cfg(App app, uint64_t budget = 600'000)
{
    WorkloadConfig c;
    c.app = app;
    c.klass = InputClass::A;
    c.simInstructionBudget = budget;
    return c;
}

double
ipcOf(const Workload &w, mpc::Variant v,
      const sim::MachineConfig &mc = sim::MachineConfig())
{
    return w.simulate(v, mc).counters.ipc();
}

TEST(PaperShapes, Table1BaselineIpcBand)
{
    // Paper Table I: IPC between ~0.8 and ~1.4 on the baseline.
    for (App a : {App::Blast, App::Clustalw, App::Fasta, App::Hmmer}) {
        Workload w(cfg(a));
        double ipc = ipcOf(w, mpc::Variant::Baseline);
        EXPECT_GT(ipc, 0.5) << appName(a);
        EXPECT_LT(ipc, 2.0) << appName(a);
    }
}

TEST(PaperShapes, Fig3HandBeatsCompilerOnClustalwAndHmmer)
{
    // Array-reference / through-memory hammocks block the compiler.
    for (App a : {App::Clustalw, App::Hmmer}) {
        Workload w(cfg(a));
        EXPECT_GT(ipcOf(w, mpc::Variant::HandIsel),
                  ipcOf(w, mpc::Variant::CompIsel))
            << appName(a);
        EXPECT_GT(ipcOf(w, mpc::Variant::HandMax),
                  ipcOf(w, mpc::Variant::CompMax))
            << appName(a);
    }
}

TEST(PaperShapes, Fig3CompilerBeatsHandOnBlastAndFasta)
{
    // The compiler converts the hammocks the "human" missed.
    for (App a : {App::Blast, App::Fasta}) {
        Workload w(cfg(a));
        EXPECT_GT(ipcOf(w, mpc::Variant::CompIsel),
                  ipcOf(w, mpc::Variant::HandIsel))
            << appName(a);
    }
}

TEST(PaperShapes, Fig3MaxBeatsIselOnClustalw)
{
    // isel needs the extra cmp; Clustalw shows it most (paper: 50.7%
    // vs 58%).
    Workload w(cfg(App::Clustalw));
    EXPECT_GT(ipcOf(w, mpc::Variant::HandMax),
              ipcOf(w, mpc::Variant::HandIsel));
}

TEST(PaperShapes, Fig3CombinationIsBestOrTiedForClustalw)
{
    Workload w(cfg(App::Clustalw));
    double comb = ipcOf(w, mpc::Variant::Combination);
    for (int v = 0; v < int(mpc::Variant::NUM_VARIANTS); ++v) {
        EXPECT_GE(comb * 1.001,
                  ipcOf(w, static_cast<mpc::Variant>(v)))
            << mpc::variantName(static_cast<mpc::Variant>(v));
    }
}

TEST(PaperShapes, Fig3CompSpecNarrowsHandVsCompilerMispredictGap)
{
    // The analysis-backed "comp. spec" variant proves the Clustalw/
    // Hmmer memory hammocks safe (store merging + dominating-load
    // proofs), converting strictly more branches than "comp. isel" and
    // closing part of the hand-vs-compiler mispredict gap of Fig 3.
    for (App a : {App::Clustalw, App::Hmmer}) {
        Workload w(cfg(a));
        double hand = w.simulate(mpc::Variant::HandIsel,
                                 sim::MachineConfig())
                          .counters.branchMispredictRate();
        double isel = w.simulate(mpc::Variant::CompIsel,
                                 sim::MachineConfig())
                          .counters.branchMispredictRate();
        double spec = w.simulate(mpc::Variant::CompSpec,
                                 sim::MachineConfig())
                          .counters.branchMispredictRate();
        // The compiler build mispredicts more than hand (that is the
        // gap)...
        EXPECT_GT(isel, hand) << appName(a);
        // ...and comp. spec lands strictly inside it.
        EXPECT_LT(spec, isel) << appName(a);
    }
}

TEST(PaperShapes, Table2PredicationReducesBranchShare)
{
    for (App a : {App::Blast, App::Clustalw, App::Fasta, App::Hmmer}) {
        Workload w(cfg(a));
        SimResult base = w.simulate(mpc::Variant::Baseline,
                                    sim::MachineConfig());
        SimResult hmax = w.simulate(mpc::Variant::HandMax,
                                    sim::MachineConfig());
        EXPECT_LT(hmax.counters.branchFraction(),
                  base.counters.branchFraction())
            << appName(a);
    }
}

TEST(PaperShapes, Fig4BtacHelpsBaselineMoreThanCombination)
{
    // Predication removes most branches, leaving the BTAC little to do.
    Workload w(cfg(App::Fasta));
    sim::MachineConfig btac = sim::MachineConfig::power5WithBtac();
    double gBase = ipcOf(w, mpc::Variant::Baseline, btac) /
                   ipcOf(w, mpc::Variant::Baseline);
    double gComb = ipcOf(w, mpc::Variant::Combination, btac) /
                   ipcOf(w, mpc::Variant::Combination);
    EXPECT_GT(gBase, 1.0);
    EXPECT_GT(gBase, gComb - 0.005);
}

TEST(PaperShapes, Fig5HmmerGainsMostFromFxusOnBaseline)
{
    double gains[4];
    App apps[4] = {App::Blast, App::Clustalw, App::Fasta, App::Hmmer};
    for (int i = 0; i < 4; ++i) {
        Workload w(cfg(apps[i]));
        gains[i] = ipcOf(w, mpc::Variant::Baseline,
                         sim::MachineConfig::power5WithFxu(4)) /
                   ipcOf(w, mpc::Variant::Baseline);
    }
    // Hmmer's gain tops Blast's and Fasta's (paper: Hmmer benefits
    // greatly, Fasta/Blast modestly).
    EXPECT_GE(gains[3], gains[0]);
    EXPECT_GE(gains[3], gains[2]);
}

TEST(PaperShapes, Fig6AllEnhancementsStackUp)
{
    // Everything together clearly beats every single enhancement.
    for (App a : {App::Clustalw, App::Fasta}) {
        Workload w(cfg(a));
        double base = ipcOf(w, mpc::Variant::Baseline);
        double all = ipcOf(w, mpc::Variant::Combination,
                           sim::MachineConfig::power5Enhanced());
        EXPECT_GT(all, base * 1.3) << appName(a);
        EXPECT_GT(all, ipcOf(w, mpc::Variant::Baseline,
                             sim::MachineConfig::power5WithBtac()))
            << appName(a);
        EXPECT_GT(all, ipcOf(w, mpc::Variant::Baseline,
                             sim::MachineConfig::power5WithFxu(4)))
            << appName(a);
    }
}

TEST(PaperShapes, Fig2IpcAnticorrelatesWithMispredicts)
{
    Workload w(cfg(App::Clustalw, 1'200'000));
    kernels::KernelMachine km(appKernel(App::Clustalw),
                              mpc::Variant::Baseline, sim::MachineConfig());
    km.setSampleInterval(10'000);
    w.simulate(km);
    const std::vector<obs::IntervalSample> timeline =
        km.sampler()->timeline();
    ASSERT_GT(timeline.size(), 10u);
    double mi = 0, mm = 0;
    for (const auto &s : timeline) {
        mi += s.ipc;
        mm += s.branchMispredictRate;
    }
    mi /= double(timeline.size());
    mm /= double(timeline.size());
    double num = 0, di = 0, dm = 0;
    for (const auto &s : timeline) {
        num += (s.ipc - mi) * (s.branchMispredictRate - mm);
        di += (s.ipc - mi) * (s.ipc - mi);
        dm += (s.branchMispredictRate - mm) *
              (s.branchMispredictRate - mm);
    }
    ASSERT_GT(di, 0.0);
    ASSERT_GT(dm, 0.0);
    double corr = num / std::sqrt(di * dm);
    EXPECT_LT(corr, -0.5);
}

} // namespace
} // namespace bp5::workloads
