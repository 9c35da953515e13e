/**
 * @file
 * Tests for the experiment-driver subsystem and the guarantees it
 * leans on: reset-equivalence (a reused machine behaves bit-for-bit
 * like a fresh one), determinism under parallelism (N threads produce
 * byte-identical aggregated results), the run()-vs-runFunctional()
 * architectural equivalence, and the ResultRow emitters.
 */

#include <gtest/gtest.h>

#include "driver/driver.h"
#include "support/result.h"
#include "workloads/workload.h"

namespace bp5 {
namespace {

using driver::ExperimentDriver;
using driver::GridPoint;
using driver::PointResult;
using support::ResultRow;
using workloads::App;
using workloads::Workload;
using workloads::WorkloadConfig;

WorkloadConfig
cfg(App app, uint64_t budget = 150'000)
{
    WorkloadConfig c;
    c.app = app;
    c.klass = workloads::InputClass::A;
    c.simInstructionBudget = budget;
    return c;
}

/** Field-by-field equality of every counter the simulator reports. */
void
expectCountersEqual(const sim::Counters &a, const sim::Counters &b,
                    const std::string &what)
{
    EXPECT_EQ(a.cycles, b.cycles) << what;
    EXPECT_EQ(a.instructions, b.instructions) << what;
    EXPECT_EQ(a.branches, b.branches) << what;
    EXPECT_EQ(a.condBranches, b.condBranches) << what;
    EXPECT_EQ(a.takenBranches, b.takenBranches) << what;
    EXPECT_EQ(a.mispredDirection, b.mispredDirection) << what;
    EXPECT_EQ(a.mispredTarget, b.mispredTarget) << what;
    EXPECT_EQ(a.takenBubbles, b.takenBubbles) << what;
    EXPECT_EQ(a.btacPredictions, b.btacPredictions) << what;
    EXPECT_EQ(a.btacCorrect, b.btacCorrect) << what;
    EXPECT_EQ(a.btacMispredicts, b.btacMispredicts) << what;
    EXPECT_EQ(a.loads, b.loads) << what;
    EXPECT_EQ(a.stores, b.stores) << what;
    EXPECT_EQ(a.l1dAccesses, b.l1dAccesses) << what;
    EXPECT_EQ(a.l1dMisses, b.l1dMisses) << what;
    EXPECT_EQ(a.l1iAccesses, b.l1iAccesses) << what;
    EXPECT_EQ(a.l1iMisses, b.l1iMisses) << what;
    EXPECT_EQ(a.l2Misses, b.l2Misses) << what;
    EXPECT_EQ(a.stallCycles, b.stallCycles) << what;
    EXPECT_EQ(a.opCount, b.opCount) << what;
}

// ------------------------------------------------- reset equivalence

/**
 * The bedrock of machine reuse: run(); reset(); run() must produce
 * counters identical to a fresh machine's run, for every workload.
 */
TEST(ResetEquivalence, ResetMachineMatchesFreshMachine)
{
    for (int a = 0; a < int(App::NUM_APPS); ++a) {
        App app = static_cast<App>(a);
        Workload w(cfg(app));
        sim::MachineConfig mc = sim::MachineConfig::power5WithBtac();
        kernels::KernelKind kind = workloads::appKernel(app);

        kernels::KernelMachine reused(kind, mpc::Variant::Baseline, mc);
        workloads::SimResult first = w.simulate(reused);
        reused.reset();
        workloads::SimResult again = w.simulate(reused);

        kernels::KernelMachine fresh(kind, mpc::Variant::Baseline, mc);
        workloads::SimResult ref = w.simulate(fresh);

        expectCountersEqual(again.counters, ref.counters,
                            std::string("reset vs fresh: ") +
                                workloads::appName(app));
        expectCountersEqual(first.counters, ref.counters,
                            std::string("first vs fresh: ") +
                                workloads::appName(app));
        EXPECT_EQ(again.invocations, ref.invocations);
    }
}

TEST(ResetEquivalence, CacheStatsResetToo)
{
    Workload w(cfg(App::Fasta));
    kernels::KernelMachine km(kernels::KernelKind::Dropgsw,
                              mpc::Variant::Baseline,
                              sim::MachineConfig());
    (void)w.simulate(km);
    km.reset();
    EXPECT_EQ(km.machine().l1d().stats().accesses, 0u);
    EXPECT_EQ(km.machine().l2().stats().accesses, 0u);
    EXPECT_EQ(km.totals().instructions, 0u);
    EXPECT_EQ(km.sampler(), nullptr);
}

// ---------------------------------------- determinism under threads

std::string
countersFingerprint(const std::vector<PointResult> &results)
{
    std::vector<ResultRow> rows;
    for (const PointResult &r : results) {
        const sim::Counters &c = r.sim.counters;
        ResultRow row;
        row.set("label", r.label)
            .set("cycles", c.cycles)
            .set("instructions", c.instructions)
            .set("branches", c.branches)
            .set("mispredDirection", c.mispredDirection)
            .set("takenBubbles", c.takenBubbles)
            .set("l1dMisses", c.l1dMisses)
            .set("l2Misses", c.l2Misses)
            .set("stores", c.stores);
        rows.push_back(row);
    }
    return support::emitJson(rows);
}

/**
 * The ISSUE's 8-point grid (4 apps x 2 machine configs), plus four
 * duplicated points so worker-local machine reuse is exercised, run
 * with one thread and with four: aggregated results must be
 * byte-identical.
 */
TEST(ExperimentDriver, ParallelResultsIdenticalToSerial)
{
    std::vector<GridPoint> grid;
    for (int a = 0; a < 4; ++a) {
        GridPoint p;
        p.label = std::string(workloads::appName(static_cast<App>(a))) +
                  "/base";
        p.workload = cfg(static_cast<App>(a));
        grid.push_back(p);

        GridPoint q = p;
        q.label = std::string(workloads::appName(static_cast<App>(a))) +
                  "/btac";
        q.machine = sim::MachineConfig::power5WithBtac();
        grid.push_back(q);
    }
    // Duplicates of the first two apps' base points: same (kernel,
    // variant, config) key, so a worker that claims both recycles one
    // machine via reset().
    grid.push_back(grid[0]);
    grid.push_back(grid[2]);

    ExperimentDriver serial(1);
    ExperimentDriver parallel(4);
    EXPECT_EQ(serial.threads(), 1u);
    EXPECT_EQ(parallel.threads(), 4u);

    std::vector<PointResult> r1 = serial.run(grid);
    std::vector<PointResult> rN = parallel.run(grid);
    ASSERT_EQ(r1.size(), grid.size());
    ASSERT_EQ(rN.size(), grid.size());

    EXPECT_EQ(countersFingerprint(r1), countersFingerprint(rN));
    for (size_t i = 0; i < grid.size(); ++i) {
        expectCountersEqual(r1[i].sim.counters, rN[i].sim.counters,
                            "point " + std::to_string(i));
    }
    // The duplicated points must reproduce their originals exactly —
    // machine reuse is invisible in the results.
    expectCountersEqual(rN[8].sim.counters, rN[0].sim.counters,
                        "duplicate of point 0");
    expectCountersEqual(rN[9].sim.counters, rN[2].sim.counters,
                        "duplicate of point 2");
}

TEST(ExperimentDriver, EmptyGridAndLabels)
{
    ExperimentDriver d(2);
    EXPECT_TRUE(d.run({}).empty());

    GridPoint p;
    p.label = "only";
    p.workload = cfg(App::Clustalw);
    std::vector<PointResult> r = d.run({p});
    ASSERT_EQ(r.size(), 1u);
    EXPECT_EQ(r[0].label, "only");
    EXPECT_GT(r[0].sim.counters.instructions, 0u);
}

// -------------------------------- run vs runFunctional equivalence

/**
 * The timing model must not change what executes: the functional-only
 * path and the full timing path retire the identical instruction
 * stream for every workload (and both validate kernel results against
 * the native references internally).
 */
TEST(ArchitecturalEquivalence, RunMatchesRunFunctional)
{
    for (int a = 0; a < int(App::NUM_APPS); ++a) {
        App app = static_cast<App>(a);
        Workload w(cfg(app));
        kernels::KernelKind kind = workloads::appKernel(app);

        kernels::KernelMachine timed(kind, mpc::Variant::Baseline,
                                     sim::MachineConfig());
        workloads::SimResult rt = w.simulate(timed);

        kernels::KernelMachine func(kind, mpc::Variant::Baseline,
                                    sim::MachineConfig());
        func.setFunctionalOnly(true);
        workloads::SimResult rf = w.simulate(func);

        const sim::Counters &t = rt.counters;
        const sim::Counters &f = rf.counters;
        std::string what = workloads::appName(app);
        EXPECT_EQ(t.instructions, f.instructions) << what;
        EXPECT_EQ(t.branches, f.branches) << what;
        EXPECT_EQ(t.condBranches, f.condBranches) << what;
        EXPECT_EQ(t.takenBranches, f.takenBranches) << what;
        EXPECT_EQ(t.loads, f.loads) << what;
        EXPECT_EQ(t.stores, f.stores) << what;
        EXPECT_EQ(t.opCount, f.opCount) << what;
        EXPECT_EQ(rt.invocations, rf.invocations) << what;
        EXPECT_GT(t.cycles, 0u) << what;
        EXPECT_EQ(f.cycles, 0u) << what;
    }
}

// --------------------------------------------------- result emitters

TEST(ResultRowTest, TextTableAlignsUnionOfKeys)
{
    ResultRow r1, r2;
    r1.set("app", "Blast").set("IPC", 1.25).set("only1", uint64_t(7));
    r2.set("app", "Hmmer").set("IPC", 0.5).set("only2", "x");
    std::string text = support::emitText({r1, r2}, "title:");
    EXPECT_NE(text.find("title:"), std::string::npos);
    EXPECT_NE(text.find("app"), std::string::npos);
    EXPECT_NE(text.find("1.25"), std::string::npos);
    // Missing cells render as "-".
    EXPECT_NE(text.find('-'), std::string::npos);
}

TEST(ResultRowTest, JsonIsDeterministicAndTyped)
{
    ResultRow r;
    r.set("name", "a \"quoted\" one")
        .set("ipc", 1.5, 2)
        .set("n", uint64_t(42))
        .setPct("rate", 0.125, 1)
        .setGainPct("gain", -0.034, 1);
    std::string json = support::emitJson({r});
    EXPECT_EQ(json, "[\n  {\"name\": \"a \\\"quoted\\\" one\", "
                    "\"ipc\": 1.50, \"n\": 42, \"rate\": 0.12500, "
                    "\"gain\": -0.03400}\n]\n");
}

TEST(ResultRowTest, JsonLineIsOneRecordPerTable)
{
    ResultRow r1, r2;
    r1.set("app", "Blast").set("n", uint64_t(1));
    r2.set("app", "Hmmer").set("n", uint64_t(2));
    std::string line = support::emitJsonLine({r1, r2}, "Fig X:");
    EXPECT_EQ(line, "{\"title\": \"Fig X:\", \"rows\": ["
                    "{\"app\": \"Blast\", \"n\": 1}, "
                    "{\"app\": \"Hmmer\", \"n\": 2}]}\n");
    // JSON Lines contract: exactly one newline, at the end.
    EXPECT_EQ(line.find('\n'), line.size() - 1);
}

TEST(ResultRowTest, SetOverwritesInPlace)
{
    ResultRow r;
    r.set("k", uint64_t(1)).set("other", uint64_t(2));
    r.set("k", uint64_t(3));
    EXPECT_EQ(r.cells().size(), 2u);
    EXPECT_EQ(r.cells()[0].text, "3");
    EXPECT_EQ(r.text("missing"), "-");
}

// ------------------------------------------- L2 writeback plumbing

/**
 * Satellite-bug pin: with a deliberately small L1D, a store-heavy
 * kernel run must surface dirty-eviction write traffic at the L2 —
 * every L1D writeback is presented to the next level.
 */
TEST(WritebackAccounting, StoreHeavyKernelDrivesL2WriteTraffic)
{
    sim::MachineConfig mc;
    mc.l1d = sim::CacheParams{"L1D", 2048, 2, 128, 1};
    Workload w(cfg(App::Clustalw, 120'000));
    kernels::KernelMachine km(kernels::KernelKind::ForwardPass,
                              mpc::Variant::Baseline, mc);
    workloads::SimResult r = w.simulate(km);
    EXPECT_GT(r.counters.stores, 0u);

    const sim::CacheStats &l1d = km.machine().l1d().stats();
    const sim::CacheStats &l2 = km.machine().l2().stats();
    EXPECT_GT(l1d.writebacks, 0u);
    EXPECT_GT(l2.writes, 0u);
    EXPECT_GT(l2.writebacksIn, 0u);
    // Every L1D dirty eviction lands at the L2 (the L1I never writes).
    EXPECT_EQ(l2.writebacksIn, l1d.writebacks);
    EXPECT_EQ(l2.writes, l1d.writebacks);
}

} // namespace
} // namespace bp5
