/**
 * @file
 * paper_sweep: the Fig-6 grid on driver::ExperimentDriver with two
 * threads in full timing mode, one ExperimentDriver::run per round.
 *
 * sampled_sweep: the four applications with class-C inputs, each run
 * through Workload::simulate on a machine in SMARTS sampled mode, one
 * call per application per round, on the client thread.
 */

#include <memory>
#include <optional>

#include "bench.h"
#include "workloads/workload.h"

namespace perfbench {

using bp5::driver::GridPoint;
using bp5::sim::MachineConfig;
using bp5::workloads::App;

namespace {

std::string
pointName(const GridPoint &p)
{
    return std::string(bp5::workloads::appName(p.workload.app)) + "/" +
           p.label;
}

/**
 * The counters of every round must repeat the first round's exactly:
 * the simulator is deterministic and each point starts from a reset
 * or fresh machine.
 */
class RepeatCheck
{
  public:
    void
    check(Verdict &v, size_t slot, const std::string &what,
          const bp5::sim::Counters &c)
    {
        if (slot >= first_.size())
            first_.resize(slot + 1);
        if (!first_[slot]) {
            first_[slot] = c;
        } else if (!(*first_[slot] == c)) {
            v.fail(what + ": counters differ from the first round");
        }
    }

    bp5::sim::Counters
    sum() const
    {
        bp5::sim::Counters s;
        for (const auto &c : first_)
            s.add(*c);
        return s;
    }

  private:
    std::vector<std::optional<bp5::sim::Counters>> first_;
};

} // namespace

std::vector<GridPoint>
paperGrid(uint64_t seed, uint64_t budget)
{
    struct Config
    {
        const char *label;
        bp5::mpc::Variant variant;
        MachineConfig machine;
    };
    const Config configs[] = {
        {"base", bp5::mpc::Variant::Baseline, MachineConfig()},
        {"+pred", bp5::mpc::Variant::Combination, MachineConfig()},
        {"+BTAC", bp5::mpc::Variant::Baseline,
         MachineConfig::power5WithBtac()},
        {"+4FXU", bp5::mpc::Variant::Baseline,
         MachineConfig::power5WithFxu(4)},
        {"all", bp5::mpc::Variant::Combination,
         MachineConfig::power5Enhanced()},
        {"base@lsq+stride", bp5::mpc::Variant::Baseline,
         MachineConfig::power5WithLsq(16, 16,
                                      bp5::sim::PrefetchParams::Kind::Stride)},
    };
    std::vector<GridPoint> grid;
    for (const Config &c : configs) {
        for (App app : kApps) {
            GridPoint p;
            p.label = c.label;
            p.workload.app = app;
            p.workload.klass = bp5::workloads::InputClass::A;
            p.workload.seed = seed;
            p.workload.simInstructionBudget = budget;
            p.variant = c.variant;
            p.machine = c.machine;
            grid.push_back(p);
        }
    }
    return grid;
}

bp5::sim::SamplingParams
sampledParams()
{
    return {kSampleDetail, kSampleSkip, true};
}

Outcome
runPaperSweep(const Options &o)
{
    Outcome out;
    bp5::driver::ExperimentDriver driver(kSweepThreads);
    driver.setManifestPath("");

    // Set-up: input synthesis and machine construction for every
    // point, with a short simulated warm-up.
    driver.run(paperGrid(o.seed, kSweepBudget / 10));
    const std::vector<GridPoint> grid = paperGrid(o.seed, kSweepBudget);
    const Clock::time_point t0 = Clock::now();
    const double setup = seconds(processStart(), t0);

    RepeatCheck repeat;
    std::vector<Round> rounds;
    do {
        Round r;
        const Clock::time_point s = Clock::now();
        std::vector<bp5::driver::PointResult> res = driver.run(grid);
        r.seconds = seconds(s, Clock::now());
        for (size_t i = 0; i < res.size(); ++i) {
            const bp5::sim::Counters &c = res[i].sim.counters;
            checkCpiSum(out.verdict, pointName(grid[i]), c);
            repeat.check(out.verdict, i, pointName(grid[i]), c);
            r.latencyMs.push_back(res[i].wallSeconds * 1e3);
        }
        rounds.push_back(std::move(r));
        out.attempted += grid.size();
    } while (seconds(t0, Clock::now()) < o.seconds);

    addRoundMetrics(out, setup, grid.size(), rounds, repeat.sum());
    return out;
}

Outcome
runSampledSweep(const Options &o)
{
    Outcome out;
    struct AppRun
    {
        std::unique_ptr<bp5::workloads::Workload> work;
        std::unique_ptr<bp5::kernels::KernelMachine> km;
    };
    std::vector<AppRun> apps;
    for (App app : kApps) {
        bp5::workloads::WorkloadConfig wc;
        wc.app = app;
        wc.klass = bp5::workloads::InputClass::C;
        wc.seed = o.seed;
        wc.simInstructionBudget = kSampledBudget;
        AppRun r;
        r.work = std::make_unique<bp5::workloads::Workload>(wc);
        r.km = std::make_unique<bp5::kernels::KernelMachine>(
            bp5::workloads::appKernel(app), bp5::mpc::Variant::Baseline,
            MachineConfig());
        // Warm-up: a sampled pass over a short prefix of the same inputs.
        wc.simInstructionBudget = kSampledWarmBudget;
        r.km->setSampling(sampledParams());
        bp5::workloads::Workload(wc).simulate(*r.km);
        apps.push_back(std::move(r));
    }
    const Clock::time_point t0 = Clock::now();
    const double setup = seconds(processStart(), t0);

    RepeatCheck repeat;
    std::vector<Round> rounds;
    do {
        Round r;
        for (size_t a = 0; a < apps.size(); ++a) {
            bp5::kernels::KernelMachine &km = *apps[a].km;
            const Clock::time_point s = Clock::now();
            km.reset();
            km.setSampling(sampledParams());
            apps[a].work->simulate(km);
            const double took = seconds(s, Clock::now());
            r.seconds += took;
            r.latencyMs.push_back(took * 1e3);
            const std::string what = bp5::workloads::appName(kApps[a]);
            checkCpiSum(out.verdict, what, km.totals());
            repeat.check(out.verdict, a, what, km.totals());
        }
        rounds.push_back(std::move(r));
        out.attempted += apps.size();
    } while (seconds(t0, Clock::now()) < o.seconds);

    // The sampled runs against a functional-only run of the same
    // invocations.
    for (size_t a = 0; a < apps.size(); ++a) {
        bp5::kernels::KernelMachine &km = *apps[a].km;
        const bp5::sim::Counters sampled = km.totals();
        km.reset();
        km.setFunctionalOnly(true);
        apps[a].work->simulate(km);
        checkArchEqual(out.verdict, bp5::workloads::appName(kApps[a]),
                       sampled, km.totals());
    }

    addRoundMetrics(out, setup, apps.size(), rounds, repeat.sum());
    return out;
}

} // namespace perfbench
