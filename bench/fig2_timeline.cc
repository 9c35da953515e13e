/**
 * @file
 * Reproduces paper Fig 2: Clustalw's IPC and branch misprediction rate
 * over time on the baseline POWER5.  Prints an interval series (an
 * ASCII sparkline plus CSV-like rows) showing that IPC tracks the
 * branch prediction rate.
 *
 * The series comes from the obs::PmuSampler attached to the kernel
 * machine, the same instrument behind --pmu-csv and bp5-trace.
 */

#include <cmath>

#include "bench/bench_util.h"
#include "obs/pmu_sampler.h"

using namespace bp5;
using namespace bp5::bench;
using namespace bp5::workloads;

int
main(int argc, char **argv)
{
    BenchOptions opts = BenchOptions::parse(argc, argv);

    std::printf("=== Fig 2: Clustalw IPC and branch misprediction rate "
                "over time (class %c) ===\n\n",
                "ABC"[int(opts.klass)]);

    Workload w(opts.workload(App::Clustalw));
    kernels::KernelMachine km(appKernel(App::Clustalw),
                              mpc::Variant::Baseline,
                              sim::MachineConfig());
    km.setSampleInterval(20'000);
    w.simulate(km);
    const std::vector<obs::IntervalSample> timeline =
        km.sampler()->timeline();

    if (!opts.pmuCsv.empty()) {
        FILE *f = std::fopen(opts.pmuCsv.c_str(), "w");
        if (!f) {
            std::fprintf(stderr, "cannot open %s\n", opts.pmuCsv.c_str());
            return 1;
        }
        std::fputs(km.sampler()->toCsv().c_str(), f);
        std::fclose(f);
    }

    std::vector<double> ipc, mis;
    for (const auto &s : timeline) {
        ipc.push_back(s.ipc);
        mis.push_back(s.branchMispredictRate);
    }
    if (ipc.empty()) {
        std::printf("no samples collected (budget too small)\n");
        return 1;
    }

    std::printf("samples: %zu (one per 20k cycles)\n\n", ipc.size());
    std::printf("IPC        [0..2]: %s\n",
                sparkline(ipc, 0.0, 2.0).c_str());
    std::printf("mispredict [0..%%25]: %s\n\n",
                sparkline(mis, 0.0, 0.25).c_str());

    TextTable t;
    t.header({"cycle", "IPC", "branch mispredict"});
    size_t step = std::max<size_t>(1, ipc.size() / 24);
    for (size_t i = 0; i < timeline.size(); i += step) {
        const auto &s = timeline[i];
        t.row({std::to_string(s.cycle), num(s.ipc),
               pct(s.branchMispredictRate)});
    }
    t.print();

    // The paper's observation: IPC tracks the prediction rate, i.e.
    // the two series are anticorrelated.  Report the correlation.
    double mi = 0, mm = 0;
    for (size_t i = 0; i < ipc.size(); ++i) {
        mi += ipc[i];
        mm += mis[i];
    }
    mi /= double(ipc.size());
    mm /= double(mis.size());
    double num_ = 0, di = 0, dm = 0;
    for (size_t i = 0; i < ipc.size(); ++i) {
        num_ += (ipc[i] - mi) * (mis[i] - mm);
        di += (ipc[i] - mi) * (ipc[i] - mi);
        dm += (mis[i] - mm) * (mis[i] - mm);
    }
    double corr = (di > 0 && dm > 0) ? num_ / std::sqrt(di * dm) : 0.0;
    std::printf("\ncorrelation(IPC, mispredict rate) = %.2f "
                "(paper: strongly negative - IPC tracks prediction)\n",
                corr);
    return 0;
}
