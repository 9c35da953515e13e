/**
 * @file
 * Memory-system ablation: load/store queue depth and L1D prefetcher
 * sweep against the classic (infinite-queue, no-prefetch) model.  The
 * (app x memsys) sweep runs on the parallel ExperimentDriver; the
 * acceptance check at the bottom asserts that speculative
 * disambiguation plus prefetching buys a measurable IPC gain on at
 * least one of the dynamic-programming kernels, and exits nonzero
 * otherwise so CI catches a regression in the MemorySystem path.
 */

#include <cmath>

#include "bench/bench_util.h"
#include "kernels/kernels.h"

using namespace bp5;
using namespace bp5::bench;
using namespace bp5::workloads;

namespace {

struct MemSysPoint {
    std::string name;
    sim::MachineConfig mc;
    bool prefetching; // participates in the acceptance check
};

std::vector<MemSysPoint>
memsysSweep()
{
    using Kind = sim::PrefetchParams::Kind;
    std::vector<MemSysPoint> pts;
    pts.push_back({"classic", sim::MachineConfig(), false});
    const unsigned depths[] = {8, 16, 32};
    const struct { Kind kind; const char *label; bool pf; } kinds[] = {
        {Kind::None, "none", false},
        {Kind::NextLine, "next_line", true},
        {Kind::Stride, "stride", true},
    };
    for (unsigned d : depths)
        for (const auto &k : kinds)
            pts.push_back({"lsq " + std::to_string(d) + "/" +
                               std::to_string(d) + " " + k.label,
                           sim::MachineConfig::power5WithLsq(d, d, k.kind),
                           k.pf});
    return pts;
}

double
per1k(uint64_t events, uint64_t insts)
{
    return insts ? 1000.0 * double(events) / double(insts) : 0.0;
}

} // namespace

int
main(int argc, char **argv)
{
    BenchOptions opts = BenchOptions::parse(argc, argv);

    opts.note("=== Ablation: LSQ depth x L1D prefetcher "
                "(class %c, Original code) ===\n\n",
                "ABC"[int(opts.klass)]);

    const std::vector<MemSysPoint> memsys = memsysSweep();
    const size_t kNumCfgs = memsys.size();

    std::vector<driver::GridPoint> grid;
    for (int a = 0; a < 4; ++a)
        for (const MemSysPoint &m : memsys)
            grid.push_back(opts.point(kApps[a], mpc::Variant::Baseline,
                                      m.mc));
    std::vector<driver::PointResult> res = opts.driver().run(grid);

    // Acceptance: disambiguation + prefetching must beat classic by a
    // measurable margin on at least one DP kernel (Fasta, Clustalw and
    // Hmmer are the dynamic-programming apps; Blast is seed-extension).
    constexpr double kMinGain = 1.01;
    bool dpGain = false;

    for (int a = 0; a < 4; ++a) {
        const size_t b = size_t(a) * kNumCfgs;
        const sim::Counters &classic = res[b].sim.counters;
        const bool isDp = kApps[a] != App::Blast;
        std::vector<support::ResultRow> rows;
        for (size_t k = 0; k < kNumCfgs; ++k) {
            const sim::Counters &c = res[b + k].sim.counters;
            double gain = c.ipc() / classic.ipc();
            if (isDp && memsys[k].prefetching && gain > kMinGain)
                dpGain = true;
            support::ResultRow row;
            row.set("memsys", memsys[k].name)
                .set("IPC", c.ipc())
                .setPct("vs classic", gain - 1.0)
                .set("fwd/1k", per1k(c.storeForwards, c.instructions))
                .set("squash/1k",
                     per1k(c.disambigFlushes, c.instructions))
                .set("lsq-full/1k",
                     per1k(c.lsqFullLoads + c.lsqFullStores,
                           c.instructions))
                .set("pf issued/1k",
                     per1k(c.prefetchIssued, c.instructions))
                .set("pf hit/1k", per1k(c.prefetchHits, c.instructions));
            rows.push_back(row);
        }
        opts.emit(rows, std::string(appName(kApps[a])) + ":");
        opts.note("\n");
    }

    if (!dpGain) {
        std::fprintf(stderr,
                     "FAIL: no LSQ+prefetch configuration beats the "
                     "classic memory system by >%.0f%% IPC on any "
                     "DP kernel\n",
                     (kMinGain - 1.0) * 100.0);
        return 1;
    }
    opts.note("Finding: speculative disambiguation with an L1D\n"
                "prefetcher recovers the queue-occupancy stalls and\n"
                "beats the classic fixed-latency model on the DP\n"
                "kernels; deeper queues shift cycles from lsq-full\n"
                "back-pressure into useful overlap.\n");
    return 0;
}
