/**
 * @file
 * Interval PMU sampler: the generalized Fig-2 instrument.  Attached to
 * a Machine as a trace sink, it slices the run into fixed-cycle
 * windows and records the *complete* Counters delta of each window —
 * CPI stack, IPC, branch and cache rates, instruction mix — plus,
 * optionally, per-branch-site deltas keyed by pc, joinable with the
 * static branch classes of src/analysis (analysis::joinProfile).
 *
 * The cycle axis is continuous across run() calls (KernelMachine
 * invokes its kernel many times per experiment), and the trailing
 * partial window is retained, so the raw counter columns of the
 * emitted series sum exactly to the end-of-run Counters — tested.
 *
 * It is the simulator's only interval-series mechanism: the Fig-2
 * timeline (timeline()), the PMU CSV and bp5-trace all read it.
 */

#ifndef BIOPERF5_OBS_PMU_SAMPLER_H
#define BIOPERF5_OBS_PMU_SAMPLER_H

#include <map>
#include <string>
#include <vector>

#include "sim/counters.h"
#include "sim/trace.h"
#include "support/result.h"

namespace bp5::obs {

/** One point of the Fig-2 timeline (a window's headline rates). */
struct IntervalSample
{
    uint64_t cycle = 0;    ///< end cycle of the interval
    double ipc = 0.0;
    double branchMispredictRate = 0.0;
    double l1dMissRate = 0.0;
};

/** One sampling window of the PMU time series. */
struct PmuInterval
{
    uint64_t startCycle = 0; ///< global cycle the window opened at
    uint64_t endCycle = 0;   ///< global cycle of the closing sample
    sim::Counters delta;     ///< counter increments within the window
    /** Per-branch-site increments (only when site series enabled). */
    std::map<uint64_t, sim::BranchSiteStats> sites;
    bool partial = false;    ///< trailing window, shorter than interval
};

/** The interval sampler; see the file comment. */
class PmuSampler final : public sim::TraceSink
{
  public:
    /**
     * @param interval_cycles window length (must be nonzero)
     * @param site_series also record per-branch-site deltas per window
     */
    explicit PmuSampler(uint64_t interval_cycles, bool site_series = false);

    uint64_t intervalCycles() const { return interval_; }
    bool siteSeries() const { return siteSeries_; }

    // TraceSink
    void onRunEnd(const sim::Counters &final) override;
    void onInstruction(const sim::InstRecord &r,
                       const sim::Counters &c) override;
    void onBranch(const sim::BranchRecord &r) override;

    /**
     * The recorded windows.  @p include_trailing appends the partial
     * window between the last interval boundary and the end of the
     * run, so the deltas sum to the machine's end-of-run Counters.
     */
    std::vector<PmuInterval> intervals(bool include_trailing = true) const;

    /** Fig-2 compatible view (IPC, mispredict rate, L1D miss rate). */
    std::vector<IntervalSample>
    timeline(bool include_trailing = false) const;

    /** Comma-joined column names, no newline (the CSV schema). */
    static std::string csvColumns();

    /**
     * Deterministic CSV: a `# schema:` comment naming every column,
     * the column header row, then one row per window.
     */
    static std::string csvHeader();
    std::string toCsv(bool include_trailing = true) const;

    /** The same series as result rows (for --json emission). */
    std::vector<support::ResultRow>
    toRows(bool include_trailing = true) const;

    /** Drop all state (windows, cycle base, site accumulators). */
    void reset();

  private:
    void closeWindow(const sim::Counters &global, bool partial);

    uint64_t interval_;
    bool siteSeries_;
    uint64_t next_;              ///< next window boundary (global cycle)
    sim::Counters base_;         ///< totals through all finished runs
    sim::Counters prev_;         ///< global counters at last close
    uint64_t prevCycle_ = 0;     ///< global cycle at last close
    std::vector<PmuInterval> done_;
    std::map<uint64_t, sim::BranchSiteStats> sites_; ///< open window
};

} // namespace bp5::obs

#endif // BIOPERF5_OBS_PMU_SAMPLER_H
