/**
 * @file
 * ExperimentDriver: runs a grid of (workload, code variant, machine
 * configuration) simulation points over a fixed-size thread pool and
 * returns the results in grid order, independent of completion order.
 *
 * Parallelism is deterministic by construction: every grid point is a
 * pure function of its GridPoint (workload generation is seeded, the
 * simulator has no global state), workers never share mutable state,
 * and results land in a pre-sized vector slot owned by their index.
 * Running with one thread or sixteen therefore produces byte-identical
 * output.
 *
 * Each worker owns its simulation state and reuses it across points:
 * Workloads are cached by their full configuration (input generation
 * is the expensive part), and one KernelMachine per (kernel, variant,
 * machine config) is recycled via KernelMachine::reset() — which is
 * guaranteed to restore a just-constructed machine, see the
 * reset-equivalence tests.
 */

#ifndef BIOPERF5_DRIVER_DRIVER_H
#define BIOPERF5_DRIVER_DRIVER_H

#include <string>
#include <vector>

#include "support/result.h"
#include "workloads/workload.h"

namespace bp5::driver {

/** One point of an experiment sweep. */
struct GridPoint
{
    std::string label; ///< free-form tag, echoed back for bookkeeping
    workloads::WorkloadConfig workload;
    mpc::Variant variant = mpc::Variant::Baseline;
    sim::MachineConfig machine;
};

/** Result of one grid point (same index as the input grid). */
struct PointResult
{
    std::string label;
    workloads::SimResult sim;
    double wallSeconds = 0.0; ///< host wall time of this point
};

/** Fixed-size thread-pool sweep runner. */
class ExperimentDriver
{
  public:
    /** @param threads worker count; 0 picks the hardware concurrency */
    explicit ExperimentDriver(unsigned threads = 0);

    unsigned threads() const { return threads_; }

    /**
     * Where to append the JSON-Lines run manifest ("-" = stdout, "" =
     * off).  Defaults to $BP5_MANIFEST when that is set.  One record
     * per run() call: a sweep summary row plus one row per grid point
     * (machine config, workload, counters, wall time, simulated MIPS).
     */
    void setManifestPath(std::string path) { manifestPath_ = std::move(path); }
    const std::string &manifestPath() const { return manifestPath_; }

    /** The manifest rows of the most recent run() call. */
    const std::vector<support::ResultRow> &manifest() const
    {
        return lastManifest_;
    }

    /**
     * Run every point of @p grid and return results in grid order.
     * Panics propagate (a kernel/reference mismatch aborts the
     * process, exactly as in a serial run).
     */
    std::vector<PointResult> run(const std::vector<GridPoint> &grid) const;

  private:
    void writeManifest(const std::vector<GridPoint> &grid,
                       const std::vector<PointResult> &results,
                       double wallSeconds) const;

    unsigned threads_;
    std::string manifestPath_;
    /** Bookkeeping of the last run; does not affect results. */
    mutable std::vector<support::ResultRow> lastManifest_;
};

} // namespace bp5::driver

#endif // BIOPERF5_DRIVER_DRIVER_H
