/**
 * @file
 * Application-level workload models of the four BioPerf applications
 * the paper studies.  Each workload
 *
 *  1. synthesizes deterministic class-scaled inputs (the BioPerf
 *     class-A/B/C analogue; see DESIGN.md for the substitution),
 *  2. can run the full native C++ pipeline under a profiler to
 *     produce the Fig-1 function breakout, and
 *  3. schedules a sampled set of hot-kernel invocations on the
 *     simulated POWER5-class machine (the SMARTS-sampling analogue)
 *     to produce the hardware-counter numbers of the evaluation.
 */

#ifndef BIOPERF5_WORKLOADS_WORKLOAD_H
#define BIOPERF5_WORKLOADS_WORKLOAD_H

#include <memory>
#include <vector>

#include "bio/blast.h"
#include "bio/clustal.h"
#include "bio/hmm.h"
#include "kernels/kernels.h"
#include "workloads/profile.h"

namespace bp5::workloads {

/** The four applications (paper Table I order). */
enum class App
{
    Blast,
    Clustalw,
    Fasta,
    Hmmer,
    NUM_APPS,
};

const char *appName(App app);

/** The hot kernel each application spends its time in (Fig 1). */
kernels::KernelKind appKernel(App app);

/** Input scale, mirroring BioPerf's input classes. */
enum class InputClass { A, B, C };

/** Parse "A"/"B"/"C" (used by bench CLIs); fatal on other input. */
InputClass inputClassFromString(const std::string &s);

/** Workload construction parameters. */
struct WorkloadConfig
{
    App app = App::Clustalw;
    InputClass klass = InputClass::B;
    uint64_t seed = 42;

    /**
     * Instruction budget for one simulate() call: kernel invocations
     * are scheduled until the budget is consumed (uniform sampling of
     * the app's dynamic kernel work).
     */
    uint64_t simInstructionBudget = 4'000'000;
};

/** Result of a simulated run. */
struct SimResult
{
    sim::Counters counters;
    unsigned invocations = 0;
    mpc::Compiled compiled; ///< code statistics of the kernel build
    sim::BranchProfile branchProfile; ///< per-site PMU (when enabled)
};

/** One of the four applications with generated inputs. */
class Workload
{
  public:
    explicit Workload(const WorkloadConfig &config);
    ~Workload();

    const WorkloadConfig &config() const { return config_; }
    App app() const { return config_.app; }

    /**
     * Run the complete native pipeline under the profiler and return
     * the Fig-1 style function breakdown (descending share).
     */
    std::vector<FunctionTime> profileNative() const;

    /**
     * Simulate the workload's hot-kernel invocations.
     * @param variant code variant (paper Fig 3)
     * @param mc machine configuration
     * @param branch_profile collect per-branch-site PMU counters
     */
    SimResult simulate(mpc::Variant variant, const sim::MachineConfig &mc,
                       bool branch_profile = false) const;

    /**
     * Simulate on a caller-supplied machine (must be built for this
     * app's kernel).  The machine's accumulated counters feed the
     * instruction budget, so reset() it first when reusing one across
     * runs — the experiment driver does exactly that to keep one
     * machine per worker thread.
     */
    SimResult simulate(kernels::KernelMachine &km) const;

  private:
    struct Data;

    void profileOnce(Profiler &prof, const Data &d) const;

    WorkloadConfig config_;
    std::unique_ptr<Data> data_;
};

} // namespace bp5::workloads

#endif // BIOPERF5_WORKLOADS_WORKLOAD_H
