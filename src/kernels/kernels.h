/**
 * @file
 * The hot dynamic-programming kernels of the paper (Fig 1) — plus
 * the Sankoff parsimony kernel of the section-VIII extension — as
 * mpc IR, plus the runtime bridge that executes them on the simulated
 * POWER5-class machine and validates results against the native bio
 * library.
 *
 * Each kernel has two IR builders:
 *
 *  - the *branchy* builder mirrors the applications' C code naively:
 *    max() statements are cmp+branch hammocks, and some updates go
 *    through memory exactly as the original sources do (Clustalw's F
 *    row, HMMER2's imx row).  Hammocks with stores or unprovable loads
 *    inside are what gcc's if-converter must reject (paper IV-B).
 *
 *  - the *hand* builder is the human rewrite: values held in
 *    registers, max() sites expressed directly as Max/Select IR at
 *    the sites a programmer identifies by inspection.  For Fasta and
 *    Blast the hand version deliberately leaves the less obvious
 *    hammocks (gap-row updates, x-drop bookkeeping) branchy, which is
 *    why the compiler beats the hand insertion there (paper VI-A).
 *
 * Kernel <-> application mapping (paper Fig 1):
 *   ForwardPass  - Clustalw forward_pass   (global NW, affine gaps)
 *   Dropgsw      - Fasta ssearch/dropgsw   (local SW, affine gaps)
 *   P7Viterbi    - Hmmer hmmpfam           (Plan7 Viterbi)
 *   SemiGAlign   - Blast blastp            (x-drop gapped extension)
 */

#ifndef BIOPERF5_KERNELS_KERNELS_H
#define BIOPERF5_KERNELS_KERNELS_H

#include <cstdint>
#include <memory>
#include <string>

#include "bio/align.h"
#include "bio/hmm.h"
#include "bio/parsimony.h"
#include "mpc/compiler.h"
#include "obs/pmu_sampler.h"
#include "obs/trace_mux.h"
#include "sim/machine.h"

namespace bp5::kernels {

/** The paper's four kernels. */
enum class KernelKind
{
    ForwardPass,
    Dropgsw,
    P7Viterbi,
    SemiGAlign,
    Sankoff, ///< extension: Phylip-class parsimony (paper section VIII)
    NUM_KERNELS,
};

/** Kernel function name as the applications name it. */
const char *kernelName(KernelKind k);

/** Application that owns the kernel (paper's workload names). */
const char *kernelApp(KernelKind k);

/**
 * Build the kernel's IR.
 * @param hand true for the hand-annotated builder
 */
mpc::Function buildKernelIr(KernelKind k, bool hand);

/** Compile kernel @p k in variant @p v (selects the right builder).
 *  @param unrollFactor counted-loop unroll factor (0/1 = off) */
mpc::Compiled compileKernel(KernelKind k, mpc::Variant v,
                            unsigned unrollFactor = 0);

// --------------------------------------------------------------------
// Problems: native-side descriptions of one kernel invocation.
// --------------------------------------------------------------------

/** Pairwise-alignment invocation (ForwardPass / Dropgsw). */
struct AlignProblem
{
    const bio::Sequence *a = nullptr;
    const bio::Sequence *b = nullptr;
    const bio::SubstitutionMatrix *matrix = nullptr;
    bio::GapPenalty gap{10, 1};
};

/** P7Viterbi invocation. */
struct ViterbiProblem
{
    const bio::Plan7Model *model = nullptr;
    const bio::Sequence *seq = nullptr;
};

/** Semi-gapped x-drop extension invocation (one direction, forward). */
struct ExtendProblem
{
    const bio::Sequence *a = nullptr; ///< query suffix from aFrom
    size_t aFrom = 0;
    const bio::Sequence *b = nullptr;
    size_t bFrom = 0;
    const bio::SubstitutionMatrix *matrix = nullptr;
    bio::GapPenalty gap{10, 1};
    int xdrop = 30;
};

/**
 * Sankoff small-parsimony invocation: one site of the Phylip-class
 * phylogeny workload (the paper's stated extension target).
 */
struct SankoffProblem
{
    const bio::GuideTree *tree = nullptr;
    const std::vector<uint8_t> *states = nullptr; ///< leaf states
    const bio::ParsimonyCost *cost = nullptr;
};

// --------------------------------------------------------------------
// Native references that the simulated kernels must match exactly.
// --------------------------------------------------------------------

/** Reference for ForwardPass: identical to bio::nwScore. */
int64_t refForwardPass(const AlignProblem &p);

/** Reference for Dropgsw: identical to bio::swScore. */
int64_t refDropgsw(const AlignProblem &p);

/** Reference for P7Viterbi (plain 64-bit adds, no saturation). */
int64_t refViterbi(const ViterbiProblem &p);

/**
 * Reference for SemiGAlign: full-row affine DP with per-cell x-drop
 * clamping and dead-row termination (the kernel's exact semantics;
 * see DESIGN.md for the relation to bio::semiGappedExtend).
 */
int64_t refSemiGAlign(const ExtendProblem &p);

/** Reference for Sankoff: bio::sankoffSite. */
int64_t refSankoff(const SankoffProblem &p);

// --------------------------------------------------------------------
// Simulated execution.
// --------------------------------------------------------------------

/** Instruction cap of one simulated invocation (KernelMachine default). */
constexpr uint64_t kDefaultInstructionCap = 500'000'000;

/**
 * Outcome of one simulated kernel invocation.  Running past the
 * instruction cap or returning a score the native reference disagrees
 * with fails the invocation; it is not a simulator fault, so a server
 * can answer it as a per-job error.
 */
struct Invocation
{
    enum class Status
    {
        Ok,
        NotHalted,   ///< still running at the instruction cap
        WrongResult, ///< halted with a score != the native reference
    };
    Status status = Status::Ok;
    int64_t score = 0; ///< the kernel's exit code (when halted)
    std::string error; ///< one-line reason when !ok()

    bool ok() const { return status == Status::Ok; }
};

/**
 * A machine loaded with one compiled kernel.  Successive run() calls
 * keep branch predictors, BTAC and caches warm (like repeated calls
 * inside the real application); counters accumulate across calls.
 */
class KernelMachine
{
  public:
    KernelMachine(KernelKind kind, mpc::Variant variant,
                  const sim::MachineConfig &config,
                  unsigned unrollFactor = 0);

    KernelKind kind() const { return kind_; }
    mpc::Variant variant() const { return variant_; }
    const mpc::Compiled &compiled() const { return compiled_; }

    /**
     * Run one invocation with full timing (or as configured) and check
     * the result against the native reference.  A failed invocation
     * leaves the machine mid-run and adds nothing to totals(); reset
     * or discard it before reuse.
     */
    Invocation tryRun(const AlignProblem &p);
    Invocation tryRun(const ViterbiProblem &p);
    Invocation tryRun(const ExtendProblem &p);
    Invocation tryRun(const SankoffProblem &p);

    /**
     * tryRun(), panicking on a failed invocation (the compiled kernel
     * would be silently wrong otherwise).
     * @return the kernel's score
     */
    template <typename Problem>
    int64_t run(const Problem &p)
    {
        return checked(tryRun(p));
    }

    /** The score of @p inv; panics with its error when it failed. */
    static int64_t checked(const Invocation &inv);

    /**
     * Instructions one invocation may retire before it fails as
     * NotHalted (kDefaultInstructionCap; reset() restores it).
     * Lowered only by tests that need a failing job to fail fast.
     */
    void setInstructionCap(uint64_t cap) { instructionCap_ = cap; }
    uint64_t instructionCap() const { return instructionCap_; }

    /**
     * Return the machine to its just-constructed state: cold caches,
     * predictors and BTAC, zeroed counters and timeline, sampling off,
     * the default instruction cap.
     * The compiled kernel stays loaded.  Lets a driver reuse one
     * KernelMachine across experiment points with results identical to
     * constructing a fresh one each time.
     */
    void reset();

    /** Counters accumulated over all run() calls. */
    const sim::Counters &totals() const { return totals_; }

    /** The underlying machine (cache/BTAC stats inspection). */
    const sim::Machine &machine() const { return machine_; }

    /**
     * Sample PMU counters every @p cycles cycles (0 = off) through an
     * internal obs::PmuSampler; the cycle axis is continuous across
     * run() calls.  @p site_series additionally records per-branch-site
     * deltas per window.  Replaces any previous sampler.
     */
    void setSampleInterval(uint64_t cycles, bool site_series = false);

    /** The internal sampler (nullptr when sampling is off). */
    const obs::PmuSampler *sampler() const { return sampler_.get(); }

    /**
     * Attach an external trace sink (Perfetto/Konata writer, ...) fed
     * alongside the internal sampler.  Non-owning; nullptr detaches.
     */
    void setTraceSink(sim::TraceSink *sink);

    /** Fig-2 style timeline from the sampler (empty when off). */
    std::vector<sim::IntervalSample> timeline() const
    {
        return sampler_ ? sampler_->timeline()
                        : std::vector<sim::IntervalSample>();
    }

    /** Run functionally only (fast, no cycle counts). */
    void setFunctionalOnly(bool f) { functionalOnly_ = f; }

    /**
     * SMARTS-style sampled timing for subsequent run() calls (see
     * sim::SamplingParams): detailed measurement windows separated by
     * warmed functional fast-forward.  Architectural counts in
     * totals() stay exact; cycle/event counters are window
     * extrapolations.  Cleared by reset().
     */
    void setSampling(const sim::SamplingParams &p)
    {
        machine_.setSampling(p);
    }

    /**
     * Toggle the pre-decoded execution engine (see
     * sim::Machine::setPredecode); reference mode for differential
     * tests.
     */
    void setPredecode(bool on) { machine_.setPredecode(on); }

    /**
     * Collect per-branch-site PMU counters (see sim::BranchProfile).
     * Accumulates across run() calls; cleared by reset().
     */
    void setBranchProfiling(bool on) { machine_.setBranchProfiling(on); }
    const sim::BranchProfile &branchProfile() const
    {
        return machine_.branchProfile();
    }

    /**
     * Collect the per-PC flat stall profile (see sim::StallProfile):
     * non-completing cycles charged to the blamed instruction address
     * by CpiComponent.  Accumulates across run() calls; cleared by
     * reset().
     */
    void setStallProfiling(bool on) { machine_.setStallProfiling(on); }
    const sim::StallProfile &stallProfile() const
    {
        return machine_.stallProfile();
    }

  private:
    Invocation invoke(const std::vector<uint64_t> &args, int64_t expected);
    void rewire();

    KernelKind kind_;
    mpc::Variant variant_;
    mpc::Compiled compiled_;
    sim::Machine machine_;
    sim::Counters totals_;
    std::unique_ptr<obs::PmuSampler> sampler_;
    sim::TraceSink *external_ = nullptr;
    obs::TraceMux mux_;
    bool functionalOnly_ = false;
    uint64_t instructionCap_ = kDefaultInstructionCap;
};

/** Simulated-memory layout constants. */
constexpr uint64_t kCodeBase = 0x10000;
constexpr uint64_t kDataBase = 0x200000;
constexpr uint64_t kStackTop = 0x7f0000;

} // namespace bp5::kernels

#endif // BIOPERF5_KERNELS_KERNELS_H
