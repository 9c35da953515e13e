/**
 * @file
 * The MiniPOWER machine: functional execution plus a POWER5-class
 * out-of-order timing model.
 *
 * The timing model is trace-driven in a single pass: the functional
 * executor retires instructions in program order, and each retired
 * instruction is scheduled through fetch -> decode pipe -> dispatch
 * (ROB) -> issue (per-class units) -> complete -> in-order commit.
 * Wrong-path instructions are not executed; their cost appears as the
 * fetch-redirect penalty of mispredicted branches (see DESIGN.md for
 * the justification).  The model reproduces the structures the paper
 * studies: the 2-cycle taken-branch bubble, the optional eight-entry
 * score-based BTAC, the tournament direction predictor, and a
 * configurable number of fixed-point units.
 */

#ifndef BIOPERF5_SIM_MACHINE_H
#define BIOPERF5_SIM_MACHINE_H

#include <cstdint>
#include <memory>
#include <vector>

#include "masm/assembler.h"
#include "sim/btac.h"
#include "sim/cache.h"
#include "sim/config.h"
#include "sim/counters.h"
#include "sim/core_state.h"
#include "sim/exec.h"
#include "sim/memory.h"
#include "sim/memsys.h"
#include "sim/predictor.h"
#include "sim/trace.h"

namespace bp5::sim {

/**
 * SMARTS-style sampled-timing configuration: alternate a detailed
 * measurement window of @ref detailInstructions with a functional
 * fast-forward of @ref skipInstructions (predictor/BTAC/L1D warmed
 * when @ref functionalWarming).  Architectural counters stay exact;
 * cycle/event counters are extrapolated from the windows.  Both
 * fields nonzero enables sampling; reset() disables it.
 */
struct SamplingParams
{
    uint64_t detailInstructions = 0; ///< instructions per window
    uint64_t skipInstructions = 0;   ///< fast-forward between windows
    bool functionalWarming = true;

    bool enabled() const
    {
        return detailInstructions > 0 && skipInstructions > 0;
    }
};

/** Result of a Machine::run invocation. */
struct RunResult
{
    Counters counters;
    bool halted = false;
    int64_t exitCode = 0;
    std::string console;

    /** Measurement bookkeeping of a sampled run (see SamplingParams). */
    struct SamplingStats
    {
        uint64_t windows = 0;
        uint64_t detailedInstructions = 0;
        uint64_t detailedCycles = 0;
        uint64_t fastForwardedInstructions = 0;
    };
    SamplingStats sampling;
    bool sampled = false; ///< counters contain extrapolated events
};

/** A single-core MiniPOWER machine with the POWER5-class timing model. */
class Machine
{
  public:
    explicit Machine(const MachineConfig &config = MachineConfig());
    ~Machine();

    Memory &mem() { return mem_; }
    CoreState &state() { return state_; }
    const MachineConfig &config() const { return config_; }

    /** Copy a program image into memory (does not change the PC). */
    void loadProgram(const masm::Program &prog);

    /**
     * Reset architectural state, caches, predictors, timing state and
     * counters.  Memory contents are preserved (the loaded program
     * stays resident); everything else is bit-for-bit identical to a
     * freshly constructed Machine, so run(); reset(); run() reproduces
     * a fresh machine's counters exactly.
     */
    void reset();

    /**
     * Run with full timing from the current PC until SYS_EXIT or
     * @p max_instructions.  Events stream to the attached trace sink
     * (if any); attach an obs::PmuSampler for interval series.
     */
    RunResult run(uint64_t max_instructions = UINT64_MAX);

    /**
     * Run functionally only (no cycle accounting; counters contain
     * instruction counts but zero cycles).  Executes through the
     * pre-decoded micro-op engine, an order of magnitude faster than
     * detailed timing; used for fast-forward and correctness tests.
     */
    RunResult runFunctional(uint64_t max_instructions = UINT64_MAX);

    /**
     * Configure SMARTS-style sampled timing for subsequent run()
     * calls (see SamplingParams; disabled by default and after
     * reset()).
     */
    void setSampling(const SamplingParams &p) { sampling_ = p; }
    const SamplingParams &sampling() const { return sampling_; }

    /**
     * Toggle the pre-decoded execution engine (on by default).  Off,
     * every instruction decodes fresh from memory: the reference mode
     * the differential engine tests compare against.
     */
    void setPredecode(bool on) { exec_.setPredecode(on); }
    bool predecode() const { return exec_.predecode(); }

    const Cache &l1d() const { return l1d_; }
    const Cache &l1i() const { return l1i_; }
    const Cache &l2() const { return l2_; }
    const Btac &btac() const { return btac_; }
    const MemorySystem &memsys() const { return memsys_; }

    /**
     * Collect per-branch-site PMU counters during timed runs (off by
     * default; a map update per branch costs a few percent).  The
     * profile accumulates across run() calls and clears on reset().
     */
    void setBranchProfiling(bool on) { branchProfiling_ = on; }
    bool branchProfiling() const { return branchProfiling_; }
    const BranchProfile &branchProfile() const { return branchProfile_; }

    /**
     * Collect the per-PC flat stall profile during timed runs (off by
     * default): every non-completing cycle is charged to the
     * instruction address blamed for it, split by CpiComponent.  The
     * profile accumulates across run() calls and clears on reset().
     */
    void setStallProfiling(bool on) { stallProfiling_ = on; }
    bool stallProfiling() const { return stallProfiling_; }
    const StallProfile &stallProfile() const { return stallProfile_; }

    /**
     * Attach an event observer (non-owning; nullptr detaches, and
     * reset() detaches).  With no sink the timing model pays one
     * null-pointer test per retired instruction and its Counters are
     * bit-identical to a build without tracing at all.
     */
    void setTraceSink(TraceSink *sink) { sink_ = sink; }
    TraceSink *traceSink() const { return sink_; }

  private:
    struct TimingState;

    void scheduleInstruction(const StepInfo &info, TimingState &ts,
                             Counters &c);
    RunResult runSampled(uint64_t max_instructions);

    MachineConfig config_;
    Memory mem_;
    CoreState state_;
    Executor exec_;

    Cache l2_;
    Cache l1i_;
    Cache l1d_;
    MemorySystem memsys_;
    std::unique_ptr<DirectionPredictor> predictor_;
    Btac btac_;

    bool branchProfiling_ = false;
    BranchProfile branchProfile_;
    bool stallProfiling_ = false;
    StallProfile stallProfile_;
    TraceSink *sink_ = nullptr;
    SamplingParams sampling_;

    std::unique_ptr<TimingState> timing_;
};

} // namespace bp5::sim

#endif // BIOPERF5_SIM_MACHINE_H
