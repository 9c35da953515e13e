/**
 * @file
 * Functional executor: architecturally executes MiniPOWER instructions
 * and reports what happened so the timing model can replay the
 * committed stream.
 *
 * The ISA is implemented once, as micro-op handlers.  setImage()
 * registers the program's text segment; each 4-byte slot is lazily
 * decoded once into a MicroOp holding the decoded instruction, its
 * execute handler (MicroOp::fn) and a static TimingDesc (dependency
 * names, unit, latency, occupancy, memory/branch flags).  A handler
 * fully retires one instruction: architectural update, architectural
 * counters, optional functional warming, the PC advance and the
 * FastCtx side outputs (memAddr, taken, target) the timing model
 * needs from execution.  Two drivers share the handlers:
 *
 *  - step(): one instruction per call; fills a persistent StepInfo in
 *    place (the slot pointer plus the side outputs) for the timing
 *    model, which reads only the descriptor and never re-derives
 *    dependencies or op metadata.  Used by detailed (timed) execution.
 *  - runFast(): a tight loop ops[idx].fn(op, ctx) for functional runs
 *    and SMARTS fast-forward, optionally warming the branch predictor,
 *    BTAC and L1D en route.
 *
 * A PC outside the image, or any PC with predecode disabled, decodes
 * the word fresh into a scratch MicroOp and runs the same handler, so
 * setPredecode(false) remains a differential check of the decode
 * cache (stale or mis-built slots), not of a second ISA copy.
 *
 * Decode stays lazy (slot built on first execution) so the legacy
 * decode-at-first-use semantics are preserved exactly: data words
 * inside the image never decode, invalid encodings panic only if
 * reached, and stores to not-yet-executed code take effect.
 */

#ifndef BIOPERF5_SIM_EXEC_H
#define BIOPERF5_SIM_EXEC_H

#include <cstdint>
#include <string>
#include <vector>

#include "isa/encode.h"
#include "sim/core_state.h"
#include "sim/counters.h"
#include "sim/memory.h"

namespace bp5::sim {

class Btac;
class Cache;
class DirectionPredictor;

/**
 * Static timing descriptor of one decoded instruction, filled once per
 * slot by the decoder: the timing model's whole view of the encoding.
 * Packed to 12 bytes so a MicroOp stays at 48.
 */
struct TimingDesc
{
    uint8_t src[isa::kMaxDeps]; ///< DepReg names read (srcDeps order)
    uint8_t dst[isa::kMaxDeps]; ///< DepReg names written (dstDeps order)
    uint8_t nsrc : 3;
    uint8_t ndst : 3;
    bool isLoad : 1;
    bool isStore : 1;
    uint8_t unit : 3;          ///< isa::Unit of the executing unit
    bool isBranch : 1;
    bool isCondBranch : 1;     ///< conditional (BO != always)
    uint8_t latency;           ///< execute latency (cache adds more)
    uint8_t occupancy;         ///< cycles the unit stays busy

    isa::Unit execUnit() const { return isa::Unit(unit); }
};

struct MicroOp;

/**
 * The retired instruction as the timing model sees it.  Executor::step
 * refills one persistent StepInfo in place; it stays valid until the
 * next step.
 */
struct StepInfo
{
    uint64_t pc = 0;
    uint64_t nextPc = 0;
    const MicroOp *op = nullptr; ///< decoded slot: inst + TimingDesc
    uint64_t memAddr = 0;        ///< effective address (loads/stores)
    uint64_t target = 0;         ///< branch target; 0 unless taken
    bool taken = false;          ///< branch direction (unconditional: true)
    bool halted = false;         ///< SYS_EXIT executed
    int64_t exitCode = 0;
};

/** Mutable state threaded through the micro-op handlers. */
struct FastCtx
{
    CoreState &st;
    Memory &mem;
    Counters &c;
    std::string &console;
    uint64_t pc = 0;
    bool halted = false;
    int64_t exitCode = 0;
    /// Side outputs of the instruction just executed, with StepInfo's
    /// meaning; the fast loop ignores them.
    uint64_t memAddr = 0;
    uint64_t target = 0;
    bool taken = false;
    /// Optional functional-warming hooks (SMARTS fast-forward); null
    /// in timed steps, where the timing model updates the structures.
    DirectionPredictor *pred = nullptr;
    Btac *btac = nullptr;
    Cache *l1d = nullptr;
};

/** One pre-decoded slot of the micro-op image. */
struct MicroOp
{
    using Fn = void (*)(const MicroOp &, FastCtx &);
    Fn fn = nullptr;   ///< execute handler; nullptr = not yet decoded
    uint64_t imm = 0;  ///< pre-computed immediate: sign/zero-extended
                       ///< (and pre-shifted for ADDIS/ORIS), or the
                       ///< absolute target for direct branches
    isa::Inst inst;    ///< decoded form (handlers, trace records)
    TimingDesc timing{}; ///< static timing view (see TimingDesc)
};
static_assert(sizeof(MicroOp) <= 48, "keep the micro-op slot compact");

/**
 * Fill @p mo for the valid decoded instruction @p inst located at @p pc:
 * execute handler, pre-computed immediate and timing descriptor (the
 * only place the executor calls isa::srcDeps/dstDeps/opInfo).  Panics
 * on opcodes or BO patterns the executor does not implement.
 */
void buildMicroOp(MicroOp &mo, const isa::Inst &inst, uint64_t pc);

/** Functional MiniPOWER core. */
class Executor
{
  public:
    Executor(CoreState &state, Memory &mem) : state_(state), mem_(mem) {}

    /**
     * Fetch, decode and execute the instruction at state.pc, advancing
     * architectural state and accumulating architectural counters
     * (instructions, opCount, branch/load/store counts) into @p c, as
     * runFast() does.  Inside the registered image the pre-decoded
     * micro-op provides the decode; outside it (or with predecode
     * disabled) the word is decoded fresh from memory each step.
     * Panics on invalid encodings (the program image is broken).
     * @return the persistent StepInfo, valid until the next step
     */
    const StepInfo &step(Counters &c);

    /** Outcome of a runFast() burst. */
    struct FastResult
    {
        uint64_t executed = 0;
        bool halted = false;
        int64_t exitCode = 0;
    };

    /** Structures to warm functionally during fast-forward. */
    struct Warming
    {
        DirectionPredictor *pred = nullptr;
        Btac *btac = nullptr; ///< pass nullptr when BTAC is disabled
        Cache *l1d = nullptr;
    };

    /**
     * Execute up to @p max instructions through the micro-op image,
     * accumulating architectural counters (instructions, opCount,
     * branch/load/store counts — never cycles) into @p c.  Counter
     * semantics match Machine::runFunctional()'s accounting exactly.
     * With @p warm, conditional-branch outcomes update the direction
     * predictor, all branches update the BTAC and memory ops touch the
     * L1D, mirroring the detailed model's update rules.  Outside the
     * image or with predecode disabled each instruction is decoded
     * fresh, as in step().
     */
    FastResult runFast(uint64_t max, Counters &c,
                       const Warming *warm = nullptr);

    /** Characters printed by SYS_PUTC / SYS_PUTINT / SYS_PUTHEX. */
    const std::string &console() const { return console_; }
    void clearConsole() { console_.clear(); }

    /**
     * Register the program text segment [base, base+bytes): allocates
     * one (undecoded) micro-op slot per word.  Replaces any previous
     * image; memory contents are not touched.
     */
    void setImage(uint64_t base, size_t bytes);

    /**
     * Drop all decoded micro-ops (after loading a new program image or
     * on reset); the image range is kept and slots rebuild lazily from
     * current memory contents, so reset ≡ fresh holds bit-for-bit.
     */
    void invalidateDecodeCache();

    /**
     * Disable the decode cache: every instruction decodes fresh from
     * memory into a scratch slot and runs the same handler.  Reference
     * mode for the differential engine tests.
     */
    void setPredecode(bool on) { predecode_ = on; }
    bool predecode() const { return predecode_; }

  private:
    MicroOp &fetch(uint64_t pc);
    void decodeAt(MicroOp &mo, uint64_t pc) const;

    CoreState &state_;
    Memory &mem_;
    std::string console_;

    uint64_t imageBase_ = 0;
    uint64_t imageBytes_ = 0;
    std::vector<MicroOp> ops_;
    MicroOp scratch_; ///< fresh decode outside the image / predecode off
    StepInfo info_;   ///< refilled in place by step()
    bool predecode_ = true;
};

} // namespace bp5::sim

#endif // BIOPERF5_SIM_EXEC_H
