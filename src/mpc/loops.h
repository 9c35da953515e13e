/**
 * @file
 * Natural-loop detection over mpc IR with induction-variable and
 * trip-count analysis (DESIGN.md §4.9).  The kernels' loops are all
 * rotated do-while loops (`bdy: ...; iv += step; br cond iv, limit,
 * bdy, exit`), which is the shape the unroll pass (passes.h) consumes;
 * this analysis also recognizes the general dominator-based definition
 * so irreducible or multi-latch regions are reported rather than
 * silently skipped.
 */

#ifndef BIOPERF5_MPC_LOOPS_H
#define BIOPERF5_MPC_LOOPS_H

#include <cstdint>
#include <vector>

#include "analysis/graph.h"
#include "mpc/ir.h"

namespace bp5::mpc {

/** One natural loop (header, latches and sorted body from the shared
 *  analysis/graph.h core). */
struct IrLoop : analysis::NaturalLoop
{
    std::vector<int> exits; ///< in-loop blocks with an edge out

    /** Rotated-counted-loop facts (valid when hasCountedShape). */
    bool hasCountedShape = false;
    VReg iv = kNoReg;      ///< the stepped register
    int64_t step = 0;      ///< per-iteration increment (> 0)
    VReg limit = kNoReg;   ///< loop-invariant bound register
    Cond cond = Cond::LE;  ///< continue while `iv cond limit`

    /** Body executions when init and limit are compile-time constants;
     *  -1 when unknown. */
    int64_t tripCount = -1;
};

/** Loop forest of a function. */
struct IrLoopForest
{
    std::vector<IrLoop> loops; ///< outermost-first per nest

    /** True if @p inner's blocks are a strict subset of @p outer's. */
    static bool nestedIn(const IrLoop &inner, const IrLoop &outer);
};

/** Find all natural loops of @p fn. */
IrLoopForest findLoops(const Function &fn);

} // namespace bp5::mpc

#endif // BIOPERF5_MPC_LOOPS_H
