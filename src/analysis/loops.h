/**
 * @file
 * Natural-loop detection over the reconstructed binary CFG (DESIGN.md
 * §4.9): loop bodies from the shared dominator core (graph.h), exit
 * edges, and — for the two counted-loop idioms MiniPOWER code
 * actually uses — induction variable and trip-count recovery:
 *
 *  - CTR loops: `mtctr rk` outside, `bdnz header` as the latch.  When
 *    the mtctr operand is a known constant the trip count is exact.
 *  - GPR loops: a single `addi iv, iv, step` in the body and a latch
 *    `cmpi; bc` testing iv against an immediate bound.  When every
 *    definition of iv reaching the header from outside is the same
 *    `li`, the trip count follows from (init, step, bound, cond).
 *
 * A loop with no exit edge at all is statically infinite; the lint
 * layer reports it (pedantically — deliberate spin loops exist).
 */

#ifndef BIOPERF5_ANALYSIS_LOOPS_H
#define BIOPERF5_ANALYSIS_LOOPS_H

#include <string>
#include <utility>
#include <vector>

#include "analysis/cfg.h"
#include "analysis/graph.h"

namespace bp5::analysis {

/** One natural loop of the binary CFG (header, latches and sorted
 *  body as BasicBlock ids, from the shared analysis/graph.h core). */
struct BinLoop : NaturalLoop
{
    std::vector<std::pair<int, int>> exits; ///< (from, to) edges, sorted

    /** No path leaves the loop: statically infinite. */
    bool infinite() const { return exits.empty(); }

    // Counted-loop shape (valid when counted is true).
    bool counted = false;
    bool viaCtr = false;   ///< bdnz idiom rather than a GPR IV
    unsigned ivReg = 0;    ///< GPR induction variable (GPR loops)
    int64_t step = 0;      ///< per-iteration increment (GPR loops)
    int64_t init = 0;      ///< IV value entering the loop, if known
    int64_t bound = 0;     ///< immediate compared against (GPR loops)
    int64_t tripCount = -1; ///< exact iterations, -1 when unknown
};

/** All natural loops of one CFG. */
struct BinLoopForest
{
    std::vector<BinLoop> loops; ///< sorted outermost-first

    std::string dump(const Cfg &cfg) const;
};

/** Find every natural loop and analyze the counted shapes. */
BinLoopForest findCfgLoops(const Cfg &cfg);

} // namespace bp5::analysis

#endif // BIOPERF5_ANALYSIS_LOOPS_H
