#include "analysis/loops.h"

#include <algorithm>

#include "analysis/dataflow.h"
#include "support/logging.h"

namespace bp5::analysis {

using isa::Inst;
using isa::Op;

namespace {

/** Walk backwards from instruction @p from in @p blk for a `li rk,
 *  imm` defining @p reg with no intervening redefinition.
 *  @return true and sets @p value on success. */
bool
constDefBefore(const BasicBlock &blk, size_t from, unsigned reg,
               int64_t &value)
{
    for (size_t i = from; i-- > 0;) {
        const Inst &inst = blk.insts[i].inst;
        unsigned dsts[isa::kMaxDeps];
        unsigned n = isa::dstDeps(inst, dsts);
        bool defines = false;
        for (unsigned k = 0; k < n; ++k)
            defines = defines || dsts[k] == reg;
        if (!defines)
            continue;
        if (inst.op == Op::ADDI && inst.ra == 0 && inst.rt == reg) {
            value = inst.imm;
            return true;
        }
        return false;
    }
    return false;
}

uint64_t
takenTarget(const Inst &bc, uint64_t pc)
{
    return bc.aa ? static_cast<uint64_t>(bc.imm)
                 : pc + static_cast<int64_t>(bc.imm);
}

/** The latch's continue predicate, normalized to `iv REL bound` where
 *  REL in {LT, LE, GT, GE}. */
enum class Rel { LT, LE, GT, GE, None };

Rel
negated(Rel r)
{
    switch (r) {
    case Rel::LT: return Rel::GE;
    case Rel::LE: return Rel::GT;
    case Rel::GT: return Rel::LE;
    case Rel::GE: return Rel::LT;
    case Rel::None: return Rel::None;
    }
    return Rel::None;
}

/**
 * Recover (ivReg, step, bound, init, tripCount) for a GPR-IV counted
 * loop whose latch ends in `cmpi; bc`.
 */
void
analyzeGprCounted(const Cfg &cfg, const ReachingDefs &rd, BinLoop &loop)
{
    const BasicBlock &latch = cfg.blocks[static_cast<size_t>(loop.latches[0])];
    const Inst &bc = latch.last().inst;
    if (bc.op != Op::BC ||
        (bc.bo != isa::BO_COND_TRUE && bc.bo != isa::BO_COND_FALSE))
        return;

    // Which way does control continue?
    uint64_t taken = takenTarget(bc, latch.last().pc);
    const BasicBlock *header = &cfg.blocks[static_cast<size_t>(loop.header)];
    bool takenContinues = taken == header->start;

    unsigned crf = bc.bi / 4;
    unsigned bit = bc.bi % 4;
    Rel rel;
    if (bit == isa::CR_LT)
        rel = Rel::LT;
    else if (bit == isa::CR_GT)
        rel = Rel::GT;
    else
        return; // EQ-controlled loops are not counted shapes
    if (bc.bo == isa::BO_COND_FALSE)
        rel = negated(rel);
    if (!takenContinues)
        rel = negated(rel);

    // The compare writing that CR field must be the last such write in
    // the latch, and must be a cmpi against an immediate.
    int cmpIdx = -1;
    for (size_t i = latch.insts.size() - 1; i-- > 0;) {
        const Inst &inst = latch.insts[i].inst;
        unsigned dsts[isa::kMaxDeps];
        unsigned n = isa::dstDeps(inst, dsts);
        bool writesCrf = false;
        for (unsigned k = 0; k < n; ++k)
            writesCrf = writesCrf || dsts[k] == isa::depCrField(crf);
        if (writesCrf) {
            cmpIdx = static_cast<int>(i);
            break;
        }
    }
    if (cmpIdx < 0 || latch.insts[static_cast<size_t>(cmpIdx)].inst.op !=
                          Op::CMPI)
        return;
    const Inst &cmp = latch.insts[static_cast<size_t>(cmpIdx)].inst;
    if (!cmp.l64)
        return;
    unsigned iv = cmp.ra;
    int64_t bound = cmp.imm;

    // Exactly one definition of the IV inside the loop: addi iv,iv,step.
    const CfgInst *step_inst = nullptr;
    for (int b : loop.blocks) {
        for (const CfgInst &ci : cfg.blocks[static_cast<size_t>(b)].insts) {
            unsigned dsts[isa::kMaxDeps];
            unsigned n = isa::dstDeps(ci.inst, dsts);
            for (unsigned k = 0; k < n; ++k) {
                if (dsts[k] != iv)
                    continue;
                if (step_inst)
                    return; // several defs: not a simple IV
                step_inst = &ci;
            }
        }
    }
    if (!step_inst || step_inst->inst.op != Op::ADDI ||
        step_inst->inst.ra != iv || step_inst->inst.imm == 0)
        return;
    int64_t step = step_inst->inst.imm;

    // Direction must agree with the continue predicate or the bound
    // check never terminates the loop (that is findCfgLoops' infinite
    // check's job, not a counted shape).
    if (step > 0 && rel != Rel::LT && rel != Rel::LE)
        return;
    if (step < 0 && rel != Rel::GT && rel != Rel::GE)
        return;

    loop.counted = true;
    loop.ivReg = iv;
    loop.step = step;
    loop.bound = bound;

    // Exact trip count needs the bottom-tested shape: the increment
    // lives in the latch before the compare, and the latch is the only
    // exit (so the body runs at least once and exactly once per test).
    bool stepInLatch = false;
    for (size_t i = 0; i < static_cast<size_t>(cmpIdx); ++i)
        stepInLatch = stepInLatch || &latch.insts[i] == step_inst;
    bool latchOnlyExit = true;
    for (auto [from, to] : loop.exits)
        latchOnlyExit = latchOnlyExit && from == loop.latches[0];
    if (!stepInLatch || !latchOnlyExit || loop.exits.empty())
        return;

    // Initial value: every def of iv reaching the header from outside
    // the loop must be the same li.
    bool haveInit = false;
    int64_t init = 0;
    for (const DefSite &site : rd.reaching(loop.header, 0, iv)) {
        if (site.block == -1)
            return; // may enter as an ABI argument: unknown
        if (loop.contains(site.block))
            continue; // the increment itself
        const BasicBlock &db = cfg.blocks[static_cast<size_t>(site.block)];
        const Inst &def = db.insts[site.idx].inst;
        if (def.op != Op::ADDI || def.ra != 0)
            return;
        if (haveInit && init != def.imm)
            return;
        haveInit = true;
        init = def.imm;
    }
    if (!haveInit)
        return;
    loop.init = init;

    int64_t num, span;
    if (step > 0) {
        span = bound - init;
        num = rel == Rel::LE ? span : span - 1;
    } else {
        span = init - bound;
        num = rel == Rel::GE ? span : span - 1;
        step = -step;
    }
    loop.tripCount = num < 0 ? 1 : num / step + 1;
}

/** Recover the trip count of a `mtctr; ...; bdnz` loop. */
void
analyzeCtrCounted(const Cfg &cfg, const ReachingDefs &rd, BinLoop &loop)
{
    const BasicBlock &latch = cfg.blocks[static_cast<size_t>(loop.latches[0])];
    const Inst &bc = latch.last().inst;
    uint64_t taken = takenTarget(bc, latch.last().pc);
    if (bc.op != Op::BC || bc.bo != isa::BO_DNZ ||
        taken != cfg.blocks[static_cast<size_t>(loop.header)].start)
        return;

    // Only the latch may touch CTR inside the loop.
    for (int b : loop.blocks) {
        const BasicBlock &blk = cfg.blocks[static_cast<size_t>(b)];
        for (const CfgInst &ci : blk.insts) {
            if (&ci == &latch.last())
                continue;
            unsigned dsts[isa::kMaxDeps];
            unsigned n = isa::dstDeps(ci.inst, dsts);
            for (unsigned k = 0; k < n; ++k) {
                if (dsts[k] == isa::DEP_CTR)
                    return;
            }
        }
    }

    loop.counted = true;
    loop.viaCtr = true;

    // Every CTR def reaching the header from outside must be the same
    // `li rk, n; mtctr rk` with n > 0.
    bool haveInit = false;
    int64_t init = 0;
    for (const DefSite &site : rd.reaching(loop.header, 0, isa::DEP_CTR)) {
        if (site.block == -1)
            return;
        if (loop.contains(site.block))
            continue; // the bdnz decrement
        const BasicBlock &db = cfg.blocks[static_cast<size_t>(site.block)];
        const Inst &def = db.insts[site.idx].inst;
        if (def.op != Op::MTSPR || def.spr != isa::SPR_CTR)
            return;
        int64_t v;
        if (!constDefBefore(db, site.idx, def.rt, v))
            return;
        if (haveInit && init != v)
            return;
        haveInit = true;
        init = v;
    }
    if (!haveInit || init <= 0)
        return; // mtctr 0 wraps to 2^64 iterations; leave unknown
    loop.init = init;
    loop.tripCount = init;
}

} // namespace

BinLoopForest
findCfgLoops(const Cfg &cfg)
{
    BinLoopForest forest;
    if (cfg.entryBlock < 0)
        return forest;
    auto succOf = [&](int b) -> const std::vector<int> & {
        return cfg.blocks[static_cast<size_t>(b)].succs;
    };
    auto predOf = [&](int b) -> const std::vector<int> & {
        return cfg.blocks[static_cast<size_t>(b)].preds;
    };
    for (NaturalLoop &nl : naturalLoops(cfg.blocks.size(), cfg.entryBlock,
                                        succOf, predOf)) {
        BinLoop loop;
        static_cast<NaturalLoop &>(loop) = std::move(nl);
        for (int b : loop.blocks) {
            for (int s : succOf(b)) {
                if (!loop.contains(s))
                    loop.exits.push_back({b, s});
            }
        }
        std::sort(loop.exits.begin(), loop.exits.end());
        forest.loops.push_back(std::move(loop));
    }

    if (!forest.loops.empty()) {
        ReachingDefs rd(cfg, abiEntryDefined());
        for (BinLoop &loop : forest.loops) {
            if (loop.latches.size() != 1)
                continue;
            analyzeCtrCounted(cfg, rd, loop);
            if (!loop.counted)
                analyzeGprCounted(cfg, rd, loop);
        }
    }
    return forest;
}

std::string
BinLoopForest::dump(const Cfg &cfg) const
{
    std::string out;
    for (const BinLoop &l : loops) {
        const BasicBlock &h = cfg.blocks[static_cast<size_t>(l.header)];
        out += strprintf("loop header=0x%llx blocks=%zu exits=%zu",
                         (unsigned long long)h.start, l.blocks.size(),
                         l.exits.size());
        if (l.infinite())
            out += " infinite";
        if (l.counted) {
            if (l.viaCtr)
                out += " ctr-counted";
            else
                out += strprintf(" iv=r%u step=%lld bound=%lld", l.ivReg,
                                 (long long)l.step, (long long)l.bound);
            if (l.tripCount >= 0)
                out += strprintf(" trips=%lld", (long long)l.tripCount);
        }
        out += "\n";
    }
    return out;
}

} // namespace bp5::analysis
