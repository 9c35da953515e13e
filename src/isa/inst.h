/**
 * @file
 * Decoded-instruction representation shared by the assembler, compiler,
 * functional executor and timing model, plus factory helpers and
 * register-dependency extraction.
 *
 * MiniPOWER regularization: unlike real PowerPC (where logical and shift
 * ops write RA from RS), *all* MiniPOWER X/XO-form computational ops
 * write RT from RA/RB.  This keeps the dependency rules uniform and is
 * invisible to the paper's experiments.
 */

#ifndef BIOPERF5_ISA_INST_H
#define BIOPERF5_ISA_INST_H

#include <cstdint>

#include "isa/isa.h"
#include "isa/opcodes.h"

namespace bp5::isa {

/**
 * A decoded MiniPOWER instruction.  Fields are ordered to pack into 20
 * bytes: a copy lives in every slot of the executor's micro-op image.
 */
struct Inst
{
    Op op = Op::INVALID;
    uint8_t rt = 0;   ///< target GPR (or BT for CR-logic, source for st)
    uint8_t ra = 0;   ///< source GPR A (or BA)
    uint8_t rb = 0;   ///< source GPR B (or BB / SH for imm shifts)
    uint8_t bf = 0;   ///< CR field for compares
    uint8_t bo = 0;   ///< branch BO pattern
    uint8_t bi = 0;   ///< branch/isel CR bit index (0..31)
    int32_t imm = 0;  ///< SI/UI/displacement/branch byte-offset
    uint16_t spr = 0; ///< SPR id for mtspr/mfspr
    bool l64 = true;  ///< compare width: true = 64-bit
    bool rc = false;  ///< record form (set CR0)
    bool lk = false;  ///< link form (set LR)
    bool aa = false;  ///< absolute branch address

    bool valid() const { return op != Op::INVALID; }
    const OpInfo &info() const { return opInfo(op); }
};

/**
 * True when RA == 0 means the literal value zero rather than GPR 0
 * (D-form address/immediate computations, matching PowerPC).
 */
bool raIsBase(Op op);

/** True when the 16-bit immediate is zero-extended (logical ops, cmpli). */
bool immIsUnsigned(Op op);

/** Maximum dependency names an instruction can read or write. */
constexpr unsigned kMaxDeps = 4;

/**
 * Collect the dependency-register names (see isa::DepReg) read by @p
 * inst into @p out. @return the number of entries written (<= kMaxDeps).
 */
unsigned srcDeps(const Inst &inst, unsigned out[kMaxDeps]);

/** Collect the dependency-register names written by @p inst. */
unsigned dstDeps(const Inst &inst, unsigned out[kMaxDeps]);

// ---------------------------------------------------------------------
// Factory helpers.  These build decoded instructions directly; encode()
// in isa/encode.h turns them into 32-bit words.
// ---------------------------------------------------------------------

/** D-form op with a target, base/source register and 16-bit immediate. */
inline Inst
mkD(Op op, unsigned rt, unsigned ra, int32_t imm)
{
    Inst i;
    i.op = op;
    i.rt = static_cast<uint8_t>(rt);
    i.ra = static_cast<uint8_t>(ra);
    i.imm = imm;
    return i;
}

/** X/XO-form computational op: RT = RA op RB. */
inline Inst
mkX(Op op, unsigned rt, unsigned ra, unsigned rb, bool rc = false)
{
    Inst i;
    i.op = op;
    i.rt = static_cast<uint8_t>(rt);
    i.ra = static_cast<uint8_t>(ra);
    i.rb = static_cast<uint8_t>(rb);
    i.rc = rc;
    return i;
}

/** Unary X-form op (neg, exts*, cntlzd): RT = op(RA). */
inline Inst
mkUnary(Op op, unsigned rt, unsigned ra, bool rc = false)
{
    return mkX(op, rt, ra, 0, rc);
}

/** Immediate shift: RT = RA shift sh (sh in 0..63). */
inline Inst
mkShImm(Op op, unsigned rt, unsigned ra, unsigned sh)
{
    Inst i;
    i.op = op;
    i.rt = static_cast<uint8_t>(rt);
    i.ra = static_cast<uint8_t>(ra);
    i.rb = static_cast<uint8_t>(sh);
    return i;
}

/** Register compare into CR field @p bf. */
inline Inst
mkCmp(Op op, unsigned bf, unsigned ra, unsigned rb, bool l64 = true)
{
    Inst i;
    i.op = op;
    i.bf = static_cast<uint8_t>(bf);
    i.ra = static_cast<uint8_t>(ra);
    i.rb = static_cast<uint8_t>(rb);
    i.l64 = l64;
    return i;
}

/** Immediate compare into CR field @p bf. */
inline Inst
mkCmpi(Op op, unsigned bf, unsigned ra, int32_t imm, bool l64 = true)
{
    Inst i;
    i.op = op;
    i.bf = static_cast<uint8_t>(bf);
    i.ra = static_cast<uint8_t>(ra);
    i.imm = imm;
    i.l64 = l64;
    return i;
}

/** isel: RT = CR[crbit] ? RA : RB. */
inline Inst
mkIsel(unsigned rt, unsigned ra, unsigned rb, unsigned crbit)
{
    Inst i;
    i.op = Op::ISEL;
    i.rt = static_cast<uint8_t>(rt);
    i.ra = static_cast<uint8_t>(ra);
    i.rb = static_cast<uint8_t>(rb);
    i.bi = static_cast<uint8_t>(crbit);
    return i;
}

/** Unconditional relative branch by @p byte_offset. */
inline Inst
mkB(int32_t byte_offset, bool lk = false)
{
    Inst i;
    i.op = Op::B;
    i.imm = byte_offset;
    i.lk = lk;
    return i;
}

/** Conditional relative branch (BO pattern, CR bit, byte offset). */
inline Inst
mkBc(unsigned bo, unsigned bi, int32_t byte_offset, bool lk = false)
{
    Inst i;
    i.op = Op::BC;
    i.bo = static_cast<uint8_t>(bo);
    i.bi = static_cast<uint8_t>(bi);
    i.imm = byte_offset;
    i.lk = lk;
    return i;
}

/** Branch to LR (blr when BO_ALWAYS). */
inline Inst
mkBclr(unsigned bo = BO_ALWAYS, unsigned bi = 0)
{
    Inst i;
    i.op = Op::BCLR;
    i.bo = static_cast<uint8_t>(bo);
    i.bi = static_cast<uint8_t>(bi);
    return i;
}

/** Branch to CTR (bctr when BO_ALWAYS). */
inline Inst
mkBcctr(unsigned bo = BO_ALWAYS, unsigned bi = 0)
{
    Inst i;
    i.op = Op::BCCTR;
    i.bo = static_cast<uint8_t>(bo);
    i.bi = static_cast<uint8_t>(bi);
    return i;
}

/** CR logical op: CR[bt] = CR[ba] op CR[bb]. */
inline Inst
mkCrOp(Op op, unsigned bt, unsigned ba, unsigned bb)
{
    Inst i;
    i.op = op;
    i.rt = static_cast<uint8_t>(bt);
    i.ra = static_cast<uint8_t>(ba);
    i.rb = static_cast<uint8_t>(bb);
    return i;
}

/** Move GPR @p rs to a special register. */
inline Inst
mkMtspr(unsigned spr, unsigned rs)
{
    Inst i;
    i.op = Op::MTSPR;
    i.rt = static_cast<uint8_t>(rs);
    i.spr = static_cast<uint16_t>(spr);
    return i;
}

/** Move a special register to GPR @p rt. */
inline Inst
mkMfspr(unsigned rt, unsigned spr)
{
    Inst i;
    i.op = Op::MFSPR;
    i.rt = static_cast<uint8_t>(rt);
    i.spr = static_cast<uint16_t>(spr);
    return i;
}

/** Read the whole CR into GPR @p rt. */
inline Inst
mkMfcr(unsigned rt)
{
    Inst i;
    i.op = Op::MFCR;
    i.rt = static_cast<uint8_t>(rt);
    return i;
}

/** System call (simulator service selected by r0). */
inline Inst
mkSc()
{
    Inst i;
    i.op = Op::SC;
    return i;
}

/** li rt, imm  ==  addi rt, 0, imm. */
inline Inst
mkLi(unsigned rt, int32_t imm)
{
    return mkD(Op::ADDI, rt, 0, imm);
}

/** mr rt, ra  ==  or rt, ra, ra. */
inline Inst
mkMr(unsigned rt, unsigned ra)
{
    return mkX(Op::OR, rt, ra, ra);
}

/** nop  ==  ori r0, r0, 0. */
inline Inst
mkNop()
{
    return mkD(Op::ORI, 0, 0, 0);
}

} // namespace bp5::isa

#endif // BIOPERF5_ISA_INST_H
