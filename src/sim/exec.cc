#include "sim/exec.h"

#include <bit>

#include "sim/btac.h"
#include "sim/cache.h"
#include "sim/predictor.h"
#include "support/bitfield.h"
#include "support/logging.h"

namespace bp5::sim {

using isa::Op;

namespace {

/** Evaluate a BO condition (with CTR side effect applied by caller). */
bool
evalBranchCond(unsigned bo, unsigned bi, const CoreState &st, uint64_t ctr)
{
    switch (bo) {
      case isa::BO_ALWAYS:
        return true;
      case isa::BO_COND_TRUE:
        return st.crBit(bi);
      case isa::BO_COND_FALSE:
        return !st.crBit(bi);
      case isa::BO_DNZ:
        return ctr != 0;
      case isa::BO_DZ:
        return ctr == 0;
      default:
        panic("unsupported BO pattern %u", bo);
    }
}

void
setCr0(CoreState &st, uint64_t result)
{
    int64_t s = static_cast<int64_t>(result);
    unsigned f = 0;
    if (s < 0)
        f |= 1u << isa::CR_LT;
    else if (s > 0)
        f |= 1u << isa::CR_GT;
    else
        f |= 1u << isa::CR_EQ;
    st.setCrField(0, f);
}

void
doCompare(CoreState &st, unsigned bf, bool l64, bool sign, uint64_t a,
          uint64_t b)
{
    if (!l64) {
        if (sign) {
            a = static_cast<uint64_t>(sext(a, 32));
            b = static_cast<uint64_t>(sext(b, 32));
        } else {
            a &= mask(32);
            b &= mask(32);
        }
    }
    unsigned f = 0;
    bool lt, gt;
    if (sign) {
        lt = static_cast<int64_t>(a) < static_cast<int64_t>(b);
        gt = static_cast<int64_t>(a) > static_cast<int64_t>(b);
    } else {
        lt = a < b;
        gt = a > b;
    }
    if (lt)
        f |= 1u << isa::CR_LT;
    else if (gt)
        f |= 1u << isa::CR_GT;
    else
        f |= 1u << isa::CR_EQ;
    st.setCrField(bf, f);
}

// ------------------------------------------------------------------
// Micro-op handlers: the executor's only copy of the ISA semantics.
// Each handler fully retires one instruction: architectural update,
// architectural counter bumps, optional warming, the PC advance and
// the side outputs (memAddr; taken and target, 0 unless taken) that
// the timing model reads through StepInfo.
// ------------------------------------------------------------------

#define OP_HANDLER(name) \
    void name(const MicroOp &mo, FastCtx &x)

// --- D-form arithmetic / logical (immediate pre-extended, pre-shifted)

OP_HANDLER(hAddi)
{
    const isa::Inst &i = mo.inst;
    x.st.gpr[i.rt] = (i.ra ? x.st.gpr[i.ra] : 0) + mo.imm;
    x.pc += 4;
}

OP_HANDLER(hMulli)
{
    const isa::Inst &i = mo.inst;
    x.st.gpr[i.rt] = x.st.gpr[i.ra] * mo.imm;
    x.pc += 4;
}

OP_HANDLER(hOri)
{
    const isa::Inst &i = mo.inst;
    x.st.gpr[i.rt] = x.st.gpr[i.ra] | mo.imm;
    x.pc += 4;
}

OP_HANDLER(hXori)
{
    const isa::Inst &i = mo.inst;
    x.st.gpr[i.rt] = x.st.gpr[i.ra] ^ mo.imm;
    x.pc += 4;
}

OP_HANDLER(hAndiRc)
{
    const isa::Inst &i = mo.inst;
    uint64_t r = x.st.gpr[i.ra] & mo.imm;
    x.st.gpr[i.rt] = r;
    setCr0(x.st, r);
    x.pc += 4;
}

OP_HANDLER(hCmpi)
{
    const isa::Inst &i = mo.inst;
    doCompare(x.st, i.bf, i.l64, true, x.st.gpr[i.ra], mo.imm);
    x.pc += 4;
}

OP_HANDLER(hCmpli)
{
    const isa::Inst &i = mo.inst;
    doCompare(x.st, i.bf, i.l64, false, x.st.gpr[i.ra], mo.imm);
    x.pc += 4;
}

// --- loads / stores (templated over width, extension and addressing)

template <unsigned Size, bool Sign, bool Indexed>
OP_HANDLER(hLoad)
{
    const isa::Inst &i = mo.inst;
    uint64_t base = i.ra ? x.st.gpr[i.ra] : 0;
    uint64_t ea = base + (Indexed ? x.st.gpr[i.rb] : mo.imm);
    x.memAddr = ea;
    ++x.c.loads;
    if (x.l1d)
        x.l1d->access(ea, false);
    uint64_t v;
    if constexpr (Size == 1)
        v = x.mem.readU8(ea);
    else if constexpr (Size == 2)
        v = x.mem.readU16(ea);
    else if constexpr (Size == 4)
        v = x.mem.readU32(ea);
    else
        v = x.mem.readU64(ea);
    if constexpr (Sign && Size < 8)
        v = static_cast<uint64_t>(sext(v, Size * 8));
    x.st.gpr[i.rt] = v;
    x.pc += 4;
}

template <unsigned Size, bool Indexed>
OP_HANDLER(hStore)
{
    const isa::Inst &i = mo.inst;
    uint64_t base = i.ra ? x.st.gpr[i.ra] : 0;
    uint64_t ea = base + (Indexed ? x.st.gpr[i.rb] : mo.imm);
    x.memAddr = ea;
    ++x.c.stores;
    if (x.l1d)
        x.l1d->access(ea, true);
    uint64_t v = x.st.gpr[i.rt];
    if constexpr (Size == 1)
        x.mem.writeU8(ea, static_cast<uint8_t>(v));
    else if constexpr (Size == 2)
        x.mem.writeU16(ea, static_cast<uint16_t>(v));
    else if constexpr (Size == 4)
        x.mem.writeU32(ea, static_cast<uint32_t>(v));
    else
        x.mem.writeU64(ea, v);
    x.pc += 4;
}

// --- X/XO-form ALU (record form folded into the handler)

#define ALU_RC(name, expr)                                            \
    OP_HANDLER(name)                                                  \
    {                                                                 \
        const isa::Inst &i = mo.inst;                                 \
        auto &g = x.st.gpr;                                           \
        uint64_t a = g[i.ra];                                         \
        uint64_t b = g[i.rb];                                         \
        (void)a;                                                      \
        (void)b;                                                      \
        uint64_t r = (expr);                                          \
        g[i.rt] = r;                                                  \
        if (i.rc)                                                     \
            setCr0(x.st, r);                                          \
        x.pc += 4;                                                    \
    }

#define ALU_NORC(name, expr)                                          \
    OP_HANDLER(name)                                                  \
    {                                                                 \
        const isa::Inst &i = mo.inst;                                 \
        auto &g = x.st.gpr;                                           \
        uint64_t a = g[i.ra];                                         \
        uint64_t b = g[i.rb];                                         \
        (void)a;                                                      \
        (void)b;                                                      \
        g[i.rt] = (expr);                                             \
        x.pc += 4;                                                    \
    }

ALU_RC(hAdd, a + b)
ALU_RC(hSubf, b - a) // rt = rb - ra (PowerPC subtract-from)
ALU_RC(hNeg, ~a + 1)
ALU_RC(hMulld, a * b)
ALU_RC(hDivd,
       (static_cast<int64_t>(b) == 0 ||
        (static_cast<int64_t>(a) == INT64_MIN &&
         static_cast<int64_t>(b) == -1))
           ? 0
           : static_cast<uint64_t>(static_cast<int64_t>(a) /
                                   static_cast<int64_t>(b)))
ALU_RC(hDivdu, b ? a / b : 0)
ALU_RC(hAnd, a & b)
ALU_RC(hAndc, a & ~b)
ALU_RC(hOr, a | b)
ALU_RC(hOrc, a | ~b)
ALU_RC(hXor, a ^ b)
ALU_RC(hNor, ~(a | b))
ALU_RC(hNand, ~(a & b))
ALU_RC(hEqv, ~(a ^ b))
ALU_RC(hSld, (b & 0x7f) >= 64 ? 0 : a << (b & 0x7f))
ALU_RC(hSrd, (b & 0x7f) >= 64 ? 0 : a >> (b & 0x7f))
ALU_RC(hSrad,
       static_cast<uint64_t>(
           (b & 0x7f) >= 64
               ? (static_cast<int64_t>(a) < 0 ? -1 : 0)
               : (static_cast<int64_t>(a) >> (b & 0x7f))))
ALU_RC(hExtsb, static_cast<uint64_t>(sext(a, 8)))
ALU_RC(hExtsh, static_cast<uint64_t>(sext(a, 16)))
ALU_RC(hExtsw, static_cast<uint64_t>(sext(a, 32)))
ALU_NORC(hCntlzd, static_cast<uint64_t>(std::countl_zero(a)))
ALU_NORC(hSldi, a << i.rb)
ALU_NORC(hSrdi, a >> i.rb)
ALU_NORC(hSradi,
         static_cast<uint64_t>(static_cast<int64_t>(a) >> i.rb))
ALU_NORC(hMaxd,
         static_cast<uint64_t>(
             static_cast<int64_t>(a) > static_cast<int64_t>(b)
                 ? static_cast<int64_t>(a)
                 : static_cast<int64_t>(b)))
ALU_NORC(hMind,
         static_cast<uint64_t>(
             static_cast<int64_t>(a) < static_cast<int64_t>(b)
                 ? static_cast<int64_t>(a)
                 : static_cast<int64_t>(b)))

#undef ALU_RC
#undef ALU_NORC

OP_HANDLER(hIsel)
{
    const isa::Inst &i = mo.inst;
    auto &g = x.st.gpr;
    g[i.rt] = x.st.crBit(i.bi) ? g[i.ra] : g[i.rb];
    x.pc += 4;
}

OP_HANDLER(hCmp)
{
    const isa::Inst &i = mo.inst;
    doCompare(x.st, i.bf, i.l64, true, x.st.gpr[i.ra], x.st.gpr[i.rb]);
    x.pc += 4;
}

OP_HANDLER(hCmpl)
{
    const isa::Inst &i = mo.inst;
    doCompare(x.st, i.bf, i.l64, false, x.st.gpr[i.ra], x.st.gpr[i.rb]);
    x.pc += 4;
}

// --- branches (direct targets precomputed into mo.imm)

/** BTAC warming with the detailed model's exact update rule. */
inline void
warmBtac(FastCtx &x, uint64_t pc, bool taken, uint64_t target)
{
    Btac::Lookup bl = x.btac->lookup(pc);
    x.btac->update(pc, taken, taken ? target : 0, bl);
}

/** B, and BC with BO_ALWAYS (unconditional, not a condBranch). */
OP_HANDLER(hB)
{
    ++x.c.branches;
    ++x.c.takenBranches;
    if (x.btac)
        warmBtac(x, x.pc, true, mo.imm);
    if (mo.inst.lk)
        x.st.lr = x.pc + 4;
    x.taken = true;
    x.target = mo.imm;
    x.pc = mo.imm;
}

/** Shared tail of the conditional BC variants. */
inline void
finishBc(const MicroOp &mo, FastCtx &x, bool taken)
{
    ++x.c.branches;
    ++x.c.condBranches;
    if (taken)
        ++x.c.takenBranches;
    if (x.pred)
        x.pred->update(x.pc, taken);
    if (x.btac)
        warmBtac(x, x.pc, taken, mo.imm);
    if (mo.inst.lk)
        x.st.lr = x.pc + 4;
    x.taken = taken;
    x.target = taken ? mo.imm : 0;
    x.pc = taken ? mo.imm : x.pc + 4;
}

OP_HANDLER(hBcTrue) { finishBc(mo, x, x.st.crBit(mo.inst.bi)); }
OP_HANDLER(hBcFalse) { finishBc(mo, x, !x.st.crBit(mo.inst.bi)); }

OP_HANDLER(hBcDnz)
{
    uint64_t v = --x.st.ctr;
    finishBc(mo, x, v != 0);
}

OP_HANDLER(hBcDz)
{
    uint64_t v = --x.st.ctr;
    finishBc(mo, x, v == 0);
}

/** Indirect branches: target read from LR or CTR at execution. */
template <bool ViaCtr>
OP_HANDLER(hBcReg)
{
    const isa::Inst &i = mo.inst;
    bool cond = i.bo != isa::BO_ALWAYS;
    bool taken = evalBranchCond(i.bo, i.bi, x.st, x.st.ctr);
    uint64_t target = (ViaCtr ? x.st.ctr : x.st.lr) & ~3ULL;
    ++x.c.branches;
    if (taken)
        ++x.c.takenBranches;
    if (cond) {
        ++x.c.condBranches;
        if (x.pred)
            x.pred->update(x.pc, taken);
    }
    if (x.btac)
        warmBtac(x, x.pc, taken, target);
    if (i.lk)
        x.st.lr = x.pc + 4;
    x.taken = taken;
    x.target = taken ? target : 0;
    x.pc = taken ? target : x.pc + 4;
}

// --- CR logic, SPR moves, syscall

OP_HANDLER(hCrand)
{
    const isa::Inst &i = mo.inst;
    x.st.setCrBit(i.rt, x.st.crBit(i.ra) && x.st.crBit(i.rb));
    x.pc += 4;
}

OP_HANDLER(hCror)
{
    const isa::Inst &i = mo.inst;
    x.st.setCrBit(i.rt, x.st.crBit(i.ra) || x.st.crBit(i.rb));
    x.pc += 4;
}

OP_HANDLER(hCrxor)
{
    const isa::Inst &i = mo.inst;
    x.st.setCrBit(i.rt, x.st.crBit(i.ra) != x.st.crBit(i.rb));
    x.pc += 4;
}

OP_HANDLER(hCrnor)
{
    const isa::Inst &i = mo.inst;
    x.st.setCrBit(i.rt, !(x.st.crBit(i.ra) || x.st.crBit(i.rb)));
    x.pc += 4;
}

OP_HANDLER(hMtLr)
{
    x.st.lr = x.st.gpr[mo.inst.rt];
    x.pc += 4;
}

OP_HANDLER(hMtCtr)
{
    x.st.ctr = x.st.gpr[mo.inst.rt];
    x.pc += 4;
}

OP_HANDLER(hMfLr)
{
    x.st.gpr[mo.inst.rt] = x.st.lr;
    x.pc += 4;
}

OP_HANDLER(hMfCtr)
{
    x.st.gpr[mo.inst.rt] = x.st.ctr;
    x.pc += 4;
}

OP_HANDLER(hMtsprBad)
{
    (void)x;
    panic("mtspr: unsupported SPR %u", mo.inst.spr);
}

OP_HANDLER(hMfsprBad)
{
    (void)x;
    panic("mfspr: unsupported SPR %u", mo.inst.spr);
}

OP_HANDLER(hMfcr)
{
    (void)mo;
    x.st.gpr[mo.inst.rt] = x.st.cr;
    x.pc += 4;
}

OP_HANDLER(hSc)
{
    (void)mo;
    uint64_t fn = x.st.gpr[0];
    uint64_t arg = x.st.gpr[3];
    switch (fn) {
      case isa::SYS_EXIT:
        x.halted = true;
        x.exitCode = static_cast<int64_t>(arg);
        break;
      case isa::SYS_PUTC:
        x.console += static_cast<char>(arg & 0xff);
        break;
      case isa::SYS_PUTINT:
        x.console += strprintf("%lld",
                               static_cast<long long>(
                                   static_cast<int64_t>(arg)));
        break;
      case isa::SYS_PUTHEX:
        x.console += strprintf("0x%llx",
                               static_cast<unsigned long long>(arg));
        break;
      default:
        panic("unknown syscall %llu",
              static_cast<unsigned long long>(fn));
    }
    x.pc += 4;
}

#undef OP_HANDLER

} // namespace

void
Executor::setImage(uint64_t base, size_t bytes)
{
    imageBase_ = base;
    imageBytes_ = bytes;
    ops_.assign(bytes / 4, MicroOp());
}

void
Executor::invalidateDecodeCache()
{
    for (MicroOp &mo : ops_)
        mo = MicroOp();
}

void
buildMicroOp(MicroOp &mo, const isa::Inst &d, uint64_t pc)
{
    mo.inst = d;
    mo.imm = 0;

    uint64_t simm = static_cast<uint64_t>(static_cast<int64_t>(d.imm));
    uint64_t uimm = static_cast<uint32_t>(d.imm);
    MicroOp::Fn fn = nullptr;
    switch (d.op) {
      case Op::ADDI: fn = hAddi; mo.imm = simm; break;
      case Op::ADDIS: fn = hAddi; mo.imm = simm << 16; break;
      case Op::MULLI: fn = hMulli; mo.imm = simm; break;
      case Op::ORI: fn = hOri; mo.imm = uimm; break;
      case Op::ORIS: fn = hOri; mo.imm = uimm << 16; break;
      case Op::XORI: fn = hXori; mo.imm = uimm; break;
      case Op::ANDI_RC: fn = hAndiRc; mo.imm = uimm; break;
      case Op::CMPI: fn = hCmpi; mo.imm = simm; break;
      case Op::CMPLI: fn = hCmpli; mo.imm = uimm; break;

      case Op::LBZ: fn = hLoad<1, false, false>; mo.imm = simm; break;
      case Op::LHZ: fn = hLoad<2, false, false>; mo.imm = simm; break;
      case Op::LHA: fn = hLoad<2, true, false>; mo.imm = simm; break;
      case Op::LWZ: fn = hLoad<4, false, false>; mo.imm = simm; break;
      case Op::LWA: fn = hLoad<4, true, false>; mo.imm = simm; break;
      case Op::LD: fn = hLoad<8, false, false>; mo.imm = simm; break;
      case Op::STB: fn = hStore<1, false>; mo.imm = simm; break;
      case Op::STH: fn = hStore<2, false>; mo.imm = simm; break;
      case Op::STW: fn = hStore<4, false>; mo.imm = simm; break;
      case Op::STD: fn = hStore<8, false>; mo.imm = simm; break;

      case Op::LBZX: fn = hLoad<1, false, true>; break;
      case Op::LHZX: fn = hLoad<2, false, true>; break;
      case Op::LHAX: fn = hLoad<2, true, true>; break;
      case Op::LWZX: fn = hLoad<4, false, true>; break;
      case Op::LWAX: fn = hLoad<4, true, true>; break;
      case Op::LDX: fn = hLoad<8, false, true>; break;
      case Op::STBX: fn = hStore<1, true>; break;
      case Op::STHX: fn = hStore<2, true>; break;
      case Op::STWX: fn = hStore<4, true>; break;
      case Op::STDX: fn = hStore<8, true>; break;

      case Op::ADD: fn = hAdd; break;
      case Op::SUBF: fn = hSubf; break;
      case Op::NEG: fn = hNeg; break;
      case Op::MULLD: fn = hMulld; break;
      case Op::DIVD: fn = hDivd; break;
      case Op::DIVDU: fn = hDivdu; break;
      case Op::AND: fn = hAnd; break;
      case Op::ANDC: fn = hAndc; break;
      case Op::OR: fn = hOr; break;
      case Op::ORC: fn = hOrc; break;
      case Op::XOR: fn = hXor; break;
      case Op::NOR: fn = hNor; break;
      case Op::NAND: fn = hNand; break;
      case Op::EQV: fn = hEqv; break;
      case Op::SLD: fn = hSld; break;
      case Op::SRD: fn = hSrd; break;
      case Op::SRAD: fn = hSrad; break;
      case Op::SLDI: fn = hSldi; break;
      case Op::SRDI: fn = hSrdi; break;
      case Op::SRADI: fn = hSradi; break;
      case Op::EXTSB: fn = hExtsb; break;
      case Op::EXTSH: fn = hExtsh; break;
      case Op::EXTSW: fn = hExtsw; break;
      case Op::CNTLZD: fn = hCntlzd; break;
      case Op::CMP: fn = hCmp; break;
      case Op::CMPL: fn = hCmpl; break;
      case Op::ISEL: fn = hIsel; break;
      case Op::MAXD: fn = hMaxd; break;
      case Op::MIND: fn = hMind; break;

      case Op::B:
      case Op::BC: {
        mo.imm = d.aa ? static_cast<uint64_t>(d.imm)
                      : pc + static_cast<int64_t>(d.imm);
        if (d.op == Op::B) {
            fn = hB;
        } else {
            switch (d.bo) {
              case isa::BO_ALWAYS: fn = hB; break;
              case isa::BO_COND_TRUE: fn = hBcTrue; break;
              case isa::BO_COND_FALSE: fn = hBcFalse; break;
              case isa::BO_DNZ: fn = hBcDnz; break;
              case isa::BO_DZ: fn = hBcDz; break;
              default:
                panic("unsupported BO pattern %u", d.bo);
            }
        }
        break;
      }
      case Op::BCLR: fn = hBcReg<false>; break;
      case Op::BCCTR: fn = hBcReg<true>; break;

      case Op::CRAND: fn = hCrand; break;
      case Op::CROR: fn = hCror; break;
      case Op::CRXOR: fn = hCrxor; break;
      case Op::CRNOR: fn = hCrnor; break;

      case Op::MTSPR:
        fn = d.spr == isa::SPR_LR    ? hMtLr
             : d.spr == isa::SPR_CTR ? hMtCtr
                                     : hMtsprBad;
        break;
      case Op::MFSPR:
        fn = d.spr == isa::SPR_LR    ? hMfLr
             : d.spr == isa::SPR_CTR ? hMfCtr
                                     : hMfsprBad;
        break;
      case Op::MFCR: fn = hMfcr; break;
      case Op::SC: fn = hSc; break;

      default:
        panic("unimplemented opcode %u at pc 0x%llx",
              static_cast<unsigned>(d.op),
              static_cast<unsigned long long>(pc));
    }
    mo.fn = fn;

    // Timing descriptor: the static half of what the timing model
    // needs, so a timed step never re-derives it.
    const isa::OpInfo &opi = d.info();
    TimingDesc &t = mo.timing;
    t = TimingDesc{};
    unsigned deps[isa::kMaxDeps];
    t.nsrc = srcDeps(d, deps) & 7;
    for (unsigned k = 0; k < t.nsrc; ++k)
        t.src[k] = static_cast<uint8_t>(deps[k]);
    t.ndst = dstDeps(d, deps) & 7;
    for (unsigned k = 0; k < t.ndst; ++k)
        t.dst[k] = static_cast<uint8_t>(deps[k]);
    t.isLoad = opi.isLoad;
    t.isStore = opi.isStore;
    t.isBranch = opi.isBranch;
    t.isCondBranch = opi.isCondBranch && d.bo != isa::BO_ALWAYS;
    t.unit = static_cast<uint8_t>(opi.unit);
    t.latency = opi.latency;
    // Divides block their unit for the whole latency; multiplies
    // occupy it for 2 cycles; everything else pipelines.
    t.occupancy = (d.op == Op::DIVD || d.op == Op::DIVDU) ? opi.latency
                  : (d.op == Op::MULLD || d.op == Op::MULLI) ? 2
                                                             : 1;
}

void
Executor::decodeAt(MicroOp &mo, uint64_t pc) const
{
    uint32_t word = mem_.readU32(pc);
    isa::Inst d = isa::decode(word);
    if (!d.valid()) {
        panic("invalid instruction 0x%08x at pc 0x%llx", word,
              static_cast<unsigned long long>(pc));
    }
    buildMicroOp(mo, d, pc);
}

inline MicroOp &
Executor::fetch(uint64_t pc)
{
    uint64_t off = pc - imageBase_;
    if (predecode_ && off < imageBytes_ && (off & 3) == 0) {
        MicroOp &mo = ops_[off >> 2];
        if (!mo.fn)
            decodeAt(mo, pc);
        return mo;
    }
    // Outside the image, or the decode cache disabled: decode fresh.
    decodeAt(scratch_, pc);
    return scratch_;
}

Executor::FastResult
Executor::runFast(uint64_t max, Counters &c, const Warming *warm)
{
    FastCtx x{state_, mem_, c, console_};
    x.pc = state_.pc;
    if (warm) {
        x.pred = warm->pred;
        x.btac = warm->btac;
        x.l1d = warm->l1d;
    }

    FastResult res;
    uint64_t n = 0;
    while (n < max) {
        MicroOp &mo = fetch(x.pc);
        ++c.opCount[size_t(mo.inst.op)];
        mo.fn(mo, x);
        ++n;
        if (x.halted) {
            res.halted = true;
            res.exitCode = x.exitCode;
            break;
        }
    }

    c.instructions += n;
    state_.pc = x.pc;
    res.executed = n;
    return res;
}

const StepInfo &
Executor::step(Counters &c)
{
    const uint64_t pc = state_.pc;
    MicroOp &mo = fetch(pc);
    FastCtx x{state_, mem_, c, console_};
    x.pc = pc;
    ++c.instructions;
    ++c.opCount[size_t(mo.inst.op)];
    mo.fn(mo, x);
    state_.pc = x.pc;

    StepInfo &info = info_;
    info.pc = pc;
    info.nextPc = x.pc;
    info.op = &mo;
    info.memAddr = x.memAddr;
    info.target = x.target;
    info.taken = x.taken;
    info.halted = x.halted;
    info.exitCode = x.exitCode;
    return info;
}

} // namespace bp5::sim
