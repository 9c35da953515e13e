/**
 * @file
 * Differential fuzzing of the functional executor: every computational
 * opcode is single-stepped with random operand values and the result
 * is compared against an independently written C++ semantic model.
 * The model also predicts each step's side outputs (effective address,
 * branch direction and target), which feed the timing model.
 */

#include <gtest/gtest.h>

#include <bit>
#include <string>

#include "isa/encode.h"
#include "sim/exec.h"
#include "support/bitfield.h"
#include "support/random.h"

namespace bp5::sim {
namespace {

using isa::Inst;
using isa::Op;

/** Independent model of RT = f(RA, RB) for the two-source ops. */
int64_t
model(Op op, int64_t a, int64_t b)
{
    uint64_t ua = static_cast<uint64_t>(a);
    uint64_t ub = static_cast<uint64_t>(b);
    switch (op) {
      case Op::ADD: return static_cast<int64_t>(ua + ub);
      case Op::SUBF: return static_cast<int64_t>(ub - ua); // rb - ra
      case Op::MULLD: return static_cast<int64_t>(ua * ub);
      case Op::DIVD:
        return (b == 0 || (a == INT64_MIN && b == -1)) ? 0 : a / b;
      case Op::DIVDU:
        return ub == 0 ? 0 : static_cast<int64_t>(ua / ub);
      case Op::AND: return static_cast<int64_t>(ua & ub);
      case Op::ANDC: return static_cast<int64_t>(ua & ~ub);
      case Op::OR: return static_cast<int64_t>(ua | ub);
      case Op::ORC: return static_cast<int64_t>(ua | ~ub);
      case Op::XOR: return static_cast<int64_t>(ua ^ ub);
      case Op::NOR: return static_cast<int64_t>(~(ua | ub));
      case Op::NAND: return static_cast<int64_t>(~(ua & ub));
      case Op::EQV: return static_cast<int64_t>(~(ua ^ ub));
      case Op::SLD: {
        unsigned sh = unsigned(ub) & 127;
        return sh >= 64 ? 0 : static_cast<int64_t>(ua << sh);
      }
      case Op::SRD: {
        unsigned sh = unsigned(ub) & 127;
        return sh >= 64 ? 0 : static_cast<int64_t>(ua >> sh);
      }
      case Op::SRAD: {
        unsigned sh = unsigned(ub) & 127;
        return sh >= 64 ? (a < 0 ? -1 : 0) : (a >> sh);
      }
      case Op::MAXD: return a > b ? a : b;
      case Op::MIND: return a < b ? a : b;
      default:
        ADD_FAILURE() << "model missing op";
        return 0;
    }
}

/** Independent model of the unary ops. */
int64_t
modelUnary(Op op, int64_t a)
{
    switch (op) {
      case Op::NEG:
        return static_cast<int64_t>(~static_cast<uint64_t>(a) + 1);
      case Op::EXTSB: return sext(static_cast<uint64_t>(a), 8);
      case Op::EXTSH: return sext(static_cast<uint64_t>(a), 16);
      case Op::EXTSW: return sext(static_cast<uint64_t>(a), 32);
      case Op::CNTLZD:
        return std::countl_zero(static_cast<uint64_t>(a));
      default:
        ADD_FAILURE() << "model missing unary op";
        return 0;
    }
}

/** Single-step one instruction with preset registers. */
class SingleStepper
{
  public:
    SingleStepper() : exec_(state_, mem_) {}

    const StepInfo &
    step(const Inst &inst)
    {
        state_.pc = 0x1000;
        mem_.writeU32(0x1000, isa::encode(inst));
        exec_.invalidateDecodeCache();
        return exec_.step(counters_);
    }

    CoreState state_;
    Memory mem_;
    Executor exec_;
    Counters counters_;
};

int64_t
interestingValue(Rng &r)
{
    switch (r.below(8)) {
      case 0: return 0;
      case 1: return 1;
      case 2: return -1;
      case 3: return INT64_MAX;
      case 4: return INT64_MIN;
      case 5: return r.range(-128, 127);
      case 6: return static_cast<int64_t>(r.next() & 0x7f); // shifts
      default: return static_cast<int64_t>(r.next());
    }
}

class ExecAluFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ExecAluFuzz, BinaryOpsMatchModel)
{
    Rng r(7000 + static_cast<uint64_t>(GetParam()));
    SingleStepper ss;
    const Op binOps[] = {Op::ADD, Op::SUBF, Op::MULLD, Op::DIVD,
                         Op::DIVDU, Op::AND, Op::ANDC, Op::OR,
                         Op::ORC, Op::XOR, Op::NOR, Op::NAND,
                         Op::EQV, Op::SLD, Op::SRD, Op::SRAD,
                         Op::MAXD, Op::MIND};
    for (int iter = 0; iter < 50; ++iter) {
        for (Op op : binOps) {
            int64_t a = interestingValue(r);
            int64_t b = interestingValue(r);
            ss.state_.gpr[4] = static_cast<uint64_t>(a);
            ss.state_.gpr[5] = static_cast<uint64_t>(b);
            ss.step(isa::mkX(op, 3, 4, 5));
            EXPECT_EQ(static_cast<int64_t>(ss.state_.gpr[3]),
                      model(op, a, b))
                << isa::mnemonic(op) << " a=" << a << " b=" << b;
        }
    }
}

TEST_P(ExecAluFuzz, UnaryOpsMatchModel)
{
    Rng r(8000 + static_cast<uint64_t>(GetParam()));
    SingleStepper ss;
    for (int iter = 0; iter < 50; ++iter) {
        for (Op op : {Op::NEG, Op::EXTSB, Op::EXTSH, Op::EXTSW,
                      Op::CNTLZD}) {
            int64_t a = interestingValue(r);
            ss.state_.gpr[4] = static_cast<uint64_t>(a);
            ss.step(isa::mkUnary(op, 3, 4));
            EXPECT_EQ(static_cast<int64_t>(ss.state_.gpr[3]),
                      modelUnary(op, a))
                << isa::mnemonic(op) << " a=" << a;
        }
    }
}

TEST_P(ExecAluFuzz, ImmediateShiftsMatchModel)
{
    Rng r(9000 + static_cast<uint64_t>(GetParam()));
    SingleStepper ss;
    for (int iter = 0; iter < 60; ++iter) {
        int64_t a = interestingValue(r);
        unsigned sh = unsigned(r.below(64));
        ss.state_.gpr[4] = static_cast<uint64_t>(a);
        ss.step(isa::mkShImm(Op::SLDI, 3, 4, sh));
        EXPECT_EQ(ss.state_.gpr[3], static_cast<uint64_t>(a) << sh);
        ss.step(isa::mkShImm(Op::SRDI, 3, 4, sh));
        EXPECT_EQ(ss.state_.gpr[3], static_cast<uint64_t>(a) >> sh);
        ss.step(isa::mkShImm(Op::SRADI, 3, 4, sh));
        EXPECT_EQ(static_cast<int64_t>(ss.state_.gpr[3]), a >> sh);
    }
}

TEST_P(ExecAluFuzz, ComparesSetExactlyOneOrderingBit)
{
    Rng r(10000 + static_cast<uint64_t>(GetParam()));
    SingleStepper ss;
    for (int iter = 0; iter < 60; ++iter) {
        int64_t a = interestingValue(r);
        int64_t b = interestingValue(r);
        unsigned bf = unsigned(r.below(8));
        ss.state_.gpr[4] = static_cast<uint64_t>(a);
        ss.state_.gpr[5] = static_cast<uint64_t>(b);

        ss.step(isa::mkCmp(Op::CMP, bf, 4, 5, true));
        unsigned f = ss.state_.crField(bf);
        unsigned expect = a < b   ? 1u << isa::CR_LT
                          : a > b ? 1u << isa::CR_GT
                                  : 1u << isa::CR_EQ;
        EXPECT_EQ(f, expect) << "cmp a=" << a << " b=" << b;

        ss.step(isa::mkCmp(Op::CMPL, bf, 4, 5, true));
        uint64_t ua = static_cast<uint64_t>(a);
        uint64_t ub = static_cast<uint64_t>(b);
        unsigned expectU = ua < ub   ? 1u << isa::CR_LT
                           : ua > ub ? 1u << isa::CR_GT
                                     : 1u << isa::CR_EQ;
        EXPECT_EQ(ss.state_.crField(bf), expectU);
    }
}

TEST_P(ExecAluFuzz, IselTracksCrBit)
{
    Rng r(11000 + static_cast<uint64_t>(GetParam()));
    SingleStepper ss;
    for (int iter = 0; iter < 60; ++iter) {
        unsigned bit = unsigned(r.below(32));
        bool set = r.chance(0.5);
        ss.state_.cr = set ? (1u << bit) : 0;
        uint64_t x = r.next(), y = r.next();
        ss.state_.gpr[4] = x;
        ss.state_.gpr[5] = y;
        ss.step(isa::mkIsel(3, 4, 5, bit));
        EXPECT_EQ(ss.state_.gpr[3], set ? x : y);
    }
}

TEST_P(ExecAluFuzz, RecordFormsTrackResultSign)
{
    Rng r(12000 + static_cast<uint64_t>(GetParam()));
    SingleStepper ss;
    for (int iter = 0; iter < 60; ++iter) {
        int64_t a = interestingValue(r);
        int64_t b = interestingValue(r);
        ss.state_.gpr[4] = static_cast<uint64_t>(a);
        ss.state_.gpr[5] = static_cast<uint64_t>(b);
        ss.step(isa::mkX(Op::ADD, 3, 4, 5, true));
        int64_t res = model(Op::ADD, a, b);
        unsigned f = ss.state_.crField(0);
        unsigned expect = res < 0   ? 1u << isa::CR_LT
                          : res > 0 ? 1u << isa::CR_GT
                                    : 1u << isa::CR_EQ;
        EXPECT_EQ(f, expect);
    }
}

TEST_P(ExecAluFuzz, MemoryRoundTripAllSizes)
{
    Rng r(13000 + static_cast<uint64_t>(GetParam()));
    SingleStepper ss;
    const struct
    {
        Op st, ldz;
        Op lds;     // sign-extending load, INVALID if none
        unsigned bits;
    } combos[] = {
        {Op::STB, Op::LBZ, Op::INVALID, 8},
        {Op::STH, Op::LHZ, Op::LHA, 16},
        {Op::STW, Op::LWZ, Op::LWA, 32},
        {Op::STD, Op::LD, Op::INVALID, 64},
    };
    for (int iter = 0; iter < 40; ++iter) {
        for (const auto &c : combos) {
            uint64_t v = r.next();
            int32_t disp = int32_t(r.range(-512, 511)) & ~7;
            ss.state_.gpr[7] = 0x8000;
            ss.state_.gpr[3] = v;
            ss.step(isa::mkD(c.st, 3, 7, disp));
            ss.step(isa::mkD(c.ldz, 4, 7, disp));
            uint64_t expectZ = c.bits >= 64 ? v : (v & mask(c.bits));
            EXPECT_EQ(ss.state_.gpr[4], expectZ)
                << isa::mnemonic(c.ldz);
            if (c.lds != Op::INVALID) {
                ss.step(isa::mkD(c.lds, 5, 7, disp));
                EXPECT_EQ(static_cast<int64_t>(ss.state_.gpr[5]),
                          sext(v, c.bits))
                    << isa::mnemonic(c.lds);
            }
        }
    }
}

/** Independent model of the effective address of a load or store. */
uint64_t
modelEa(const Inst &i, const CoreState &st)
{
    uint64_t base = i.ra == 0 ? 0 : st.gpr[i.ra];
    bool indexed = isa::opInfo(i.op).readsRB;
    return base + (indexed ? st.gpr[i.rb]
                           : static_cast<uint64_t>(int64_t(i.imm)));
}

TEST_P(ExecAluFuzz, MemorySideOutputsMatchModel)
{
    Rng r(14000 + static_cast<uint64_t>(GetParam()));
    SingleStepper ss;
    const Op memOps[] = {Op::LBZ,  Op::LHZ,  Op::LHA,  Op::LWZ,
                         Op::LWA,  Op::LD,   Op::STB,  Op::STH,
                         Op::STW,  Op::STD,  Op::LBZX, Op::LHZX,
                         Op::LHAX, Op::LWZX, Op::LWAX, Op::LDX,
                         Op::STBX, Op::STHX, Op::STWX, Op::STDX};
    for (int iter = 0; iter < 20; ++iter) {
        for (Op op : memOps) {
            const isa::OpInfo &opi = isa::opInfo(op);
            Inst i;
            i.op = op;
            i.rt = 3;
            i.ra = r.chance(0.25) ? 0 : 7; // RA = 0 is a literal zero
            if (opi.readsRB) {
                i.rb = 8;
                ss.state_.gpr[8] = r.below(0x10000);
            } else {
                i.imm = int32_t(r.range(-0x8000, 0x7fff));
            }
            ss.state_.gpr[7] = 0x100000 + r.below(0x10000);
            ss.state_.gpr[3] = r.next();
            uint64_t ea = modelEa(i, ss.state_);
            Counters before = ss.counters_;
            const StepInfo &info = ss.step(i);
            EXPECT_EQ(info.memAddr, ea) << isa::mnemonic(op);
            EXPECT_EQ(info.op->timing.isLoad, opi.isLoad);
            EXPECT_EQ(info.op->timing.isStore, opi.isStore);
            EXPECT_FALSE(info.taken);
            EXPECT_EQ(info.target, 0u);
            EXPECT_EQ(info.nextPc, 0x1004u);
            EXPECT_EQ(ss.counters_.loads - before.loads,
                      opi.isLoad ? 1u : 0u);
            EXPECT_EQ(ss.counters_.stores - before.stores,
                      opi.isStore ? 1u : 0u);
        }
    }
}

/** Independent model of a branch: direction, target, CTR and LR. */
struct BranchModel
{
    bool taken;
    uint64_t target; ///< where a taken branch goes
    uint64_t ctr;
    uint64_t lr;
};

BranchModel
modelBranch(const Inst &i, uint64_t pc, const CoreState &st)
{
    BranchModel m{true, 0, st.ctr, i.lk ? pc + 4 : st.lr};
    bool crbit = (st.cr >> i.bi) & 1;
    if (i.op == Op::B || i.op == Op::BC)
        m.target = pc + static_cast<uint64_t>(int64_t(i.imm));
    else if (i.op == Op::BCLR)
        m.target = st.lr & ~3ULL;
    else
        m.target = st.ctr & ~3ULL;
    if (i.op == Op::B)
        return m;
    // Only BC decrements CTR; BCLR/BCCTR test the unmodified value.
    bool dec = i.op == Op::BC &&
               (i.bo == isa::BO_DNZ || i.bo == isa::BO_DZ);
    if (dec)
        m.ctr = st.ctr - 1;
    switch (i.bo) {
      case isa::BO_ALWAYS: m.taken = true; break;
      case isa::BO_COND_TRUE: m.taken = crbit; break;
      case isa::BO_COND_FALSE: m.taken = !crbit; break;
      case isa::BO_DNZ: m.taken = m.ctr != 0; break;
      case isa::BO_DZ: m.taken = m.ctr == 0; break;
      default: ADD_FAILURE() << "bad BO";
    }
    return m;
}

TEST_P(ExecAluFuzz, BranchSideOutputsMatchModel)
{
    Rng r(15000 + static_cast<uint64_t>(GetParam()));
    SingleStepper ss;
    const unsigned bos[] = {isa::BO_ALWAYS, isa::BO_COND_TRUE,
                            isa::BO_COND_FALSE, isa::BO_DNZ, isa::BO_DZ};
    for (int iter = 0; iter < 30; ++iter) {
        for (Op op : {Op::B, Op::BC, Op::BCLR, Op::BCCTR}) {
            for (unsigned bo : bos) {
                if (op == Op::B && bo != isa::BO_ALWAYS)
                    continue;
                Inst i;
                i.op = op;
                i.bo = static_cast<uint8_t>(bo);
                i.bi = static_cast<uint8_t>(r.below(32));
                i.lk = r.chance(0.5);
                if (op == Op::B || op == Op::BC)
                    i.imm = int32_t(r.range(-0x400, 0x1fff)) * 4;
                ss.state_.cr = static_cast<uint32_t>(r.next());
                ss.state_.ctr = r.chance(0.3) ? r.below(3) : r.next();
                ss.state_.lr = r.next();
                BranchModel m = modelBranch(i, 0x1000, ss.state_);
                Counters before = ss.counters_;
                const StepInfo &info = ss.step(i);
                std::string what = std::string(isa::mnemonic(op)) +
                                   " bo=" + std::to_string(bo);
                EXPECT_EQ(info.taken, m.taken) << what;
                EXPECT_EQ(info.target, m.taken ? m.target : 0) << what;
                EXPECT_EQ(info.nextPc, m.taken ? m.target : 0x1004u)
                    << what;
                EXPECT_EQ(ss.state_.pc, info.nextPc) << what;
                EXPECT_EQ(ss.state_.ctr, m.ctr) << what;
                EXPECT_EQ(ss.state_.lr, m.lr) << what;
                EXPECT_EQ(info.memAddr, 0u) << what;
                bool cond = op != Op::B && bo != isa::BO_ALWAYS;
                EXPECT_EQ(info.op->timing.isCondBranch, cond) << what;
                EXPECT_EQ(ss.counters_.branches - before.branches, 1u);
                EXPECT_EQ(ss.counters_.condBranches -
                              before.condBranches,
                          cond ? 1u : 0u);
                EXPECT_EQ(ss.counters_.takenBranches -
                              before.takenBranches,
                          m.taken ? 1u : 0u);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Rounds, ExecAluFuzz, ::testing::Range(0, 5));

} // namespace
} // namespace bp5::sim
