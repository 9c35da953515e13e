/**
 * @file
 * Functional-executor tests: architectural semantics of every
 * instruction class, run through the assembler and Machine.
 */

#include <gtest/gtest.h>

#include <vector>

#include "isa/encode.h"
#include "masm/assembler.h"
#include "sim/machine.h"

namespace bp5::sim {
namespace {

/** Assemble, load and run functionally; returns the machine for checks. */
struct Runner
{
    Machine m;
    RunResult res;

    explicit Runner(const std::string &body, uint64_t max = 100000)
    {
        // Programs end with: li r0,0 ; sc  (exit with code in r3).
        std::string src = body + "\nli r0, 0\nsc\n";
        masm::Program p = masm::assemble(src, 0x10000);
        m.loadProgram(p);
        m.state().pc = p.base;
        res = m.runFunctional(max);
        EXPECT_TRUE(res.halted) << "program did not halt";
    }

    uint64_t gpr(unsigned r) { return m.state().gpr[r]; }
    int64_t sgpr(unsigned r) { return static_cast<int64_t>(gpr(r)); }
};

TEST(Exec, ImmediateArithmetic)
{
    Runner r("li r3, 100\naddi r4, r3, -30\naddis r5, r3, 2\n"
             "mulli r6, r4, 6\n");
    EXPECT_EQ(r.gpr(3), 100u);
    EXPECT_EQ(r.gpr(4), 70u);
    EXPECT_EQ(r.gpr(5), 100u + (2u << 16));
    EXPECT_EQ(r.gpr(6), 420u);
}

TEST(Exec, LiWithNegative)
{
    Runner r("li r3, -5\n");
    EXPECT_EQ(r.sgpr(3), -5);
}

TEST(Exec, LogicalImmediates)
{
    Runner r("li r3, 0x0f0f\nori r4, r3, 0x00f0\nxori r5, r3, 0xffff\n"
             "andi. r6, r3, 0x00ff\noris r7, r3, 1\n");
    EXPECT_EQ(r.gpr(4), 0x0fffu);
    EXPECT_EQ(r.gpr(5), 0xf0f0u);
    EXPECT_EQ(r.gpr(6), 0x000fu);
    EXPECT_EQ(r.gpr(7), 0x10f0fu);
}

TEST(Exec, RegisterArithmetic)
{
    Runner r("li r3, 21\nli r4, 2\nmulld r5, r3, r4\n"
             "subf r6, r4, r3\n" // r6 = r3 - r4
             "neg r7, r3\nadd r8, r3, r4\n");
    EXPECT_EQ(r.gpr(5), 42u);
    EXPECT_EQ(r.gpr(6), 19u);
    EXPECT_EQ(r.sgpr(7), -21);
    EXPECT_EQ(r.gpr(8), 23u);
}

TEST(Exec, Division)
{
    Runner r("li r3, -100\nli r4, 7\ndivd r5, r3, r4\n"
             "li r6, 100\ndivdu r7, r6, r4\n"
             "li r8, 0\ndivd r9, r3, r8\n");
    EXPECT_EQ(r.sgpr(5), -14); // C-style truncation
    EXPECT_EQ(r.gpr(7), 14u);
    EXPECT_EQ(r.gpr(9), 0u); // defined-zero on divide by zero
}

TEST(Exec, LogicalRegister)
{
    Runner r("li r3, 0x00ff\nli r4, 0x0f0f\n"
             "and r5, r3, r4\nor r6, r3, r4\nxor r7, r3, r4\n"
             "andc r8, r3, r4\nnor r9, r3, r4\nnand r10, r3, r4\n"
             "eqv r11, r3, r4\norc r12, r3, r4\n");
    EXPECT_EQ(r.gpr(5), 0x000fu);
    EXPECT_EQ(r.gpr(6), 0x0fffu);
    EXPECT_EQ(r.gpr(7), 0x0ff0u);
    EXPECT_EQ(r.gpr(8), 0x00f0u);
    EXPECT_EQ(r.gpr(9), ~0x0fffULL);
    EXPECT_EQ(r.gpr(10), ~0x000fULL);
    EXPECT_EQ(r.gpr(11), ~0x0ff0ULL);
    EXPECT_EQ(r.gpr(12), (0x00ffULL | ~0x0f0fULL));
}

TEST(Exec, Shifts)
{
    Runner r("li r3, 1\nli r4, 12\nsld r5, r3, r4\n"
             "li r6, -64\nsrad r7, r6, r3\nsrd r8, r6, r3\n"
             "sldi r9, r3, 31\nsrdi r10, r9, 30\nsradi r11, r6, 2\n"
             "li r12, 70\nsld r13, r3, r12\n");
    EXPECT_EQ(r.gpr(5), 4096u);
    EXPECT_EQ(r.sgpr(7), -32);
    EXPECT_EQ(r.gpr(8), (~63ULL) >> 1);
    EXPECT_EQ(r.gpr(9), 1ULL << 31);
    EXPECT_EQ(r.gpr(10), 2u);
    EXPECT_EQ(r.sgpr(11), -16);
    EXPECT_EQ(r.gpr(13), 0u); // shift >= 64 yields zero
}

TEST(Exec, ExtendAndCount)
{
    Runner r("li r3, 0x80\nextsb r4, r3\n"
             "li r5, 1\nsldi r5, r5, 15\nextsh r6, r5\n"
             "li r7, 1\nsldi r8, r7, 40\ncntlzd r9, r8\n"
             "li r10, 0\ncntlzd r11, r10\n");
    EXPECT_EQ(r.sgpr(4), -128);
    EXPECT_EQ(r.sgpr(6), -32768);
    EXPECT_EQ(r.gpr(9), 23u);
    EXPECT_EQ(r.gpr(11), 64u);
}

TEST(Exec, ExtswSignExtends)
{
    Runner r("li r3, -1\nsrdi r4, r3, 32\nextsw r5, r4\n");
    EXPECT_EQ(r.gpr(4), 0xffffffffu);
    EXPECT_EQ(r.sgpr(5), -1);
}

TEST(Exec, MemoryRoundTrip)
{
    Runner r("li r1, 0x7000\n"
             "li r3, -1234\nstd r3, 0(r1)\nld r4, 0(r1)\n"
             "li r5, 0xff\nstb r5, 8(r1)\nlbz r6, 8(r1)\n"
             "li r7, -2\nsth r7, 16(r1)\nlha r8, 16(r1)\nlhz r9, 16(r1)\n"
             "li r10, -10000\nstw r10, 24(r1)\nlwa r11, 24(r1)\n"
             "lwz r12, 24(r1)\n");
    EXPECT_EQ(r.sgpr(4), -1234);
    EXPECT_EQ(r.gpr(6), 0xffu);
    EXPECT_EQ(r.sgpr(8), -2);
    EXPECT_EQ(r.gpr(9), 0xfffeu);
    EXPECT_EQ(r.sgpr(11), -10000);
    EXPECT_EQ(r.gpr(12), static_cast<uint32_t>(-10000));
}

TEST(Exec, IndexedMemory)
{
    Runner r("li r1, 0x7000\nli r2, 24\n"
             "li r3, 777\nstdx r3, r1, r2\nldx r4, r1, r2\n"
             "li r5, 0x1234\nsthx r5, r1, r2\nlhzx r6, r1, r2\n"
             "stwx r5, r1, r2\nlwzx r7, r1, r2\nlwax r8, r1, r2\n"
             "stbx r5, r1, r2\nlbzx r9, r1, r2\nlhax r10, r1, r2\n");
    EXPECT_EQ(r.gpr(4), 777u);
    EXPECT_EQ(r.gpr(6), 0x1234u);
    EXPECT_EQ(r.gpr(7), 0x1234u);
    EXPECT_EQ(r.gpr(8), 0x1234u);
    EXPECT_EQ(r.gpr(9), 0x34u);
    EXPECT_EQ(r.gpr(10), 0x1234u);
}

TEST(Exec, CompareAndConditionalBranch)
{
    Runner r("li r3, 5\nli r4, 9\n"
             "cmpd cr0, r3, r4\n"
             "blt less\n"
             "li r5, 0\nb out\n"
             "less: li r5, 1\n"
             "out:\n");
    EXPECT_EQ(r.gpr(5), 1u);
}

TEST(Exec, UnsignedCompare)
{
    Runner r("li r3, -1\nli r4, 1\n"
             "cmpld cr1, r3, r4\n" // unsigned: ~0 > 1
             "bgt cr1, big\nli r5, 0\nb out\nbig: li r5, 1\nout:\n");
    EXPECT_EQ(r.gpr(5), 1u);
}

TEST(Exec, WordCompareUsesLow32)
{
    // r3 = 0x1_0000_0001 (33 bits); 32-bit compare sees 1.
    Runner r("li r3, 1\nsldi r4, r3, 32\nadd r5, r4, r3\n"
             "cmpwi cr2, r5, 1\n"
             "beq cr2, eq\nli r6, 0\nb out\neq: li r6, 1\nout:\n");
    EXPECT_EQ(r.gpr(6), 1u);
}

TEST(Exec, CtrLoop)
{
    Runner r("li r3, 10\nmtctr r3\nli r4, 0\n"
             "loop: addi r4, r4, 1\nbdnz loop\n");
    EXPECT_EQ(r.gpr(4), 10u);
    EXPECT_EQ(r.m.state().ctr, 0u);
}

TEST(Exec, CallReturn)
{
    Runner r("li r3, 0\nbl func\naddi r3, r3, 100\nb out\n"
             "func: li r3, 5\nblr\nout:\n");
    EXPECT_EQ(r.gpr(3), 105u);
}

TEST(Exec, IndirectBranchViaCtr)
{
    Runner r("li r3, 0\n"
             "addi r4, r0, 0\n"   // placeholder
             "mflr r5\n"
             "bl here\n"
             "here: mflr r6\naddi r6, r6, 20\nmtctr r6\nbctr\n"
             "li r3, 111\n"       // skipped
             "nop\n");
    EXPECT_EQ(r.gpr(3), 0u);
}

TEST(Exec, IselSelectsOnCrBit)
{
    Runner r("li r3, 3\nli r4, 8\n"
             "cmpd cr0, r3, r4\n"
             "isel r5, r4, r3, 0\n"  // bit 0 = LT(cr0): r5 = max
             "isel r6, r3, r4, 1\n"); // bit 1 = GT(cr0): false -> r4
    EXPECT_EQ(r.gpr(5), 8u);
    EXPECT_EQ(r.gpr(6), 8u);
}

TEST(Exec, MaxMinInstructions)
{
    Runner r("li r3, -7\nli r4, 5\nmaxd r5, r3, r4\nmind r6, r3, r4\n"
             "maxd r7, r3, r3\n");
    EXPECT_EQ(r.gpr(5), 5u);
    EXPECT_EQ(r.sgpr(6), -7);
    EXPECT_EQ(r.sgpr(7), -7);
}

TEST(Exec, RecordFormsSetCr0)
{
    Runner r("li r3, 1\nli r4, -1\n"
             "add. r5, r3, r4\n"   // 0 -> EQ
             "isel r6, r3, r4, 2\n" // EQ bit of cr0
             "add. r7, r3, r3\n"   // 2 -> GT
             "isel r8, r3, r4, 1\n");
    EXPECT_EQ(r.gpr(6), 1u);
    EXPECT_EQ(r.gpr(8), 1u);
}

TEST(Exec, CrLogical)
{
    Runner r("li r3, 1\nli r4, 2\n"
             "cmpd cr0, r3, r4\n"     // LT set
             "cmpd cr1, r4, r3\n"     // GT set
             "crand 8, 0, 5\n"        // cr2.LT = cr0.LT && cr1.GT = 1
             "isel r5, r3, r4, 8\n"
             "crxor 9, 0, 0\n"        // cr2.GT = 0
             "isel r6, r3, r4, 9\n");
    EXPECT_EQ(r.gpr(5), 1u);
    EXPECT_EQ(r.gpr(6), 2u);
}

TEST(Exec, MfcrReadsFullCr)
{
    Runner r("li r3, 1\ncmpdi cr7, r3, 1\nmfcr r4\n");
    // cr7 EQ bit = bit 30 in our LSB-first layout.
    EXPECT_TRUE(r.gpr(4) & (1u << (7 * 4 + 2)));
}

TEST(Exec, SyscallConsole)
{
    Runner r("li r0, 1\nli r3, 72\nsc\n"   // 'H'
             "li r0, 2\nli r3, -42\nsc\n"
             "li r0, 3\nli r3, 255\nsc\n");
    EXPECT_EQ(r.res.console, "H-420xff");
}

TEST(Exec, ExitCodePropagates)
{
    Machine m;
    masm::Program p = masm::assemble("li r0, 0\nli r3, 7\nsc\n", 0x1000);
    m.loadProgram(p);
    m.state().pc = p.base;
    RunResult res = m.runFunctional();
    EXPECT_TRUE(res.halted);
    EXPECT_EQ(res.exitCode, 7);
}

TEST(Exec, InstructionCountsInCounters)
{
    Runner r("li r3, 3\nmtctr r3\nloop: nop\nbdnz loop\n");
    // li, mtctr, 3x(nop+bdnz), li r0, sc = 10
    EXPECT_EQ(r.res.counters.instructions, 10u);
    EXPECT_EQ(r.res.counters.branches, 3u);
    EXPECT_EQ(r.res.counters.takenBranches, 2u);
}

// --------------------------------------------------------------------
// Timing descriptor: the timing model reads only MicroOp::timing, so
// it must equal what isa::srcDeps/dstDeps/opInfo say for every form.
// --------------------------------------------------------------------

/** Every decodable form the descriptor has to cover. */
std::vector<isa::Inst>
descriptorCases()
{
    using isa::Op;
    std::vector<isa::Inst> cases;
    const unsigned bos[] = {isa::BO_ALWAYS, isa::BO_COND_TRUE,
                            isa::BO_COND_FALSE, isa::BO_DNZ, isa::BO_DZ};
    for (size_t k = 0; k < size_t(Op::NUM_OPS); ++k) {
        Op op = Op(k);
        isa::Inst i;
        i.op = op;
        i.rt = 3;
        i.ra = 4;
        i.rb = 5;
        i.bf = 2;
        i.bi = 9; // CR field 2
        i.imm = 64;
        switch (op) {
          case Op::BC:
          case Op::BCLR:
          case Op::BCCTR:
            for (unsigned bo : bos) {
                for (bool lk : {false, true}) {
                    i.bo = static_cast<uint8_t>(bo);
                    i.lk = lk;
                    cases.push_back(i);
                }
            }
            continue;
          case Op::B:
            for (bool lk : {false, true}) {
                i.lk = lk;
                cases.push_back(i);
            }
            continue;
          case Op::MTSPR:
          case Op::MFSPR:
            for (unsigned spr : {isa::SPR_LR, isa::SPR_CTR}) {
                i.spr = static_cast<uint16_t>(spr);
                cases.push_back(i);
            }
            continue;
          case Op::CRAND: case Op::CROR: case Op::CRXOR: case Op::CRNOR:
            i.rt = 1;  // CR bits in three different fields
            i.ra = 14;
            i.rb = 31;
            cases.push_back(i);
            continue;
          default:
            break;
        }
        cases.push_back(i);
        i.ra = 0; // literal-zero base for D-forms
        cases.push_back(i);
        if (op != Op::ANDI_RC) {
            i.ra = 4;
            i.rc = true; // record form
            cases.push_back(i);
        }
    }
    return cases;
}

TEST(TimingDescriptor, MatchesIsaDepsOpInfoAndOccupancy)
{
    using isa::Op;
    size_t checked = 0;
    for (const isa::Inst &i : descriptorCases()) {
        MicroOp mo;
        buildMicroOp(mo, i, 0x10000);
        const TimingDesc &t = mo.timing;
        const isa::OpInfo &opi = isa::opInfo(i.op);
        SCOPED_TRACE(::testing::Message()
                     << isa::mnemonic(i.op) << " bo=" << unsigned(i.bo)
                     << " lk=" << i.lk << " rc=" << i.rc
                     << " ra=" << unsigned(i.ra)
                     << " spr=" << i.spr);

        unsigned deps[isa::kMaxDeps];
        unsigned n = isa::srcDeps(i, deps);
        ASSERT_EQ(t.nsrc, n);
        for (unsigned k = 0; k < n; ++k)
            EXPECT_EQ(t.src[k], deps[k]);
        n = isa::dstDeps(i, deps);
        ASSERT_EQ(t.ndst, n);
        for (unsigned k = 0; k < n; ++k)
            EXPECT_EQ(t.dst[k], deps[k]);

        EXPECT_EQ(t.execUnit(), opi.unit);
        EXPECT_EQ(t.latency, opi.latency);
        EXPECT_EQ(t.isLoad, opi.isLoad);
        EXPECT_EQ(t.isStore, opi.isStore);
        EXPECT_EQ(t.isBranch, opi.isBranch);
        EXPECT_EQ(t.isCondBranch,
                  opi.isCondBranch && i.bo != isa::BO_ALWAYS);
        unsigned occupancy = 1;
        if (i.op == Op::DIVD || i.op == Op::DIVDU)
            occupancy = opi.latency;
        else if (i.op == Op::MULLD || i.op == Op::MULLI)
            occupancy = 2;
        EXPECT_EQ(t.occupancy, occupancy);
        EXPECT_EQ(mo.inst.op, i.op);
        ++checked;
    }
    // Every opcode, the 5 BO patterns x LK of BC/BCLR/BCCTR, both SPRs.
    EXPECT_GT(checked, 3 * size_t(Op::NUM_OPS));
}

/** Timed steps hand the scheduler the slot they executed. */
TEST(TimingDescriptor, StepExposesTheExecutedSlot)
{
    Memory mem;
    CoreState st;
    Executor ex(st, mem);
    Counters c;
    mem.writeU32(0x1000, isa::encode(isa::mkX(isa::Op::DIVD, 3, 4, 5,
                                              true)));
    mem.writeU32(0x1004, isa::encode(isa::mkD(isa::Op::LD, 6, 7, 16)));
    ex.setImage(0x1000, 8);
    st.pc = 0x1000;
    st.gpr[7] = 0x8000;
    for (bool predecode : {true, false}) {
        ex.setPredecode(predecode);
        st.pc = 0x1000;
        const StepInfo &a = ex.step(c);
        EXPECT_EQ(a.op->inst.op, isa::Op::DIVD);
        EXPECT_EQ(a.op->timing.ndst, 2u); // rt and CR0
        EXPECT_EQ(a.nextPc, 0x1004u);
        const StepInfo &b = ex.step(c);
        EXPECT_TRUE(b.op->timing.isLoad);
        EXPECT_EQ(b.memAddr, 0x8010u);
        EXPECT_EQ(b.pc, 0x1004u);
    }
    EXPECT_EQ(c.instructions, 4u);
    EXPECT_EQ(c.loads, 2u);
    EXPECT_EQ(c.opCount[size_t(isa::Op::DIVD)], 2u);
}

} // namespace
} // namespace bp5::sim
