/**
 * @file
 * Static-analyzer tests: CFG reconstruction, dataflow lint (clean on
 * every compiled kernel and shipped example, exact diagnostics on an
 * intentionally broken fixture), agreement between the analyzer's
 * unreachable-code detection and the IR-level passes, the static
 * branch taxonomy, and its join against the simulator's per-site PMU
 * counters.
 */

#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "analysis/branch_class.h"
#include "analysis/lint.h"
#include "kernels/kernels.h"
#include "workloads/workload.h"

namespace bp5::analysis {
namespace {

Cfg
cfgOf(const std::string &asm_text, uint64_t base = 0x10000)
{
    return buildCfg(CodeImage::fromProgram(masm::assemble(asm_text, base)));
}

// --------------------------------------------------------------------
// CFG reconstruction.
// --------------------------------------------------------------------

const char *kCountdown = R"(
start:
        li r14, 5
        mtctr r14
loop:
        addi r14, r14, -1
        bdnz loop
        li r0, 0
        li r3, 0
        sc
)";

TEST(Cfg, ReconstructsBlocksAndEdges)
{
    Cfg cfg = cfgOf(kCountdown);
    ASSERT_TRUE(cfg.issues.empty());
    // Blocks: [li, mtctr] [addi, bdnz] [li, li, sc].
    ASSERT_EQ(cfg.blocks.size(), 3u);
    EXPECT_EQ(cfg.entryBlock, 0);
    EXPECT_EQ(cfg.blocks[0].succs, std::vector<int>{1});
    // The loop block is its own successor plus the exit block.
    EXPECT_EQ(cfg.blocks[1].succs.size(), 2u);
    EXPECT_TRUE(cfg.blocks[2].succs.empty());
    EXPECT_TRUE(cfg.blocks[2].isExit);
    EXPECT_EQ(cfg.numInsts(), 7u);
}

TEST(Cfg, ExitSyscallHeuristic)
{
    CodeImage img =
        CodeImage::fromProgram(masm::assemble(kCountdown, 0x10000));
    // The final sc at base + 6*4: selector is li r0, 0 two insts back.
    EXPECT_EQ(classifySyscall(img, 0x10000 + 6 * 4), 0);
}

TEST(Cfg, ServiceSyscallFallsThrough)
{
    Cfg cfg = cfgOf("li r0, 2\n"
                    "li r3, 7\n"
                    "sc\n"
                    "li r0, 0\n"
                    "sc\n");
    ASSERT_TRUE(cfg.issues.empty());
    // putint sc falls through into the exit block.
    ASSERT_EQ(cfg.blocks.size(), 2u);
    EXPECT_FALSE(cfg.blocks[0].isExit);
    EXPECT_EQ(cfg.blocks[0].succs, std::vector<int>{1});
    EXPECT_TRUE(cfg.blocks[1].isExit);
}

TEST(Cfg, BlockAtAndDump)
{
    Cfg cfg = cfgOf(kCountdown);
    const BasicBlock *b = cfg.blockAt(0x10008);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(b->id, 1);
    EXPECT_EQ(cfg.blockAt(0x10000 + 7 * 4), nullptr);
    std::string dump = cfg.dump();
    EXPECT_NE(dump.find("block 0"), std::string::npos);
    EXPECT_NE(dump.find("loop"), std::string::npos);
}

// --------------------------------------------------------------------
// Lint: the broken fixture with exact diagnostics.
// --------------------------------------------------------------------

TEST(Lint, BrokenFixtureExactDiagnostics)
{
    // Three planted bugs: an undefined-register read, a store through
    // an uninitialized base, and a branch into a data word.
    const char *broken = R"(
start:
        add r5, r20, r21      # r20/r21: no path defines them
        cmpdi cr1, r5, 0
        beq cr1, data         # branches into the data region
        std r5, 0(r22)        # r22 never written
        li r0, 0
        li r3, 0
        sc
data:
        .dword 0
)";
    LintReport report = lintProgram(masm::assemble(broken, 0x10000));

    ASSERT_EQ(report.diags.size(), 3u) << report.toText("broken");
    EXPECT_EQ(report.errors(), 3u);

    EXPECT_EQ(report.diags[0].code, LintCode::UndefinedRegisterRead);
    EXPECT_EQ(report.diags[0].pc, 0x10000u);
    EXPECT_NE(report.diags[0].message.find("r20, r21"),
              std::string::npos);
    EXPECT_EQ(report.diags[0].disasm, "add r5, r20, r21");

    EXPECT_EQ(report.diags[1].code, LintCode::UninitializedStoreBase);
    EXPECT_EQ(report.diags[1].pc, 0x1000cu);
    EXPECT_NE(report.diags[1].message.find("r22"), std::string::npos);

    EXPECT_EQ(report.diags[2].code, LintCode::InvalidInstruction);
    EXPECT_EQ(report.diags[2].pc, 0x1001cu); // the data word
}

TEST(Lint, JsonRowsCarryStructure)
{
    LintReport report = lintProgram(
        masm::assemble("add r5, r20, r20\nli r0, 0\nsc\n", 0x10000));
    ASSERT_EQ(report.diags.size(), 1u);
    auto rows = report.toRows("fixture");
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].text("program"), "fixture");
    EXPECT_EQ(rows[0].text("severity"), "error");
    EXPECT_EQ(rows[0].text("code"), "undefined-register-read");
    EXPECT_EQ(rows[0].text("pc"), "0x10000");
    std::string line = support::emitJsonLine(rows, "lint:fixture");
    EXPECT_NE(line.find("\"code\": \"undefined-register-read\""),
              std::string::npos);
    EXPECT_EQ(line.find('\n'), line.size() - 1); // one record, one line
}

TEST(Lint, FallOffEnd)
{
    LintReport report =
        lintProgram(masm::assemble("nop\nadd r5, r3, r4\n", 0x10000));
    ASSERT_EQ(report.diags.size(), 1u) << report.toText();
    EXPECT_EQ(report.diags[0].code, LintCode::FallOffEnd);
    EXPECT_EQ(report.diags[0].severity, Severity::Error);
}

TEST(Lint, BranchOutsideImage)
{
    LintReport report = lintProgram(
        masm::assemble("b 0x40000\n", 0x10000));
    ASSERT_EQ(report.diags.size(), 1u) << report.toText();
    EXPECT_EQ(report.diags[0].code, LintCode::BranchToNonCode);
}

TEST(Lint, EntryAbiRegistersAreDefined)
{
    // Arguments, stack pointer, r0 (nop reads it) and LR are defined
    // at entry; r11/r12 spill scratch and CR fields are not.
    LintReport clean = lintProgram(masm::assemble(
        "add r5, r3, r10\nnop\nstd r5, 0(r1)\nli r0, 0\nsc\n", 0x10000));
    EXPECT_TRUE(clean.clean()) << clean.toText();

    LintReport dirty = lintProgram(
        masm::assemble("add r5, r11, r12\nli r0, 0\nsc\n", 0x10000));
    ASSERT_EQ(dirty.diags.size(), 1u);
    EXPECT_EQ(dirty.diags[0].code, LintCode::UndefinedRegisterRead);
    EXPECT_NE(dirty.diags[0].message.find("r11, r12"),
              std::string::npos);
}

TEST(Lint, ConditionalDefinitionIsNotUndefined)
{
    // r5 is defined on one path only: a may-analysis must not flag the
    // read (the lint promises *definite* bugs only).
    const char *maybe = R"(
        cmpdi cr0, r3, 0
        beq cr0, skip
        li r5, 1
skip:
        add r6, r5, r5
        li r0, 0
        sc
)";
    LintReport report = lintProgram(masm::assemble(maybe, 0x10000));
    EXPECT_TRUE(report.clean()) << report.toText();
}

TEST(Lint, UnreachableCodeWarns)
{
    const char *dead = R"(
        b out
        add r5, r3, r4        # unreachable but decodable
        add r6, r3, r4
out:
        li r0, 0
        li r3, 0
        sc
)";
    LintReport report = lintProgram(masm::assemble(dead, 0x10000));
    ASSERT_EQ(report.diags.size(), 1u) << report.toText();
    EXPECT_EQ(report.diags[0].code, LintCode::UnreachableCode);
    EXPECT_EQ(report.diags[0].severity, Severity::Warning);
    EXPECT_EQ(report.diags[0].aux, 2u); // two dead instructions
}

TEST(Lint, PedanticDeadDefinition)
{
    const char *dead_def = R"(
        li r5, 7
        li r5, 9              # first li is dead
        mr r3, r5
        li r0, 0
        sc
)";
    LintOptions opts;
    LintReport quiet =
        lintProgram(masm::assemble(dead_def, 0x10000), opts);
    EXPECT_TRUE(quiet.clean());

    opts.pedantic = true;
    LintReport report =
        lintProgram(masm::assemble(dead_def, 0x10000), opts);
    ASSERT_EQ(report.diags.size(), 1u) << report.toText();
    EXPECT_EQ(report.diags[0].code, LintCode::DeadDefinition);
    EXPECT_EQ(report.diags[0].pc, 0x10000u);
}

// --------------------------------------------------------------------
// Lint: every shipped program must be clean.
// --------------------------------------------------------------------

TEST(Lint, AllCompiledKernelsClean)
{
    for (unsigned k = 0; k < unsigned(kernels::KernelKind::NUM_KERNELS);
         ++k) {
        for (unsigned v = 0; v < unsigned(mpc::Variant::NUM_VARIANTS);
             ++v) {
            mpc::Compiled c = kernels::compileKernel(
                kernels::KernelKind(k), mpc::Variant(v));
            LintReport report =
                lintProgram(c.program(kernels::kCodeBase));
            EXPECT_TRUE(report.clean())
                << kernels::kernelName(kernels::KernelKind(k)) << "/"
                << mpc::variantName(mpc::Variant(v)) << ":\n"
                << report.toText();
        }
    }
}

TEST(Lint, ExampleAsmProgramsClean)
{
    const char *files[] = {
        BP5_SOURCE_DIR "/examples/asm/fib.masm",
        BP5_SOURCE_DIR "/examples/asm/maxloop.masm",
    };
    for (const char *path : files) {
        std::ifstream in(path);
        ASSERT_TRUE(in.good()) << path;
        std::ostringstream text;
        text << in.rdbuf();
        LintReport report =
            lintProgram(masm::assemble(text.str(), 0x10000));
        EXPECT_TRUE(report.clean()) << path << ":\n" << report.toText();
    }
}

// --------------------------------------------------------------------
// Agreement with the IR-level passes: the binary analyzer must see
// exactly the dead code removeUnreachableBlocks() is there to delete.
// --------------------------------------------------------------------

/** fn(a, b) = max(a, b) as a branch hammock (mirrors test_mpc.cc). */
mpc::Function
branchyMax()
{
    mpc::Function fn;
    fn.name = "branchy_max";
    mpc::IrBuilder b(fn);
    b.declareArgs(2);
    int entry = b.newBlock("entry");
    int then = b.newBlock("then");
    int join = b.newBlock("join");
    b.setBlock(entry);
    b.br(mpc::Cond::LT, 0, 1, then, join);
    b.setBlock(then);
    b.copyTo(0, 1);
    b.jump(join);
    b.setBlock(join);
    b.ret(0);
    return fn;
}

TEST(PassAgreement, UnreachableBlocksSeenThenGone)
{
    // If-conversion rewrites the hammock to selects, stranding the
    // side block.  Lowering *without* removeUnreachableBlocks() must
    // produce a binary the analyzer flags; running the pass must
    // produce one it considers fully reachable.
    mpc::Function fn = branchyMax();
    mpc::IfConvertOptions ifc;
    mpc::IfConvertStats stats = mpc::ifConvert(fn, ifc);
    ASSERT_EQ(stats.converted, 1u);

    mpc::CodegenOptions cg;
    cg.emitIsel = true;

    mpc::LoweredFunction with_dead = mpc::lower(fn, cg);
    masm::Program p1 =
        masm::assemble(with_dead.insts, kernels::kCodeBase);
    Cfg cfg1 = buildCfg(CodeImage::fromProgram(p1));
    auto runs = cfg1.unreachableRuns();
    ASSERT_FALSE(runs.empty());
    LintReport r1 = lint(cfg1);
    EXPECT_EQ(r1.errors(), 0u) << r1.toText();
    EXPECT_GE(r1.warnings(), 1u);

    mpc::removeUnreachableBlocks(fn);
    mpc::deadCodeElim(fn);
    mpc::LoweredFunction cleaned = mpc::lower(fn, cg);
    masm::Program p2 = masm::assemble(cleaned.insts, kernels::kCodeBase);
    Cfg cfg2 = buildCfg(CodeImage::fromProgram(p2));
    EXPECT_TRUE(cfg2.unreachableRuns().empty());
    LintReport r2 = lint(cfg2);
    EXPECT_TRUE(r2.clean()) << r2.toText();
    EXPECT_LT(cleaned.insts.size(), with_dead.insts.size());
}

// --------------------------------------------------------------------
// Branch taxonomy.
// --------------------------------------------------------------------

const char *kMaxLoop = R"(
        li    r8, 12345
        li    r9, 0
        li    r10, 16
        mtctr r10
loop:
        mulli r8, r8, 25173
        addi  r8, r8, 13849
        andi. r11, r8, 32767
        cmpd  cr1, r11, r9
        ble   cr1, skip
        mr    r9, r11
skip:
        bdnz  loop
        li    r0, 0
        li    r3, 0
        sc
)";

TEST(Classify, MaxHammockTaxonomy)
{
    Cfg cfg = cfgOf(kMaxLoop);
    auto sites = classifyBranches(cfg);
    ASSERT_EQ(sites.size(), 2u);
    // The max() update skip is a data-dependent hammock; the bdnz is a
    // loop-back edge.
    EXPECT_EQ(sites[0].klass, BranchClass::DataDep);
    EXPECT_TRUE(sites[0].conditional);
    EXPECT_NE(sites[0].detail.find("cmp"), std::string::npos);
    EXPECT_EQ(sites[1].klass, BranchClass::LoopBack);
}

TEST(Classify, GuardAndGotoAndReturn)
{
    const char *src = R"(
        mflr r20
        cmpdi cr0, r3, 0
        beq cr0, out          # guard: skips the whole loop nest
        li r5, 10
loop:
        addi r5, r5, -1
        cmpdi cr1, r5, 0
        bne cr1, loop
        b out
        nop
out:
        mtlr r20
        blr
)";
    Cfg cfg = cfgOf(src);
    auto sites = classifyBranches(cfg);
    ASSERT_EQ(sites.size(), 4u);
    EXPECT_EQ(sites[0].klass, BranchClass::Guard);
    EXPECT_EQ(sites[1].klass, BranchClass::LoopBack);
    EXPECT_EQ(sites[2].klass, BranchClass::Goto);
    EXPECT_EQ(sites[3].klass, BranchClass::Return);
}

TEST(Classify, BackwardConditionalIsLoopBack)
{
    const char *src = R"(
        li r5, 10
loop:
        addi r5, r5, -1
        cmpdi cr0, r5, 0
        bne cr0, loop
        li r0, 0
        li r3, 0
        sc
)";
    Cfg cfg = cfgOf(src);
    auto sites = classifyBranches(cfg);
    ASSERT_EQ(sites.size(), 1u);
    EXPECT_EQ(sites[0].klass, BranchClass::LoopBack);
}

TEST(Classify, KernelBranchesAllClassified)
{
    // Every branch of every compiled kernel gets a class, and branchy
    // DP kernels expose data-dependent sites statically.
    mpc::Compiled c = kernels::compileKernel(
        kernels::KernelKind::ForwardPass, mpc::Variant::Baseline);
    Cfg cfg =
        buildCfg(CodeImage::fromProgram(c.program(kernels::kCodeBase)));
    auto sites = classifyBranches(cfg);
    ASSERT_FALSE(sites.empty());
    unsigned datadep = 0;
    for (const BranchSite &s : sites)
        datadep += s.klass == BranchClass::DataDep;
    EXPECT_GT(datadep, 0u);
}

// --------------------------------------------------------------------
// PMU join: the paper's claim, end to end.
// --------------------------------------------------------------------

TEST(ProfileJoin, DataDepBranchesDominateMispredicts)
{
    // Simulate the branchy Clustalw kernel with per-site counters and
    // join against the static classes: the data-dependent hammocks
    // must carry the majority of the mispredictions (paper IV-A).
    workloads::WorkloadConfig wc;
    wc.app = workloads::App::Clustalw;
    wc.klass = workloads::InputClass::A;
    wc.simInstructionBudget = 200'000;
    workloads::Workload w(wc);
    workloads::SimResult r = w.simulate(
        mpc::Variant::Baseline, sim::MachineConfig(), true);
    ASSERT_FALSE(r.branchProfile.empty());

    Cfg cfg = buildCfg(
        CodeImage::fromProgram(r.compiled.program(kernels::kCodeBase)));
    auto sites = classifyBranches(cfg);
    auto classes = joinProfile(sites, r.branchProfile);

    uint64_t total = 0, datadep = 0;
    for (const ClassProfile &c : classes) {
        total += c.dynamic.mispredicts();
        if (c.klass == BranchClass::DataDep)
            datadep += c.dynamic.mispredicts();
    }
    ASSERT_GT(total, 0u);
    EXPECT_GT(datadep * 2, total); // strict majority

    // Every profiled site must be a site the classifier knows.
    for (const auto &[pc, stats] : r.branchProfile) {
        bool known = false;
        for (const BranchSite &s : sites)
            known |= s.pc == pc;
        EXPECT_TRUE(known) << "unclassified branch site at " << pc;
    }

    auto rows = classProfileRows(classes);
    ASSERT_GE(rows.size(), 2u); // classes + total
    EXPECT_EQ(rows.back().text("class"), "total");
}

TEST(ProfileJoin, ProfilingOffByDefault)
{
    workloads::WorkloadConfig wc;
    wc.app = workloads::App::Clustalw;
    wc.klass = workloads::InputClass::A;
    wc.simInstructionBudget = 50'000;
    workloads::Workload w(wc);
    workloads::SimResult r =
        w.simulate(mpc::Variant::Baseline, sim::MachineConfig());
    EXPECT_TRUE(r.branchProfile.empty());
}

} // namespace
} // namespace bp5::analysis
