/**
 * @file
 * Kernel-bridge tests: every kernel x variant combination must produce
 * exactly the native reference result when executed on the simulated
 * machine, the if-conversion statistics must reproduce the paper's
 * hand-vs-compiler asymmetries, and predication must actually remove
 * branches / improve IPC on the timing model.
 */

#include <gtest/gtest.h>

#include "bio/generator.h"
#include "kernels/kernels.h"

namespace bp5::kernels {
namespace {

using mpc::Variant;

const bio::SubstitutionMatrix &kM = bio::SubstitutionMatrix::blosum62();
const bio::GapPenalty kGap{10, 1};

struct TestData
{
    bio::Sequence a, b;
    bio::Plan7Model model;
    bio::Sequence vseq;
    bio::GuideTree tree;
    std::vector<uint8_t> states;
    bio::ParsimonyCost pcost = bio::ParsimonyCost::unit(
        bio::Alphabet::Dna);

    TestData()
        : a("a", bio::Alphabet::Protein, ""),
          b("b", bio::Alphabet::Protein, ""),
          vseq("v", bio::Alphabet::Protein, "")
    {
        bio::SequenceGenerator g(777);
        a = g.random(40, "a");
        b = g.mutate(a, bio::MutationModel{0.3, 0.05, 0.05}, "b");
        auto fam = g.family(5, 30, bio::MutationModel{0.15, 0.02, 0.02});
        model = bio::Plan7Model::fromFamily(fam);
        vseq = fam[0];

        // Sankoff: a 6-leaf tree with random DNA leaf states.
        bio::DistanceMatrix d(6);
        for (size_t i = 0; i < 6; ++i) {
            for (size_t j = i + 1; j < 6; ++j)
                d.set(i, j, 0.1 * double(i + j));
        }
        tree = bio::upgmaTree(d);
        for (int i = 0; i < 6; ++i)
            states.push_back(uint8_t(g.rng().below(4)));
    }
};

const TestData &
data()
{
    static TestData d;
    return d;
}

TEST(KernelMeta, NamesAndApps)
{
    EXPECT_STREQ(kernelName(KernelKind::Sankoff), "sankoff");
    EXPECT_STREQ(kernelApp(KernelKind::Sankoff), "Phylip");
    EXPECT_STREQ(kernelName(KernelKind::ForwardPass), "forward_pass");
    EXPECT_STREQ(kernelApp(KernelKind::ForwardPass), "Clustalw");
    EXPECT_STREQ(kernelName(KernelKind::Dropgsw), "dropgsw");
    EXPECT_STREQ(kernelApp(KernelKind::Dropgsw), "Fasta");
    EXPECT_STREQ(kernelName(KernelKind::P7Viterbi), "P7Viterbi");
    EXPECT_STREQ(kernelApp(KernelKind::P7Viterbi), "Hmmer");
    EXPECT_STREQ(kernelName(KernelKind::SemiGAlign), "SEMI_G_ALIGN");
    EXPECT_STREQ(kernelApp(KernelKind::SemiGAlign), "Blast");
}

TEST(KernelIr, AllBuildersVerify)
{
    for (int k = 0; k < int(KernelKind::NUM_KERNELS); ++k) {
        for (bool hand : {false, true}) {
            mpc::Function fn =
                buildKernelIr(static_cast<KernelKind>(k), hand);
            fn.verify();
            EXPECT_GT(fn.blocks.size(), 3u);
        }
    }
}

TEST(KernelIr, ClustalwMemoryHammockRejected)
{
    // The branchy forward_pass has the through-memory F update that
    // gcc cannot if-convert (paper IV-B).
    mpc::Compiled c = compileKernel(KernelKind::ForwardPass,
                                    Variant::CompIsel);
    EXPECT_GE(c.ifc.rejectedUnsafe, 1u);
    EXPECT_GE(c.ifc.converted, 3u); // the register hammocks convert
    EXPECT_GT(c.cg.branchesEmitted, 0u); // loop + rejected hammock
}

TEST(KernelIr, FastaCompilerConvertsMoreThanHand)
{
    // Branchy dropgsw hammocks are all register-style: the compiler
    // converts every one, while the hand build leaves E/F branchy.
    mpc::Compiled comp = compileKernel(KernelKind::Dropgsw,
                                       Variant::CompIsel);
    mpc::Compiled hand = compileKernel(KernelKind::Dropgsw,
                                       Variant::HandIsel);
    EXPECT_EQ(comp.ifc.rejectedUnsafe, 0u);
    EXPECT_GE(comp.ifc.converted, 6u);
    // The compiled build has fewer conditional branches left.
    EXPECT_LT(comp.cg.branchesEmitted, hand.cg.branchesEmitted);
}

TEST(KernelIr, HmmerInsertDiamondRejected)
{
    mpc::Compiled c = compileKernel(KernelKind::P7Viterbi,
                                    Variant::CompIsel);
    EXPECT_GE(c.ifc.rejectedUnsafe, 1u); // store-in-hammock insert
    EXPECT_GE(c.ifc.converted, 3u);      // match/delete/best convert
}

TEST(KernelIr, BlastCompilerCatchesBookkeeping)
{
    mpc::Compiled comp = compileKernel(KernelKind::SemiGAlign,
                                       Variant::CompIsel);
    mpc::Compiled hand = compileKernel(KernelKind::SemiGAlign,
                                       Variant::HandIsel);
    // Hand leaves clamp/rowmax/best branchy; comp converts them.
    EXPECT_LT(comp.cg.branchesEmitted, hand.cg.branchesEmitted);
}

TEST(KernelIr, CompMaxOnlyEmitsMaxes)
{
    mpc::Compiled c = compileKernel(KernelKind::Dropgsw,
                                    Variant::CompMax);
    EXPECT_GT(c.cg.maxEmitted, 0u);
    EXPECT_EQ(c.cg.iselEmitted, 0u);
}

TEST(KernelIr, HandMaxUsesMaxInstructions)
{
    mpc::Compiled c = compileKernel(KernelKind::ForwardPass,
                                    Variant::HandMax);
    EXPECT_GE(c.cg.maxEmitted, 4u);
}

TEST(KernelIr, BaselineHasNoPredication)
{
    for (int k = 0; k < int(KernelKind::NUM_KERNELS); ++k) {
        mpc::Compiled c = compileKernel(static_cast<KernelKind>(k),
                                        Variant::Baseline);
        EXPECT_EQ(c.cg.maxEmitted, 0u);
        EXPECT_EQ(c.cg.iselEmitted, 0u);
        EXPECT_GT(c.cg.branchesEmitted, 2u);
    }
}

/** Every kernel/variant pair reproduces the reference result. */
class KernelVariant
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(KernelVariant, MatchesNativeReference)
{
    auto [ki, vi] = GetParam();
    KernelKind kind = static_cast<KernelKind>(ki);
    Variant var = static_cast<Variant>(vi);
    KernelMachine km(kind, var, sim::MachineConfig());
    km.setFunctionalOnly(true);
    const TestData &d = data();

    switch (kind) {
      case KernelKind::ForwardPass:
      case KernelKind::Dropgsw: {
        AlignProblem p{&d.a, &d.b, &kM, kGap};
        // run() panics internally on mismatch; also check the value.
        int64_t got = km.run(p);
        int64_t want = kind == KernelKind::ForwardPass
                           ? refForwardPass(p)
                           : refDropgsw(p);
        EXPECT_EQ(got, want);
        break;
      }
      case KernelKind::P7Viterbi: {
        ViterbiProblem p{&d.model, &d.vseq};
        EXPECT_EQ(km.run(p), refViterbi(p));
        break;
      }
      case KernelKind::SemiGAlign: {
        ExtendProblem p{&d.a, 0, &d.b, 0, &kM, kGap, 30};
        EXPECT_EQ(km.run(p), refSemiGAlign(p));
        break;
      }
      case KernelKind::Sankoff: {
        SankoffProblem p{&d.tree, &d.states, &d.pcost};
        EXPECT_EQ(km.run(p), refSankoff(p));
        break;
      }
      default:
        FAIL();
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllPairs, KernelVariant,
    ::testing::Combine(::testing::Range(0, int(KernelKind::NUM_KERNELS)),
                       ::testing::Range(0,
                                        int(Variant::NUM_VARIANTS))));

TEST(KernelRefs, AlignRefsAgreeWithBio)
{
    const TestData &d = data();
    AlignProblem p{&d.a, &d.b, &kM, kGap};
    EXPECT_EQ(refForwardPass(p), bio::nwScore(d.a, d.b, kM, kGap));
    EXPECT_EQ(refDropgsw(p), bio::swScore(d.a, d.b, kM, kGap));
}

TEST(KernelRefs, ViterbiTracksPlan7OnHomologs)
{
    // Plain-add reference equals the saturating bio implementation on
    // sequences where no minus-infinity path competes.
    const TestData &d = data();
    ViterbiProblem p{&d.model, &d.vseq};
    EXPECT_EQ(refViterbi(p), d.model.viterbi(d.vseq));
}

TEST(KernelRefs, SankoffMatchesBioOnTsTvCosts)
{
    const TestData &d = data();
    bio::ParsimonyCost tstv = bio::ParsimonyCost::transitionTransversion();
    SankoffProblem p{&d.tree, &d.states, &tstv};
    KernelMachine km(KernelKind::Sankoff, Variant::HandMax,
                     sim::MachineConfig());
    km.setFunctionalOnly(true);
    EXPECT_EQ(km.run(p), bio::sankoffSite(d.tree, d.states, tstv));
}

TEST(KernelRefs, SemiGAlignFindsIdenticalPrefix)
{
    bio::Sequence a("a", bio::Alphabet::Protein, "WWWWCCCCAAA");
    ExtendProblem p{&a, 0, &a, 0, &kM, kGap, 30};
    // Identity extension: full self-score.
    int64_t self = 4 * 11 + 4 * 9 + 3 * 4;
    EXPECT_EQ(refSemiGAlign(p), self);
}

TEST(KernelTiming, PredicationImprovesIpc)
{
    const TestData &d = data();
    AlignProblem p{&d.a, &d.b, &kM, kGap};

    KernelMachine base(KernelKind::ForwardPass, Variant::Baseline,
                       sim::MachineConfig());
    KernelMachine hmax(KernelKind::ForwardPass, Variant::HandMax,
                       sim::MachineConfig());
    for (int r = 0; r < 3; ++r) {
        base.run(p);
        hmax.run(p);
    }
    double ipcBase = base.totals().ipc();
    double ipcMax = hmax.totals().ipc();
    EXPECT_GT(ipcMax, ipcBase);
    // Predication removes conditional branches from the stream.
    EXPECT_LT(hmax.totals().branchFraction(),
              base.totals().branchFraction());
    EXPECT_GT(hmax.totals().predicatedFraction(), 0.02);
    EXPECT_EQ(base.totals().predicatedFraction(), 0.0);
}

TEST(KernelTiming, BaselineMispredictsAreDirectionCaused)
{
    const TestData &d = data();
    AlignProblem p{&d.a, &d.b, &kM, kGap};
    KernelMachine base(KernelKind::Dropgsw, Variant::Baseline,
                       sim::MachineConfig());
    for (int r = 0; r < 3; ++r)
        base.run(p);
    EXPECT_GT(base.totals().mispredictDirectionShare(), 0.95);
    EXPECT_GT(base.totals().branchMispredictRate(), 0.01);
}

TEST(KernelTiming, CountersAccumulateAcrossRuns)
{
    const TestData &d = data();
    AlignProblem p{&d.a, &d.b, &kM, kGap};
    KernelMachine km(KernelKind::Dropgsw, Variant::Baseline,
                     sim::MachineConfig());
    km.run(p);
    uint64_t after1 = km.totals().instructions;
    km.run(p);
    EXPECT_GT(km.totals().instructions, after1);
}

TEST(KernelTiming, TimelineSamplesCollected)
{
    const TestData &d = data();
    AlignProblem p{&d.a, &d.b, &kM, kGap};
    KernelMachine km(KernelKind::ForwardPass, Variant::Baseline,
                     sim::MachineConfig());
    km.setSampleInterval(2000);
    km.run(p);
    EXPECT_GT(km.sampler()->timeline().size(), 2u);
}

/** Property: random problems across all kernels match references. */
class KernelFuzz : public ::testing::TestWithParam<int> {};

TEST_P(KernelFuzz, RandomProblemsMatch)
{
    uint64_t seed = 5000 + static_cast<uint64_t>(GetParam());
    bio::SequenceGenerator g(seed);
    bio::Sequence a = g.random(15 + g.rng().below(40), "a");
    bio::Sequence b = g.random(15 + g.rng().below(40), "b");

    for (int vi : {0, 2, 3}) { // baseline, hand max, comp isel
        Variant var = static_cast<Variant>(vi);
        {
            KernelMachine km(KernelKind::Dropgsw, var,
                             sim::MachineConfig());
            km.setFunctionalOnly(true);
            AlignProblem p{&a, &b, &kM, kGap};
            km.run(p); // panics on mismatch
        }
        {
            KernelMachine km(KernelKind::SemiGAlign, var,
                             sim::MachineConfig());
            km.setFunctionalOnly(true);
            ExtendProblem p{&a, a.size() / 2, &b, b.size() / 2, &kM,
                            kGap, 25};
            km.run(p);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelFuzz, ::testing::Range(0, 10));

} // namespace
} // namespace bp5::kernels
