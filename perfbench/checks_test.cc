/**
 * @file
 * Tests of the benchmark's own checks: each must pass on a correct
 * result and report a corrupted one (a flipped score, counters from a
 * machine that was not reset, a CPI stack missing a component, ...).
 */

#include <gtest/gtest.h>

#include "checks.h"
#include "jobs.h"
#include "serve/job.h"

namespace perfbench {
namespace {

using bp5::bio::Alphabet;
using bp5::bio::GapPenalty;
using bp5::bio::Sequence;
using bp5::bio::SubstitutionMatrix;

bp5::serve::JobSpec
spec(const std::string &line)
{
    bp5::serve::JobSpec s;
    std::string err;
    EXPECT_TRUE(bp5::serve::parseJobLine(line, s, err)) << err;
    return s;
}

/** Counters of @p line's job on a freshly built machine. */
bp5::sim::Counters
freshCounters(const bp5::serve::JobSpec &s)
{
    bp5::kernels::KernelMachine km(s.kind, s.variant, s.machine);
    bp5::serve::JobInputs in;
    in.run(km, s);
    return km.totals();
}

TEST(Gotoh, HandComputedScores)
{
    const SubstitutionMatrix &m = SubstitutionMatrix::blosum62();
    const GapPenalty gap{10, 1};
    Sequence a("a", Alphabet::Protein, "AAAA");
    Sequence b("b", Alphabet::Protein, "AA");
    // Two A/A matches (4 each) and one gap of two residues (10 + 2).
    EXPECT_EQ(gotohGlobal(a, b, m, gap), 8 - 12);
    EXPECT_EQ(gotohLocal(a, b, m, gap), 8);
    // A lone mismatch scores below zero globally, zero locally.
    Sequence w("w", Alphabet::Protein, "W");
    Sequence g("g", Alphabet::Protein, "G");
    EXPECT_EQ(gotohGlobal(w, g, m, gap), m.score(w[0], g[0]));
    EXPECT_EQ(gotohLocal(w, g, m, gap), 0);
}

TEST(Gotoh, GapTurningAtTheEdgePaysANewOpen)
{
    // Best: pair one E with C (-4), delete the other two E's as one gap
    // (10 + 2) and match AAA (12).  Deleting all three E's and then
    // inserting C is two gaps (13 + 11) and must not be charged as one
    // gap that turns at the edge of the matrix (13 + 1).
    const SubstitutionMatrix &m = SubstitutionMatrix::blosum62();
    Sequence a("a", Alphabet::Protein, "EEEAAA");
    Sequence b("b", Alphabet::Protein, "CAAA");
    EXPECT_EQ(gotohGlobal(a, b, m, GapPenalty{10, 1}), -4 - 12 + 12);
}

TEST(Checks, ScoreCheckReportsAFlippedScore)
{
    JobReference ref;
    for (const std::string &line : serveRequestLines(3)) {
        bp5::serve::JobSpec s = spec(line);
        bp5::kernels::KernelMachine km(s.kind, s.variant, s.machine);
        km.setFunctionalOnly(true);
        bp5::serve::JobInputs in;
        int64_t served = in.run(km, s);

        Verdict good;
        checkScore(good, line, served, ref.score(s));
        EXPECT_TRUE(good.ok()) << good.failures().front();

        Verdict bad;
        checkScore(bad, line, -served - 1, ref.score(s));
        EXPECT_FALSE(bad.ok());
    }
}

TEST(Checks, ResetCheckReportsAMachineThatWasNotReset)
{
    bp5::serve::JobSpec s = spec(requestLine(0, "dropgsw", "comp. max",
                                             "enhanced", 5, 16));
    const bp5::sim::Counters fresh = freshCounters(s);

    bp5::kernels::KernelMachine km(s.kind, s.variant, s.machine);
    bp5::serve::JobInputs in;
    in.run(km, s);
    km.reset();
    in.run(km, s);
    Verdict good;
    checkResetEqualsFresh(good, "reset", km.totals(), fresh);
    EXPECT_TRUE(good.ok());

    in.run(km, s); // a second job without reset(): warm and accumulated
    Verdict bad;
    checkResetEqualsFresh(bad, "not reset", km.totals(), fresh);
    EXPECT_FALSE(bad.ok());
}

TEST(Checks, CpiCheckReportsAStackMissingAComponent)
{
    bp5::sim::Counters c = freshCounters(
        spec(requestLine(0, "P7Viterbi", "Original", "baseline", 2, 16)));
    Verdict good;
    checkCpiSum(good, "whole", c);
    EXPECT_TRUE(good.ok());

    for (size_t k = 0; k < c.cpi.size(); ++k) {
        if (c.cpi[k] == 0)
            continue;
        bp5::sim::Counters missing = c;
        missing.cpi[k] = 0;
        Verdict bad;
        checkCpiSum(bad, "missing", missing);
        EXPECT_FALSE(bad.ok()) << "component " << k;
    }
}

TEST(Checks, ArchCheckReportsADifferentInstructionStream)
{
    bp5::sim::Counters c = freshCounters(
        spec(requestLine(0, "forward_pass", "Original", "baseline", 1, 16)));
    Verdict good;
    checkArchEqual(good, "same", c, c);
    EXPECT_TRUE(good.ok());

    for (uint64_t bp5::sim::Counters::*field :
         {&bp5::sim::Counters::instructions, &bp5::sim::Counters::branches,
          &bp5::sim::Counters::loads, &bp5::sim::Counters::stores}) {
        bp5::sim::Counters other = c;
        other.*field += 1;
        Verdict bad;
        checkArchEqual(bad, "other", c, other);
        EXPECT_FALSE(bad.ok());
    }
}

TEST(Checks, LedgerWantsEveryJobAnsweredOnce)
{
    AnswerLedger good;
    for (uint64_t id = 10; id < 14; ++id)
        good.submitted(id);
    for (uint64_t id = 10; id < 14; ++id)
        good.answered(id, id != 12);
    Verdict v;
    good.check(v);
    EXPECT_TRUE(v.ok());
    EXPECT_EQ(good.attempted(), 4u);
    EXPECT_EQ(good.failed(), 1u);

    AnswerLedger twice;
    twice.submitted(1);
    twice.answered(1, true);
    twice.answered(1, true);
    Verdict v2;
    twice.check(v2);
    EXPECT_FALSE(v2.ok());

    AnswerLedger never;
    never.submitted(1);
    Verdict v3;
    never.check(v3);
    EXPECT_FALSE(v3.ok());

    AnswerLedger stranger;
    stranger.answered(7, true);
    Verdict v4;
    stranger.check(v4);
    EXPECT_FALSE(v4.ok());
}

} // namespace
} // namespace perfbench
