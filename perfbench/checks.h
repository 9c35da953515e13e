/**
 * @file
 * The benchmark's correctness checks.  They are written apart from the
 * simulated path: alignment scores come from a textbook Gotoh DP in
 * checks.cc, and every other check compares the program's outputs with
 * each other (a reused machine against a fresh one, the CPI stack
 * against the cycle count, a sampled run against a functional one).
 * Each check appends what it found wrong to a Verdict, so a run can
 * report every failed check, not only the first.
 */

#ifndef PERFBENCH_CHECKS_H
#define PERFBENCH_CHECKS_H

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "bio/scoring.h"
#include "bio/sequence.h"
#include "sim/counters.h"

namespace perfbench {

/** Collects failed checks; ok() while none has failed. */
class Verdict
{
  public:
    void fail(std::string what);
    bool ok() const { return failures_.empty(); }
    const std::vector<std::string> &failures() const { return failures_; }

  private:
    std::vector<std::string> failures_;
};

/** Textbook Gotoh global alignment score (gap of length k: open + k*extend). */
int64_t gotohGlobal(const bp5::bio::Sequence &a, const bp5::bio::Sequence &b,
                    const bp5::bio::SubstitutionMatrix &m,
                    const bp5::bio::GapPenalty &gap);

/** Textbook Gotoh local (Smith-Waterman) alignment score. */
int64_t gotohLocal(const bp5::bio::Sequence &a, const bp5::bio::Sequence &b,
                   const bp5::bio::SubstitutionMatrix &m,
                   const bp5::bio::GapPenalty &gap);

/** A served score must equal the independently computed one. */
void checkScore(Verdict &v, const std::string &job, int64_t served,
                int64_t expected);

/** Counters of a reused (reset) machine must equal a fresh machine's. */
void checkResetEqualsFresh(Verdict &v, const std::string &job,
                           const bp5::sim::Counters &reused,
                           const bp5::sim::Counters &fresh);

/** The CPI-stack components must sum to the cycle count. */
void checkCpiSum(Verdict &v, const std::string &what,
                 const bp5::sim::Counters &c);

/**
 * A sampled run must retire exactly the instructions, branches, loads
 * and stores of a functional-only run of the same invocations.
 */
void checkArchEqual(Verdict &v, const std::string &what,
                    const bp5::sim::Counters &sampled,
                    const bp5::sim::Counters &functional);

/**
 * Bookkeeping of submitted and answered jobs: every submitted job is
 * answered exactly once, and attempted = completed + failed.
 */
class AnswerLedger
{
  public:
    void submitted(uint64_t id);
    void answered(uint64_t id, bool ok);

    uint64_t attempted() const { return submitted_; }
    uint64_t failed() const { return failed_; }

    void check(Verdict &v) const;

  private:
    std::unordered_map<uint64_t, unsigned> answers_; ///< answers, by job id
    uint64_t submitted_ = 0;
    uint64_t completed_ = 0;
    uint64_t failed_ = 0;
    uint64_t unknown_ = 0; ///< answers for ids never submitted
};

} // namespace perfbench

#endif // PERFBENCH_CHECKS_H
