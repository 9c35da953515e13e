#include "checks.h"

#include <algorithm>
#include <cstdarg>
#include <cinttypes>
#include <cstdio>
#include <limits>

namespace perfbench {

namespace {

constexpr int64_t kMinusInf = std::numeric_limits<int64_t>::min() / 4;

std::string
format(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

std::string
format(const char *fmt, ...)
{
    char buf[512];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof buf, fmt, ap);
    va_end(ap);
    return buf;
}

/**
 * Gotoh's three-matrix recurrence over full (m+1) x (n+1) tables:
 * H is the best score of a prefix pair, E of one ending in a gap in a,
 * F of one ending in a gap in b.  A new gap costs open + extend, each
 * further residue extend.  @p local clamps at zero and takes the best
 * cell; otherwise the score is the bottom-right cell.
 */
int64_t
gotoh(const bp5::bio::Sequence &a, const bp5::bio::Sequence &b,
      const bp5::bio::SubstitutionMatrix &m, const bp5::bio::GapPenalty &gap,
      bool local)
{
    const size_t rows = a.size() + 1, cols = b.size() + 1;
    const int64_t open = gap.open, ext = gap.extend;
    std::vector<int64_t> H(rows * cols), E(rows * cols), F(rows * cols);
    auto at = [cols](size_t i, size_t j) { return i * cols + j; };

    H[at(0, 0)] = 0;
    E[at(0, 0)] = F[at(0, 0)] = kMinusInf;
    for (size_t j = 1; j < cols; ++j) {
        E[at(0, j)] = local ? kMinusInf : -open - int64_t(j) * ext;
        F[at(0, j)] = kMinusInf;
        H[at(0, j)] = local ? 0 : E[at(0, j)];
    }
    for (size_t i = 1; i < rows; ++i) {
        F[at(i, 0)] = local ? kMinusInf : -open - int64_t(i) * ext;
        E[at(i, 0)] = kMinusInf;
        H[at(i, 0)] = local ? 0 : F[at(i, 0)];
    }

    int64_t best = 0;
    for (size_t i = 1; i < rows; ++i) {
        for (size_t j = 1; j < cols; ++j) {
            E[at(i, j)] = std::max(E[at(i, j - 1)] - ext,
                                   H[at(i, j - 1)] - open - ext);
            F[at(i, j)] = std::max(F[at(i - 1, j)] - ext,
                                   H[at(i - 1, j)] - open - ext);
            int64_t diag = H[at(i - 1, j - 1)] + m.score(a[i - 1], b[j - 1]);
            int64_t h = std::max({diag, E[at(i, j)], F[at(i, j)]});
            if (local)
                h = std::max<int64_t>(h, 0);
            H[at(i, j)] = h;
            best = std::max(best, h);
        }
    }
    return local ? best : H[at(rows - 1, cols - 1)];
}

} // namespace

void
Verdict::fail(std::string what)
{
    failures_.push_back(std::move(what));
}

int64_t
gotohGlobal(const bp5::bio::Sequence &a, const bp5::bio::Sequence &b,
            const bp5::bio::SubstitutionMatrix &m,
            const bp5::bio::GapPenalty &gap)
{
    return gotoh(a, b, m, gap, false);
}

int64_t
gotohLocal(const bp5::bio::Sequence &a, const bp5::bio::Sequence &b,
           const bp5::bio::SubstitutionMatrix &m,
           const bp5::bio::GapPenalty &gap)
{
    return gotoh(a, b, m, gap, true);
}

void
checkScore(Verdict &v, const std::string &job, int64_t served,
           int64_t expected)
{
    if (served != expected)
        v.fail(format("%s: served score %" PRId64 ", independent score %" PRId64,
                      job.c_str(), served, expected));
}

void
checkResetEqualsFresh(Verdict &v, const std::string &job,
                      const bp5::sim::Counters &reused,
                      const bp5::sim::Counters &fresh)
{
    if (!(reused == fresh))
        v.fail(format("%s: counters of the reused machine (%" PRIu64
                      " instructions, %" PRIu64 " cycles) differ from a "
                      "fresh machine's (%" PRIu64 ", %" PRIu64 ")",
                      job.c_str(), reused.instructions, reused.cycles,
                      fresh.instructions, fresh.cycles));
}

void
checkCpiSum(Verdict &v, const std::string &what, const bp5::sim::Counters &c)
{
    if (c.cpiSum() != c.cycles)
        v.fail(format("%s: CPI components sum to %" PRIu64 ", cycles are %" PRIu64,
                      what.c_str(), c.cpiSum(), c.cycles));
}

void
checkArchEqual(Verdict &v, const std::string &what,
               const bp5::sim::Counters &sampled,
               const bp5::sim::Counters &functional)
{
    if (sampled.instructions != functional.instructions ||
        sampled.branches != functional.branches ||
        sampled.loads != functional.loads ||
        sampled.stores != functional.stores)
        v.fail(format("%s: sampled run retired %" PRIu64 "/%" PRIu64 "/%" PRIu64
                      "/%" PRIu64 " instructions/branches/loads/stores, "
                      "functional run %" PRIu64 "/%" PRIu64 "/%" PRIu64 "/%" PRIu64,
                      what.c_str(), sampled.instructions, sampled.branches,
                      sampled.loads, sampled.stores, functional.instructions,
                      functional.branches, functional.loads,
                      functional.stores));
}

void
AnswerLedger::submitted(uint64_t id)
{
    answers_.emplace(id, 0);
    ++submitted_;
}

void
AnswerLedger::answered(uint64_t id, bool ok)
{
    auto it = answers_.find(id);
    if (it == answers_.end()) {
        ++unknown_;
        return;
    }
    ++it->second;
    if (ok)
        ++completed_;
    else
        ++failed_;
}

void
AnswerLedger::check(Verdict &v) const
{
    uint64_t unanswered = 0, repeated = 0;
    for (const auto &[id, n] : answers_) {
        unanswered += n == 0;
        repeated += n > 1;
    }
    if (unanswered || repeated || unknown_)
        v.fail(format("%" PRIu64 " jobs unanswered, %" PRIu64
                      " answered more than once, %" PRIu64
                      " answers for unknown jobs",
                      unanswered, repeated, unknown_));
    if (attempted() != completed_ + failed_)
        v.fail(format("attempted %" PRIu64 " != completed %" PRIu64
                      " + failed %" PRIu64,
                      attempted(), completed_, failed_));
}

} // namespace perfbench
