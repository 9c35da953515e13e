/**
 * @file
 * The serve_n16 job mix and an independent model of its inputs.
 *
 * The mix is every kernel x {Original, comp. max} x {baseline,
 * enhanced} x 8 input seeds at n = 16 on the classic memory system,
 * written as protocol request lines.  JobReference re-synthesizes each
 * job's inputs with the bio generators, the same calls the server's
 * input cache makes, and scores them without the simulator: the
 * textbook Gotoh DP of checks.h for dropgsw, the native bio routines
 * for the other kernels.  (forward_pass is scored by bio::nwScore: the
 * textbook DP disagrees with it on inputs whose best alignment turns
 * a gap at the edge of the matrix; see README.md.)
 */

#ifndef PERFBENCH_JOBS_H
#define PERFBENCH_JOBS_H

#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "serve/job.h"

namespace perfbench {

constexpr unsigned kServeN = 16;
constexpr unsigned kServeSeeds = 8;

/** The 160 request lines of one round, ids 0..159, from @p seed. */
std::vector<std::string> serveRequestLines(uint64_t seed);

/** One request line for @p spec fields (id, kernel, ...). */
std::string requestLine(uint64_t id, const std::string &kernel,
                        const std::string &variant,
                        const std::string &machine, uint64_t jobSeed,
                        unsigned n);

/** Independent scores of job inputs, cached by (kernel, seed, n). */
class JobReference
{
  public:
    /** Score of @p spec's inputs, computed without the simulator. */
    int64_t score(const bp5::serve::JobSpec &spec);

  private:
    std::map<std::tuple<int, uint64_t, unsigned>, int64_t> scores_;
};

} // namespace perfbench

#endif // PERFBENCH_JOBS_H
