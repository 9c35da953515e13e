/**
 * @file
 * What the workload runners share: the command-line options, the
 * outcome they report, the grids and job mixes, and small statistics
 * helpers.  Each runner lives in its own file: serve_bench.cc
 * (serve_n16), sweep_bench.cc (paper_sweep, sampled_sweep) and
 * trace_run.cc (the traced run of any workload).
 */

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "checks.h"
#include "driver/driver.h"
#include "serve/server.h"
#include "spans.h"
#include "workloads/workload.h"

namespace perfbench {

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string traceOut; ///< JSON Lines span file of a traced run
};

struct Metric
{
    std::string name;
    std::string unit;
    double value = 0.0;
};

struct Outcome
{
    Verdict verdict;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<Metric> metrics;

    void add(std::string name, std::string unit, double value)
    {
        metrics.push_back({std::move(name), std::move(unit), value});
    }
};

/** Time of process start, as seen by main(). */
Clock::time_point processStart();

/** Peak resident set size of this process in MB. */
double peakRssMb();

/** Nearest-rank order statistic: the ceil(q*n)-th smallest sample. */
double orderStat(std::vector<double> v, double q);

inline double
median(std::vector<double> v)
{
    return orderStat(std::move(v), 0.5);
}

/** One timed round of a workload: its length and its jobs' latencies. */
struct Round
{
    double seconds = 0.0;
    std::vector<double> latencyMs;
};

/**
 * Add the end-to-end metrics of a run of equal rounds of @p jobs jobs
 * each, whose simulated counters are @p counters.  The host-time
 * metrics are the best over the rounds: the host slows the same work
 * by up to 2x for seconds to minutes at a time, and the best of many
 * short rounds is the figure that repeats (README.md, "Host noise").
 */
void addRoundMetrics(Outcome &out, double setup, size_t jobs,
                     const std::vector<Round> &rounds,
                     const bp5::sim::Counters &counters);

/** The four applications, in the paper's Table I order. */
inline constexpr bp5::workloads::App kApps[4] = {
    bp5::workloads::App::Blast, bp5::workloads::App::Clustalw,
    bp5::workloads::App::Fasta, bp5::workloads::App::Hmmer};

// ---- the workloads ------------------------------------------------

/** serve_n16: jobs outstanding at once from the one client. */
constexpr unsigned kServeWindow = 8;
constexpr unsigned kServeShards = 2;

/**
 * paper_sweep: driver threads and budget per point.  The budget keeps
 * a round near half a second, so a run has about 60 rounds to find a
 * quiet one in.  Class-A inputs keep one kernel invocation under 0.4M
 * instructions, and the work of a round varies by about 3 % by seed.
 */
constexpr unsigned kSweepThreads = 2;
constexpr uint64_t kSweepBudget = 500'000;

/**
 * sampled_sweep: budget per app and the SMARTS window.  A class-C
 * invocation is up to 5M instructions; at 10M per app a round lasts
 * about 0.6 s.
 */
constexpr uint64_t kSampledBudget = 10'000'000;
constexpr uint64_t kSampleDetail = 2'000;
constexpr uint64_t kSampleSkip = 38'000;
/** Budget of the sampled warm-up pass in set-up. */
constexpr uint64_t kSampledWarmBudget = 1'000'000;

/** The Fig-6 grid: 4 apps x {base, +pred, +BTAC, +4 FXUs, all}, then
 *  each app's base point on lsq+stride. */
std::vector<bp5::driver::GridPoint> paperGrid(uint64_t seed,
                                              uint64_t budget);

/** The SMARTS sampling parameters of sampled_sweep. */
bp5::sim::SamplingParams sampledParams();

/** One served job as the client saw it. */
struct ServedJob
{
    uint64_t id = 0;
    size_t index = 0; ///< position in the round's request lines
    bp5::serve::JobResult result;
    std::string response; ///< the resultLine answer
    Clock::time_point parseStart, parsed; ///< parseJobLine
    Clock::time_point submitted, submitReturned; ///< Server::submit
    Clock::time_point done, formatted; ///< callback start, resultLine
};

/**
 * Feed rounds of @p lines to @p server from this thread, keeping
 * @p window jobs outstanding, with ids from @p firstId.  A round
 * starts once every job of the one before it is answered, so rounds
 * do not overlap and each can be timed on its own.  Before each round
 * after the first, @p anotherRound(rounds done) decides whether to go
 * on; the last round always finishes.  @p onDone sees each
 * answer on this thread.
 */
void serveClosedLoop(bp5::serve::Server &server,
                     const std::vector<std::string> &lines, unsigned window,
                     uint64_t firstId,
                     const std::function<bool(uint64_t)> &anotherRound,
                     const std::function<void(ServedJob &)> &onDone,
                     AnswerLedger *ledger, Verdict &verdict);

/**
 * The per-job checks of the serve mix: score against JobReference,
 * CPI sum, the response line, and counters that repeat exactly from
 * round to round; afterwards, each job's counters against a freshly
 * built machine (reset == fresh).
 */
class ServeChecker
{
  public:
    ServeChecker(const std::vector<std::string> &lines, Verdict &verdict);

    void check(const ServedJob &job);
    void checkAgainstFresh();

    const std::vector<bp5::serve::JobSpec> &specs() const { return specs_; }
    /** The counters of one round, summed over its jobs. */
    bp5::sim::Counters roundCounters() const;

  private:
    const std::vector<std::string> &lines_;
    Verdict &verdict_;
    std::vector<bp5::serve::JobSpec> specs_;
    std::vector<int64_t> expected_;
    std::vector<bp5::sim::Counters> counters_;
    std::vector<bool> seen_;
};

Outcome runServe(const Options &o);
Outcome runPaperSweep(const Options &o);
Outcome runSampledSweep(const Options &o);
Outcome runTraced(const Options &o);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
