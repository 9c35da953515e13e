/**
 * @file
 * perfbench: runs one benchmark workload against the simulator
 * libraries, checks the outputs, and prints one JSON result line:
 *
 *   perfbench --workload serve_n16|paper_sweep|sampled_sweep
 *             --seed N --seconds S --trace 0|1 [--trace-out FILE]
 *
 * With --trace 0 the metrics are the end-to-end ones, with --trace 1
 * the per-layer ones of the traced run (see README.md).
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "bench.h"

namespace perfbench {

namespace {

const Clock::time_point kProcessStart = Clock::now();

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "serve_n16|paper_sweep|sampled_sweep --seed N "
                 "--seconds S --trace 0|1 [--trace-out FILE]\n",
                 why);
    std::exit(2);
}

bool
parseUnsigned(const char *s, uint64_t &out)
{
    char *end = nullptr;
    if (!*s || *s == '-')
        return false;
    out = std::strtoull(s, &end, 10);
    return *end == '\0';
}

Options
parse(int argc, char **argv)
{
    Options o;
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        const char *v = argv[++i];
        uint64_t n = 0;
        if (a == "--workload") {
            o.workload = v;
            haveWorkload = true;
        } else if (a == "--seed") {
            if (!parseUnsigned(v, o.seed))
                usage("--seed takes a whole number");
        } else if (a == "--seconds") {
            if (!parseUnsigned(v, n) || n < 1 || n > 3600)
                usage("--seconds takes a whole number in [1, 3600]");
            o.seconds = double(n);
        } else if (a == "--trace") {
            if (!parseUnsigned(v, n) || n > 1)
                usage("--trace takes 0 or 1");
            o.trace = n == 1;
        } else if (a == "--trace-out") {
            o.traceOut = v;
        } else {
            usage(("unknown option " + a).c_str());
        }
    }
    if (!haveWorkload)
        usage("--workload is required");
    return o;
}

} // namespace

Clock::time_point
processStart()
{
    return kProcessStart;
}

double
peakRssMb()
{
    struct rusage ru;
    std::memset(&ru, 0, sizeof ru);
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

double
orderStat(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    size_t rank = size_t(std::ceil(q * double(v.size())));
    rank = std::clamp<size_t>(rank, 1, v.size());
    std::nth_element(v.begin(), v.begin() + long(rank - 1), v.end());
    return v[rank - 1];
}

void
addRoundMetrics(Outcome &out, double setup, size_t jobs,
                const std::vector<Round> &rounds,
                const bp5::sim::Counters &counters)
{
    if (rounds.empty()) {
        out.verdict.fail("no round was timed");
        return;
    }
    // The fastest round, and the lowest of the rounds' median
    // latencies: the median of one round is a noisy sample of a
    // many-peaked distribution, so it is not taken from the fastest
    // round alone.
    double fastest = rounds[0].seconds, bestP50 = median(rounds[0].latencyMs);
    std::vector<double> lengths, latencyMs;
    for (const Round &r : rounds) {
        fastest = std::min(fastest, r.seconds);
        bestP50 = std::min(bestP50, median(r.latencyMs));
        lengths.push_back(r.seconds);
        latencyMs.insert(latencyMs.end(), r.latencyMs.begin(),
                         r.latencyMs.end());
    }
    // Figures over the whole run go to standard error only: they move
    // with the host.
    std::fprintf(stderr,
                 "perfbench: %zu rounds; fastest %.4f s, median %.4f s; "
                 "all %zu jobs: latency p50 %.4f ms, p99 %.4f ms\n",
                 rounds.size(), fastest, median(lengths),
                 latencyMs.size(), orderStat(latencyMs, 0.50),
                 orderStat(latencyMs, 0.99));

    out.add("setup_s", "s", setup);
    out.add("jobs_per_s", "jobs/s", double(jobs) / fastest);
    out.add("latency_p50_ms", "ms", bestP50);
    out.add("sim_mips", "MIPS", double(counters.instructions) / fastest / 1e6);
    out.add("sim_cycles", "cycles", double(counters.cycles));
    out.add("peak_rss_mb", "MB", peakRssMb());
}

} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Options o = parse(argc, argv);

    Outcome out;
    if (o.trace)
        out = runTraced(o);
    else if (o.workload == "serve_n16")
        out = runServe(o);
    else if (o.workload == "paper_sweep")
        out = runPaperSweep(o);
    else if (o.workload == "sampled_sweep")
        out = runSampledSweep(o);
    else
        usage(("unknown workload " + o.workload).c_str());

    for (const Metric &m : out.metrics) {
        if (!std::isfinite(m.value))
            out.verdict.fail("metric " + m.name + " is not a finite number");
    }
    if (out.attempted == 0)
        out.verdict.fail("no operation was attempted");

    const auto &fails = out.verdict.failures();
    for (size_t i = 0; i < fails.size() && i < 20; ++i)
        std::fprintf(stderr, "perfbench: check failed: %s\n", fails[i].c_str());
    if (fails.size() > 20)
        std::fprintf(stderr, "perfbench: ... %zu failed checks in all\n",
                     fails.size());

    std::string json = "{\"correct\": ";
    json += out.verdict.ok() ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(out.attempted);
    json += ", \"failed\": " + std::to_string(out.failed);
    json += ", \"metrics\": {";
    for (size_t i = 0; i < out.metrics.size(); ++i) {
        const Metric &m = out.metrics[i];
        char num[64];
        std::snprintf(num, sizeof num, "%.10g",
                      std::isfinite(m.value) ? m.value : 0.0);
        json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + num +
                ", \"unit\": \"" + m.unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    return out.verdict.ok() ? 0 : 1;
}
