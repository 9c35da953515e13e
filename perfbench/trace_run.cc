/**
 * @file
 * The traced run: replays a prefix of every workload's inputs through
 * the program's public calls, one call at a time, with a span around
 * each call, so the layers can be told apart from outside.  Rounds
 * alternate an untraced pass and a traced pass over the same calls;
 * their wall times give the tracing overhead.  Per-layer numbers are
 * medians over the traced passes; the sim.* counts are those of the
 * named workload's prefix and must repeat exactly from pass to pass.
 *
 * Span names: bio.synth, mpc.compile, analysis.lint, kernels.build,
 * kernels.reset, serve.input_cache, kernels.run.timing,
 * kernels.run.functional, serve.round, serve.parse, serve.submit,
 * serve.job, serve.format, workloads.build, workloads.simulate.timing,
 * workloads.simulate.sampled, workloads.simulate.functional,
 * driver.run.
 */

#include <map>
#include <memory>

#include "analysis/lint.h"
#include "bench.h"
#include "jobs.h"
#include "workloads/workload.h"

namespace perfbench {

using bp5::kernels::KernelKind;
using bp5::kernels::KernelMachine;
using bp5::sim::Counters;
using bp5::workloads::App;

namespace {

/** Budgets of the replayed prefixes. */
constexpr uint64_t kTraceSweepBudget = 200'000;
constexpr uint64_t kTraceSampledBudget = 2'000'000;

/** What one pass measured besides its spans. */
struct PassResult
{
    double wallS = 0.0;
    Counters serve, sweep, sampled; ///< per-prefix counter sums
    uint64_t codeInsts = 0;
    uint64_t batches = 0, configSwitches = 0;
    double busyShare = 0.0;
    std::vector<double> queueWaitUs, protocolUs;
    uint64_t operations = 0, failed = 0;
};

/** Machines of one pass, one per (kernel, variant, machine config). */
class MachinePool
{
  public:
    KernelMachine &
    get(Tracer *t, KernelKind kind, bp5::mpc::Variant variant,
        const bp5::sim::MachineConfig &mc, int64_t job)
    {
        for (Entry &e : entries_) {
            if (e.kind == kind && e.variant == variant && e.mc == mc) {
                Tracer::Scope s(t, "kernels.reset", job);
                e.km->reset();
                return *e.km;
            }
        }
        Tracer::Scope s(t, "kernels.build", job);
        entries_.push_back(
            {kind, variant, mc,
             std::make_unique<KernelMachine>(kind, variant, mc)});
        return *entries_.back().km;
    }

  private:
    struct Entry
    {
        KernelKind kind;
        bp5::mpc::Variant variant;
        bp5::sim::MachineConfig mc;
        std::unique_ptr<KernelMachine> km;
    };
    std::vector<Entry> entries_;
};

/** Run @p fn on @p km inside span @p name, recording instructions. */
template <typename Fn>
void
simulateSpan(Tracer *t, const char *name, int64_t job, KernelMachine &km,
             Fn fn)
{
    Tracer::Scope s(t, name, job);
    fn();
    s.setInsts(km.totals().instructions);
}

void
servePrefix(Tracer *t, const std::vector<std::string> &lines,
            ServeChecker &checker, PassResult &pr, Verdict &v)
{
    const auto &specs = checker.specs();

    // Compile and lint each (kernel, variant) of the mix once.
    std::map<std::pair<int, int>, bool> compiled;
    for (const auto &spec : specs) {
        if (!compiled.emplace(std::make_pair(int(spec.kind), int(spec.variant)),
                              true)
                 .second)
            continue;
        bp5::mpc::Compiled c;
        {
            Tracer::Scope s(t, "mpc.compile");
            c = bp5::kernels::compileKernel(spec.kind, spec.variant);
        }
        pr.codeInsts += c.insts.size();
        Tracer::Scope s(t, "analysis.lint");
        if (bp5::analysis::lintProgram(c.program(bp5::kernels::kCodeBase))
                .errors())
            v.fail(std::string("lint errors in ") +
                   bp5::kernels::kernelName(spec.kind));
    }

    // The inputs: the benchmark's own synthesis, then the server's
    // input cache, filled by one functional run per input set.
    JobReference ref;
    bp5::serve::JobInputs inputs;
    std::map<int, std::unique_ptr<KernelMachine>> functional;
    for (size_t i = 0; i < specs.size(); ++i) {
        const auto &spec = specs[i];
        auto &fm = functional[int(spec.kind)];
        if (!fm)
            fm = std::make_unique<KernelMachine>(spec.kind, spec.variant,
                                                 spec.machine);
        {
            Tracer::Scope s(t, "bio.synth", int64_t(i));
            ref.score(spec);
        }
        Tracer::Scope s(t, "serve.input_cache", int64_t(i));
        fm->reset();
        fm->setFunctionalOnly(true);
        inputs.run(*fm, spec);
    }

    // One job at a time on reused machines, in both modes.
    MachinePool pool;
    for (size_t i = 0; i < specs.size(); ++i) {
        const auto &spec = specs[i];
        KernelMachine &km =
            pool.get(t, spec.kind, spec.variant, spec.machine, int64_t(i));
        simulateSpan(t, "kernels.run.timing", int64_t(i), km,
                     [&] { inputs.run(km, spec); });
        pr.serve.add(km.totals());
        KernelMachine &fm = *functional[int(spec.kind)];
        fm.reset();
        fm.setFunctionalOnly(true);
        simulateSpan(t, "kernels.run.functional", int64_t(i), fm,
                     [&] { inputs.run(fm, spec); });
    }

    // The same round through the server, submit to callback.
    bp5::serve::ServerConfig cfg;
    cfg.shards = kServeShards;
    bp5::serve::Server server(cfg);
    AnswerLedger ledger;
    {
        Tracer::Scope round(t, "serve.round");
        serveClosedLoop(
            server, lines, kServeWindow, 0, [](uint64_t) { return false; },
            [&](ServedJob &job) {
                ledger.answered(job.id, job.result.ok);
                checker.check(job);
                int64_t id = int64_t(job.id);
                if (t) {
                    t->add("serve.parse", job.parseStart, job.parsed, id);
                    t->add("serve.submit", job.submitted, job.submitReturned,
                           id);
                    t->add("serve.job", job.submitted, job.done, id);
                    t->add("serve.format", job.done, job.formatted, id);
                }
                pr.queueWaitUs.push_back(seconds(job.submitted, job.done) * 1e6 -
                                         job.result.serviceUs);
                pr.protocolUs.push_back(
                    (seconds(job.parseStart, job.parsed) +
                     seconds(job.done, job.formatted)) *
                    1e6);
            },
            &ledger, v);
    }
    server.drain();
    ledger.check(v);
    bp5::serve::ServerStats st = server.stats();
    pr.batches = st.batches;
    pr.configSwitches = st.configSwitches;
    pr.operations += 3 * specs.size();
    pr.failed += ledger.failed();
    if (!(checker.roundCounters() == pr.serve))
        v.fail("served counters differ from one-at-a-time runs");
}

void
sweepPrefix(Tracer *t, uint64_t seed, PassResult &pr, Verdict &v)
{
    const std::vector<bp5::driver::GridPoint> grid =
        paperGrid(seed, kTraceSweepBudget);
    std::map<int, std::unique_ptr<bp5::workloads::Workload>> works;
    for (App app : kApps) {
        bp5::workloads::WorkloadConfig wc = grid.front().workload;
        wc.app = app;
        Tracer::Scope s(t, "workloads.build");
        works[int(app)] = std::make_unique<bp5::workloads::Workload>(wc);
    }
    MachinePool pool;
    std::vector<Counters> direct;
    for (size_t i = 0; i < grid.size(); ++i) {
        const auto &p = grid[i];
        KernelMachine &km =
            pool.get(t, bp5::workloads::appKernel(p.workload.app), p.variant,
                     p.machine, int64_t(i));
        simulateSpan(t, "workloads.simulate.timing", int64_t(i), km,
                     [&] { works[int(p.workload.app)]->simulate(km); });
        checkCpiSum(v, p.label, km.totals());
        direct.push_back(km.totals());
        pr.sweep.add(km.totals());
    }

    bp5::driver::ExperimentDriver driver(kSweepThreads);
    driver.setManifestPath("");
    std::vector<bp5::driver::PointResult> res;
    Clock::time_point t0 = Clock::now();
    {
        Tracer::Scope s(t, "driver.run");
        res = driver.run(grid);
    }
    const double wall = seconds(t0, Clock::now());
    double busy = 0.0;
    for (size_t i = 0; i < res.size(); ++i) {
        busy += res[i].wallSeconds;
        if (!(res[i].sim.counters == direct[i]))
            v.fail("driver point " + std::to_string(i) +
                   " differs from the same point run directly");
    }
    pr.busyShare = busy / (double(driver.threads()) * wall);
    pr.operations += 2 * grid.size();
}

void
sampledPrefix(Tracer *t, uint64_t seed, PassResult &pr, Verdict &v)
{
    for (size_t a = 0; a < std::size(kApps); ++a) {
        bp5::workloads::WorkloadConfig wc;
        wc.app = kApps[a];
        wc.klass = bp5::workloads::InputClass::C;
        wc.seed = seed;
        wc.simInstructionBudget = kTraceSampledBudget;
        std::unique_ptr<bp5::workloads::Workload> w;
        {
            Tracer::Scope s(t, "workloads.build");
            w = std::make_unique<bp5::workloads::Workload>(wc);
        }
        MachinePool pool;
        KernelMachine &km =
            pool.get(t, bp5::workloads::appKernel(kApps[a]),
                     bp5::mpc::Variant::Baseline, bp5::sim::MachineConfig(),
                     int64_t(a));
        km.setSampling(sampledParams());
        simulateSpan(t, "workloads.simulate.sampled", int64_t(a), km,
                     [&] { w->simulate(km); });
        const Counters sampled = km.totals();
        checkCpiSum(v, bp5::workloads::appName(kApps[a]), sampled);
        pr.sampled.add(sampled);

        KernelMachine &fm =
            pool.get(t, bp5::workloads::appKernel(kApps[a]),
                     bp5::mpc::Variant::Baseline, bp5::sim::MachineConfig(),
                     int64_t(a));
        fm.setFunctionalOnly(true);
        simulateSpan(t, "workloads.simulate.functional", int64_t(a), fm,
                     [&] { w->simulate(fm); });
        checkArchEqual(v, bp5::workloads::appName(kApps[a]), sampled,
                       fm.totals());
    }
    pr.operations += 2 * std::size(kApps);
}

PassResult
runPass(Tracer *t, const Options &o, const std::vector<std::string> &lines,
        Verdict &v)
{
    PassResult pr;
    ServeChecker checker(lines, v);
    const Clock::time_point t0 = Clock::now();
    servePrefix(t, lines, checker, pr, v);
    sweepPrefix(t, o.seed, pr, v);
    sampledPrefix(t, o.seed, pr, v);
    pr.wallS = seconds(t0, Clock::now());
    return pr;
}

/** Per-span-name self times of one traced pass (us). */
std::map<std::string, std::vector<double>>
selfByName(const Tracer &t)
{
    std::map<std::string, std::vector<double>> out;
    std::vector<double> self = t.selfUs();
    for (size_t i = 0; i < t.spans().size(); ++i)
        out[t.spans()[i].name].push_back(self[i]);
    return out;
}

/** Host ns per simulated instruction over spans named in @p names. */
double
nsPerInst(const Tracer &t, std::initializer_list<const char *> names)
{
    std::vector<double> self = t.selfUs();
    double us = 0.0, insts = 0.0;
    for (size_t i = 0; i < t.spans().size(); ++i) {
        for (const char *n : names) {
            if (t.spans()[i].name == n) {
                us += self[i];
                insts += double(t.spans()[i].insts);
            }
        }
    }
    return insts > 0.0 ? us * 1e3 / insts : 0.0;
}

double
sum(const std::vector<double> &v)
{
    double s = 0.0;
    for (double x : v)
        s += x;
    return s;
}

} // namespace

Outcome
runTraced(const Options &o)
{
    Outcome out;
    if (o.workload != "serve_n16" && o.workload != "paper_sweep" &&
        o.workload != "sampled_sweep") {
        out.verdict.fail("unknown workload " + o.workload);
        return out;
    }
    const std::vector<std::string> lines = serveRequestLines(o.seed);

    std::vector<std::unique_ptr<Tracer>> tracers;
    std::vector<PassResult> traced;
    std::vector<double> untracedS;
    const Clock::time_point t0 = Clock::now();
    do {
        // Alternate which pass goes first, so drift hits both alike.
        bool tracedFirst = tracers.size() % 2 == 1;
        for (int k = 0; k < 2; ++k) {
            if ((k == 0) == tracedFirst) {
                tracers.push_back(std::make_unique<Tracer>());
                traced.push_back(runPass(tracers.back().get(), o, lines,
                                         out.verdict));
            } else {
                untracedS.push_back(
                    runPass(nullptr, o, lines, out.verdict).wallS);
            }
        }
    } while (seconds(t0, Clock::now()) < o.seconds);

    // Medians over the traced passes of per-pass numbers.
    std::map<std::string, std::vector<double>> per;
    const PassResult &first = traced.front();
    for (size_t p = 0; p < traced.size(); ++p) {
        const PassResult &pr = traced[p];
        const Tracer &t = *tracers[p];
        auto self = selfByName(t);
        per["serve.queue_wait_us"].push_back(median(pr.queueWaitUs));
        per["serve.submit_wait_us"].push_back(median(self["serve.submit"]));
        per["serve.protocol_us"].push_back(median(pr.protocolUs));
        per["serve.batches"].push_back(double(pr.batches));
        per["serve.config_switches"].push_back(double(pr.configSwitches));
        per["kernels.reset_us"].push_back(median(self["kernels.reset"]));
        per["kernels.build_ms"].push_back(sum(self["kernels.build"]) / 1e3);
        per["mpc.compile_ms"].push_back(sum(self["mpc.compile"]) / 1e3);
        per["analysis.lint_ms"].push_back(sum(self["analysis.lint"]) / 1e3);
        per["bio.synth_ms"].push_back(sum(self["bio.synth"]) / 1e3);
        per["workloads.build_ms"].push_back(sum(self["workloads.build"]) /
                                            1e3);
        per["sim.ns_per_inst.timing"].push_back(nsPerInst(
            t, {"kernels.run.timing", "workloads.simulate.timing"}));
        per["sim.ns_per_inst.functional"].push_back(nsPerInst(
            t, {"kernels.run.functional", "workloads.simulate.functional"}));
        per["sim.ns_per_inst.sampled"].push_back(
            nsPerInst(t, {"workloads.simulate.sampled"}));
        per["driver.busy_share"].push_back(pr.busyShare);

        if (!(pr.serve == first.serve && pr.sweep == first.sweep &&
              pr.sampled == first.sampled))
            out.verdict.fail("simulated counts differ between traced passes");
        out.attempted += pr.operations;
        out.failed += pr.failed;
    }
    out.attempted *= 2; // the untraced passes make the same calls

    auto put = [&](const char *name, const char *unit) {
        out.add(name, unit, median(per[name]));
    };
    put("serve.queue_wait_us", "us");
    put("serve.submit_wait_us", "us");
    put("serve.protocol_us", "us");
    put("serve.batches", "count");
    put("serve.config_switches", "count");
    put("kernels.reset_us", "us");
    put("kernels.build_ms", "ms");
    put("mpc.compile_ms", "ms");
    put("analysis.lint_ms", "ms");
    put("bio.synth_ms", "ms");
    put("workloads.build_ms", "ms");
    out.add("mpc.code_insts", "count", double(first.codeInsts));
    put("sim.ns_per_inst.timing", "ns/inst");
    put("sim.ns_per_inst.functional", "ns/inst");
    put("sim.ns_per_inst.sampled", "ns/inst");
    put("driver.busy_share", "ratio");

    const Counters &c = o.workload == "serve_n16"     ? first.serve
                        : o.workload == "paper_sweep" ? first.sweep
                                                      : first.sampled;
    out.add("sim.instructions", "count", double(c.instructions));
    out.add("sim.cycles", "count", double(c.cycles));
    for (size_t k = 0; k < bp5::sim::kNumCpiComponents; ++k)
        out.add(std::string("sim.cpi.") +
                    bp5::sim::cpiComponentKey(bp5::sim::CpiComponent(k)),
                "count", double(c.cpi[k]));
    out.add("sim.l1d_misses", "count", double(c.l1dMisses));
    out.add("sim.l2_misses", "count", double(c.l2Misses));
    out.add("sim.mispred_direction", "count", double(c.mispredDirection));
    out.add("sim.taken_bubbles", "count", double(c.takenBubbles));
    out.add("sim.btac_correct", "count", double(c.btacCorrect));
    out.add("sim.store_forwards", "count", double(c.storeForwards));
    out.add("sim.prefetch_hits", "count", double(c.prefetchHits));

    std::vector<double> tracedS;
    for (const PassResult &pr : traced)
        tracedS.push_back(pr.wallS);
    out.add("trace_overhead_pct", "%",
            (median(tracedS) / median(untracedS) - 1.0) * 100.0);

    if (!o.traceOut.empty()) {
        for (size_t p = 0; p < tracers.size(); ++p) {
            if (!tracers[p]->write(o.traceOut, o.workload, p > 0))
                out.verdict.fail("cannot write spans to " + o.traceOut);
        }
    }
    return out;
}

} // namespace perfbench
