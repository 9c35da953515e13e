/**
 * @file
 * Observability-layer tests: attaching sinks must never perturb the
 * timing model (bit-identical Counters), the PMU sampler's windows
 * must sum exactly to the end-of-run counters, and the trace writers
 * must produce well-formed documents (Perfetto JSON schema, Konata
 * round-trip).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "bench/bench_util.h"
#include "bio/generator.h"
#include "driver/driver.h"
#include "kernels/kernels.h"
#include "masm/assembler.h"
#include "obs/json.h"
#include "obs/konata_sink.h"
#include "obs/manifest.h"
#include "obs/perfetto_sink.h"
#include "obs/pmu_sampler.h"
#include "obs/trace_mux.h"
#include "sim/machine.h"

namespace bp5 {
namespace {

/** A counted loop whose body is repeated independent adds. */
std::string
addLoop(int iters, int adds)
{
    std::string s = "li r3, " + std::to_string(iters) + "\nmtctr r3\n";
    s += "loop:\n";
    for (int i = 0; i < adds; ++i)
        s += "add r" + std::to_string(4 + i % 8) + ", r10, r11\n";
    s += "bdnz loop\n";
    return s;
}

masm::Program
loopProgram(int iters = 2000, int adds = 4)
{
    return masm::assemble(addLoop(iters, adds) + "li r0,0\nsc\n", 0x10000);
}

sim::RunResult
runWithSink(const masm::Program &p, sim::TraceSink *sink)
{
    sim::Machine m;
    m.loadProgram(p);
    m.state().pc = p.base;
    m.setTraceSink(sink);
    sim::RunResult r = m.run(10'000'000);
    EXPECT_TRUE(r.halted);
    return r;
}

/** Sink that counts every hook invocation. */
struct CountingSink final : sim::TraceSink
{
    unsigned runBegins = 0, runEnds = 0;
    uint64_t insts = 0, branches = 0, flushes = 0, misses = 0;

    void onRunBegin(const sim::MachineConfig &) override { ++runBegins; }
    void onRunEnd(const sim::Counters &) override { ++runEnds; }
    void
    onInstruction(const sim::InstRecord &, const sim::Counters &) override
    {
        ++insts;
    }
    void onBranch(const sim::BranchRecord &) override { ++branches; }
    void onFlush(const sim::FlushRecord &) override { ++flushes; }
    void onCacheMiss(const sim::CacheMissRecord &) override { ++misses; }
};

// ---------------------------------------------------------------------
// Tracing-off invariance.
// ---------------------------------------------------------------------

TEST(ObsInvariance, NullSinkRunIsBitIdentical)
{
    masm::Program p = loopProgram();
    sim::RunResult plain = runWithSink(p, nullptr);

    sim::TraceSink null; // every hook is a no-op
    sim::RunResult traced = runWithSink(p, &null);

    EXPECT_TRUE(plain.counters == traced.counters);
    EXPECT_EQ(plain.exitCode, traced.exitCode);
}

TEST(ObsInvariance, FullSinkStackIsBitIdentical)
{
    masm::Program p = loopProgram();
    sim::RunResult plain = runWithSink(p, nullptr);

    obs::PerfettoSink perfetto;
    obs::KonataSink konata;
    obs::PmuSampler sampler(500, true);
    obs::TraceMux mux;
    mux.add(&perfetto);
    mux.add(&konata);
    mux.add(&sampler);
    sim::RunResult traced = runWithSink(p, &mux);

    EXPECT_TRUE(plain.counters == traced.counters);
    EXPECT_GT(perfetto.eventCount(), 0u);
    EXPECT_GT(konata.instCount(), 0u);
}

TEST(ObsInvariance, EventCountsMatchCounters)
{
    masm::Program p = loopProgram();
    CountingSink c;
    sim::RunResult r = runWithSink(p, &c);

    EXPECT_EQ(c.runBegins, 1u);
    EXPECT_EQ(c.runEnds, 1u);
    EXPECT_EQ(c.insts, r.counters.instructions);
    EXPECT_EQ(c.branches, r.counters.branches);
    // Every direction/target mispredict flushes the front end.
    EXPECT_EQ(c.flushes,
              r.counters.mispredDirection + r.counters.mispredTarget);
    EXPECT_EQ(c.misses, r.counters.l1iMisses + r.counters.l1dMisses +
                            r.counters.l2Misses);
}

TEST(ObsInvariance, MuxFansOutToAllSinks)
{
    masm::Program p = loopProgram(200, 2);
    CountingSink a, b;
    obs::TraceMux mux;
    mux.add(&a);
    mux.add(&b);
    runWithSink(p, &mux);
    EXPECT_GT(a.insts, 0u);
    EXPECT_EQ(a.insts, b.insts);
    EXPECT_EQ(a.branches, b.branches);
    EXPECT_EQ(a.flushes, b.flushes);
    EXPECT_EQ(a.misses, b.misses);
}

// ---------------------------------------------------------------------
// PMU sampler interval math.
// ---------------------------------------------------------------------

TEST(PmuSampler, WindowsSumExactlyToCounters)
{
    masm::Program p = loopProgram();
    obs::PmuSampler sampler(777); // deliberately odd interval
    sim::RunResult r = runWithSink(p, &sampler);

    sim::Counters sum;
    for (const obs::PmuInterval &w : sampler.intervals(true))
        sum.add(w.delta);
    EXPECT_TRUE(sum == r.counters);
}

TEST(PmuSampler, IntervalLargerThanRunYieldsOnePartialWindow)
{
    masm::Program p = loopProgram(50, 2);
    obs::PmuSampler sampler(1'000'000'000);
    sim::RunResult r = runWithSink(p, &sampler);

    EXPECT_TRUE(sampler.intervals(false).empty());
    auto all = sampler.intervals(true);
    ASSERT_EQ(all.size(), 1u);
    EXPECT_TRUE(all[0].partial);
    EXPECT_TRUE(all[0].delta == r.counters);
    EXPECT_EQ(all[0].startCycle, 0u);
    EXPECT_EQ(all[0].endCycle, r.counters.cycles);
}

TEST(PmuSampler, IntervalOfOneCycleIsWellFormed)
{
    masm::Program p = loopProgram(20, 1);
    obs::PmuSampler sampler(1);
    sim::RunResult r = runWithSink(p, &sampler);

    auto all = sampler.intervals(true);
    ASSERT_GT(all.size(), 1u);
    sim::Counters sum;
    uint64_t prevEnd = 0;
    for (size_t i = 0; i < all.size(); ++i) {
        const obs::PmuInterval &w = all[i];
        EXPECT_EQ(w.startCycle, prevEnd);
        // Interior windows are strictly widening; the trailing partial
        // window may be zero-width (instructions that retired in the
        // final cycle after the last boundary crossing).
        if (i + 1 < all.size())
            EXPECT_GT(w.endCycle, w.startCycle);
        else
            EXPECT_GE(w.endCycle, w.startCycle);
        prevEnd = w.endCycle;
        sum.add(w.delta);
    }
    EXPECT_TRUE(sum == r.counters);
}

TEST(PmuSampler, ContinuousAcrossRunsAndSumsToKernelTotals)
{
    bio::SequenceGenerator g(7);
    bio::Sequence a = g.random(40, "a");
    bio::Sequence b = g.mutate(a, bio::MutationModel{0.3, 0.05, 0.05}, "b");
    kernels::KernelMachine km(kernels::KernelKind::Dropgsw,
                              mpc::Variant::Baseline, sim::MachineConfig());
    km.setSampleInterval(1000);
    kernels::AlignProblem p{&a, &b, &bio::SubstitutionMatrix::blosum62(),
                            bio::GapPenalty{10, 1}};
    for (int i = 0; i < 5; ++i)
        km.run(p);

    sim::Counters sum;
    uint64_t prevEnd = 0;
    for (const obs::PmuInterval &w : km.sampler()->intervals(true)) {
        EXPECT_EQ(w.startCycle, prevEnd); // one continuous cycle axis
        prevEnd = w.endCycle;
        sum.add(w.delta);
    }
    EXPECT_TRUE(sum == km.totals());
    EXPECT_EQ(prevEnd, km.totals().cycles);

    // The Fig-2 view exposes the same windows.
    auto tl = km.sampler()->timeline();
    EXPECT_EQ(tl.size(), km.sampler()->intervals(false).size());
    EXPECT_GT(tl.size(), 2u);
}

TEST(PmuSampler, SiteSeriesMatchesMachineBranchProfile)
{
    bio::SequenceGenerator g(11);
    bio::Sequence a = g.random(30, "a");
    bio::Sequence b = g.mutate(a, bio::MutationModel{0.3, 0.05, 0.05}, "b");
    kernels::KernelMachine km(kernels::KernelKind::ForwardPass,
                              mpc::Variant::Baseline, sim::MachineConfig());
    km.setSampleInterval(2000, /*site_series=*/true);
    km.setBranchProfiling(true);
    kernels::AlignProblem p{&a, &b, &bio::SubstitutionMatrix::blosum62(),
                            bio::GapPenalty{10, 1}};
    km.run(p);
    km.run(p);

    // Aggregating the per-window site deltas must reproduce the
    // machine's own per-site profile exactly.
    sim::BranchProfile agg;
    for (const obs::PmuInterval &w : km.sampler()->intervals(true)) {
        for (const auto &[pc, stats] : w.sites)
            agg[pc].add(stats);
    }
    const sim::BranchProfile &ref = km.branchProfile();
    ASSERT_EQ(agg.size(), ref.size());
    for (const auto &[pc, stats] : ref) {
        auto it = agg.find(pc);
        ASSERT_NE(it, agg.end());
        EXPECT_EQ(it->second.executions, stats.executions);
        EXPECT_EQ(it->second.taken, stats.taken);
        EXPECT_EQ(it->second.mispredDirection, stats.mispredDirection);
        EXPECT_EQ(it->second.mispredTarget, stats.mispredTarget);
    }
}

TEST(PmuSampler, CsvRowsMatchWindowCount)
{
    masm::Program p = loopProgram();
    obs::PmuSampler sampler(500);
    runWithSink(p, &sampler);

    std::string csv = sampler.toCsv(true);
    size_t lines = 0;
    for (char c : csv)
        lines += c == '\n';
    // + schema comment + column header
    EXPECT_EQ(lines, sampler.intervals(true).size() + 2);
    EXPECT_EQ(csv.compare(0, 10, "# schema: "), 0);
    EXPECT_NE(csv.find("\nstart_cycle"), std::string::npos);
}

namespace {

/** Split one CSV line into cells (no quoting in our dialect). */
std::vector<std::string>
splitCsv(const std::string &line)
{
    std::vector<std::string> cells;
    std::string cur;
    for (char c : line) {
        if (c == ',') {
            cells.push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    cells.push_back(cur);
    return cells;
}

} // namespace

TEST(PmuSampler, CsvRoundTripsThroughParser)
{
    masm::Program p = loopProgram();
    obs::PmuSampler sampler(500);
    sim::Counters total = runWithSink(p, &sampler).counters;

    std::string csv = sampler.toCsv(true);
    std::vector<std::string> lines;
    std::string cur;
    for (char c : csv) {
        if (c == '\n') {
            lines.push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    ASSERT_GE(lines.size(), 3u);

    // The schema comment names exactly the columns of the header row.
    ASSERT_EQ(lines[0].compare(0, 10, "# schema: "), 0);
    EXPECT_EQ(lines[0].substr(10), lines[1]);
    EXPECT_EQ(lines[1], obs::PmuSampler::csvColumns());

    std::vector<std::string> cols = splitCsv(lines[1]);
    auto colIndex = [&cols](const std::string &name) {
        for (size_t i = 0; i < cols.size(); ++i)
            if (cols[i] == name)
                return i;
        ADD_FAILURE() << "missing column " << name;
        return size_t(0);
    };

    // Parse every data row and re-sum the integer columns: the CSV
    // must reproduce the machine's end-of-run counters exactly.
    uint64_t cycles = 0, instructions = 0, cpiSum = 0;
    size_t cyclesCol = colIndex("cycles");
    size_t instCol = colIndex("instructions");
    std::vector<size_t> cpiCols;
    for (size_t i = 0; i < sim::kNumCpiComponents; ++i)
        cpiCols.push_back(colIndex(
            std::string("cpi_") +
            sim::cpiComponentKey(sim::CpiComponent(i))));
    for (size_t i = 2; i < lines.size(); ++i) {
        std::vector<std::string> cells = splitCsv(lines[i]);
        ASSERT_EQ(cells.size(), cols.size()) << lines[i];
        cycles += std::stoull(cells[cyclesCol]);
        instructions += std::stoull(cells[instCol]);
        for (size_t ci : cpiCols)
            cpiSum += std::stoull(cells[ci]);
    }
    EXPECT_EQ(cycles, total.cycles);
    EXPECT_EQ(instructions, total.instructions);
    EXPECT_EQ(cpiSum, total.cycles); // windowed CPI stacks sum exactly
}

// ---------------------------------------------------------------------
// Trace writers.
// ---------------------------------------------------------------------

TEST(PerfettoSink, EmitsParseableSchema)
{
    masm::Program p = loopProgram(100, 2);
    obs::PerfettoSink sink;
    runWithSink(p, &sink);

    obs::JsonValue doc;
    std::string err;
    ASSERT_TRUE(obs::parseJson(sink.finish(), doc, err)) << err;
    ASSERT_TRUE(doc.isObject());
    ASSERT_NE(doc.find("displayTimeUnit"), nullptr);
    const obs::JsonValue *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());
    ASSERT_GT(events->items.size(), 10u);

    size_t slices = 0;
    for (const obs::JsonValue &e : events->items) {
        ASSERT_TRUE(e.isObject());
        const obs::JsonValue *ph = e.find("ph");
        ASSERT_NE(ph, nullptr);
        ASSERT_TRUE(ph->isString());
        ASSERT_NE(e.find("pid"), nullptr);
        if (ph->str == "X") {
            ++slices;
            ASSERT_NE(e.find("ts"), nullptr);
            ASSERT_NE(e.find("dur"), nullptr);
            ASSERT_NE(e.find("name"), nullptr);
            const obs::JsonValue *args = e.find("args");
            ASSERT_NE(args, nullptr);
            ASSERT_NE(args->find("pc"), nullptr);
        }
    }
    EXPECT_GT(slices, 0u);
}

TEST(PerfettoSink, RespectsEventCap)
{
    masm::Program p = loopProgram(2000, 4);
    obs::PerfettoSink sink(8, 100);
    runWithSink(p, &sink);
    EXPECT_EQ(sink.eventCount(), 100u);
    EXPECT_GT(sink.droppedEvents(), 0u);

    obs::JsonValue doc;
    std::string err;
    EXPECT_TRUE(obs::parseJson(sink.finish(), doc, err)) << err;
}

TEST(KonataSink, RoundTripsOnSmallKernel)
{
    masm::Program p = loopProgram(50, 2);
    obs::KonataSink sink;
    sim::RunResult r = runWithSink(p, &sink);
    EXPECT_EQ(sink.instCount(), r.counters.instructions);

    std::istringstream in(sink.finish());
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_EQ(line, "Kanata\t0004");
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_EQ(line.compare(0, 3, "C=\t"), 0);

    uint64_t inserts = 0, retires = 0, labels = 0, stages = 0;
    while (std::getline(in, line)) {
        ASSERT_FALSE(line.empty());
        switch (line[0]) {
        case 'I': ++inserts; break;
        case 'R': ++retires; break;
        case 'L': ++labels; break;
        case 'S': ++stages; break;
        case 'C': {
            // Cycle advances must be positive (monotone time).
            long long delta = std::stoll(line.substr(2));
            EXPECT_GT(delta, 0);
            break;
        }
        default:
            FAIL() << "unexpected Kanata command: " << line;
        }
    }
    EXPECT_EQ(inserts, r.counters.instructions);
    EXPECT_EQ(retires, r.counters.instructions);
    EXPECT_GE(labels, r.counters.instructions);
    EXPECT_EQ(stages, 4 * r.counters.instructions); // F, D, X, W
}

// ---------------------------------------------------------------------
// Manifests.
// ---------------------------------------------------------------------

TEST(Manifest, RowCarriesIdentityMachineAndSpeed)
{
    obs::RunInfo info;
    info.tool = "test";
    info.workload = "dropgsw";
    info.variant = "Original";
    info.input = "canned";
    info.invocations = 3;
    info.wallSeconds = 2.0;
    info.machine = sim::MachineConfig::power5WithBtac();
    info.counters.instructions = 4'000'000;
    info.counters.cycles = 5'000'000;

    support::ResultRow row = obs::manifestRow(info);
    EXPECT_EQ(row.text("tool"), "test");
    EXPECT_EQ(row.text("workload"), "dropgsw");
    EXPECT_EQ(row.text("btac"), "on");
    EXPECT_EQ(row.text("sim_mips"), "2.00"); // 4M insts / 2s
    EXPECT_EQ(row.text("instructions"), "4000000");
}

TEST(Manifest, AppendsParseableJsonLines)
{
    std::string path =
        testing::TempDir() + "/bp5_manifest_test.jsonl";
    std::remove(path.c_str());

    obs::RunInfo info;
    info.tool = "test";
    info.workload = "w";
    info.counters.instructions = 10;
    info.counters.cycles = 20;
    std::vector<support::ResultRow> rows{obs::manifestRow(info)};
    ASSERT_TRUE(obs::appendManifest(path, rows));
    ASSERT_TRUE(obs::appendManifest(path, rows)); // append, not truncate

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::string line;
    unsigned records = 0;
    while (std::getline(in, line)) {
        obs::JsonValue doc;
        std::string err;
        ASSERT_TRUE(obs::parseJson(line, doc, err)) << err;
        const obs::JsonValue *title = doc.find("title");
        ASSERT_NE(title, nullptr);
        EXPECT_EQ(title->str, "run-manifest");
        ASSERT_NE(doc.find("rows"), nullptr);
        ++records;
    }
    EXPECT_EQ(records, 2u);
    std::remove(path.c_str());
}

TEST(Manifest, DriverEmitsSweepAndPointRows)
{
    std::string path = testing::TempDir() + "/bp5_driver_manifest.jsonl";
    std::remove(path.c_str());

    driver::ExperimentDriver d(1);
    d.setManifestPath(path);
    workloads::WorkloadConfig wc;
    wc.app = workloads::App::Clustalw;
    wc.klass = workloads::InputClass::A;
    wc.simInstructionBudget = 100'000;
    driver::GridPoint p;
    p.label = "pt";
    p.workload = wc;
    std::vector<driver::PointResult> res = d.run({p, p});

    ASSERT_EQ(res.size(), 2u);
    EXPECT_GT(res[0].wallSeconds, 0.0);
    ASSERT_EQ(d.manifest().size(), 3u); // sweep row + 2 points
    EXPECT_EQ(d.manifest()[0].text("kind"), "sweep");
    EXPECT_EQ(d.manifest()[1].text("kind"), "point");
    EXPECT_EQ(d.manifest()[1].text("workload"), "Clustalw");
    EXPECT_EQ(d.manifest()[1].text("label"), "pt");

    std::ifstream in(path);
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    obs::JsonValue doc;
    std::string err;
    ASSERT_TRUE(obs::parseJson(line, doc, err)) << err;
    EXPECT_EQ(doc.find("rows")->items.size(), 3u);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Satellites: sparkline guard, JSON parser edge cases.
// ---------------------------------------------------------------------

TEST(Sparkline, FlatSeriesDoesNotDivideByZero)
{
    std::vector<double> flat(8, 1.0);
    std::string s = bench::sparkline(flat, 1.0, 1.0); // hi == lo
    ASSERT_EQ(s.size(), flat.size());
    for (char c : s)
        EXPECT_EQ(c, ' '); // lowest glyph, not NaN-indexed garbage
    // Inverted range behaves the same way.
    EXPECT_EQ(bench::sparkline(flat, 2.0, 1.0), s);
    // A real range still spreads.
    std::string ramp = bench::sparkline({0.0, 0.5, 1.0}, 0.0, 1.0);
    EXPECT_NE(ramp[0], ramp[2]);
}

TEST(Json, ParsesScalarsArraysObjects)
{
    obs::JsonValue v;
    std::string err;
    ASSERT_TRUE(obs::parseJson(
        "{\"a\": [1, 2.5, -3], \"b\": \"x\\ny\", \"c\": true, "
        "\"d\": null}",
        v, err))
        << err;
    ASSERT_TRUE(v.isObject());
    ASSERT_EQ(v.fields.size(), 4u);
    const obs::JsonValue *a = v.find("a");
    ASSERT_TRUE(a->isArray());
    ASSERT_EQ(a->items.size(), 3u);
    EXPECT_DOUBLE_EQ(a->items[1].number, 2.5);
    EXPECT_DOUBLE_EQ(a->items[2].number, -3.0);
    EXPECT_EQ(v.find("b")->str, "x\ny");
    EXPECT_TRUE(v.find("c")->boolean);
    EXPECT_TRUE(v.find("d")->isNull());
    EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(Json, RejectsMalformedInput)
{
    obs::JsonValue v;
    std::string err;
    EXPECT_FALSE(obs::parseJson("{\"a\": }", v, err));
    EXPECT_FALSE(obs::parseJson("[1, 2", v, err));
    EXPECT_FALSE(obs::parseJson("{} trailing", v, err));
    EXPECT_FALSE(obs::parseJson("\"unterminated", v, err));
    EXPECT_FALSE(obs::parseJson("", v, err));
    EXPECT_FALSE(err.empty());
}

TEST(Json, NumberGrammarAcceptsRfc8259Forms)
{
    obs::JsonValue v;
    std::string err;

    ASSERT_TRUE(obs::parseJson("1e-3", v, err)) << err;
    EXPECT_DOUBLE_EQ(v.number, 1e-3);
    ASSERT_TRUE(obs::parseJson("2.5E+2", v, err)) << err;
    EXPECT_DOUBLE_EQ(v.number, 250.0);
    ASSERT_TRUE(obs::parseJson("-1.25e1", v, err)) << err;
    EXPECT_DOUBLE_EQ(v.number, -12.5);
    ASSERT_TRUE(obs::parseJson("0.5", v, err)) << err;
    EXPECT_DOUBLE_EQ(v.number, 0.5);
    ASSERT_TRUE(obs::parseJson("0e0", v, err)) << err;
    EXPECT_DOUBLE_EQ(v.number, 0.0);

    // Negative zero survives the round trip (IEEE sign bit kept).
    ASSERT_TRUE(obs::parseJson("-0", v, err)) << err;
    EXPECT_EQ(v.number, 0.0);
    EXPECT_TRUE(std::signbit(v.number));
    ASSERT_TRUE(obs::parseJson("-0.0", v, err)) << err;
    EXPECT_TRUE(std::signbit(v.number));
}

TEST(Json, NumberGrammarRejectsNonRfc8259Forms)
{
    obs::JsonValue v;
    std::string err;
    // RFC 8259: no leading '+', no bare '.', no leading zeros, and an
    // exponent marker must be followed by at least one digit.
    EXPECT_FALSE(obs::parseJson("+1", v, err));
    EXPECT_FALSE(obs::parseJson(".5", v, err));
    EXPECT_FALSE(obs::parseJson("5.", v, err));
    EXPECT_FALSE(obs::parseJson("01", v, err));
    EXPECT_FALSE(obs::parseJson("-01", v, err));
    EXPECT_FALSE(obs::parseJson("1e", v, err));
    EXPECT_FALSE(obs::parseJson("1e+", v, err));
    EXPECT_FALSE(obs::parseJson("1.e3", v, err));
    EXPECT_FALSE(obs::parseJson("-", v, err));
    EXPECT_FALSE(obs::parseJson("--1", v, err));
    // ...and none of these may sneak through inside a container.
    EXPECT_FALSE(obs::parseJson("[01]", v, err));
    EXPECT_FALSE(obs::parseJson("{\"k\": 1e}", v, err));
}

// ---------------------------------------------------------------------
// KernelMachine wiring.
// ---------------------------------------------------------------------

TEST(KernelMachineObs, ResetDetachesSinksAndSampler)
{
    bio::SequenceGenerator g(3);
    bio::Sequence a = g.random(20, "a");
    bio::Sequence b = g.mutate(a, bio::MutationModel{0.3, 0.05, 0.05}, "b");
    kernels::KernelMachine km(kernels::KernelKind::Dropgsw,
                              mpc::Variant::Baseline, sim::MachineConfig());
    CountingSink c;
    km.setSampleInterval(1000);
    km.setTraceSink(&c);
    kernels::AlignProblem p{&a, &b, &bio::SubstitutionMatrix::blosum62(),
                            bio::GapPenalty{10, 1}};
    km.run(p);
    EXPECT_GT(c.insts, 0u);
    EXPECT_NE(km.sampler(), nullptr);

    km.reset();
    EXPECT_EQ(km.sampler(), nullptr);
    uint64_t before = c.insts;
    km.run(p);
    EXPECT_EQ(c.insts, before); // detached sink no longer fed
}

} // namespace
} // namespace bp5
