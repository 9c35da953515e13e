/**
 * @file
 * serve_n16: an in-process serve::Server with two shards, fed in a
 * closed loop by one client thread that keeps kServeWindow jobs
 * outstanding.  Requests go through parseJobLine and answers through
 * resultLine, as in the daemon.  The client runs whole rounds of the
 * 160-job mix, one after the other, until the time is up.
 */

#include <condition_variable>
#include <mutex>

#include "bench.h"
#include "jobs.h"
#include "obs/json.h"
#include "serve/server.h"
#include "support/logging.h"

namespace perfbench {

using bp5::serve::JobResult;
using bp5::serve::JobSpec;

void
serveClosedLoop(bp5::serve::Server &server,
                const std::vector<std::string> &lines, unsigned window,
                uint64_t firstId,
                const std::function<bool(uint64_t)> &anotherRound,
                const std::function<void(ServedJob &)> &onDone,
                AnswerLedger *ledger, Verdict &verdict)
{
    std::mutex mu;
    std::condition_variable cv;
    std::vector<ServedJob> ready; // guarded by mu

    std::vector<Clock::time_point> returned; // submit return, by id
    uint64_t next = 0, outstanding = 0;
    bool submitting = true;
    while (true) {
        while (submitting && outstanding < window) {
            size_t index = size_t(next % lines.size());
            if (index == 0 && next > 0) {
                if (outstanding > 0)
                    break; // the round before must drain first
                if (!anotherRound(next / lines.size())) {
                    submitting = false;
                    break;
                }
            }
            ServedJob job;
            job.id = firstId + next;
            job.index = index;
            job.parseStart = Clock::now();
            JobSpec spec;
            std::string err;
            if (!bp5::serve::parseJobLine(lines[index], spec, err)) {
                verdict.fail("request line rejected: " + err);
                submitting = false;
                break;
            }
            spec.id = job.id;
            job.parsed = job.submitted = Clock::now();
            if (ledger)
                ledger->submitted(job.id);
            auto done = [&mu, &cv, &ready, job](const JobResult &r) mutable {
                job.done = Clock::now();
                job.response = bp5::serve::resultLine(r);
                job.formatted = Clock::now();
                job.result = r;
                std::lock_guard<std::mutex> lock(mu);
                ready.push_back(std::move(job));
                cv.notify_one();
            };
            ++next;
            bool admitted = server.submit(spec, std::move(done));
            returned.push_back(Clock::now());
            if (!admitted) {
                ServedJob rejected = job;
                rejected.submitReturned = returned.back();
                rejected.result = bp5::serve::errorResult(job.id, "rejected");
                rejected.done = rejected.formatted = Clock::now();
                onDone(rejected);
                continue;
            }
            ++outstanding;
        }
        if (outstanding == 0)
            break;
        std::vector<ServedJob> batch;
        {
            std::unique_lock<std::mutex> lock(mu);
            cv.wait(lock, [&] { return !ready.empty(); });
            batch.swap(ready);
        }
        for (ServedJob &job : batch) {
            --outstanding;
            job.submitReturned = returned[size_t(job.id - firstId)];
            onDone(job);
        }
    }
}

void
ServeChecker::check(const ServedJob &job)
{
    const JobResult &r = job.result;
    std::string what = "job " + std::to_string(job.id) + " (" +
                       lines_[job.index] + ")";
    if (!r.ok) {
        verdict_.fail(what + ": error response " + r.error);
        return;
    }
    checkScore(verdict_, what, r.score, expected_[job.index]);
    checkCpiSum(verdict_, what, r.counters);

    // The answer as a client reads it back off the wire.
    bp5::obs::JsonValue doc;
    std::string err;
    const bp5::obs::JsonValue *id, *ok, *score, *insts, *cycles;
    if (!bp5::obs::parseJson(job.response, doc, err) ||
        !(id = doc.find("id")) || !(ok = doc.find("ok")) ||
        !(score = doc.find("score")) || !(insts = doc.find("instructions")) ||
        !(cycles = doc.find("cycles")) || id->number != double(job.id) ||
        !ok->boolean || score->number != double(r.score) ||
        insts->number != double(r.counters.instructions) ||
        cycles->number != double(r.counters.cycles))
        verdict_.fail(what + ": response line does not match the result: " +
                      job.response);

    // Every round serves the same jobs on reset machines, so the
    // counters must repeat exactly.
    if (!seen_[job.index]) {
        seen_[job.index] = true;
        counters_[job.index] = r.counters;
    } else if (!(counters_[job.index] == r.counters)) {
        verdict_.fail(what + ": counters differ from an earlier round");
    }
}

ServeChecker::ServeChecker(const std::vector<std::string> &lines,
                           Verdict &verdict)
    : lines_(lines), verdict_(verdict), expected_(lines.size()),
      counters_(lines.size()), seen_(lines.size(), false)
{
    JobReference ref;
    for (size_t i = 0; i < lines.size(); ++i) {
        JobSpec spec;
        std::string err;
        if (!bp5::serve::parseJobLine(lines[i], spec, err))
            bp5::panic("bad request line %s: %s", lines[i].c_str(),
                       err.c_str());
        specs_.push_back(spec);
        expected_[i] = ref.score(spec);
    }
}

bp5::sim::Counters
ServeChecker::roundCounters() const
{
    bp5::sim::Counters sum;
    for (const auto &k : counters_)
        sum.add(k);
    return sum;
}

void
ServeChecker::checkAgainstFresh()
{
    for (size_t i = 0; i < specs_.size(); ++i) {
        if (!seen_[i]) {
            verdict_.fail("job " + lines_[i] + " was never served");
            continue;
        }
        const JobSpec &spec = specs_[i];
        bp5::kernels::KernelMachine fresh(spec.kind, spec.variant,
                                          spec.machine);
        bp5::serve::JobInputs inputs;
        inputs.run(fresh, spec);
        checkResetEqualsFresh(verdict_, lines_[i], counters_[i],
                              fresh.totals());
    }
}

Outcome
runServe(const Options &o)
{
    Outcome out;
    const std::vector<std::string> lines = serveRequestLines(o.seed);
    ServeChecker checker(lines, out.verdict);
    AnswerLedger ledger;

    bp5::serve::ServerConfig cfg;
    cfg.shards = kServeShards;
    bp5::serve::Server server(cfg);

    // Set-up ends after one warm-up round: every shard has compiled
    // and built the machines and synthesized the inputs it met.
    uint64_t nextId = 0;
    serveClosedLoop(
        server, lines, kServeWindow, nextId,
        [](uint64_t) { return false; },
        [&](ServedJob &job) { checker.check(job); }, nullptr, out.verdict);
    nextId += lines.size();
    const Clock::time_point t0 = Clock::now();
    const double setup = seconds(processStart(), t0);

    // Rounds do not overlap, so a round lasts from the last answer of
    // the round before (or t0) to its own last answer.
    std::vector<Round> rounds;
    Clock::time_point roundStart = t0;
    serveClosedLoop(
        server, lines, kServeWindow, nextId,
        [&](uint64_t) { return seconds(t0, Clock::now()) < o.seconds; },
        [&](ServedJob &job) {
            ledger.answered(job.id, job.result.ok);
            checker.check(job);
            size_t round = size_t((job.id - nextId) / lines.size());
            if (round >= rounds.size())
                rounds.resize(round + 1);
            Round &r = rounds[round];
            r.latencyMs.push_back(seconds(job.submitted, job.done) * 1e3);
            if (r.latencyMs.size() == lines.size()) {
                r.seconds = seconds(roundStart, job.done);
                roundStart = job.done;
            }
        },
        &ledger, out.verdict);
    server.drain();

    checker.checkAgainstFresh();
    ledger.check(out.verdict);
    out.attempted = ledger.attempted();
    out.failed = ledger.failed();

    addRoundMetrics(out, setup, lines.size(), rounds,
                    checker.roundCounters());
    return out;
}

} // namespace perfbench
