#include "serve/server.h"

#include <algorithm>
#include <cinttypes>
#include <memory>

#include "obs/manifest.h"
#include "support/logging.h"

namespace bp5::serve {

/** Shard-local serving state: machines + input caches, untouched by
 *  any other thread. */
struct ShardState
{
    /**
     * One machine per (kernel, variant, machine config), recycled via
     * reset() — reset-equivalence makes reuse indistinguishable from
     * a fresh machine, which is what keeps per-job counters
     * bit-identical to standalone runs.
     */
    kernels::KernelMachine &
    machineFor(kernels::KernelKind kind, mpc::Variant variant,
               const sim::MachineConfig &mc)
    {
        for (Entry &e : machines) {
            if (e.kind == kind && e.variant == variant && e.config == mc) {
                e.km->reset();
                return *e.km;
            }
        }
        machines.push_back(
            {kind, variant, mc,
             std::make_unique<kernels::KernelMachine>(kind, variant, mc)});
        return *machines.back().km;
    }

    /** Discard @p km (after a failed job) so its key builds afresh. */
    void
    drop(const kernels::KernelMachine &km)
    {
        std::erase_if(machines,
                      [&km](const Entry &e) { return e.km.get() == &km; });
    }

    struct Entry
    {
        kernels::KernelKind kind;
        mpc::Variant variant;
        sim::MachineConfig config;
        std::unique_ptr<kernels::KernelMachine> km;
    };

    std::vector<Entry> machines;
    JobInputs inputs;
};

namespace {

/** Jobs with equal machine keys run consecutively on one machine. */
bool
sameMachineKey(const JobSpec &a, const JobSpec &b)
{
    return a.kind == b.kind && a.variant == b.variant &&
           a.machine == b.machine;
}

/**
 * Stable grouping by machine key (MachineConfig has no ordering, only
 * equality): first-appearance order of keys, original order within a
 * key.  Batches are small (batchMax), so the quadratic scan is noise
 * next to even one simulated invocation.
 */
void
groupByMachine(std::vector<size_t> &order,
               const std::vector<Server::Item> &batch)
{
    order.clear();
    std::vector<bool> placed(batch.size(), false);
    for (size_t i = 0; i < batch.size(); ++i) {
        if (placed[i])
            continue;
        for (size_t j = i; j < batch.size(); ++j) {
            if (!placed[j] &&
                sameMachineKey(batch[i].spec, batch[j].spec)) {
                order.push_back(j);
                placed[j] = true;
            }
        }
    }
}

} // namespace

Server::Server(const ServerConfig &config)
    : config_(config),
      shards_(config.shards
                  ? config.shards
                  : std::max(1u, std::thread::hardware_concurrency())),
      queue_(config.queueDepth ? config.queueDepth : 1),
      pool_(shards_),
      started_(std::chrono::steady_clock::now())
{
    runner_ = std::thread([this] {
        pool_.parallelFor(shards_, [this](unsigned, size_t shard) {
            shardMain(unsigned(shard));
        });
    });
}

Server::~Server()
{
    drain();
}

bool
Server::submit(const JobSpec &spec, ResultFn done, bool block)
{
    Item item{spec, std::move(done),
              std::chrono::steady_clock::now()};
    bool admitted = block ? queue_.push(std::move(item))
                          : queue_.tryPush(std::move(item));
    std::lock_guard<std::mutex> lock(mu_);
    if (admitted)
        ++stats_.accepted;
    else
        ++stats_.rejected;
    return admitted;
}

void
Server::shardMain(unsigned shard)
{
    ShardState state;
    std::vector<Item> batch;
    for (;;) {
        batch.clear();
        if (queue_.popBatch(batch, config_.batchMax) == 0)
            break; // drained
        serveBatch(shard, state, batch);
    }
}

void
Server::serveBatch(unsigned shard, ShardState &state,
                   std::vector<Item> &batch)
{
    std::vector<size_t> order;
    groupByMachine(order, batch);

    std::vector<JobResult> results(batch.size());
    std::vector<support::ResultRow> rows;
    uint64_t switches = 0;
    const JobSpec *prev = nullptr;

    for (size_t idx : order) {
        Item &item = batch[idx];
        const JobSpec &spec = item.spec;
        if (prev != nullptr && !sameMachineKey(*prev, spec))
            ++switches;
        prev = &spec;

        kernels::KernelMachine &km =
            state.machineFor(spec.kind, spec.variant, spec.machine);
        km.setInstructionCap(config_.instructionCap);
        auto t0 = std::chrono::steady_clock::now();
        JobResult &r = results[idx];
        r.id = spec.id;
        r.shard = shard;
        kernels::Invocation inv = state.inputs.tryRun(km, spec);
        r.ok = inv.ok();
        if (r.ok) {
            r.score = inv.score;
            r.counters = km.totals();
        } else {
            // The machine stopped mid-run: the next job with this key
            // gets a fresh one.
            r.error = std::move(inv.error);
            state.drop(km);
        }
        auto t1 = std::chrono::steady_clock::now();
        r.serviceUs =
            std::chrono::duration<double, std::micro>(t1 - t0).count();
        r.latencyUs = std::chrono::duration<double, std::micro>(
                          t1 - item.admitted)
                          .count();

        if (r.ok && !config_.manifestPath.empty()) {
            obs::RunInfo info;
            info.tool = "bp5-serve";
            info.workload = kernels::kernelName(spec.kind);
            info.variant = mpc::variantName(spec.variant);
            info.input = strprintf("n=%u seed=%" PRIu64, spec.n,
                                   spec.seed);
            info.invocations = 1;
            info.wallSeconds = r.serviceUs / 1e6;
            info.machine = spec.machine;
            info.counters = r.counters;
            support::ResultRow row = obs::manifestRow(info);
            row.set("kind", "job")
                .set("job_id", spec.id)
                .set("shard", shard)
                .set("lat_us", r.latencyUs, 1);
            rows.push_back(std::move(row));
        }
    }

    {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.batches;
        stats_.configSwitches += switches;
        for (const JobResult &r : results) {
            if (r.ok)
                ++stats_.completed;
            else
                ++stats_.failed;
            latencyUs_.add(uint64_t(r.latencyUs));
            serviceUs_.add(uint64_t(r.serviceUs));
        }
        if (!rows.empty())
            obs::appendManifest(config_.manifestPath, rows,
                                "serve-manifest");
    }

    // Callbacks run outside the stats lock, in admission order within
    // the batch (not service order), so responses for one client read
    // naturally even when batching reorders execution.
    for (size_t i = 0; i < batch.size(); ++i) {
        if (batch[i].done)
            batch[i].done(results[i]);
    }
}

void
Server::drain()
{
    std::lock_guard<std::mutex> drainLock(drainMu_);
    queue_.close();
    if (runner_.joinable())
        runner_.join();

    std::lock_guard<std::mutex> lock(mu_);
    if (drained_)
        return;
    drained_ = true;
    drainWallSeconds_ = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - started_)
                            .count();

    summary_.set("tool", "bp5-serve")
        .set("kind", "summary")
        .set("shards", shards_)
        .set("queue_depth", uint64_t(config_.queueDepth))
        .set("batch_max", config_.batchMax)
        .set("accepted", stats_.accepted)
        .set("rejected", stats_.rejected)
        .set("completed", stats_.completed)
        .set("failed", stats_.failed)
        .set("batches", stats_.batches)
        .set("config_switches", stats_.configSwitches)
        .set("wall_s", drainWallSeconds_, 3)
        .set("jobs_per_s",
             drainWallSeconds_ > 0.0
                 ? double(stats_.completed) / drainWallSeconds_
                 : 0.0,
             1)
        .set("lat_p50_us", latencyUs_.percentile(50))
        .set("lat_p95_us", latencyUs_.percentile(95))
        .set("lat_p99_us", latencyUs_.percentile(99))
        .set("service_p50_us", serviceUs_.percentile(50))
        .set("service_p95_us", serviceUs_.percentile(95))
        .set("service_p99_us", serviceUs_.percentile(99));
    if (!config_.manifestPath.empty())
        obs::appendManifest(config_.manifestPath, {summary_},
                            "serve-summary");
}

ServerStats
Server::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
}

support::Log2Histogram
Server::latencyHistogram() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return latencyUs_;
}

support::Log2Histogram
Server::serviceHistogram() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return serviceUs_;
}

support::ResultRow
Server::summaryRow() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return summary_;
}

} // namespace bp5::serve
