/**
 * @file
 * The bp5-serve scheduling core: a bounded job queue in front of a
 * sharded pool of reusable simulated machines.
 *
 * One shard per worker thread.  Each shard owns its KernelMachines —
 * one per (kernel, variant, machine config), recycled across jobs via
 * KernelMachine::reset(), whose reset-equivalence guarantee (tested
 * since PR 1) makes every job's counters bit-identical to a run on a
 * freshly constructed machine — plus a JobInputs synthesis cache.
 * Shards pull jobs in batches and stable-sort each batch by machine
 * key, so a stream mixing configurations amortizes the expensive part
 * (compiling a kernel for a config the shard has not seen) and keeps
 * same-config jobs consecutive.
 *
 * Admission control is reject-with-error: submit() fails fast when
 * the bounded queue is full (the daemon answers
 * {"ok": false, "error": "queue full ..."}), or can optionally block
 * for backpressure (offline file mode).  drain() closes the queue —
 * in-flight and already-admitted jobs complete, new work is rejected
 * — and then joins the shards; per-job latency (admission to
 * completion) and service-time histograms survive for reporting.
 */

#ifndef BIOPERF5_SERVE_SERVER_H
#define BIOPERF5_SERVE_SERVER_H

#include <chrono>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/job.h"
#include "serve/queue.h"
#include "support/histogram.h"
#include "support/result.h"
#include "support/thread_pool.h"

namespace bp5::serve {

struct ShardState; ///< shard-local machines + input caches (server.cc)

/** Server construction knobs. */
struct ServerConfig
{
    unsigned shards = 0;     ///< worker count; 0 = hardware concurrency
    size_t queueDepth = 1024; ///< bounded-queue capacity (admission)
    unsigned batchMax = 32;  ///< max jobs one shard pulls at once
    /** JSON-Lines manifest ("" = off): one record per service batch
     *  (a row per job, with counters, cpi_* cells and lat_us) plus a
     *  summary record at drain. */
    std::string manifestPath;
    /** Instructions one job may retire before it fails with an error
     *  response (lowered only by tests, to make that failure fast). */
    uint64_t instructionCap = kernels::kDefaultInstructionCap;
};

/** Aggregate server statistics (consistent snapshot via stats()). */
struct ServerStats
{
    uint64_t accepted = 0;  ///< admitted to the queue
    uint64_t rejected = 0;  ///< refused at admission (queue full/closed)
    uint64_t completed = 0; ///< jobs served (ok responses)
    uint64_t failed = 0;    ///< jobs that errored during service
    uint64_t batches = 0;   ///< service batches pulled by shards
    uint64_t configSwitches = 0; ///< machine-key changes within batches
};

/** Sharded batch server over reusable simulated machines. */
class Server
{
  public:
    /** Called on the serving shard's thread when a job finishes. */
    using ResultFn = std::function<void(const JobResult &)>;

    /** One queued unit: the job plus its completion plumbing. */
    struct Item
    {
        JobSpec spec;
        ResultFn done;
        std::chrono::steady_clock::time_point admitted;
    };

    explicit Server(const ServerConfig &config);

    /** Drains (if not already drained) and joins the shards. */
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    unsigned shards() const { return shards_; }
    const ServerConfig &config() const { return config_; }

    /**
     * Admit @p spec.  @return false when the queue is at capacity (or
     * the server is draining) — the job is *not* queued and @p done
     * will never be called; with @p block the call instead waits for
     * space (backpressure) and only fails once draining.
     */
    bool submit(const JobSpec &spec, ResultFn done, bool block = false);

    /**
     * Graceful shutdown: stop admitting, let every queued and
     * in-flight job complete, join the shards, then append the
     * summary manifest record.  Idempotent.
     */
    void drain();

    /** Consistent snapshot of the counters. */
    ServerStats stats() const;

    /** Admission-to-completion latency of served jobs (microseconds). */
    support::Log2Histogram latencyHistogram() const;

    /** Kernel-execution time of served jobs (microseconds). */
    support::Log2Histogram serviceHistogram() const;

    /**
     * The summary ResultRow drain() appends to the manifest
     * (throughput, latency percentiles); empty cells before drain().
     */
    support::ResultRow summaryRow() const;

  private:
    void shardMain(unsigned shard);
    void serveBatch(unsigned shard, ShardState &state,
                    std::vector<Item> &batch);

    ServerConfig config_;
    unsigned shards_;
    BoundedQueue<Item> queue_;
    support::ThreadPool pool_;
    std::thread runner_; ///< hosts the blocking shard parallelFor
    std::chrono::steady_clock::time_point started_;

    std::mutex drainMu_;    ///< serializes drain() callers
    mutable std::mutex mu_; ///< stats, histograms, manifest appends
    ServerStats stats_;
    support::Log2Histogram latencyUs_;
    support::Log2Histogram serviceUs_;
    support::ResultRow summary_;
    double drainWallSeconds_ = 0.0;
    bool drained_ = false;
};

} // namespace bp5::serve

#endif // BIOPERF5_SERVE_SERVER_H
