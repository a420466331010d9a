/**
 * @file
 * Load generators for the serving runtime, the two canonical shapes
 * from datacenter tail-latency methodology:
 *
 *  - open loop: Poisson arrivals at a target offered QPS, submitted
 *    without waiting for completions (shed on overload). Arrival
 *    deadlines are absolute, so scheduling jitter bursts late
 *    arrivals instead of silently lowering the offered rate. This is
 *    the generator that exposes the throughput-latency knee.
 *
 *  - closed loop: C concurrent clients, each waiting for its reply
 *    before issuing the next query. Throughput self-limits to system
 *    capacity; used to calibrate the saturation point.
 *
 * Both sample the queue depth periodically from a sampler thread and
 * return a LoadReport built from the pool's snapshot, so run a fresh
 * pool per measurement point.
 */

#ifndef WSEARCH_SERVE_LOADGEN_HH
#define WSEARCH_SERVE_LOADGEN_HH

#include <cstdint>

#include "search/query.hh"
#include "serve/cluster.hh"
#include "serve/serve_stats.hh"
#include "serve/worker_pool.hh"

namespace wsearch {

/** Parameters shared by both generator shapes. */
struct LoadGenConfig
{
    /** Open loop: target offered rate (queries per second). */
    double offeredQps = 5000.0;
    /** Closed loop: number of concurrent clients. */
    uint32_t clients = 4;
    /** Total queries to issue (per run, across all clients). */
    uint64_t numQueries = 10000;
    /** Traffic shape (must match the shard's vocabulary). */
    QueryGenerator::Config queries;
    uint64_t seed = 0x10adull;
};

/** Outcome of one load-generation run. */
struct LoadReport
{
    double durationSec = 0.0;
    double offeredQps = 0.0;  ///< submitted / duration
    double achievedQps = 0.0; ///< (completed + cacheHits) / duration
    double shedFraction = 0.0;

    /** Pool snapshot taken after drain. */
    ServeSnapshot snap;

    uint64_t maxQueueDepth = 0;
    double meanQueueDepth = 0.0;
};

/**
 * Poisson open-loop run against @p pool (use a freshly constructed
 * pool: the report is built from its cumulative snapshot).
 */
LoadReport runOpenLoop(LeafWorkerPool &pool, const LoadGenConfig &cfg);

/** Closed-loop run with cfg.clients concurrent clients. */
LoadReport runClosedLoop(LeafWorkerPool &pool,
                         const LoadGenConfig &cfg);

/** Outcome of one scatter-gather load run. */
struct ClusterLoadReport
{
    double durationSec = 0.0;
    double achievedQps = 0.0;

    /** Cluster snapshot taken after all clients finished. */
    ClusterSnapshot snap;

    /** Backup executions per primary leaf execution: the hedge
     *  load-amplification factor (0 = no extra leaf work). */
    double
    extraLeafLoad() const
    {
        const uint64_t primaries = snap.queries *
            (snap.shards.empty() ? 1 : snap.shards.size());
        const uint64_t executed = snap.leafExecuted();
        return primaries && executed > primaries
            ? static_cast<double>(executed - primaries) /
                static_cast<double>(primaries)
            : 0.0;
    }
};

/**
 * Closed-loop scatter-gather run: cfg.clients front-end threads each
 * issuing ClusterServer::handle back-to-back until cfg.numQueries
 * have been issued cluster-wide. Use a fresh cluster per measurement
 * point (the report is built from its cumulative snapshot).
 */
ClusterLoadReport runClusterClosedLoop(ClusterServer &cluster,
                                       const LoadGenConfig &cfg);

} // namespace wsearch

#endif // WSEARCH_SERVE_LOADGEN_HH
