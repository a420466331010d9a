/**
 * @file
 * Deterministic fault injection for the sharded serving stack.
 *
 * A FaultPlan describes, per (shard, replica), what can go wrong and
 * how often: added service delays, stuck-worker hangs (a delay far
 * beyond any deadline), instant execution failures, silently dropped
 * completions, corrupted/truncated leaf responses, and crashed
 * replicas (refuse everything between crashAtNs and recoverAtNs).
 * LeafWorkerPool consults the plan at exactly two boundaries:
 *
 *  - admission (LeafWorkerPool::submit*): a crashed replica refuses
 *    the request instantly, the way a dead TCP endpoint does;
 *  - execution (the worker loop, after it pops a request): delays and
 *    hangs are slept on the pool's Clock (virtual under SimClock),
 *    failures/drops/corruption are applied around the real engine
 *    call.
 *
 * Determinism: every probabilistic decision is a stateless hash of
 * (seed, shard, replica, query id) -- no draw order, no shared RNG
 * state -- so a given plan makes identical decisions for a given
 * query stream regardless of thread interleaving. Crash windows are
 * functions of the clock, which tests pin with SimClock.
 *
 * Configure specs before traffic starts; the decision path is const
 * and thread-safe. The plan is header-only so the live index's merge
 * worker, which sits below the serving library, can consult it too.
 */

#ifndef WSEARCH_SERVE_FAULT_HH
#define WSEARCH_SERVE_FAULT_HH

#include <cstdint>
#include <unordered_map>

#include "util/rng.hh"

namespace wsearch {

/** What the injector decided for one execution. */
struct FaultDecision
{
    /** Added service latency (slept on the pool's Clock before the
     *  engine runs; hangs are just very large delays). */
    uint64_t delayNs = 0;
    /** Replica answers with an explicit failure (no execution). */
    bool fail = false;
    /** Executes normally, but the completion callback is suppressed
     *  -- the caller sees silence, as with a lost response packet. */
    bool dropReply = false;
    /** Reply payload is truncated/perturbed after execution. */
    bool corrupt = false;
};

/** Per-replica fault probabilities and windows (all default benign). */
struct FaultSpec
{
    /** Probability of an added service delay, uniform in
     *  [delayMinNs, delayMaxNs]. */
    double delayProb = 0.0;
    uint64_t delayMinNs = 0;
    uint64_t delayMaxNs = 0;

    /** Probability of a stuck worker: a delay of hangNs, sized far
     *  beyond any deadline (bounded so RealClock teardown cannot
     *  block forever; SimClock tests may raise it arbitrarily). */
    double hangProb = 0.0;
    uint64_t hangNs = 250'000'000; // 250 ms

    /** Probability the execution fails outright (connection reset). */
    double failProb = 0.0;

    /** Probability the completion is silently dropped. */
    double dropProb = 0.0;

    /** Probability the reply payload is corrupted/truncated. */
    double corruptProb = 0.0;

    /** Probability a background merge crashes mid-build (live index;
     *  drawn per merge sequence number, shard-wide). */
    double mergeCrashProb = 0.0;

    /** Probability a snapshot handoff reaches the replica torn (drawn
     *  per (shard, replica, snapshot version)). */
    double handoffCorruptProb = 0.0;

    /** Crash window: the replica refuses all requests (admission and
     *  execution) while crashAtNs <= now < recoverAtNs. 0 crashAtNs =
     *  never crashes; 0 recoverAtNs = never recovers. */
    uint64_t crashAtNs = 0;
    uint64_t recoverAtNs = 0;

    bool
    crashed(uint64_t now_ns) const
    {
        return crashAtNs != 0 && now_ns >= crashAtNs &&
            (recoverAtNs == 0 || now_ns < recoverAtNs);
    }
};

/**
 * Seeded, per-replica fault plan. Replica-specific specs override the
 * default spec.
 */
class FaultPlan
{
  public:
    explicit FaultPlan(uint64_t seed = 0x5eedfa17ull) : seed_(seed) {}

    /** Spec applied to replicas without an override (mutable for
     *  setup; do not modify once traffic runs). */
    FaultSpec &defaultSpec() { return default_; }

    /** Override the spec for one (shard, replica). */
    FaultSpec &
    replicaSpec(uint32_t shard, uint32_t replica)
    {
        return overrides_[key(shard, replica)];
    }

    /**
     * Admission-time check (connection establishment): false means
     * the replica is crashed and refuses the request instantly.
     */
    bool
    admit(uint32_t shard, uint32_t replica, uint64_t /*query_id*/,
          uint64_t now_ns) const
    {
        return !specFor(shard, replica).crashed(now_ns);
    }

    /** Execution-time decision, consulted by a worker after pop. */
    FaultDecision
    onExecute(uint32_t shard, uint32_t replica, uint64_t query_id,
              uint64_t now_ns) const
    {
        const FaultSpec &spec = specFor(shard, replica);
        FaultDecision d;
        // A request already queued when the replica crashed still
        // fails: a dead process executes nothing.
        if (spec.crashed(now_ns) ||
            hit(spec.failProb, shard, replica, query_id, kSaltFail)) {
            d.fail = true;
            return d;
        }
        if (hit(spec.hangProb, shard, replica, query_id, kSaltHang)) {
            d.delayNs = spec.hangNs;
        } else if (hit(spec.delayProb, shard, replica, query_id,
                       kSaltDelay)) {
            const uint64_t span = spec.delayMaxNs > spec.delayMinNs
                ? spec.delayMaxNs - spec.delayMinNs
                : 0;
            d.delayNs = spec.delayMinNs +
                (span ? static_cast<uint64_t>(
                            draw(shard, replica, query_id,
                                 kSaltDelayMag) *
                            static_cast<double>(span + 1))
                      : 0);
        }
        d.dropReply =
            hit(spec.dropProb, shard, replica, query_id, kSaltDrop);
        d.corrupt = hit(spec.corruptProb, shard, replica, query_id,
                        kSaltCorrupt);
        return d;
    }

    /**
     * Should merge number @p merge_seq on @p shard crash mid-build?
     * Consulted by MergeWorker before running a merge; true abandons
     * it partway (the live index discards the partial output).
     * Shard-wide: replica 0's spec, drawn on the merge sequence.
     */
    bool
    crashMerge(uint32_t shard, uint64_t merge_seq,
               uint64_t /*now_ns*/) const
    {
        return hit(specFor(shard, 0).mergeCrashProb, shard, 0,
                   merge_seq, kSaltMergeCrash);
    }

    /**
     * Should the handoff of snapshot @p version to (shard, replica)
     * arrive corrupted? Consulted by the rollout path; true makes the
     * replica receive a torn copy, which adoption-time validation
     * must reject. Drawn per (shard, replica, snapshot version).
     */
    bool
    corruptHandoff(uint32_t shard, uint32_t replica, uint64_t version,
                   uint64_t /*now_ns*/) const
    {
        return hit(specFor(shard, replica).handoffCorruptProb, shard,
                   replica, version, kSaltHandoff);
    }

    uint64_t seed() const { return seed_; }

  private:
    static constexpr uint64_t kSaltDelay = 0xde1a;
    static constexpr uint64_t kSaltDelayMag = 0xde1b;
    static constexpr uint64_t kSaltHang = 0xa4a6;
    static constexpr uint64_t kSaltFail = 0xfa11;
    static constexpr uint64_t kSaltDrop = 0xd209;
    static constexpr uint64_t kSaltCorrupt = 0xc099;
    static constexpr uint64_t kSaltMergeCrash = 0x3e49;
    static constexpr uint64_t kSaltHandoff = 0x4a0d;

    static uint64_t
    key(uint32_t shard, uint32_t replica)
    {
        return (static_cast<uint64_t>(shard) << 32) | replica;
    }

    const FaultSpec &
    specFor(uint32_t shard, uint32_t replica) const
    {
        const auto it = overrides_.find(key(shard, replica));
        return it != overrides_.end() ? it->second : default_;
    }

    /**
     * Stateless uniform double in [0, 1) for one (plan, replica,
     * query, fault-kind) tuple. Each fault kind mixes a distinct salt
     * so the draws are independent of one another and of any
     * evaluation order.
     */
    double
    draw(uint32_t shard, uint32_t replica, uint64_t id,
         uint64_t salt) const
    {
        uint64_t h = seed_;
        h = mix64(h ^ (0x9e3779b97f4a7c15ull +
                       (static_cast<uint64_t>(shard) << 32 | replica)));
        h = mix64(h ^ id);
        h = mix64(h ^ salt);
        return static_cast<double>(h >> 11) * 0x1.0p-53;
    }

    /** True with probability @p prob (never drawn when 0). */
    bool
    hit(double prob, uint32_t shard, uint32_t replica, uint64_t id,
        uint64_t salt) const
    {
        return prob > 0.0 && draw(shard, replica, id, salt) < prob;
    }

    uint64_t seed_;
    FaultSpec default_;
    std::unordered_map<uint64_t, FaultSpec> overrides_;
};

} // namespace wsearch

#endif // WSEARCH_SERVE_FAULT_HH
