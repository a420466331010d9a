/**
 * @file
 * Full-system trace simulation: cache hierarchy + branch predictors +
 * TLBs + Top-Down core model in one loop. This is the engine behind
 * Table I, Figures 2, 3, and 8: one pass produces MPKIs, branch
 * behaviour, TLB walks, the Top-Down breakdown, IPC, and AMAT.
 */

#ifndef WSEARCH_CPU_SYSTEM_HH
#define WSEARCH_CPU_SYSTEM_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "cpu/branch.hh"
#include "cpu/core_model.hh"
#include "cpu/tlb.hh"
#include "memsim/hierarchy.hh"
#include "memsim/simulator.hh"
#include "memsim/sweep.hh"
#include "trace/buffered_trace.hh"
#include "trace/record.hh"

namespace wsearch {

/** Configuration of a full system simulation. */
struct SystemConfig
{
    HierarchySpec hierarchy;
    CoreModelParams core;
    bool modelTlb = false;
    TlbConfig dtlb;  ///< data-side TLB (also used for instruction side)
};

/** Everything one system run produces. */
struct SystemResult
{
    uint64_t instructions = 0;
    CacheLevelStats l1i, l1d, l2, l3, l4;
    uint64_t l3Evictions = 0;
    uint64_t writebacks = 0;
    uint64_t backInvalidations = 0;
    // Coherence traffic (all zero when CoherenceProtocol::None).
    uint64_t cohUpgrades = 0;
    uint64_t cohInvalidations = 0;
    uint64_t cohDirtyWritebacks = 0;

    uint64_t branches = 0;
    uint64_t mispredicts = 0;

    uint64_t dtlbAccesses = 0;
    uint64_t dtlbWalks = 0;
    uint64_t itlbWalks = 0;

    TopDown topdown;
    double ipcPerThread = 0;  ///< per-hardware-thread IPC
    double amatL3Ns = 0;      ///< hL3*tL3 + (1-hL3)*t_miss-path
    /** Sampled measurement windows merged in (0 = exact run). */
    uint64_t sampledWindows = 0;
    /** Windows the estimate stands for (sum of plan weights; 0 = exact). */
    uint64_t representedWindows = 0;
    /** Variance of the weighted LLC-total-miss estimate (0 = exact). */
    double l3MissVar = 0;

    /** 95% confidence half-width on the l3 total-miss estimate. */
    double
    l3MissHalfWidth95() const
    {
        return 1.96 * std::sqrt(l3MissVar);
    }

    /** Lower/upper 95% band on the l3 total-miss estimate. */
    double
    l3MissBandLo() const
    {
        const double lo = static_cast<double>(l3.totalMisses()) -
            l3MissHalfWidth95();
        return lo > 0 ? lo : 0;
    }

    double
    l3MissBandHi() const
    {
        return static_cast<double>(l3.totalMisses()) +
            l3MissHalfWidth95();
    }

    /** Band half-width relative to the estimate (0 when exact). */
    double
    bandRelHalfWidth() const
    {
        const uint64_t m = l3.totalMisses();
        return m ? l3MissHalfWidth95() / static_cast<double>(m) : 0.0;
    }

    /**
     * Merge another result's raw counters (sampled-window
     * accumulation). Derived values (IPC, AMAT) are NOT merged; the
     * simulator recomputes them after the last window.
     */
    SystemResult &
    operator+=(const SystemResult &o)
    {
        instructions += o.instructions;
        l1i += o.l1i;
        l1d += o.l1d;
        l2 += o.l2;
        l3 += o.l3;
        l4 += o.l4;
        l3Evictions += o.l3Evictions;
        writebacks += o.writebacks;
        backInvalidations += o.backInvalidations;
        cohUpgrades += o.cohUpgrades;
        cohInvalidations += o.cohInvalidations;
        cohDirtyWritebacks += o.cohDirtyWritebacks;
        branches += o.branches;
        mispredicts += o.mispredicts;
        dtlbAccesses += o.dtlbAccesses;
        dtlbWalks += o.dtlbWalks;
        itlbWalks += o.itlbWalks;
        topdown += o.topdown;
        sampledWindows += o.sampledWindows;
        representedWindows += o.representedWindows;
        l3MissVar += o.l3MissVar;
        return *this;
    }

    double
    branchMpki() const
    {
        return instructions
            ? 1000.0 * static_cast<double>(mispredicts) /
                  static_cast<double>(instructions)
            : 0.0;
    }

    double
    l3LoadMpki() const
    {
        return l3.mpkiData(instructions);
    }

    double
    l2InstrMpki() const
    {
        return l2.mpki(AccessKind::Code, instructions);
    }

    /**
     * L3 hit rate over data accesses only -- what CAT-style
     * load-counter measurements (paper Figure 8a) observe, and the
     * input to the AMAT/Eq.1 models.
     */
    double
    l3DataHitRate() const
    {
        const uint64_t code_acc = l3.accessesOf(AccessKind::Code);
        const uint64_t code_miss = l3.missesOf(AccessKind::Code);
        const uint64_t acc = l3.totalAccesses() - code_acc;
        const uint64_t miss = l3.totalMisses() - code_miss;
        if (acc == 0)
            return 1.0;
        return 1.0 - static_cast<double>(miss) /
                     static_cast<double>(acc);
    }
};

/** The combined simulator. */
class SystemSimulator
{
  public:
    explicit SystemSimulator(const SystemConfig &cfg);

    /**
     * Simulate @p warmup then @p measure records from @p src.
     * Statistics cover the measurement phase only.
     */
    SystemResult run(TraceSource &src, uint64_t warmup,
                     uint64_t measure);

    /**
     * Chunked-replay variant over a materialized trace: bit-identical
     * counters to run(TraceSource&) on a fresh source producing the
     * same records, with no generation cost or staging copies.
     */
    SystemResult run(const BufferedTrace &trace, uint64_t warmup,
                     uint64_t measure);

    /**
     * Planned representative-window replay (see replayPlan): windows
     * visited in position order on this one system, predictor and
     * cache state carried across gaps. Derived metrics are recomputed
     * over the merged counters. A plan selecting every window with
     * weight 1 reproduces the exact contiguous replay bit-identically;
     * a disabled plan replays the whole trace exactly.
     */
    SystemResult runPlanned(const BufferedTrace &trace,
                            const SamplingPlan &plan);

    CacheHierarchy &hierarchy() { return hier_; }

  private:
    void step(const TraceRecord &r, bool tlb);
    void stepSpan(const TraceRecord *rec, size_t n);
    uint64_t pumpRange(const BufferedTrace &trace, uint64_t begin,
                       uint64_t count);
    void resetStats();
    /** Read the current counters off every component. */
    SystemResult harvest() const;
    /** Compute IPC / AMAT over @p res's (possibly merged) counters. */
    void finalizeDerived(SystemResult &res) const;

    SystemConfig cfg_;
    CacheHierarchy hier_;
    std::vector<TournamentPredictor> predictors_; ///< one per core
    std::vector<Tlb> dtlbs_;
    std::vector<Tlb> itlbs_;
    CoreModel core_; ///< aggregated slot accounting across threads
    uint64_t branches_ = 0;
    uint64_t mispredicts_ = 0;
    uint64_t itlbWalks_ = 0;
    uint64_t dtlbWalks_ = 0;
    uint64_t dtlbAccesses_ = 0;
};

} // namespace wsearch

#endif // WSEARCH_CPU_SYSTEM_HH
