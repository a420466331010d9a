/**
 * @file
 * Synthetic instruction-stream model. Models the search binary as a
 * large set of functions whose invocation frequency follows a Zipf
 * distribution over a multi-MiB code footprint, with sequential fetch
 * inside basic blocks, short loops, and a calibrated fraction of
 * hard-to-predict (data-dependent) branches. This reproduces the
 * paper's signature front-end behaviour: a code working set that
 * overflows private L2 caches but is fully captured by a shared L3.
 */

#ifndef WSEARCH_TRACE_CODE_MODEL_HH
#define WSEARCH_TRACE_CODE_MODEL_HH

#include <cstdint>

#include "util/rng.hh"
#include "util/scramble.hh"
#include "util/zipf.hh"

namespace wsearch {

/** Configuration of the synthetic code path model. */
struct CodeModelConfig
{
    uint64_t footprintBytes = 4ull << 20; ///< total code working set
    uint32_t functionBytes = 2048;        ///< function body size
    double functionTheta = 0.65;          ///< Zipf skew of called functions
    double branchEvery = 6.0;             ///< mean instrs between branches
    double dataDepBranchFrac = 0.105;     ///< fraction of branches that
                                          ///< are data-dependent coin
                                          ///< flips (hard to predict)
    double takenBias = 0.72;              ///< fraction of static branches
                                          ///< whose persistent direction
                                          ///< is taken
    double branchNoise = 0.03;            ///< per-visit flip probability
                                          ///< of a regular branch
    double loopRepeatProb = 0.45;         ///< prob a region re-executes
    double loopMeanIters = 3.0;           ///< mean extra loop iterations
    double loopTripNoise = 0.15;          ///< prob a loop visit deviates
                                          ///< from its static trip count
    uint32_t instrBytes = 4;              ///< bytes per instruction
};

/** Output of one step of the code model. */
struct FetchedInstr
{
    uint64_t pc;
    bool isBranch;
    bool taken;
};

/**
 * Walks a synthetic call graph, producing one instruction per next()
 * call. Deterministic given the seed.
 */
class CodeModel
{
  public:
    /**
     * @param struct_seed determines the static binary structure
     *        (function layout, basic-block lengths, branch kinds and
     *        biases); must be the same for every thread of a process
     * @param walk_seed   per-thread randomness (call choices, branch
     *        outcomes, loop trip counts)
     */
    CodeModel(const CodeModelConfig &cfg, uint64_t base_pc,
              uint64_t struct_seed, uint64_t walk_seed);

    /** Produce the next dynamic instruction. */
    FetchedInstr
    next()
    {
        FetchedInstr out;
        out.pc = curPc_;
        const bool must_end_fn = curPc_ + cfg_.instrBytes >= fnEnd_;
        if (remainingInRegion_ == 0 || must_end_fn) {
            emitBranch(out, must_end_fn);
        } else {
            out.isBranch = false;
            out.taken = false;
            --remainingInRegion_;
            curPc_ += cfg_.instrBytes;
        }
        return out;
    }

    /** Number of functions in the synthetic binary. */
    uint32_t numFunctions() const { return numFns_; }

    /** Entry PC of function index @p idx. */
    uint64_t
    functionEntry(uint32_t idx) const
    {
        return basePc_ + static_cast<uint64_t>(idx) * cfg_.functionBytes;
    }

    /** One past the highest code address the model can emit. */
    uint64_t
    codeLimit() const
    {
        return basePc_ + static_cast<uint64_t>(numFns_) *
            cfg_.functionBytes;
    }

  private:
    void emitBranch(FetchedInstr &out, bool must_end_fn);
    void callNewFunction();
    void startRegion();
    /** Deterministic per-PC draw in [1, 2*mean) (static structure). */
    uint32_t structDraw(uint64_t pc, double mean, uint64_t salt) const;

    CodeModelConfig cfg_;
    uint64_t basePc_;
    uint64_t structSeed_;
    Rng rng_;
    uint32_t numFns_;
    ZipfSampler fnZipf_;
    DomainScrambler fnScramble_;

    // Current execution state.
    uint64_t curPc_ = 0;       ///< next fetch pc
    uint64_t fnEnd_ = 0;       ///< one past last pc of current function
    uint64_t regionStart_ = 0; ///< loop region start pc
    uint32_t regionLen_ = 0;   ///< instrs in the current region
    uint32_t remainingInRegion_ = 0;
    uint32_t loopsLeft_ = 0;   ///< times the current region re-executes
};

} // namespace wsearch

#endif // WSEARCH_TRACE_CODE_MODEL_HH
