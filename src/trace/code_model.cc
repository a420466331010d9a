#include "trace/code_model.hh"

#include <algorithm>

#include "util/logging.hh"
#include "util/units.hh"

namespace wsearch {

CodeModel::CodeModel(const CodeModelConfig &cfg, uint64_t base_pc,
                     uint64_t struct_seed, uint64_t walk_seed)
    : cfg_(cfg), basePc_(base_pc), structSeed_(struct_seed),
      rng_(walk_seed),
      numFns_(static_cast<uint32_t>(
          std::max<uint64_t>(1, cfg.footprintBytes / cfg.functionBytes))),
      fnZipf_(numFns_, cfg.functionTheta),
      fnScramble_(numFns_, struct_seed ^ 0x5eedull)
{
    wsearch_assert(cfg_.instrBytes > 0 && isPow2(cfg_.instrBytes));
    wsearch_assert(cfg_.functionBytes >= 8 * cfg_.instrBytes);
    callNewFunction();
}

uint32_t
CodeModel::structDraw(uint64_t pc, double mean, uint64_t salt) const
{
    const uint64_t span = std::max<uint64_t>(
        1, static_cast<uint64_t>(2.0 * mean) - 1);
    return 1 + static_cast<uint32_t>(mix64(pc ^ structSeed_ ^ salt) %
                                     span);
}

void
CodeModel::startRegion()
{
    regionStart_ = curPc_;
    // Basic-block length is a static property of the code location.
    regionLen_ = structDraw(curPc_, cfg_.branchEvery, 0x1eadull);
    remainingInRegion_ = regionLen_;
    // Whether the region is a loop is static, and so (mostly) is its
    // trip count: real loops iterate over fixed-size structures far
    // more often than over random-length ones, which is what makes
    // loop exits predictable on real hardware.
    const bool is_loop = static_cast<double>(
        mix64(curPc_ ^ structSeed_ ^ 0x100bull) >> 11) * 0x1.0p-53 <
        cfg_.loopRepeatProb;
    if (is_loop) {
        loopsLeft_ = structDraw(curPc_, cfg_.loopMeanIters, 0x717eull);
        if (rng_.nextBool(cfg_.loopTripNoise))
            loopsLeft_ += static_cast<uint32_t>(rng_.nextRange(3));
    } else {
        loopsLeft_ = 0;
    }
}

void
CodeModel::callNewFunction()
{
    const uint64_t rank = fnZipf_.sample(rng_);
    const uint64_t idx = fnScramble_.apply(rank);
    const uint64_t entry = functionEntry(static_cast<uint32_t>(idx));
    fnEnd_ = entry + cfg_.functionBytes;
    curPc_ = entry;
    startRegion();
}

void
CodeModel::emitBranch(FetchedInstr &out, bool must_end_fn)
{
    out.isBranch = true;
    if (must_end_fn && loopsLeft_ == 0) {
        // Tail call / call to the next Zipf-selected function.
        callNewFunction();
        out.taken = true;
        return;
    }
    if (loopsLeft_ > 0) {
        // Loop back-edge: highly predictable taken branch.
        --loopsLeft_;
        out.taken = true;
        curPc_ = regionStart_;
        remainingInRegion_ = regionLen_;
        return;
    }
    // Conditional branch ending the region. Whether the branch is
    // data-dependent is a persistent property of its PC (a static
    // branch either tests data or it does not); data-dependent
    // branches flip per visit, regular ones have a persistent per-PC
    // direction with small per-visit noise -- that is what makes the
    // former irreducible and the latter learnable by predictors.
    const uint64_t pc_hash = mix64(out.pc ^ structSeed_);
    const bool data_dep = static_cast<double>(pc_hash >> 11) *
        0x1.0p-53 < cfg_.dataDepBranchFrac;
    bool taken;
    if (data_dep) {
        taken = rng_.nextBool(0.5);
    } else {
        const bool bias_taken = static_cast<double>(
            mix64(pc_hash) >> 11) * 0x1.0p-53 < cfg_.takenBias;
        taken = rng_.nextBool(cfg_.branchNoise) ? !bias_taken
                                                : bias_taken;
    }
    out.taken = taken;
    if (taken) {
        // Short forward skip; its length is a static property of the
        // branch.
        const uint64_t skip = cfg_.instrBytes *
            structDraw(out.pc, 6.0, 0x5017ull);
        uint64_t next_pc = curPc_ + cfg_.instrBytes + skip;
        if (next_pc + cfg_.instrBytes >= fnEnd_)
            next_pc = fnEnd_ - 2 * cfg_.instrBytes;
        if (next_pc <= curPc_)
            next_pc = curPc_ + cfg_.instrBytes;
        curPc_ = next_pc;
    } else {
        curPc_ += cfg_.instrBytes;
    }
    startRegion();
}

} // namespace wsearch
