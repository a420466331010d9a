/**
 * @file
 * The benchmark workloads. Each builds its inputs from the seed,
 * measures for the requested seconds, checks its outputs, and fills an
 * Outcome with every end-to-end metric (untraced run) or every
 * per-layer metric (traced run). See RATIONALE.md for why each exists.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include "harness.hh"

namespace perfbench {

Outcome runSimLadder(const Args &args);
Outcome runServeHot(const Args &args);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
