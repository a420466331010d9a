/**
 * @file
 * Ablations of the design choices DESIGN.md calls out, beyond the
 * paper's own sensitivity bars:
 *
 *  1. L4 fill policy: victim-of-LLC (the paper's memory-side design)
 *     vs conventional allocate-on-miss.
 *  2. Inclusive vs non-inclusive L3 (the paper notes CAT-induced
 *     back-invalidations make its measured results conservative).
 *  3. CAT way-partitioning vs a dedicated same-capacity cache
 *     (partitioning reduces associativity, adding conflicts).
 *  4. L3 replacement policy: LRU vs random vs SRRIP vs DRRIP.
 *
 * Two sweep sections: "l4_fill" (study 1, on the 1/32-scale sweep
 * profile) and "leaf" (studies 2-4 on the S1 leaf, one sweep so they
 * share one trace buffer). Exact replay; --smoke samples like every
 * other driver. Emits BENCH_ablation.json through the standard frame:
 * one rows[] element per (study, variant) with the deterministic
 * counters bench_diff.py gates on.
 */

#include <cstdio>
#include <iterator>
#include <vector>

#include "common.hh"
#include "util/table.hh"

namespace wsearch {
namespace {

void
addRow(bench::JsonWriter &json, const char *study, const char *variant,
       const SystemResult &r)
{
    json.beginObject();
    json.add("study", std::string(study));
    json.add("variant", std::string(variant));
    bench::addResultCounters(json, r);
    json.endObject();
}

void
l4FillPolicy(bench::JsonWriter &json,
             const std::vector<SystemResult> &results)
{
    std::printf("--- L4 fill policy (victim vs allocate-on-miss) ---\n");
    Table t({"Fill policy", "L4 hit rate", "L3 MPKI", "DRAM accesses "
             "per ki"});
    for (const bool victim : {true, false}) {
        const SystemResult &r = results[victim ? 0 : 1];
        const uint64_t i = r.instructions;
        t.addRow({victim ? "victim-of-L3 (paper)" : "allocate-on-miss",
                  Table::fmtPct(r.l4.hitRateTotal(), 1),
                  Table::fmt(r.l3.mpkiTotal(i), 2),
                  Table::fmt(r.l4.mpkiTotal(i), 2)});
        addRow(json, "l4_fill", victim ? "victim" : "on_miss", r);
    }
    t.print();
    std::printf("\n");
}

void
inclusiveL3(bench::JsonWriter &json, const SystemResult *results)
{
    std::printf("--- Inclusive vs non-inclusive L3 ---\n");
    Table t({"L3 policy", "L3 MPKI", "Back-invalidations/ki", "IPC"});
    for (const bool inclusive : {false, true}) {
        const SystemResult &r = results[inclusive ? 1 : 0];
        const uint64_t i = r.instructions;
        t.addRow({inclusive ? "inclusive" : "non-inclusive",
                  Table::fmt(r.l3.mpkiTotal(i), 2),
                  Table::fmt(1000.0 * r.backInvalidations /
                                 static_cast<double>(i), 2),
                  Table::fmt(r.ipcPerThread, 3)});
        addRow(json, "inclusion", inclusive ? "inclusive" : "nine", r);
    }
    t.print();
    std::printf("Paper: inclusion back-invalidations under CAT make "
                "the measured rightsizing benefits conservative.\n\n");
}

void
catVsDedicated(bench::JsonWriter &json, const SystemResult *results)
{
    std::printf("--- CAT partition vs dedicated cache ---\n");
    Table t({"Configuration", "Effective capacity", "Ways", "L3 MPKI"});
    t.addRow({"CAT 4/20 ways of 45 MiB", "9 MiB", "4",
              Table::fmt(results[0].l3.mpkiTotal(
                             results[0].instructions), 2)});
    addRow(json, "cat", "partition_4_of_20", results[0]);
    t.addRow({"dedicated 9 MiB, 20-way", "9 MiB", "20",
              Table::fmt(results[1].l3.mpkiTotal(
                             results[1].instructions), 2)});
    addRow(json, "cat", "dedicated_9mib", results[1]);
    t.print();
    std::printf("CAT keeps the set count but cuts associativity, so "
                "it suffers extra conflict misses vs a dedicated "
                "cache of the same capacity.\n\n");
}

constexpr ReplPolicy kPolicies[] = {ReplPolicy::LRU, ReplPolicy::Random,
                                    ReplPolicy::SRRIP,
                                    ReplPolicy::DRRIP};
constexpr const char *kPolicyNames[] = {"LRU", "random", "SRRIP",
                                        "DRRIP"};

void
replacementPolicy(bench::JsonWriter &json, const SystemResult *results)
{
    std::printf("--- L3 replacement policy ---\n");
    Table t({"Policy", "L3 MPKI", "L3 hit rate"});
    for (size_t p = 0; p < std::size(kPolicies); ++p) {
        const SystemResult &r = results[p];
        t.addRow({kPolicyNames[p],
                  Table::fmt(r.l3.mpkiTotal(r.instructions), 2),
                  Table::fmtPct(r.l3.hitRateTotal(), 1)});
        addRow(json, "replacement", kPolicyNames[p], r);
    }
    t.print();
}

void
runAblation(const bench::Args &args)
{
    const double t0 = bench::nowSec();
    bench::banner(args, "Ablations",
                  "Design-choice sensitivity beyond the paper's own "
                  "bars");
    const PlatformConfig plt1 = PlatformConfig::plt1();
    bench::JsonWriter json;
    bench::beginStandardJson(json, "ablation", args.smoke);

    // --- l4_fill: victim vs allocate-on-miss behind the rightsized
    //     23 MiB L3, both at 1/32 scale ---
    const WorkloadProfile sweep_prof = WorkloadProfile::s1LeafSweep();
    std::vector<RunOptions> fill;
    for (const bool victim : {true, false}) {
        RunOptions opt = bench::baseOptions(16, 24'000'000, 24'000'000);
        opt.l3Bytes = (23 * MiB) / sweep_prof.sweepScale;
        opt.l4 = cache_gen_victim((1 * GiB) / sweep_prof.sweepScale, 64,
                                  /*fully_assoc=*/false,
                                  /*victim_fill=*/victim);
        fill.push_back(opt);
    }
    const bench::Section fill_run = bench::runSection(
        json, args, "l4_fill", sweep_prof, plt1, fill);

    // --- leaf: the inclusion, CAT and replacement studies ---
    const RunOptions base = bench::baseOptions(16, 16'000'000, 16'000'000);
    std::vector<RunOptions> leaf;
    for (const InclusionMode mode :
         {InclusionMode::NINE, InclusionMode::Inclusive}) {
        // A small partition makes inclusion victims visible, like the
        // paper's CAT experiments.
        RunOptions opt = base;
        opt.llcInclusion = mode;
        opt.l3PartitionWays = 4;
        leaf.push_back(opt);
    }
    // 4 of 20 ways of 45 MiB (CAT) vs a dedicated 9 MiB 20-way cache.
    leaf.push_back(base);
    leaf.back().l3PartitionWays = 4;
    leaf.push_back(base);
    leaf.back().l3Bytes = 9 * MiB;
    for (const ReplPolicy repl : kPolicies) {
        // Capacity-constrained point where replacement matters.
        RunOptions opt = base;
        opt.l3Bytes = 9 * MiB;
        opt.llcRepl = repl;
        leaf.push_back(opt);
    }
    const bench::Section leaf_run = bench::runSection(
        json, args, "leaf", WorkloadProfile::s1Leaf(), plt1, leaf);

    // leaf results are positional: inclusion [0, 2), CAT [2, 4),
    // replacement [4, 8).
    json.beginArray("rows");
    l4FillPolicy(json, fill_run.results);
    inclusiveL3(json, &leaf_run.results[0]);
    catVsDedicated(json, &leaf_run.results[2]);
    replacementPolicy(json, &leaf_run.results[4]);
    json.endArray();
    bench::finishStandardJson(json, "ablation", t0);
}

} // namespace
} // namespace wsearch

int
main(int argc, char **argv)
{
    wsearch::runAblation(wsearch::bench::parseArgs(argc, argv));
    return 0;
}
