/**
 * @file
 * Benchmark driver: runs one workload and prints, as its last two
 * lines, a REPORT line (host fingerprint, digests, the workload's
 * named metrics) and the result object
 *
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 *
 * holding every end-to-end metric (--trace 0) or every per-layer
 * metric (--trace 1). Normally started through run.py, which builds
 * this binary first.
 */

#include <cstdio>
#include <map>
#include <string>

#include "harness.hh"
#include "workloads.hh"

using namespace perfbench;

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    const std::map<std::string, Outcome (*)(const Args &)> workloads = {
        {"sim-ladder", runSimLadder},
        {"serve-hot", runServeHot},
    };
    const auto it = workloads.find(args.workload);
    if (it == workloads.end()) {
        std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                     args.workload.c_str());
        return 2;
    }
    std::printf("# perfbench %s seed=%llu seconds=%g trace=%d\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0);
    std::fflush(stdout);

    Outcome out = it->second(args);
    out.set("peak_rss_mb", peakRssMb());

    // Every declared metric of this mode, in declaration order. A
    // layer the workload does not exercise reports 0; a missing
    // end-to-end metric is a benchmark bug.
    const auto &decls = args.trace ? perLayerMetrics() : endToEndMetrics();
    std::string metrics;
    for (const MetricDecl &d : decls) {
        const auto m = out.metrics.find(d.name);
        if (m == out.metrics.end() && !args.trace) {
            std::fprintf(stderr, "perfbench: %s did not measure %s\n",
                         args.workload.c_str(), d.name);
            return 3;
        }
        const double v = m == out.metrics.end() ? 0.0 : m->second;
        metrics += (metrics.empty() ? "" : ", ") + jsonString(d.name) +
            ": {\"value\": " + jsonNumber(v) +
            ", \"unit\": " + jsonString(d.unit) + "}";
    }

    out.note("error_frac", out.attempted
                               ? static_cast<double>(out.failed) /
                                   static_cast<double>(out.attempted)
                               : 0.0);
    std::string report = "{\"workload\": " + jsonString(args.workload) +
        ", \"seed\": " + std::to_string(args.seed) +
        ", \"trace\": " + (args.trace ? "1" : "0");
    report += ", \"host\": {";
    bool first = true;
    for (const auto &[k, v] : hostFingerprint(args)) {
        report += (first ? "" : ", ") + jsonString(k) + ": " +
            jsonString(v);
        first = false;
    }
    report += "}";
    for (const auto &[k, v] : out.report)
        report += ", " + jsonString(k) + ": " + v;
    report += "}";
    std::printf("REPORT %s\n", report.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                out.failed == 0 && out.attempted > 0 ? "true" : "false",
                static_cast<unsigned long long>(out.attempted),
                static_cast<unsigned long long>(out.failed),
                metrics.c_str());
    std::fflush(stdout);
    return 0;
}
