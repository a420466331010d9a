#!/usr/bin/env python3
"""Gate bench output against a previous run's artifacts.

Usage:
    scripts/bench_diff.py CURRENT BASELINE
    scripts/bench_diff.py --selftest

CURRENT and BASELINE are BENCH_all.json files (or directories
containing one), as produced by scripts/bench_all.sh.

Two kinds of checks, per bench present in both runs (and only when
both runs used the same smoke setting and config keys match):

  * correctness counters: deterministic counts (postings decoded,
    equivalence tallies, determinism flags). Any difference is DRIFT
    and fails the gate (exit 1) -- same inputs must count the same.
  * wall time: > WARN_WALL_FRAC regression on the gated benches
    prints a warning (GitHub annotation format) but passes; bench
    machines are noisy, so time never hard-fails.

In-run invariants (measured == expected) are checked on CURRENT even
when the baseline lacks that bench, so a truncated or crashed run
cannot slip through by also corrupting its artifact.

Exit codes: 0 ok (warnings allowed), 1 drift/invariant failure,
2 usage or unreadable input.
"""

import json
import os
import sys

WARN_WALL_FRAC = 0.15
WALL_GATED = ("leaf", "serve", "sweep")

# Config keys of one simulator sweep section (bench::runSection in
# bench/common.hh writes them as <section>_<key>; the sampling keys only
# when the section samples). Budgets and sampler knobs are config: a
# deliberate change re-baselines instead of reading as drift.
SECTION_KEYS = ("measure_records", "warmup_records", "sampling_policy",
                "sample_window_records", "sample_clusters",
                "sample_seed")


def sim_config(*sections, extra=()):
    """Config keys of a simulator driver running @p sections.

    smoke_sampling is config too: a change of the --smoke sampler
    re-baselines the smoke rows instead of reading as drift."""
    return (["smoke", "smoke_sampling"] + list(extra) +
            ["%s_%s" % (s, k) for s in sections for k in SECTION_KEYS])


# The deterministic counters every simulator result row carries
# (bench::addResultCounters); band_lo/hi/rel are derived and ungated.
SIM_ROW_COUNTERS = ["instructions", "l3_accesses", "l3_misses",
                    "l4_accesses", "l4_misses", "writebacks",
                    "back_invalidations", "sampled_windows",
                    "represented_windows"]


def sim_gate(config, key_by, counters=(), invariants=()):
    return {
        "config": config,
        "counters": list(counters),
        "rows": {"field": "rows", "key_by": key_by,
                 "counters": SIM_ROW_COUNTERS},
        "invariants": list(invariants),
    }


# Per-bench deterministic keys: equal configs must reproduce these
# exactly. Keys listed under "rows" are compared per rows[] element,
# matched by the "key_by" fields. Wall-clock-derived numbers (qps,
# docs/s, latency) are deliberately absent.
GATES = {
    "leaf": {
        "config": ["smoke", "docs", "queries_per_workload"],
        "counters": ["equivalent_queries",
                     "expected_equivalent_queries"],
        "rows": {
            "field": "rows",
            "key_by": ["workload", "codec"],
            "counters": ["postings_decoded", "candidates_scored",
                         "blocks_decoded", "blocks_skipped",
                         "packed_blocks_decoded"],
        },
        "invariants": [("equivalent_queries",
                        "expected_equivalent_queries")],
    },
    "sweep": {
        "config": ["smoke", "configs", "records_per_config"],
        "counters": ["all_identical"],
        "invariants": [("all_identical", 1)],
    },
    "ingest": {
        "config": ["smoke", "docs", "terms_per_doc", "commit_batch"],
        # Background merges race the writer, so segment/merge counts
        # are legitimately run-dependent; only the doc ledger is
        # deterministic.
        "counters": ["live_docs"],
        "invariants": [],
    },
    "serve": {
        "config": ["smoke", "workers", "scaling_queries"],
        # Thread-scaling rows are closed-loop: every submitted query
        # must resolve (worker completion or cache hit), none shed,
        # and the snapshot identities must hold -- exactly, per row.
        # qps / speedup / hit_rate are wall-clock or
        # interleaving-dependent and deliberately ungated.
        "counters": ["scaling_rows_ok"],
        "rows": {
            "field": "rows",
            "key_by": ["mix", "workers"],
            "counters": ["queries", "resolved", "shed",
                         "stats_consistent"],
        },
        "invariants": [("scaling_rows_ok", 1)],
    },
    "replacement": sim_gate(sim_config("scaled"),
                            ["l3_capacity", "variant"]),
    "micro": {
        "config": ["smoke"],
        "counters": [],
        "rows": {
            "field": "rows",
            "key_by": ["kernel"],
            "counters": ["items", "checksum"],
        },
        "invariants": [],
    },
    "ablation": sim_gate(sim_config("l4_fill", "leaf"),
                         ["study", "variant"]),
    # The band_violations invariant is the clustered-vs-oracle
    # statistical gate -- the binary also exits nonzero on it, but
    # asserting it here means a stale or hand-edited artifact cannot
    # pass either.
    "fig6bc": sim_gate(
        sim_config("scaled", "nominal",
                   extra=["cores", "gate_records"]),
        ["section", "l3_sim_bytes"],
        counters=["gate_oracle_l3_misses", "gate_clustered_l3_misses",
                  "gate_uniform_l3_misses", "band_violations"],
        invariants=[("band_violations", 0)]),
    "fig8": sim_gate(sim_config("scaled", "nominal", extra=["cores"]),
                     ["section", "ways"]),
    "fig9": sim_gate(sim_config("scaled", "nominal"),
                     ["section", "cores", "ways"]),
    "fig13": sim_gate(
        sim_config("scaled", "nominal",
                   extra=["cores", "l3_sim_bytes"]),
        ["section", "l4_sim_bytes"]),
}


def fail(msg):
    print("FAIL: %s" % msg)
    return ["%s" % msg]


def warn(msg):
    # GitHub Actions annotation; plain text everywhere else.
    print("::warning::bench_diff: %s" % msg)


def load(path):
    if os.path.isdir(path):
        path = os.path.join(path, "BENCH_all.json")
    with open(path) as f:
        data = json.load(f)
    if "benches" not in data:
        raise ValueError("%s: not a BENCH_all.json aggregate" % path)
    return data["benches"]


def check_invariants(name, bench, gate):
    errors = []
    for key, want in gate.get("invariants", []):
        got = bench.get(key)
        expect = bench.get(want) if isinstance(want, str) else want
        if got != expect:
            errors += fail("%s: invariant %s=%r != %r"
                           % (name, key, got, expect))
    return errors


def rows_by_key(bench, spec):
    out = {}
    for row in bench.get(spec["field"], []):
        key = tuple(row.get(k) for k in spec["key_by"])
        out[key] = row
    return out


def diff_bench(name, cur, base, gate):
    errors = []
    for key in gate.get("config", []):
        if cur.get(key) != base.get(key):
            print("note: %s: config %s changed (%r -> %r); counter "
                  "diff skipped" % (name, key, base.get(key),
                                    cur.get(key)))
            return errors
    for key in gate.get("counters", []):
        if key in base and cur.get(key) != base.get(key):
            errors += fail("%s: counter drift: %s %r -> %r"
                           % (name, key, base.get(key), cur.get(key)))
    spec = gate.get("rows")
    if spec:
        cur_rows = rows_by_key(cur, spec)
        for key, brow in rows_by_key(base, spec).items():
            crow = cur_rows.get(key)
            if crow is None:
                errors += fail("%s: row %r disappeared" % (name, key))
                continue
            for counter in spec["counters"]:
                if counter in brow and \
                        crow.get(counter) != brow.get(counter):
                    errors += fail(
                        "%s: row %r counter drift: %s %r -> %r"
                        % (name, key, counter, brow.get(counter),
                           crow.get(counter)))
    cw, bw = cur.get("wall_time_sec"), base.get("wall_time_sec")
    if name in WALL_GATED and cw and bw and \
            cw > (1.0 + WARN_WALL_FRAC) * bw:
        warn("%s: wall time %.2fs is %.0f%% over baseline %.2fs"
             % (name, cw, 100.0 * (cw / bw - 1.0), bw))
    return errors


def run_diff(cur_path, base_path):
    current = load(cur_path)
    errors = []
    for name, bench in sorted(current.items()):
        gate = GATES.get(name)
        if gate:
            errors += check_invariants(name, bench, gate)
    try:
        baseline = load(base_path)
    except (OSError, ValueError) as e:
        print("note: no usable baseline (%s); invariants only" % e)
        return errors
    for name, bench in sorted(current.items()):
        gate = GATES.get(name)
        if gate and name in baseline:
            errors += diff_bench(name, bench, baseline[name], gate)
    return errors


# ----------------------------------------------------------------- #
# Self-test: prove the gate actually fails on injected drift.        #
# ----------------------------------------------------------------- #

def _sample():
    return {
        "benches": {
            "leaf": {
                "smoke": 1, "docs": 20000,
                "queries_per_workload": 200,
                "equivalent_queries": 1200,
                "expected_equivalent_queries": 1200,
                "wall_time_sec": 10.0,
                "rows": [
                    {"workload": "OR", "codec": "packed",
                     "postings_decoded": 5000, "candidates_scored": 900,
                     "blocks_decoded": 40, "blocks_skipped": 8,
                     "packed_blocks_decoded": 40},
                ],
            },
            "sweep": {"smoke": 1, "configs": 8,
                      "records_per_config": 1000,
                      "all_identical": 1, "wall_time_sec": 5.0},
            "serve": {
                "smoke": 1, "workers": 2, "scaling_queries": 1500,
                "scaling_rows_ok": 1, "wall_time_sec": 6.0,
                "rows": [
                    {"mix": "queue", "workers": 1, "queries": 1500,
                     "resolved": 1500, "shed": 0,
                     "stats_consistent": 1, "qps": 900.0,
                     "speedup_vs_1w": 1.0},
                    {"mix": "cachehit", "workers": 4, "queries": 1500,
                     "resolved": 1500, "shed": 0,
                     "stats_consistent": 1, "qps": 3100.0,
                     "speedup_vs_1w": 3.4},
                ],
            },
            "fig8": {
                "smoke": 1, "smoke_sampling": "uniform", "cores": 16,
                "scaled_measure_records": 16000000,
                "scaled_warmup_records": 32000000,
                "scaled_sampling_policy": "uniform",
                "scaled_sample_window_records": 500000,
                "scaled_sample_clusters": 12,
                "scaled_sample_seed": 12345,
                "nominal_measure_records": 24000000,
                "nominal_warmup_records": 12000000,
                "nominal_sampling_policy": "clustered",
                "nominal_sample_window_records": 62500,
                "nominal_sample_clusters": 12,
                "nominal_sample_seed": 12345,
                "wall_time_sec": 7.0,
                "rows": [
                    {"section": "scaled", "ways": 2,
                     "instructions": 800000, "l3_accesses": 30000,
                     "l3_misses": 9000, "sampled_windows": 0,
                     "represented_windows": 0},
                    {"section": "nominal", "ways": 20,
                     "instructions": 800000, "l3_accesses": 31000,
                     "l3_misses": 8000, "sampled_windows": 12,
                     "represented_windows": 96},
                ],
            },
            "fig6bc": {
                "smoke": 1, "smoke_sampling": "uniform", "cores": 16,
                "scaled_measure_records": 3000000,
                "scaled_warmup_records": 6000000,
                "scaled_sampling_policy": "uniform",
                "scaled_sample_window_records": 93750,
                "scaled_sample_clusters": 12,
                "scaled_sample_seed": 12345,
                "nominal_measure_records": 3000000,
                "nominal_warmup_records": 1500000,
                "nominal_sampling_policy": "clustered",
                "nominal_sample_window_records": 46875,
                "nominal_sample_clusters": 12,
                "nominal_sample_seed": 12345,
                "gate_records": 6000000,
                "gate_oracle_l3_misses": 523200,
                "gate_clustered_l3_misses": 539815,
                "gate_uniform_l3_misses": 568376,
                "band_violations": 0, "wall_time_sec": 8.0,
                "rows": [
                    {"section": "scaled", "l3_sim_bytes": 131072,
                     "instructions": 900000, "l3_accesses": 40000,
                     "l3_misses": 39000, "sampled_windows": 0,
                     "represented_windows": 0},
                    {"section": "nominal", "l3_sim_bytes": 33554432,
                     "instructions": 900000, "l3_accesses": 41000,
                     "l3_misses": 38000, "sampled_windows": 12,
                     "represented_windows": 96},
                ],
            },
            "replacement": {
                "smoke": 1, "smoke_sampling": "uniform",
                "scaled_measure_records": 1000000,
                "scaled_warmup_records": 2000000,
                "scaled_sampling_policy": "uniform",
                "scaled_sample_window_records": 31250,
                "scaled_sample_clusters": 12,
                "scaled_sample_seed": 12345,
                "wall_time_sec": 3.0,
                "rows": [
                    {"l3_capacity": 9437184, "variant": "srrip",
                     "l3_accesses": 4000, "l3_misses": 700,
                     "back_invalidations": 0,
                     "instructions": 100000},
                ],
            },
            "ablation": {
                "smoke": 1, "smoke_sampling": "uniform",
                "l4_fill_measure_records": 3000000,
                "l4_fill_warmup_records": 3000000,
                "l4_fill_sampling_policy": "uniform",
                "l4_fill_sample_window_records": 62500,
                "l4_fill_sample_clusters": 12,
                "l4_fill_sample_seed": 12345,
                "leaf_measure_records": 2000000,
                "leaf_warmup_records": 2000000,
                "leaf_sampling_policy": "uniform",
                "leaf_sample_window_records": 41666,
                "leaf_sample_clusters": 12,
                "leaf_sample_seed": 12345,
                "wall_time_sec": 1.0,
                "rows": [
                    {"study": "l4_fill", "variant": "victim",
                     "instructions": 6000000, "l3_accesses": 300000,
                     "l3_misses": 162024, "l4_accesses": 162024,
                     "l4_misses": 140400, "writebacks": 42416,
                     "back_invalidations": 0, "sampled_windows": 12,
                     "represented_windows": 96},
                ],
            },
            "fig13": {
                "smoke": 1, "smoke_sampling": "uniform", "cores": 16,
                "l3_sim_bytes": 753664,
                "scaled_measure_records": 3000000,
                "scaled_warmup_records": 6000000,
                "scaled_sampling_policy": "uniform",
                "scaled_sample_window_records": 93750,
                "scaled_sample_clusters": 12,
                "scaled_sample_seed": 12345,
                "nominal_measure_records": 3000000,
                "nominal_warmup_records": 1500000,
                "nominal_sampling_policy": "clustered",
                "nominal_sample_window_records": 46875,
                "nominal_sample_clusters": 12,
                "nominal_sample_seed": 12345,
                "wall_time_sec": 4.0,
                "rows": [
                    {"section": "scaled", "l4_sim_bytes": 2097152,
                     "instructions": 900000, "l3_accesses": 40000,
                     "l3_misses": 30000, "l4_accesses": 30000,
                     "l4_misses": 21000, "writebacks": 9000,
                     "back_invalidations": 0, "sampled_windows": 12,
                     "represented_windows": 96},
                ],
            },
        }
    }


def selftest():
    import copy
    import tempfile

    def write(tree, name):
        path = os.path.join(tmp, name)
        with open(path, "w") as f:
            json.dump(tree, f)
        return path

    with tempfile.TemporaryDirectory() as tmp:
        base = write(_sample(), "base.json")

        # 1. Identical runs pass.
        assert run_diff(write(_sample(), "same.json"), base) == []

        # 2. Injected counter drift fails.
        drift = _sample()
        drift["benches"]["leaf"]["rows"][0]["postings_decoded"] += 1
        assert run_diff(write(drift, "drift.json"), base)

        # 3. A broken in-run invariant fails even with no baseline.
        broken = _sample()
        broken["benches"]["leaf"]["equivalent_queries"] = 7
        assert run_diff(write(broken, "broken.json"),
                        os.path.join(tmp, "missing.json"))

        # 4. Lost determinism in sweep fails.
        nondet = _sample()
        nondet["benches"]["sweep"]["all_identical"] = 0
        assert run_diff(write(nondet, "nondet.json"), base)

        # 5. Wall-time regression warns but passes.
        slow = _sample()
        slow["benches"]["leaf"]["wall_time_sec"] = 13.0
        assert run_diff(write(slow, "slow.json"), base) == []

        # 6. A change of the --smoke sampler is a config change: the
        # smoke rows re-baseline instead of reading as counter drift.
        resampled = _sample()
        resampled["benches"]["replacement"]["smoke_sampling"] = "off"
        resampled["benches"]["replacement"]["rows"][0]["l3_misses"] += 3
        assert run_diff(write(resampled, "resampled.json"), base) == []

        # 7. Replacement-row miss drift fails.
        rdrift = _sample()
        rdrift["benches"]["replacement"]["rows"][0]["l3_misses"] += 3
        assert run_diff(write(rdrift, "rdrift.json"), base)

        # 8. Config change skips the counter diff instead of failing.
        refit = _sample()
        refit["benches"]["leaf"]["docs"] = 80000
        refit["benches"]["leaf"]["rows"][0]["postings_decoded"] = 1
        assert run_diff(write(refit, "refit.json"), base) == []

        # 9. An injected clustered-sampling band violation fails even
        # with no baseline: the statistical gate is an in-run
        # invariant, so it cannot be dodged by deleting the baseline.
        banded = _sample()
        banded["benches"]["fig6bc"]["band_violations"] = 1
        assert run_diff(write(banded, "banded.json"),
                        os.path.join(tmp, "missing.json"))

        # 10. Sampled-estimate drift in a nominal-scale row fails:
        # plans are seeded, so equal configs (same seed/knobs) must
        # reproduce the same estimate bit-for-bit.
        sdrift = _sample()
        sdrift["benches"]["fig6bc"]["rows"][1]["l3_misses"] += 17
        assert run_diff(write(sdrift, "sdrift.json"), base)

        # 11. Changing the sampling seed is a config change, not drift.
        reseed = _sample()
        reseed["benches"]["fig6bc"]["nominal_sample_seed"] = 99
        reseed["benches"]["fig6bc"]["rows"][1]["l3_misses"] += 17
        assert run_diff(write(reseed, "reseed.json"), base) == []

        # 12. A serve thread-scaling row losing a query (resolved !=
        # baseline) is drift.
        sserve = _sample()
        sserve["benches"]["serve"]["rows"][0]["resolved"] -= 1
        assert run_diff(write(sserve, "sserve.json"), base)

        # 13. A broken serve accounting invariant fails even with no
        # baseline: a shed or inconsistent row cannot slip through by
        # re-baselining.
        sbad = _sample()
        sbad["benches"]["serve"]["scaling_rows_ok"] = 0
        assert run_diff(write(sbad, "sbad.json"),
                        os.path.join(tmp, "missing.json"))

        # 14. CAT-ladder miss drift in a fig8 row fails (both the
        # exact scaled replay and the seeded nominal estimate).
        f8 = _sample()
        f8["benches"]["fig8"]["rows"][1]["l3_misses"] += 5
        assert run_diff(write(f8, "f8.json"), base)

        # 15. The ablation's --smoke moving from private quarter
        # budgets (records_unit) onto the sampled sweep is a config
        # change: its smoke rows re-baseline instead of reading as
        # drift...
        quarter = _sample()
        old = quarter["benches"]["ablation"]
        for key in [k for k in old if k.startswith(("l4_fill_",
                                                     "leaf_"))]:
            del old[key]
        old["records_unit"] = 500000
        old["rows"][0].update(instructions=750000, l3_misses=12896,
                              l4_accesses=12896, l4_misses=9003)
        assert run_diff(base, write(quarter, "quarter.json")) == []
        # ...while equal ablation configs still gate every row counter.
        adrift = _sample()
        adrift["benches"]["ablation"]["rows"][0]["writebacks"] += 1
        assert run_diff(write(adrift, "adrift.json"), base)

        # 16. L4 miss drift in a fig13 row fails.
        f13 = _sample()
        f13["benches"]["fig13"]["rows"][0]["l4_misses"] += 1
        assert run_diff(write(f13, "f13.json"), base)

    print("bench_diff selftest: all gates behave")
    return 0


def main(argv):
    if len(argv) == 2 and argv[1] == "--selftest":
        return selftest()
    if len(argv) != 3:
        print(__doc__.strip())
        return 2
    try:
        errors = run_diff(argv[1], argv[2])
    except (OSError, ValueError) as e:
        print("bench_diff: %s" % e)
        return 2
    if errors:
        print("bench_diff: %d failure(s)" % len(errors))
        return 1
    print("bench_diff: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
