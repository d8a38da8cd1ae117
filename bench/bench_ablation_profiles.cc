/**
 * @file
 * Ablation (Section 5.2 text): profile input sensitivity and the
 * cumulative-profile remedy.
 *
 * The paper observes that the ss benchmark's two profiling inputs
 * yield significantly different table-size requirements because each
 * input exercises different program regions, and argues that merging
 * conflict graphs from several inputs fixes coverage without blowing
 * up the table requirement (more working sets, not larger ones).
 *
 * For each two-input benchmark we report: the required size per
 * input, the required size of the merged profile, and the
 * misprediction rate on input B of an allocation trained on A alone
 * vs. trained on the merged profile.
 */

#include "bench_common.hh"

#include "core/pipeline.hh"
#include "sim/batched_replay.hh"
#include "util/strutil.hh"

using namespace bwsa;
using namespace bwsa::bench;

int
main(int argc, char **argv)
{
    BenchOptions options = parseBenchOptions(argc, argv, "bench_ablation_profiles");
    if (options.benchmarks.empty())
        options.benchmarks = {"perl", "ss"};

    TextTable table({"benchmark", "req (profile a)", "req (profile b)",
                     "req (merged)", "miss b, trained a %",
                     "miss b, trained merged %", "miss b, ideal %"});

    for (const std::string &preset : options.benchmarks) {
        RowScope row_scope;
        Workload wa = makeWorkload(preset, "a", options.scale);
        Workload wb = makeWorkload(preset, "b", options.scale);
        WorkloadTraceSource sa = wa.source();
        WorkloadTraceSource sb = wb.source();

        PipelineConfig config;
        config.allocation.edge_threshold = options.threshold;

        AllocationPipeline pa(config), pb(config), merged(config);
        profileSource(pa, sa, options, preset + "_a", preset + ":a");
        profileSource(pb, sb, options, preset + "_b", preset + ":b");
        // The merged pipeline re-profiles the same traces, so with
        // the cache on it hits the artifacts stored just above.
        profileSource(merged, sa, options, preset + "_a+merged",
                      preset + ":a");
        profileSource(merged, sb, options, preset + "_b+merged",
                      preset + ":b");

        RequiredSizeResult ra = pa.requiredSize(1024);
        RequiredSizeResult rb = pb.requiredSize(1024);
        RequiredSizeResult rm = merged.requiredSize(1024);

        // Cross-input prediction quality at a fixed 256-entry table.
        std::vector<PredictionStats> results = replayBatched(
            sb, {pa.predictorSpec(256), merged.predictorSpec(256),
                 interferenceFreeSpec()});

        auto fmt_req = [](const RequiredSizeResult &r) {
            return r.achieved ? withCommas(r.required_entries)
                              : std::string("> 4096");
        };
        table.addRow({preset, fmt_req(ra), fmt_req(rb), fmt_req(rm),
                      fixedString(results[0].mispredictPercent(), 3),
                      fixedString(results[1].mispredictPercent(), 3),
                      fixedString(results[2].mispredictPercent(), 3)});
    }

    emitTable("Ablation: profile input sensitivity and cumulative "
              "profiles (Section 5.2)",
              table, options);
    return finishBench(options);
}
