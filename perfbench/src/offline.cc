/**
 * @file
 * The offline workloads: the paper's allocation flow, timed pass by
 * pass.
 *
 * One flow run on one trace is
 *   1. ProfileSession addStats -> commit -> addInterleave (serial) or
 *      addInterleaveSharded -> finish            (the "write" request)
 *   2. findWorkingSets (SeededClique) on the thresholded graph,
 *   3. AllocationPipeline::allocate at 16, 128 and 1024 entries,
 *   4. one BatchedReplayer pass over the five Figure 3 lanes: PAg-1024,
 *      alloc-16/128/1024 and interference-free   (2-4: the "read")
 *
 * offline_gcc_sharded runs it on one gcc trace read back from a v2
 * container with shards = threads = workers; offline_suite runs it as
 * one sweep cell per workload (twelve presets and two graph kernels)
 * on `workers` threads with serial profiling, straight from the
 * executors.  Every pass's outputs are digested and compared with a
 * serial run made during set-up, and at the default seed that run is
 * compared with the committed reference digests.
 */

#include <algorithm>
#include <filesystem>
#include <memory>

#include "core/pipeline.hh"
#include "core/working_set.hh"
#include "exec/sweep.hh"
#include "oracle.hh"
#include "predict/factory.hh"
#include "sim/batched_replay.hh"
#include "store/block_trace.hh"
#include "workload/presets.hh"
#include "workloads.hh"

namespace perfbench
{

using namespace bwsa;

namespace
{

/** Times set-up is repeated; setup_s is the median. */
constexpr int kSetupRepetitions = 3;

/** Inputs (input seeds) per workload of the suite. */
constexpr int kSuiteInputs = 4;

/** Inputs concatenated into the gcc trace. */
constexpr int kGccInputs = 16;

constexpr std::uint64_t kTableSizes[] = {16, 128, 1024};

/** Preset scale of the gcc trace and of the suite cells. */
double
gccScale(const Options &options)
{
    return options.size == "tiny" ? 0.0005 : 0.0075;
}

double
suiteScale(const Options &options)
{
    return options.size == "tiny" ? 0.002 : 0.025;
}

/** Outputs and stage timings of one flow run on one trace. */
struct FlowRun
{
    std::unique_ptr<AllocationPipeline> pipeline;
    WorkingSetResult sets;
    std::vector<AllocationResult> allocs;
    std::vector<PredictionStats> lanes;
    ShardRunStats shard; ///< empty unless profiled sharded
    std::uint64_t records = 0;

    double stats_ms = 0.0;
    double interleave_ms = 0.0;
    double finish_ms = 0.0;
    double wsets_ms = 0.0;
    double alloc_ms = 0.0;
    double replay_ms = 0.0;

    double writeMs() const { return stats_ms + interleave_ms + finish_ms; }
    double readMs() const { return wsets_ms + alloc_ms + replay_ms; }

    FlowDigest
    digest() const
    {
        return digestFlow(*pipeline, sets, allocs, lanes);
    }
};

/** Run @p fn under a span named @p name; returns its wall ms. */
template <typename Fn>
double
timed(Ledger *ledger, const char *name, Fn &&fn)
{
    Ledger::Scope scope(ledger, name);
    Clock::time_point start = Clock::now();
    fn();
    return msSince(start);
}

/**
 * The allocation flow on @p source; @p shards > 1 profiles sharded
 * on @p threads workers.
 */
FlowRun
runFlow(const TraceSource &source, unsigned shards, unsigned threads,
        Ledger *ledger)
{
    FlowRun run;
    run.pipeline = std::make_unique<AllocationPipeline>();
    AllocationPipeline &pipeline = *run.pipeline;
    {
        ProfileSession session(pipeline);
        run.stats_ms = timed(ledger, "trace.stats", [&] {
            session.addStats(source);
            session.commit();
        });
        run.interleave_ms = timed(ledger, "profile.interleave", [&] {
            if (shards > 1)
                run.shard =
                    session.addInterleaveSharded(source, shards, threads);
            else
                session.addInterleave(source);
        });
        run.finish_ms =
            timed(ledger, "core.finish", [&] { session.finish(); });
    }
    run.records = pipeline.lastStats().dynamicBranches();

    run.wsets_ms = timed(ledger, "core.wsets", [&] {
        ConflictGraph pruned = pipeline.graph().pruned(
            pipeline.config().allocation.edge_threshold);
        run.sets =
            findWorkingSets(pruned, WorkingSetDefinition::SeededClique);
    });
    run.alloc_ms = timed(ledger, "core.alloc", [&] {
        for (std::uint64_t size : kTableSizes)
            run.allocs.push_back(pipeline.allocate(size));
    });
    run.replay_ms = timed(ledger, "sim.replay", [&] {
        BatchedReplayer replayer;
        replayer.addLane(paperBaselineSpec());
        for (const AllocationResult &a : run.allocs)
            replayer.addLane(allocatedSpec(a.assignment, a.table_size));
        replayer.addLane(interferenceFreeSpec());
        replayer.replay(source);
        run.lanes = replayer.allStats();
    });
    return run;
}

/** Add one flow run's layer values to a pass sample. */
void
addFlowLayers(LayerSample &sample, const FlowRun &run)
{
    sample["trace.stats_ms"] += run.stats_ms;
    sample["profile.interleave_ms"] += run.interleave_ms;
    sample["profile.graph_nodes"] +=
        static_cast<double>(run.pipeline->graph().nodeCount());
    sample["profile.graph_edges"] +=
        static_cast<double>(run.pipeline->graph().edgeCount());
    sample["core.finish_ms"] += run.finish_ms;
    sample["core.wsets_ms"] += run.wsets_ms;
    sample["core.working_sets"] +=
        static_cast<double>(run.sets.sets.size());
    sample["core.alloc_ms"] += run.alloc_ms;
    sample["core.alloc_calls"] += static_cast<double>(run.allocs.size());
    sample["sim.replay_ms"] += run.replay_ms;
    sample["sim.lane_steps"] += static_cast<double>(
        run.records * run.lanes.size());

    // The shard engine's own account of the sharded pass; a serial
    // pass never enters it and leaves these exactly 0.
    double shard_max = 0.0, shard_sum = 0.0, increments = 0.0;
    double after_first = 0.0;
    for (const ShardTiming &t : run.shard.timings) {
        shard_max = std::max(shard_max, t.millis);
        shard_sum += t.millis;
        increments += static_cast<double>(t.increments);
        if (t.index > 0)
            after_first += static_cast<double>(t.records);
    }
    const StitchStats &stitch = run.shard.stitch;
    const double scanned = static_cast<double>(stitch.records_scanned);
    sample["profile.shard_max_ms"] += shard_max;
    sample["profile.shard_mean_ms"] +=
        run.shard.timings.empty()
            ? 0.0
            : shard_sum / static_cast<double>(run.shard.timings.size());
    sample["profile.merge_ms"] += run.shard.merge_millis;
    sample["profile.stitch_ms"] += stitch.millis;
    sample["profile.stitch_records_scanned"] += scanned;
    sample["profile.stitch_scan_ratio"] +=
        after_first > 0.0 ? scanned / after_first : 0.0;
    sample["profile.pair_increments"] +=
        increments + static_cast<double>(stitch.pair_increments);
}

/** Add the sweep's schedule of one pass to a pass sample. */
void
addExecLayers(LayerSample &sample,
              const std::vector<exec::CellTiming> &timings,
              unsigned workers, double wall_ms)
{
    double critical = 0.0, sum = 0.0;
    for (const exec::CellTiming &t : timings) {
        critical = std::max(critical, t.millis);
        sum += t.millis;
    }
    sample["exec.critical_cell_ms"] = critical;
    sample["exec.cell_sum_ms"] = sum;
    sample["exec.worker_idle_frac"] =
        1.0 - sum / (static_cast<double>(workers) * wall_ms);
}

/** Counts records; the probe sink of decode and generation times. */
class CountingSink : public TraceSink
{
  public:
    void onBranch(const BranchRecord &) override { ++count; }
    std::uint64_t count = 0;
};

/** Ms to replay @p source once into a counting sink. */
double
replayProbeMs(const TraceSource &source, Ledger *ledger,
              const char *name)
{
    CountingSink sink;
    return timed(ledger, name, [&] { source.replay(sink); });
}

/**
 * Compare the set-up oracle with the committed reference digests (or
 * record it as the new reference).
 */
void
checkReference(const Options &options, const CellDigests &oracle,
               RunResult &result)
{
    if (options.write_reference) {
        writeReference(options.reference, options.workload,
                       options.size, options.seed, oracle);
        result.notes.push_back("reference digests written to " +
                               options.reference);
        return;
    }
    std::optional<CellDigests> reference =
        loadReference(options.reference, options.workload, options.size,
                      options.seed);
    if (!reference) {
        result.notes.push_back(
            "oracle: serial run made during set-up (no committed "
            "reference for this seed and size)");
        return;
    }
    result.notes.push_back("oracle: committed reference digests in " +
                           options.reference);
    for (const auto &[label, digest] : oracle) {
        auto it = reference->find(label);
        result.check(it != reference->end() && it->second == digest,
                     label + ": set-up output differs from reference (" +
                         (it == reference->end() ? std::string("missing")
                                                 : it->second.diff(digest)) +
                         ")");
    }
    result.check(reference->size() == oracle.size(),
                 "reference cell count differs from the workload's");
}

/** Check one pass output against the oracle. */
void
checkPass(const std::string &label, const FlowRun &run,
          const FlowDigest &expected, RunResult &result)
{
    FlowDigest got = run.digest();
    result.check(got == expected,
                 label + ": output differs from oracle (" +
                     expected.diff(got) + ")");
}

/** Write the gcc trace, kGccInputs inputs long, to a v2 container. */
void
writeGccTrace(const Options &options, const std::string &path)
{
    Workload w = pinnedPreset("gcc", gccScale(options));
    store::BlockTraceWriter writer(path);
    replayInputs(w, kGccInputs, options.seed, "gcc", writer);
}

} // namespace

RunResult
runOfflineGccSharded(const Options &options, Ledger &ledger)
{
    RunResult result;
    EndToEndSamples e2e;
    // shards = threads = workers; at least two shards, so that one
    // CPU still runs the shard engine rather than a serial pass.
    const unsigned shards = std::max(2u, options.workers);

    std::filesystem::create_directories(options.data_dir);
    const std::string path = options.data_dir + "/gcc-" + options.size +
                             "-seed" + std::to_string(options.seed) +
                             ".bwst";
    std::unique_ptr<store::BlockTraceReader> reader;
    FlowDigest oracle;
    for (int rep = 0; rep < kSetupRepetitions; ++rep) {
        Clock::time_point start = Clock::now();
        reader.reset();
        writeGccTrace(options, path);
        reader = std::make_unique<store::BlockTraceReader>(path);
        oracle = runFlow(*reader, 1, 1, nullptr).digest();
        checkPass("gcc warm-up",
                  runFlow(*reader, shards, options.workers, nullptr), oracle,
                  result);
        e2e.setup_s.push_back(secondsSince(start));
    }
    checkReference(options, {{"gcc", oracle}}, result);

    std::vector<LayerSample> layers;
    std::vector<double> traced_ms, untraced_ms;
    exec::SweepRunner runner(1);
    Clock::time_point begin = Clock::now();
    for (std::uint64_t pass = 0; secondsSince(begin) < options.seconds;
         ++pass) {
        const bool traced = options.trace && pass % 2 == 0;
        Ledger *lp = traced ? &ledger : nullptr;
        const std::uint64_t decoded_before = reader->recordsDecoded();

        FlowRun run;
        Clock::time_point start = Clock::now();
        std::vector<exec::CellTiming> timings;
        {
            Ledger::Scope scope(lp, "bench.pass");
            timings = runner.run(1, [&](const exec::SweepCell &) {
                Ledger::Scope cell(lp, "exec.cell");
                run = runFlow(*reader, shards, options.workers, lp);
            });
        }
        const double wall_ms = msSince(start);
        const double decoded = static_cast<double>(
            reader->recordsDecoded() - decoded_before);

        checkPass("gcc", run, oracle, result);
        const double records = static_cast<double>(run.records);
        e2e.mrec_s.push_back(records / wall_ms / 1000.0);
        e2e.write.add(0, run.writeMs());
        e2e.read.add(0, run.readMs());
        if (!options.trace)
            continue;
        (traced ? traced_ms : untraced_ms).push_back(wall_ms);
        if (!traced)
            continue;

        LayerSample sample;
        addFlowLayers(sample, run);
        addExecLayers(sample, timings, 1, wall_ms);
        // Decoding runs inside the flow's calls; its cost is measured
        // by a decode-only replay, scaled to what the flow decoded.
        const double decode_ms =
            replayProbeMs(*reader, &ledger, "store.decode_probe");
        sample["store.decode_ms"] = decode_ms * decoded / records;
        sample["store.records_decoded"] = decoded;
        // Statistics, interleave and replay each need the whole trace.
        sample["store.decode_ratio"] = decoded / (3.0 * records);
        layers.push_back(std::move(sample));
    }

    reader.reset();
    std::filesystem::remove(path);

    result.end_to_end = endToEndMetrics(e2e);
    if (options.trace) {
        layers.push_back(tracingOverhead(traced_ms, untraced_ms));
        result.per_layer = perLayerMedians(layers);
    }
    result.notes.push_back(
        "offline_gcc_sharded: " + std::to_string(e2e.mrec_s.size()) +
        " passes, " + std::to_string(shards) + " shards on " +
        std::to_string(options.workers) + " threads");
    return result;
}

namespace
{

/** One suite cell: one input of a preset or graph workload. */
struct SuiteCell
{
    std::string label; ///< workload name and input index, e.g. "ss#2"
    std::shared_ptr<const Workload> synthetic;        ///< one of
    std::shared_ptr<const graph::GraphWorkload> graphwl; ///< these
    ExecutorConfig config; ///< the preset run's budget and input seed

    std::unique_ptr<TraceSource>
    source() const
    {
        if (graphwl)
            return std::make_unique<graph::GraphTraceSource>(
                graphwl->graph, graphwl->config);
        return std::make_unique<WorkloadTraceSource>(synthetic->program,
                                                     config);
    }
};

/**
 * The suite's cells: kSuiteInputs inputs of every preset but gcc and
 * of two graph kernels, input-major so that a sweep in cell order
 * interleaves light and heavy workloads.
 */
std::vector<SuiteCell>
makeSuite(const Options &options)
{
    const double scale = suiteScale(options);
    std::vector<std::shared_ptr<const Workload>> presets;
    for (const std::string &name : presetNames())
        if (name != "gcc")
            presets.push_back(
                std::make_shared<Workload>(pinnedPreset(name, scale)));

    std::vector<SuiteCell> cells;
    for (int input = 0; input < kSuiteInputs; ++input) {
        std::string tag = std::to_string(input);
        tag.insert(tag.begin(), '#');
        for (const auto &preset : presets) {
            SuiteCell cell{preset->name + tag, preset, nullptr,
                           preset->config};
            cell.config.input_seed = inputSeed(options.seed, cell.label);
            cells.push_back(std::move(cell));
        }
        for (const char *family :
             {"graph:bfs:powerlaw", "graph:pagerank:powerlaw"}) {
            const std::string label = std::string(family) + tag;
            const std::string spec =
                std::string(family) + ":seed=" +
                std::to_string(inputSeed(options.seed, label));
            cells.push_back({label, nullptr,
                             std::make_shared<graph::GraphWorkload>(
                                 graph::makeGraphWorkload(spec, "", scale)),
                             {}});
        }
    }
    return cells;
}

/** One suite pass: every cell's flow on a @p workers sweep. */
struct SuitePass
{
    std::vector<FlowRun> runs;
    std::vector<exec::CellTiming> timings;
    double wall_ms = 0.0;
};

SuitePass
runSuitePass(const std::vector<SuiteCell> &cells, unsigned workers,
             Ledger *ledger)
{
    SuitePass pass;
    pass.runs.resize(cells.size());
    exec::SweepRunner runner(workers);
    Clock::time_point start = Clock::now();
    {
        Ledger::Scope scope(ledger, "bench.pass");
        const std::uint32_t parent = scope.id();
        pass.timings =
            runner.run(cells.size(), [&](const exec::SweepCell &cell) {
                Ledger::Scope span(ledger, "exec.cell", parent);
                std::unique_ptr<TraceSource> source =
                    cells[cell.index].source();
                pass.runs[cell.index] = runFlow(*source, 1, 1, ledger);
            });
    }
    pass.wall_ms = msSince(start);
    return pass;
}

} // namespace

RunResult
runOfflineSuite(const Options &options, Ledger &ledger)
{
    RunResult result;
    EndToEndSamples e2e;

    std::vector<SuiteCell> cells;
    CellDigests oracle;
    for (int rep = 0; rep < kSetupRepetitions; ++rep) {
        Clock::time_point start = Clock::now();
        cells = makeSuite(options);
        SuitePass serial = runSuitePass(cells, 1, nullptr);
        for (std::size_t i = 0; i < cells.size(); ++i)
            oracle[cells[i].label] = serial.runs[i].digest();
        SuitePass warm = runSuitePass(cells, options.workers, nullptr);
        for (std::size_t i = 0; i < cells.size(); ++i)
            checkPass(cells[i].label + " warm-up", warm.runs[i],
                      oracle[cells[i].label], result);
        e2e.setup_s.push_back(secondsSince(start));
    }
    checkReference(options, oracle, result);

    std::vector<LayerSample> layers;
    std::vector<double> traced_ms, untraced_ms;
    std::vector<std::vector<double>> cell_ms(cells.size());
    Clock::time_point begin = Clock::now();
    for (std::uint64_t pass = 0; secondsSince(begin) < options.seconds;
         ++pass) {
        const bool traced = options.trace && pass % 2 == 0;
        SuitePass p =
            runSuitePass(cells, options.workers, traced ? &ledger : nullptr);

        double records = 0.0;
        for (std::size_t i = 0; i < cells.size(); ++i) {
            checkPass(cells[i].label, p.runs[i], oracle[cells[i].label],
                      result);
            records += static_cast<double>(p.runs[i].records);
            e2e.write.add(i, p.runs[i].writeMs());
            e2e.read.add(i, p.runs[i].readMs());
        }
        e2e.mrec_s.push_back(records / p.wall_ms / 1000.0);
        for (const exec::CellTiming &t : p.timings)
            cell_ms[t.index].push_back(t.millis);
        if (!options.trace)
            continue;
        (traced ? traced_ms : untraced_ms).push_back(p.wall_ms);
        if (!traced)
            continue;

        LayerSample sample;
        for (const FlowRun &run : p.runs)
            addFlowLayers(sample, run);
        addExecLayers(sample, p.timings, options.workers, p.wall_ms);
        // The executors run inside the flow's calls; their cost is
        // measured by a generation-only replay of each cell, times
        // the three replays a flow makes (statistics, interleave,
        // predictor replay).
        double gen_ms = 0.0;
        for (const SuiteCell &cell : cells)
            gen_ms += replayProbeMs(*cell.source(), &ledger,
                                    "workload.gen_probe");
        sample["workload.gen_ms"] = 3.0 * gen_ms;
        sample["workload.records"] = 3.0 * records;
        layers.push_back(std::move(sample));
    }

    result.end_to_end = endToEndMetrics(e2e);
    if (options.trace) {
        layers.push_back(tracingOverhead(traced_ms, untraced_ms));
        result.per_layer = perLayerMedians(layers);
    }
    result.notes.push_back(
        "offline_suite: " + std::to_string(e2e.mrec_s.size()) +
        " passes of " + std::to_string(cells.size()) + " cells on " +
        std::to_string(options.workers) + " workers");
    // Median cell time of every workload, summed over its inputs.
    std::vector<std::pair<std::string, double>> per_workload;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        std::string name = cells[i].label.substr(0, cells[i].label.find('#'));
        auto it = std::find_if(per_workload.begin(), per_workload.end(),
                               [&](const auto &w) { return w.first == name; });
        if (it == per_workload.end())
            it = per_workload.insert(per_workload.end(), {name, 0.0});
        it->second += median(cell_ms[i]);
    }
    std::string line = "offline_suite ms per workload (all inputs):";
    for (const auto &[name, ms] : per_workload)
        line += " " + name + "=" + std::to_string(static_cast<int>(ms));
    result.notes.push_back(line);
    return result;
}

} // namespace perfbench
